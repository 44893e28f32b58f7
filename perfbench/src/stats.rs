//! Small numeric helpers: a seeded generator, latency tallies,
//! quantiles, medians.

use std::collections::HashMap;

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fully determines every generated name and payload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A file name of seeded length and letters, made unique by `i`.
    /// Name lengths decide how many entries share a directory block, so
    /// the seed varies the directory layout as well as the data.
    pub fn name(&mut self, i: usize) -> String {
        let len = 4 + self.below(17) as usize;
        let mut s: String = (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect();
        s.push_str(&i.to_string());
        s
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Per-call latencies on both clocks, kept as exact value → count
/// tallies: quantiles are exact over every call, and memory grows with
/// the number of distinct values, not with the number of calls, so a
/// faster build does not raise the run's peak RSS.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    host: HashMap<u64, u64>,
    sim: HashMap<u64, u64>,
}

impl Latencies {
    pub fn add(&mut self, host_ns: u64, sim_ns: u64) {
        *self.host.entry(host_ns).or_default() += 1;
        *self.sim.entry(sim_ns).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (&v, &n) in &other.host {
            *self.host.entry(v).or_default() += n;
        }
        for (&v, &n) in &other.sim {
            *self.sim.entry(v).or_default() += n;
        }
    }

    pub fn count(&self) -> u64 {
        self.host.values().sum()
    }

    /// Nearest-rank quantile of the host latencies, nanoseconds.
    pub fn host_q(&self, q: f64) -> u64 {
        tally_quantile(&self.host, q)
    }

    /// Nearest-rank quantile of the simulated latencies, nanoseconds.
    pub fn sim_q(&self, q: f64) -> u64 {
        tally_quantile(&self.sim, q)
    }
}

fn tally_quantile(t: &HashMap<u64, u64>, q: f64) -> u64 {
    let total: u64 = t.values().sum();
    if total == 0 {
        return 0;
    }
    let mut vals: Vec<(u64, u64)> = t.iter().map(|(&v, &n)| (v, n)).collect();
    vals.sort_unstable();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (v, n) in vals {
        seen += n;
        if seen >= rank {
            return v;
        }
    }
    unreachable!("rank is at most the total count")
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
