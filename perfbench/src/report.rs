//! Turning samples, spans and counter deltas into the named metrics.

use crate::layers::{LayerTimes, ObsCosts};
use crate::probe::Span;
use crate::stats::{median, quantile, ratio, Latencies};
use cffs::obs::prof::Attribution;
use cffs::obs::{Ctr, StatsSnapshot};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One measured unit of work: calls completed, host and simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub calls: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
}

/// Windows of one kind (untraced or traced), folded as they complete so
/// a run's memory does not grow with the number of windows it measures.
#[derive(Default)]
pub struct Acc {
    pub windows: Vec<Window>,
    pub lat: Latencies,
    /// Counter delta summed over the windows.
    pub delta: Option<StatsSnapshot>,
}

impl Acc {
    pub fn add(&mut self, window: Window, lat: &Latencies, delta: &StatsSnapshot) {
        self.windows.push(window);
        self.lat.merge(lat);
        self.delta = Some(match self.delta.take() {
            Some(d) => d.merge(delta),
            None => delta.clone(),
        });
    }
}

/// Determinism self-check: repetitions of the same simulated work must
/// leave the same fingerprint (calls, simulated window time, simulated
/// p99, disk requests).
#[derive(Default)]
pub struct SameWork {
    first: Option<[u64; 4]>,
    seen: usize,
}

impl SameWork {
    pub fn check(
        &mut self,
        rec: &crate::probe::Recorder,
        window: &Window,
        lat: &Latencies,
        delta: &StatsSnapshot,
    ) {
        let fp = [
            window.calls,
            window.sim_ns,
            lat.sim_q(0.99),
            delta.get(Ctr::DiskRequests),
        ];
        self.seen += 1;
        match self.first {
            None => self.first = Some(fp),
            Some(first) => {
                rec.attempt();
                if fp != first {
                    rec.fail(format!(
                        "repetition {} is not deterministic: (calls, sim ns, sim p99 ns, disk reqs) {fp:?} vs {first:?}",
                        self.seen
                    ));
                }
            }
        }
    }
}

/// The end-to-end metrics, from untraced windows and their calls'
/// latencies. Rates are pooled over all windows (total calls over total
/// time), which averages out the host's speed swings better than a
/// median of windows. Figures on the simulated clock carry `sim_` units:
/// they are exact functions of the seeded inputs, not wall-clock
/// readings.
pub fn end_to_end(acc: &Acc, setups: &[f64]) -> Vec<Metric> {
    let (windows, lat) = (&acc.windows, &acc.lat);
    let calls: u64 = windows.iter().map(|w| w.calls).sum();
    let host_s: f64 = windows.iter().map(|w| w.host_ns as f64 / 1e9).sum();
    let sim_s: f64 = windows.iter().map(|w| w.sim_ns as f64 / 1e9).sum();
    println!(
        "latency samples (calls in the measured windows): {}",
        lat.count()
    );
    vec![
        metric("host_ops_per_s", ratio(calls as f64, host_s), "1/s"),
        metric("host_op_p50_us", lat.host_q(0.50) as f64 / 1e3, "us"),
        metric("host_op_p99_us", lat.host_q(0.99) as f64 / 1e3, "us"),
        metric("sim_ops_per_s", ratio(calls as f64, sim_s), "1/sim_s"),
        metric("sim_op_p99_ms", lat.sim_q(0.99) as f64 / 1e6, "sim_ms"),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB"),
    ]
}

/// The FS-call kinds reported per layer (`core.<op>.*`).
const CORE_OPS: [&str; 7] = [
    "create", "write", "lookup", "read", "getattr", "unlink", "sync",
];

/// Everything the per-layer metrics are derived from.
pub struct LayerInputs<'a> {
    /// All spans of the traced windows (call spans plus outer spans).
    pub spans: &'a [Span],
    /// The traced windows; their counter delta is summed over every
    /// registry that serves requests (the volumes of a set).
    pub traced: &'a Acc,
    /// The untraced windows of the same run, for the tracing overhead.
    pub untraced: &'a Acc,
    /// Disk requests per volume in the same windows.
    pub vol_reqs: Vec<u64>,
    /// Directory fan-outs and FS calls over the whole round (fan-outs
    /// happen at mkdir time, before any measured window).
    pub round_fanouts: u64,
    pub round_calls: u64,
    pub times: LayerTimes,
    pub obs: ObsCosts,
    pub regroup_host_ms: f64,
    pub regroup_blocks_moved: u64,
}

pub fn per_layer(i: &LayerInputs) -> Vec<Metric> {
    let mut out = Vec::new();
    let calls: Vec<&Span> = i
        .spans
        .iter()
        .filter(|s| crate::probe::Op::ALL.iter().any(|o| o.name() == s.name))
        .collect();
    for op in CORE_OPS {
        let mut host: Vec<u64> = calls
            .iter()
            .filter(|s| s.name == op)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        host.sort_unstable();
        let mut sim: Vec<u64> = calls
            .iter()
            .filter(|s| s.name == op)
            .map(|s| s.sim_ns)
            .collect();
        sim.sort_unstable();
        out.push(metric(
            format!("core.{op}.host_p50_us"),
            quantile(&host, 0.50) as f64 / 1e3,
            "us",
        ));
        out.push(metric(
            format!("core.{op}.host_p99_us"),
            quantile(&host, 0.99) as f64 / 1e3,
            "us",
        ));
        out.push(metric(
            format!("core.{op}.calls"),
            host.len() as f64,
            "count",
        ));
        out.push(metric(
            format!("core.{op}.sim_p99_ms"),
            quantile(&sim, 0.99) as f64 / 1e6,
            "sim_ms",
        ));
    }
    let n = calls.len() as f64;
    let d = i
        .traced
        .delta
        .as_ref()
        .expect("trace mode measures traced windows");
    let get = |c: Ctr| d.get(c) as f64;
    let reqs = get(Ctr::DiskRequests);
    let sectors = (get(Ctr::DiskBytesRead) + get(Ctr::DiskBytesWritten)) / 512.0;
    let attr = Attribution::from_delta(d);
    out.push(metric("disksim.reqs_per_op", ratio(reqs, n), "count"));
    out.push(metric(
        "disksim.sectors_per_req",
        ratio(sectors, reqs),
        "count",
    ));
    out.push(metric(
        "disksim.disk.host_ns_per_req",
        i.times.disk_ns_per_req,
        "ns",
    ));
    out.push(metric(
        "disksim.driver.host_ns_per_req",
        i.times.driver_ns_per_req,
        "ns",
    ));
    out.push(metric(
        "disksim.sim_queue_pct",
        attr.pct(attr.queue_ns),
        "%",
    ));
    out.push(metric(
        "disksim.sim_service_pct",
        attr.pct(attr.service_ns),
        "%",
    ));
    out.push(metric(
        "disksim.lock_wait_ns_per_op",
        ratio(get(Ctr::LockWaitNsDriver), n),
        "ns",
    ));
    out.push(metric(
        "cache.lock_wait_ns_per_op",
        ratio(get(Ctr::LockWaitNsCache), n),
        "ns",
    ));
    out.push(metric(
        "core.alloc_lock_wait_ns_per_op",
        ratio(get(Ctr::LockWaitNsAlloc), n),
        "ns",
    ));
    let hits = get(Ctr::CachePhysHits) + get(Ctr::CacheLogicalHits);
    out.push(metric(
        "cache.hit_pct",
        100.0 * ratio(hits, hits + get(Ctr::CacheMisses)),
        "%",
    ));
    let used = get(Ctr::GroupFetchBlocksUsed);
    let wasted = get(Ctr::GroupFetchBlocksWasted);
    out.push(metric(
        "cache.group_fetch_util_pct",
        100.0 * ratio(used, used + wasted),
        "%",
    ));
    out.push(metric(
        "cache.writebacks_per_op",
        ratio(get(Ctr::CacheWritebacks), n),
        "count",
    ));
    out.push(metric(
        "cache.sync_flushes_per_op",
        ratio(get(Ctr::CacheSyncFlushes), n),
        "count",
    ));
    out.push(metric(
        "cache.read_block_hit_ns",
        i.times.read_block_hit_ns,
        "ns",
    ));
    let dhits = get(Ctr::DcacheHits) + get(Ctr::DcacheNegHits);
    out.push(metric(
        "dcache.hit_pct",
        100.0 * ratio(dhits, dhits + get(Ctr::DcacheMisses)),
        "%",
    ));
    out.push(metric(
        "dcache.lookup_hit_ns",
        i.times.dcache_lookup_hit_ns,
        "ns",
    ));
    out.push(metric(
        "volume.fanouts_per_op",
        ratio(i.round_fanouts as f64, i.round_calls as f64),
        "count",
    ));
    out.push(metric(
        "volume.stripe_part_ios_per_op",
        ratio(get(Ctr::VolStripePartIos), n),
        "count",
    ));
    let max = i.vol_reqs.iter().copied().max().unwrap_or(0) as f64;
    let mean = i.vol_reqs.iter().sum::<u64>() as f64 / i.vol_reqs.len().max(1) as f64;
    out.push(metric("volume.req_imbalance", ratio(max, mean), "ratio"));
    out.push(metric("obs.set_clock_ns", i.obs.set_clock_ns, "ns"));
    out.push(metric("obs.clock_ns", i.obs.clock_ns, "ns"));
    out.push(metric("obs.span_ns", i.obs.span_ns, "ns"));
    out.push(metric("obs.trace_ns", i.obs.trace_ns, "ns"));
    out.push(metric("obs.snapshot_us", i.obs.snapshot_us, "us"));
    out.push(metric(
        "obs.trace_overhead_pct",
        trace_overhead_pct(&i.untraced.windows, &i.traced.windows),
        "%",
    ));
    out.push(metric("regroup.host_ms", i.regroup_host_ms, "ms"));
    out.push(metric(
        "regroup.blocks_moved",
        i.regroup_blocks_moved as f64,
        "count",
    ));
    out
}

/// Host time of traced windows against untraced ones, per call, in
/// percent (medians of each side).
fn trace_overhead_pct(untraced: &[Window], traced: &[Window]) -> f64 {
    let per_call = |ws: &[Window]| {
        median(
            &ws.iter()
                .map(|w| ratio(w.host_ns as f64, w.calls as f64))
                .collect::<Vec<_>>(),
        )
    };
    100.0 * (ratio(per_call(traced), per_call(untraced)) - 1.0)
}
