//! A PostMark-style workload.
//!
//! PostMark (Katcher, 1997 — the same year as C-FFS) became the standard
//! small-file benchmark for exactly the workloads the paper targets:
//! mail, news and web servers dominated by short-lived small files. The
//! shape: create an initial pool of files across subdirectories, run a
//! long sequence of *transactions* (each a create-or-delete paired with a
//! read-or-append, against random files), then delete everything.
//!
//! This is the steady-state counterpart of the paper's four-phase
//! micro-benchmark: instead of bulk phases it interleaves operations the
//! way a server does, so grouping has to win while groups churn.

use crate::runner::{cold_boundary, measure, PhaseResult};
use crate::sizes::SizeDist;
use cffs_fslib::{FileSystem, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PostMark parameters.
#[derive(Debug, Clone, Copy)]
pub struct PostmarkParams {
    /// Initial file pool size.
    pub nfiles: usize,
    /// Subdirectories the pool is spread over.
    pub ndirs: usize,
    /// Transactions to run.
    pub transactions: usize,
    /// Minimum file size in bytes.
    pub min_size: usize,
    /// Maximum file size in bytes.
    pub max_size: usize,
    /// RNG seed. Every payload is a pure function of `(seed, serial)`
    /// (like `SmallFileParams::seed`), so two runs with equal parameters
    /// are byte-identical end to end — same data, same block layout, same
    /// disk requests, same trace timeline.
    pub seed: u64,
}

impl Default for PostmarkParams {
    /// Classic PostMark defaults, scaled to the simulated testbed:
    /// 2 500 files of 0.5–10 KB across 50 directories, 10 000 transactions.
    fn default() -> Self {
        PostmarkParams {
            nfiles: 2500,
            ndirs: 50,
            transactions: 10_000,
            min_size: 512,
            max_size: 10_240,
            seed: 1997,
        }
    }
}

impl PostmarkParams {
    /// Scaled-down configuration for tests.
    pub fn small() -> Self {
        PostmarkParams {
            nfiles: 120,
            ndirs: 6,
            transactions: 400,
            min_size: 512,
            max_size: 4096,
            seed: 7,
        }
    }
}

/// Deterministic payload: a fixed-seed PRNG stream keyed by
/// `(seed, serial)`, so every file's bytes are reproducible without
/// storing them.
fn payload(seed: u64, serial: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ serial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

struct Uniform {
    lo: usize,
    hi: usize,
}

impl SizeDist for Uniform {
    fn sample(&self, rng: &mut impl Rng) -> usize {
        rng.gen_range(self.lo..=self.hi)
    }
}

/// Run the benchmark; returns one [`PhaseResult`] per phase
/// (`pm-create`, `pm-transactions`, `pm-delete`).
pub fn run(
    fs: &mut (impl FileSystem + ?Sized),
    params: PostmarkParams,
) -> FsResult<Vec<PhaseResult>> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let sizes = Uniform { lo: params.min_size, hi: params.max_size };
    let root = fs.root();
    let mut dirs: Vec<Ino> = Vec::with_capacity(params.ndirs);
    for d in 0..params.ndirs {
        dirs.push(fs.mkdir(root, &format!("pm{d:03}"))?);
    }
    // Live pool: (dir index, name, size).
    let mut pool: Vec<(usize, String, usize)> = Vec::new();
    let mut serial = 0u64;
    let mut results = Vec::with_capacity(3);

    // Phase 1: build the initial pool.
    let mut created_bytes = 0u64;
    {
        let pool_ref = &mut pool;
        let rng_ref = &mut rng;
        let serial_ref = &mut serial;
        results.push(measure(fs, "pm-create", params.nfiles as u64, 0, |fs| {
            for _ in 0..params.nfiles {
                let d = rng_ref.gen_range(0..params.ndirs);
                let size = sizes.sample(rng_ref);
                let s = *serial_ref;
                *serial_ref += 1;
                let name = format!("m{s:08}");
                let ino = fs.create(dirs[d], &name)?;
                fs.write(ino, 0, &payload(params.seed, s, size))?;
                created_bytes += size as u64;
                pool_ref.push((d, name, size));
            }
            Ok(())
        })?);
    }
    results.last_mut().expect("just pushed").bytes = created_bytes;
    cold_boundary(fs)?;

    // Phase 2: transactions.
    let mut tx_bytes = 0u64;
    {
        let pool_ref = &mut pool;
        let rng_ref = &mut rng;
        let serial_ref = &mut serial;
        results.push(measure(fs, "pm-transactions", params.transactions as u64, 0, |fs| {
            let mut buf = vec![0u8; params.max_size];
            for _ in 0..params.transactions {
                // Half A: create or delete.
                if rng_ref.gen_bool(0.5) || pool_ref.is_empty() {
                    let d = rng_ref.gen_range(0..params.ndirs);
                    let size = sizes.sample(rng_ref);
                    let s = *serial_ref;
                    *serial_ref += 1;
                    let name = format!("m{s:08}");
                    let ino = fs.create(dirs[d], &name)?;
                    fs.write(ino, 0, &payload(params.seed, s, size))?;
                    tx_bytes += size as u64;
                    pool_ref.push((d, name, size));
                } else {
                    let idx = rng_ref.gen_range(0..pool_ref.len());
                    let (d, name, _) = pool_ref.swap_remove(idx);
                    fs.unlink(dirs[d], &name)?;
                }
                // Half B: read or append an existing file.
                if pool_ref.is_empty() {
                    continue;
                }
                let idx = rng_ref.gen_range(0..pool_ref.len());
                if rng_ref.gen_bool(0.5) {
                    let (d, name, size) = &pool_ref[idx];
                    let ino = fs.lookup(dirs[*d], name)?;
                    buf.resize(*size, 0); // appends grow files past max_size
                    let n = fs.read(ino, 0, &mut buf)?;
                    tx_bytes += n as u64;
                } else {
                    let (d, name, size) = pool_ref[idx].clone();
                    let ino = fs.lookup(dirs[d], &name)?;
                    let add = rng_ref.gen_range(64..=1024);
                    let s = *serial_ref;
                    *serial_ref += 1;
                    fs.write(ino, size as u64, &payload(params.seed, s, add))?;
                    tx_bytes += add as u64;
                    pool_ref[idx].2 = size + add;
                }
            }
            Ok(())
        })?);
    }
    results.last_mut().expect("just pushed").bytes = tx_bytes;
    cold_boundary(fs)?;

    // Phase 3: delete everything.
    let n = pool.len() as u64;
    results.push(measure(fs, "pm-delete", n, 0, |fs| {
        for (d, name, _) in pool.drain(..) {
            fs.unlink(dirs[d], &name)?;
        }
        for (d, dir) in dirs.iter().enumerate() {
            let _ = dir;
            fs.rmdir(root, &format!("pm{d:03}"))?;
        }
        Ok(())
    })?);
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;
    use cffs_fslib::ConcurrentFs;

    #[test]
    fn postmark_runs_and_cleans_up() {
        let mut fs = ModelFs::new();
        let rs = run(&mut fs, PostmarkParams::small()).unwrap();
        let phases: Vec<&str> = rs.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(phases, vec!["pm-create", "pm-transactions", "pm-delete"]);
        assert!(fs.readdir(fs.root()).unwrap().is_empty(), "everything deleted");
        assert!(rs[1].items == 400);
    }

    #[test]
    fn postmark_is_deterministic() {
        let run_once = || {
            let mut fs = ModelFs::new();
            let rs = run(&mut fs, PostmarkParams::small()).unwrap();
            (rs[0].bytes, rs[1].bytes, rs[2].items)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn payload_is_pure_in_seed_and_serial() {
        assert_eq!(payload(7, 3, 64), payload(7, 3, 64));
        assert_ne!(payload(7, 3, 64), payload(7, 4, 64));
        assert_ne!(payload(7, 3, 64), payload(8, 3, 64), "seed changes the stream");
    }

}
