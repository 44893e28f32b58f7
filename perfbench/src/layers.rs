//! Direct-call timers for single layers, through public APIs only.
//!
//! Each timer runs a batch of calls between two `Instant` reads and
//! divides; the reported figure is the median of several batches. Every
//! batch is recorded as one outer span, so the trace shows where the
//! traced run spent its time.

use crate::probe::Recorder;
use crate::stats::median;
use cffs::cache::{BufferCache, CacheConfig};
use cffs::disksim::{
    models, Disk, DiskModel, Driver, DriverConfig, SimTime, TraceEntry, SECTOR_SIZE,
};
use cffs::obs::{Obs, OpKind};
use cffs_dcache::{Dcache, DcacheAnswer};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 7;
/// Requests of a captured stream replayed through `Disk` and `Driver`.
const REPLAY_CAP: usize = 20_000;

/// Host cost of one call of each directly timed layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub disk_ns_per_req: f64,
    pub driver_ns_per_req: f64,
    pub read_block_hit_ns: f64,
    pub dcache_lookup_hit_ns: f64,
}

/// Host cost of the observability primitives on a mounted stack's `Obs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsCosts {
    pub set_clock_ns: f64,
    pub clock_ns: f64,
    pub span_ns: f64,
    pub trace_ns: f64,
    pub snapshot_us: f64,
}

/// Every direct timer, in one traced-run step: the replay of `stream`
/// on fresh `model` disks, the cache and dcache hit paths (the dcache on
/// the `namei-warm` sample names of `seed`), and the obs primitives on
/// the mounted stack's `obs`.
pub fn time_all(
    rec: &Recorder,
    stream: &[TraceEntry],
    model: &DiskModel,
    seed: u64,
    obs: &Arc<Obs>,
) -> (LayerTimes, ObsCosts) {
    let _s = rec.open("layers");
    let (disk_ns_per_req, driver_ns_per_req) = replay(rec, stream, model, REPLAY_CAP);
    let times = LayerTimes {
        disk_ns_per_req,
        driver_ns_per_req,
        read_block_hit_ns: read_block_hit_ns(rec),
        dcache_lookup_hit_ns: dcache_lookup_hit_ns(rec, &crate::namei_warm::sample_keys(seed)),
    };
    (times, obs_costs(rec, obs))
}

/// Median over `BATCHES` runs of `body` (which performs `n` calls) of
/// the host nanoseconds per call.
fn per_call_ns(rec: &Recorder, name: &'static str, n: usize, mut body: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let _s = rec.open(name);
        let t0 = Instant::now();
        body();
        v.push(t0.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    median(&v)
}

/// Replay a captured request stream, at most `cap` requests of it,
/// through `Disk::read/write` and through `Driver::read/write`, each on
/// a fresh disk of `model`. The difference between the two per-request
/// costs is the hand-off to the driver's worker thread.
fn replay(rec: &Recorder, stream: &[TraceEntry], model: &DiskModel, cap: usize) -> (f64, f64) {
    let stream = &stream[..stream.len().min(cap)];
    if stream.is_empty() {
        return (0.0, 0.0);
    }
    let max = stream.iter().map(|e| e.sectors).max().unwrap_or(1) as usize;
    let mut buf = vec![0u8; max * SECTOR_SIZE];
    let n = stream.len() as f64;

    let disk_ns = {
        let mut disk = Disk::new(model.clone());
        let _s = rec.open("replay.disk");
        let t0 = Instant::now();
        let mut now = SimTime::ZERO;
        for e in stream {
            let b = &mut buf[..e.sectors as usize * SECTOR_SIZE];
            now = if e.write {
                disk.write(now, e.lba, b)
            } else {
                disk.read(now, e.lba, b)
            };
        }
        black_box(now);
        t0.elapsed().as_nanos() as f64 / n
    };
    let driver_ns = {
        let drv = Driver::new(Disk::new(model.clone()), DriverConfig::default());
        let _s = rec.open("replay.driver");
        let t0 = Instant::now();
        for e in stream {
            let b = &mut buf[..e.sectors as usize * SECTOR_SIZE];
            if e.write {
                drv.write(e.lba, b);
            } else {
                drv.read(e.lba, b);
            }
        }
        t0.elapsed().as_nanos() as f64 / n
    };
    (disk_ns, driver_ns)
}

/// `BufferCache::read_block` on blocks already resident.
fn read_block_hit_ns(rec: &Recorder) -> f64 {
    const BLOCKS: u64 = 1024;
    let drv = Driver::new(Disk::new(models::tiny_test_disk()), DriverConfig::default());
    let cache = BufferCache::new(CacheConfig::default());
    for b in 0..BLOCKS {
        black_box(cache.read_block(&drv, b).expect("read into an empty cache"));
    }
    let ns = per_call_ns(rec, "layer.cache.read_block", BLOCKS as usize * 16, || {
        for _ in 0..16 {
            for b in 0..BLOCKS {
                black_box(
                    cache
                        .read_block(&drv, black_box(b))
                        .expect("resident block"),
                );
            }
        }
    });
    if cache.resident() != BLOCKS as usize {
        rec.fail(format!(
            "read_block timer: {} of {BLOCKS} blocks resident",
            cache.resident()
        ));
    }
    ns
}

/// `Dcache::lookup` hits on the given `(parent, name)` keys.
fn dcache_lookup_hit_ns(rec: &Recorder, keys: &[(u64, String)]) -> f64 {
    let dc = Dcache::new(keys.len().next_power_of_two() * 2);
    for (i, (dir, name)) in keys.iter().enumerate() {
        dc.insert_pos(*dir, name, 1_000_000 + i as u64);
    }
    let mut missed = 0usize;
    let ns = per_call_ns(rec, "layer.dcache.lookup", keys.len() * 4, || {
        for _ in 0..4 {
            for (dir, name) in keys {
                if !matches!(
                    dc.lookup(black_box(*dir), black_box(name)),
                    DcacheAnswer::Pos(_)
                ) {
                    missed += 1;
                }
            }
        }
    });
    if missed > 0 {
        rec.fail(format!(
            "dcache timer: {missed} probes of inserted keys missed"
        ));
    }
    ns
}

/// The obs primitives, on the stack's own registry. Run after the
/// measured windows: spans are opened as `statfs`, an op kind no
/// workload issues, so the workload's own op histograms stay clean.
fn obs_costs(rec: &Recorder, obs: &Arc<Obs>) -> ObsCosts {
    const N: usize = 20_000;
    let t = obs.clock_ns();
    ObsCosts {
        set_clock_ns: per_call_ns(rec, "layer.obs.set_clock_ns", N, || {
            for _ in 0..N {
                obs.set_clock_ns(black_box(t));
            }
        }),
        clock_ns: per_call_ns(rec, "layer.obs.clock_ns", N, || {
            for _ in 0..N {
                black_box(obs.clock_ns());
            }
        }),
        span_ns: per_call_ns(rec, "layer.obs.span", N, || {
            for _ in 0..N {
                drop(black_box(obs.span(OpKind::Statfs)));
            }
        }),
        trace_ns: per_call_ns(rec, "layer.obs.trace", N, || {
            for i in 0..N {
                obs.trace(t, "bench.probe", black_box(i as u64), 0);
            }
        }),
        snapshot_us: per_call_ns(rec, "layer.obs.snapshot", 50, || {
            for _ in 0..50 {
                black_box(obs.snapshot("bench", t));
            }
        }) / 1e3,
    }
}
