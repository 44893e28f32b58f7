//! `smallfile`: the paper's four-phase micro-benchmark on C-FFS.
//!
//! 10 000 files of 1 KB, assigned round-robin over 100 directories, with
//! synchronous metadata: create+write, read, overwrite, delete, each
//! phase ending in `sync` and separated by a cache drop, so every phase
//! starts cold. The blocks touched (≈40 MB with metadata) exceed the
//! 16 MB default buffer cache, so the path is disk-bound: group reads,
//! the driver hand-off and disk service. Each round formats a fresh
//! file system, so every round repeats the same simulated work exactly.

use crate::layers;
use crate::probe::{Probe, Recorder, Span};
use crate::report::{self, Acc, LayerInputs, Metric, SameWork, Window};
use crate::stats::{Latencies, Rng};
use crate::{Args, Clock};
use cffs::core::{fsck, Cffs, CffsConfig};
use cffs::disksim::{models, TraceEntry};
use cffs::fslib::{ConcurrentFs, Ino, MetadataMode};
use cffs::obs::{Ctr, Obs, StatsSnapshot};
use std::sync::Arc;
use std::time::Instant;

const NFILES: usize = 10_000;
const FILE_SIZE: usize = 1024;
const NDIRS: usize = 100;
/// Traced rounds per trace-mode run.
const TRACED_ROUNDS: usize = 2;

/// Names, directory order and payloads, generated before any timing
/// starts.
struct Inputs {
    names: Vec<String>,
    /// File `i` lives in directory `(first + i) % NDIRS`: round-robin in
    /// creation order from a seeded first directory, so the seed moves
    /// where the sweep wraps (and the simulated figures a little), not
    /// only the bytes.
    first: usize,
    initial: Vec<Vec<u8>>,
    overwrite: Vec<Vec<u8>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let names = (0..NFILES).map(|i| rng.name(i)).collect();
    let first = rng.below(NDIRS as u64) as usize;
    let mut payload = || {
        let mut v = vec![0u8; FILE_SIZE];
        rng.fill(&mut v);
        v
    };
    let initial = (0..NFILES).map(|_| payload()).collect();
    let overwrite = (0..NFILES).map(|_| payload()).collect();
    Inputs {
        names,
        first,
        initial,
        overwrite,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Create,
    Read,
    Overwrite,
    Delete,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Create => "phase.create",
            Phase::Read => "phase.read",
            Phase::Overwrite => "phase.overwrite",
            Phase::Delete => "phase.delete",
        }
    }
}

fn body(fs: &Probe<'_, Cffs>, rec: &Recorder, inp: &Inputs, dirs: &[Ino], phase: Phase) {
    let mut buf = vec![0u8; FILE_SIZE];
    for i in 0..NFILES {
        rec.begin_request();
        let (dir, name) = (dirs[(inp.first + i) % NDIRS], inp.names[i].as_str());
        // A failed step skips the rest of this file's request.
        let r = match phase {
            Phase::Create => fs
                .create(dir, name)
                .and_then(|ino| fs.write(ino, 0, &inp.initial[i])),
            Phase::Read => fs
                .lookup(dir, name)
                .and_then(|ino| fs.read(ino, 0, &mut buf)),
            Phase::Overwrite => fs
                .lookup(dir, name)
                .and_then(|ino| fs.write(ino, 0, &inp.overwrite[i])),
            Phase::Delete => fs.unlink(dir, name).map(|_| 0),
        };
        if let Err(e) = r {
            rec.fail(format!("{} of {name}: {e:?}", phase.name()));
        }
    }
    rec.end_request();
    if let Err(e) = fs.sync() {
        rec.fail(format!("sync after {}: {e:?}", phase.name()));
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    window: Window,
    lat: Latencies,
    delta: StatsSnapshot,
    stream: Vec<TraceEntry>,
    obs: Arc<Obs>,
}

fn round(rec: &Recorder, inp: &Inputs, traced: bool) -> Round {
    let t0 = Instant::now();
    let fs = cffs::build::on_disk(
        models::seagate_st31200(),
        CffsConfig::cffs().with_mode(MetadataMode::Synchronous),
    );
    rec.reset_shadow();
    let fs = Probe::new(fs, rec);
    let root = fs.root();
    let dirs: Vec<Ino> = (0..NDIRS)
        .map(|d| {
            fs.mkdir(root, &format!("d{d}")).unwrap_or_else(|e| {
                rec.fail(format!("mkdir d{d}: {e:?}"));
                0
            })
        })
        .collect();
    if let Err(e) = fs.inner().drop_caches() {
        rec.fail(format!("drop_caches after setup: {e:?}"));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let obs = fs.inner().obs();
    fs.inner().set_disk_trace(traced);
    rec.set_tracing(traced);
    let workload = rec.open("workload.smallfile");
    let mut window = Window {
        calls: 0,
        host_ns: 0,
        sim_ns: 0,
    };
    let mut delta: Option<StatsSnapshot> = None;
    for phase in [Phase::Create, Phase::Read, Phase::Overwrite, Phase::Delete] {
        let before = obs.snapshot("smallfile", fs.now().as_nanos());
        let (calls0, sim0) = (rec.attempted(), fs.now().as_nanos());
        rec.set_window(true);
        let span = rec.open(phase.name());
        let h0 = Instant::now();
        body(&fs, rec, inp, &dirs, phase);
        window.host_ns += h0.elapsed().as_nanos() as u64;
        drop(span);
        rec.set_window(false);
        window.calls += rec.attempted() - calls0;
        window.sim_ns += fs.now().as_nanos() - sim0;
        let d = obs
            .snapshot("smallfile", fs.now().as_nanos())
            .delta(&before);
        delta = Some(match delta {
            Some(acc) => acc.merge(&d),
            None => d,
        });
        if phase == Phase::Overwrite {
            // The crash image holds all 10 000 overwritten files, synced.
            rec.attempt();
            match fsck::fsck(&mut fs.inner().crash_image(), false) {
                Ok(rep) if rep.clean() && rep.files == NFILES => {}
                Ok(rep) => rec.fail(format!(
                    "fsck of the smallfile image: {} files, errors {:?}",
                    rep.files,
                    rep.errors.iter().take(3).collect::<Vec<_>>()
                )),
                Err(e) => rec.fail(format!("fsck of the smallfile image failed: {e:?}")),
            }
        }
        if phase != Phase::Delete {
            if let Err(e) = fs.inner().drop_caches() {
                rec.fail(format!("drop_caches between phases: {e:?}"));
            }
        }
    }
    drop(workload);
    rec.set_tracing(false);
    let stream = fs.inner().disk_trace();
    Round {
        setup_s,
        window,
        lat: rec.take_latencies(),
        delta: delta.expect("four phases ran"),
        stream,
        obs,
    }
}

pub fn run(args: &Args, rec: &Recorder) -> (Vec<Metric>, Vec<Span>) {
    let inp = inputs(args.seed);
    let clock = Clock::new(args.seconds);
    let (mut untraced, mut traced) = (Acc::default(), Acc::default());
    let mut setups = Vec::new();
    let mut same = SameWork::default();
    let mut last_traced = None;
    // At least two rounds (≥ 10^5 timed calls, a setup median). In trace
    // mode untraced and traced rounds alternate, and the run ends after
    // `TRACED_ROUNDS` traced ones to bound the span log.
    let mut n = 0;
    while match args.trace {
        false => n < 2 || clock.used() < 1.0,
        true => traced.windows.len() < TRACED_ROUNDS,
    } {
        let is_traced = args.trace && n % 2 == 1;
        let r = round(rec, &inp, is_traced);
        // Every round formats a fresh file system: same simulated work.
        same.check(rec, &r.window, &r.lat, &r.delta);
        setups.push(r.setup_s);
        if is_traced {
            traced.add(r.window, &r.lat, &r.delta);
            last_traced = Some((r.stream, r.obs));
        } else {
            untraced.add(r.window, &r.lat, &r.delta);
        }
        n += 1;
    }
    if !args.trace {
        return (report::end_to_end(&untraced, &setups), Vec::new());
    }

    let (stream, obs) = last_traced.expect("trace mode runs a traced round");
    let spans = rec.take_spans();
    let (times, obs) = layers::time_all(rec, &stream, &models::seagate_st31200(), args.seed, &obs);
    let reqs = traced
        .delta
        .as_ref()
        .map_or(0, |d| d.get(Ctr::DiskRequests));
    let metrics = report::per_layer(&LayerInputs {
        spans: &spans,
        traced: &traced,
        untraced: &untraced,
        vol_reqs: vec![reqs],
        round_fanouts: 0,
        round_calls: 0,
        times,
        obs,
        regroup_host_ms: 0.0,
        regroup_blocks_moved: 0,
    });
    let mut all = spans;
    all.extend(rec.take_spans());
    (metrics, all)
}
