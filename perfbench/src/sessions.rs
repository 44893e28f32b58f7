//! `sessions`: multi-client sessions on a two-volume set.
//!
//! `workloads::multiclient` with two client threads on a 2-volume
//! `VolumeSet`: Zipf-popular directories, 20 % overwrites, 20 % whole
//! reads of striped 256 KB files, 1 % fsync; delayed metadata, a 4096
//! entry dcache and a 4 MB buffer cache per volume, so the ≈8 MB working
//! set is about the size of the whole set's cache. Caches are dropped at
//! the populate barrier; the measured window is the sessions phase. The
//! tail (churn, `regroup_all`, `fsck_all`) runs outside the window and
//! is the correctness check of the round.

use crate::layers;
use crate::probe::{Probe, Recorder, Span};
use crate::report::{self, Acc, LayerInputs, Metric, Window};
use crate::stats::{median, Latencies};
use crate::{Args, Clock};
use cffs::core::CffsConfig;
use cffs::disksim::{models, Disk, TraceEntry};
use cffs::fslib::MetadataMode;
use cffs::obs::{Ctr, Obs, StatsSnapshot};
use cffs::regroup::RegroupConfig;
use cffs::volume::{VolumeCfg, VolumeSet};
use cffs::workloads::multiclient::{self, MulticlientParams};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const VOLUMES: usize = 2;
const THREADS: usize = 2;
const SESSIONS: usize = 3000;
/// Rounds at least, for a setup median and ≥ 10^5 sampled calls.
const MIN_ROUNDS: usize = 3;
/// Largest accepted deviation of a repeated round's simulated rate from
/// the original's: two threads share the per-volume disk timelines, so
/// the simulated clock is count-stable but not nanosecond-stable.
const SIM_RATE_TOLERANCE: f64 = 0.25;
/// Traced rounds per trace-mode run.
const TRACED_ROUNDS: usize = 2;

fn params(seed: u64) -> MulticlientParams {
    MulticlientParams {
        nthreads: THREADS,
        sessions: SESSIONS,
        ndirs: 64,
        files_per_dir: 16,
        file_size: 4096,
        ops_per_session: 8,
        zipf_milli: 900,
        write_pct: 20,
        fsync_pct: 1,
        big_pct: 20,
        big_every: 4,
        big_size: 256 * 1024,
        seed,
    }
}

/// One volume's file-system configuration.
fn volume_fs() -> CffsConfig {
    let mut cfg = CffsConfig::cffs()
        .with_mode(MetadataMode::Delayed)
        .with_dcache(4096);
    cfg.cache.nbufs = 1024;
    cfg
}

struct Round {
    setup_s: f64,
    window: Window,
    lat: Latencies,
    /// Window delta summed over the volumes' registries.
    delta: StatsSnapshot,
    vol_reqs: Vec<u64>,
    fanouts: u64,
    calls: u64,
    regroup_ms: f64,
    blocks_moved: u64,
    obs: Arc<Obs>,
}

/// Counter state at one window edge.
struct Edge {
    host: Instant,
    sim_ns: u64,
    calls: u64,
    vols: Vec<StatsSnapshot>,
}

fn edge(vs: &VolumeSet, rec: &Recorder) -> Edge {
    Edge {
        host: Instant::now(),
        sim_ns: vs.set_obs().global_clock_ns(),
        calls: rec.attempted(),
        vols: (0..vs.nvols())
            .map(|v| vs.vol_snapshot(v, "sessions"))
            .collect(),
    }
}

fn round(rec: &Recorder, p: &MulticlientParams, traced: bool) -> Round {
    let _workload = rec.open("workload.sessions");
    let t0 = Instant::now();
    let calls0 = rec.attempted();
    let disks: Vec<Disk> = (0..VOLUMES)
        .map(|_| Disk::new(models::tiny_test_disk()))
        .collect();
    let vs =
        VolumeSet::format(disks, VolumeCfg::new(volume_fs())).expect("format a fresh volume set");
    rec.reset_shadow();
    let fs = Probe::new(vs, rec);
    let setup_s = Mutex::new(0.0);
    let edges: Mutex<Vec<Edge>> = Mutex::new(Vec::new());
    let span = Mutex::new(None);
    let ran = multiclient::run_with_phase_hook(&fs, p, |phase| match phase {
        "populate" => {
            if let Err(e) = fs.inner().drop_caches_all() {
                rec.fail(format!("drop_caches_all at the populate barrier: {e:?}"));
            }
            *setup_s.lock().expect("setup lock") = t0.elapsed().as_secs_f64();
            rec.set_tracing(traced);
            *span.lock().expect("span lock") = Some(rec.open("phase.sessions"));
            edges.lock().expect("edge lock").push(edge(fs.inner(), rec));
            rec.set_window(true);
        }
        "sessions" => {
            rec.set_window(false);
            edges.lock().expect("edge lock").push(edge(fs.inner(), rec));
            span.lock().expect("span lock").take();
            rec.set_tracing(false);
        }
        _ => {}
    });
    if let Err(e) = ran {
        rec.fail(format!("multiclient run failed: {e:?}"));
    }
    let calls = rec.attempted() - calls0;
    let edges = edges.into_inner().expect("edge lock");
    let [a, b] = &edges[..] else {
        // The run failed before the sessions window opened or closed;
        // the failure is already counted. Nothing sensible to measure.
        eprintln!("{}", rec.notes().join("\n"));
        panic!("the sessions window of a round did not complete");
    };
    let window = Window {
        calls: b.calls - a.calls,
        host_ns: (b.host - a.host).as_nanos() as u64,
        sim_ns: b.sim_ns - a.sim_ns,
    };
    let deltas: Vec<StatsSnapshot> = b
        .vols
        .iter()
        .zip(&a.vols)
        .map(|(x, y)| x.delta(y))
        .collect();
    let vol_reqs = deltas.iter().map(|d| d.get(Ctr::DiskRequests)).collect();
    let delta = deltas[1..]
        .iter()
        .fold(deltas[0].clone(), |acc, d| acc.merge(d));

    let mut vs = fs.into_inner();
    let fanouts = vs.set_obs().get(Ctr::VolDirFanouts);
    let r0 = Instant::now();
    let blocks_moved = match vs.regroup_all(&RegroupConfig::exhaustive()) {
        Ok(outs) => outs.iter().map(|o| o.blocks_moved as u64).sum(),
        Err(e) => {
            rec.fail(format!("regroup_all: {e:?}"));
            0
        }
    };
    let regroup_ms = r0.elapsed().as_secs_f64() * 1e3;
    rec.attempt();
    match vs.fsck_all() {
        Ok(reps) if reps.iter().all(|r| r.clean()) => {}
        Ok(reps) => rec.fail(format!(
            "fsck after regroup: {:?}",
            reps.iter()
                .flat_map(|r| r.errors.iter().take(2))
                .collect::<Vec<_>>()
        )),
        Err(e) => rec.fail(format!("fsck_all failed: {e:?}")),
    }
    Round {
        setup_s: setup_s.into_inner().expect("setup lock"),
        window,
        lat: rec.take_latencies(),
        delta,
        vol_reqs,
        fanouts,
        calls,
        regroup_ms,
        blocks_moved,
        obs: vs.set_obs(),
    }
}

/// The request stream of the same sessions on a single C-FFS volume
/// with the per-volume configuration: a volume set exposes no disk
/// trace, so this stand-in supplies the request mix for the replay.
fn capture_stream(p: &MulticlientParams) -> Vec<TraceEntry> {
    let fs = cffs::build::on_disk(models::tiny_test_disk(), volume_fs());
    let stream = Mutex::new(Vec::new());
    let _ = multiclient::run_with_phase_hook(&fs, p, |phase| match phase {
        "populate" => {
            let _ = fs.drop_caches();
            fs.set_disk_trace(true);
        }
        "sessions" => {
            *stream.lock().expect("stream lock") = fs.disk_trace();
            fs.set_disk_trace(false);
        }
        _ => {}
    });
    stream.into_inner().expect("stream lock")
}

/// The session mix of round `k`: each round draws its own directory
/// popularity and op sequence from `--seed` and `k`, so one run averages
/// over several mixes instead of resting on a single popularity ranking.
fn mix(seed: u64, k: usize) -> MulticlientParams {
    params(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn run(args: &Args, rec: &Recorder) -> (Vec<Metric>, Vec<Span>) {
    let clock = Clock::new(args.seconds);
    let (mut untraced, mut traced) = (Acc::default(), Acc::default());
    let mut setups = Vec::new();
    let mut first: Option<Window> = None;
    // Traced rounds (at most `TRACED_ROUNDS`) are kept whole for the
    // per-layer figures.
    let mut kept: Vec<Round> = Vec::new();
    // In trace mode untraced and traced rounds alternate on the same mix,
    // and the run ends after `TRACED_ROUNDS` traced ones to bound the
    // span log.
    let mut n = 0;
    while match args.trace {
        false => n < MIN_ROUNDS || clock.used() < 1.0,
        true => traced.windows.len() < TRACED_ROUNDS,
    } {
        let (is_traced, k) = if args.trace {
            (n % 2 == 1, n / 2)
        } else {
            (false, n)
        };
        let r = round(rec, &mix(args.seed, k), is_traced);
        first.get_or_insert(r.window);
        setups.push(r.setup_s);
        if is_traced {
            traced.add(r.window, &r.lat, &r.delta);
            kept.push(r);
        } else {
            untraced.add(r.window, &r.lat, &r.delta);
        }
        n += 1;
    }
    // Determinism self-check: round 0's mix again must issue the same
    // calls, at a simulated rate within the tolerance.
    let first = first.expect("at least one round ran");
    let again = round(rec, &mix(args.seed, 0), false).window;
    let rate = |w: &Window| w.calls as f64 / (w.sim_ns as f64 / 1e9);
    rec.attempt();
    if again.calls != first.calls || (rate(&again) / rate(&first) - 1.0).abs() > SIM_RATE_TOLERANCE
    {
        rec.fail(format!(
            "repeated round: {} calls at {:.1} sim ops/s vs {} at {:.1}",
            again.calls,
            rate(&again),
            first.calls,
            rate(&first)
        ));
    }
    if !args.trace {
        return (report::end_to_end(&untraced, &setups), Vec::new());
    }

    let spans = rec.take_spans();
    let stream = {
        let _s = rec.open("capture.single-volume");
        capture_stream(&mix(args.seed, 0))
    };
    let last = &kept.last().expect("trace mode runs a traced round").obs;
    let (times, obs) = layers::time_all(rec, &stream, &models::tiny_test_disk(), args.seed, last);
    let metrics = report::per_layer(&LayerInputs {
        spans: &spans,
        traced: &traced,
        untraced: &untraced,
        vol_reqs: (0..VOLUMES)
            .map(|v| kept.iter().map(|r| r.vol_reqs[v]).sum())
            .collect(),
        round_fanouts: kept.iter().map(|r| r.fanouts).sum(),
        round_calls: kept.iter().map(|r| r.calls).sum(),
        times,
        obs,
        regroup_host_ms: median(&kept.iter().map(|r| r.regroup_ms).collect::<Vec<_>>()),
        regroup_blocks_moved: kept.iter().map(|r| r.blocks_moved).sum::<u64>() / kept.len() as u64,
    });
    let mut all = spans;
    all.extend(rec.take_spans());
    (metrics, all)
}
