//! E15 — million-file namei with and without the namespace cache.
//!
//! Builds the deep tree from [`cffs_workloads::namei`] on a fresh C-FFS
//! twice — once with the sharded dcache sized to hold the whole
//! namespace, once with it disabled (the paper's configuration) — and
//! measures three phases on each: `create` (build the tree), `cold`
//! (resolve a seeded path sample from an empty cache) and `warm`
//! (re-resolve the same sample for several rounds, everything cached).
//!
//! Acceptance (ISSUE 8): in the warm phase the dcache point must show a
//! `lookup` p99 at least 5× lower in simulated time than the ablation,
//! with a ≥ 0.90 dcache hit rate, and both end-state images must be
//! fsck-clean. `bench_gate` enforces the floors against the checked-in
//! `BENCH_NAMEI.json` baseline — and as absolute bars, so a decayed
//! baseline can never quietly ratify a regression.
//!
//! Every phase row also carries `host_ns`, the harness wall-clock cost
//! of the phase: the simulated-latency story above is deterministic, and
//! the host timing says what the benchmark run itself cost — the knob
//! the warm path's host-CPU work (hashing, shard probes) shows up on.

use crate::report::{header, rows_json};
use cffs::build;
use cffs_core::{fsck, CffsConfig};
use cffs_disksim::models;
use cffs_fslib::{ConcurrentFs, MetadataMode};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::telemetry::{tap_global, Cadence};
use cffs_obs::{obj, Ctr, OpKind};
use cffs_workloads::namei::{self, NameiParams};
use cffs_workloads::runner::{cold_boundary, measure};
use cffs_workloads::PhaseResult;

/// One configuration's measured run.
struct RunOut {
    label: String,
    rows: Vec<PhaseResult>,
    /// Warm-phase dcache hit rate (positive + negative hits over probes);
    /// 0 when the cache is disabled.
    warm_hit_rate: f64,
    /// Warm-phase `lookup` p99, simulated nanoseconds.
    warm_p99_ns: u64,
    /// Warm-phase `lookup` p50 / p90, simulated nanoseconds.
    warm_p50_ns: u64,
    warm_p90_ns: u64,
    fsck_clean: bool,
}

/// Pick the drive for the tree size: the full million-file tree needs
/// the 1 GB testbed disk; CI smoke scales fit the 64 MB test drive.
fn disk_for(p: &NameiParams) -> cffs_disksim::DiskModel {
    if p.total_files() >= 100_000 {
        models::seagate_st31200()
    } else {
        models::tiny_test_disk()
    }
}

fn run_point(cfg: CffsConfig, p: &NameiParams) -> RunOut {
    let mut fs = build::on_disk(disk_for(p), cfg);
    let label = fs.label().to_string();
    let obs = ConcurrentFs::obs(&fs);
    let _feed = obs.as_ref().and_then(|o| tap_global(o, &label, Cadence::Sim));

    let mut rows = Vec::new();
    let total = p.total_files() + p.total_dirs();
    let bytes = p.total_files() * p.file_size as u64;
    rows.push(
        measure(&mut fs, "create", total, bytes, |fs| {
            namei::build_tree(fs, p).map(|_| ())
        })
        .expect("create phase"),
    );

    cold_boundary(&mut fs).expect("cold boundary");
    let paths = namei::sample_paths(p);
    let mut buf = vec![0u8; p.file_size.max(1)];
    rows.push(
        measure(&mut fs, "cold", paths.len() as u64, 0, |fs| {
            namei::resolve_round(fs, &paths, &mut buf).map(|_| ())
        })
        .expect("cold phase"),
    );

    let mut buf = vec![0u8; p.file_size.max(1)];
    let warm = measure(&mut fs, "warm", (paths.len() * p.rounds) as u64, 0, |fs| {
        for _ in 0..p.rounds {
            namei::resolve_round(fs, &paths, &mut buf)?;
        }
        Ok(())
    })
    .expect("warm phase");

    let (warm_hit_rate, warm_p50_ns, warm_p90_ns, warm_p99_ns) = match &warm.counters {
        Some(c) => {
            let hits = c.get(Ctr::DcacheHits) + c.get(Ctr::DcacheNegHits);
            let probes = hits + c.get(Ctr::DcacheMisses);
            let rate = if probes == 0 { 0.0 } else { hits as f64 / probes as f64 };
            let lk = c.op_latency(OpKind::Lookup);
            (
                rate,
                lk.map(|h| h.quantile(0.50)).unwrap_or(0),
                lk.map(|h| h.quantile(0.90)).unwrap_or(0),
                lk.map(|h| h.quantile(0.99)).unwrap_or(0),
            )
        }
        None => (0.0, 0, 0, 0),
    };
    rows.push(warm);

    let mut img = fs.crash_image();
    let fsck_clean = fsck::fsck(&mut img, false).map(|rep| rep.clean()).unwrap_or(false);
    RunOut { label, rows, warm_hit_rate, warm_p50_ns, warm_p90_ns, warm_p99_ns, fsck_clean }
}

/// Run the experiment at the given scale. Returns the text report and
/// the BENCH payload. `branches`/`dirs_per_branch` scale the tree width
/// (CI smoke passes reduced values); `files_per_dir` should stay at the
/// default 256 — shrinking it collapses leaf directories to a block or
/// two and the scan-vs-probe gap the gate measures disappears.
pub fn report(
    seed: u64,
    branches: usize,
    dirs_per_branch: usize,
    files_per_dir: usize,
    sample: usize,
    rounds: usize,
) -> (String, Json) {
    let p = NameiParams {
        branches,
        dirs_per_branch,
        files_per_dir,
        file_size: 0,
        sample,
        rounds,
        seed,
    };
    // Cache sized 25% over the namespace so eviction never competes with
    // the acceptance measurement; capacity pressure is the dcache unit
    // tests' concern, not E15's.
    let entries = ((p.total_files() + p.total_dirs()) as usize * 5) / 4;
    let mut on_cfg =
        CffsConfig::cffs().with_mode(MetadataMode::Delayed).with_dcache(entries);
    on_cfg.label = "C-FFS+dcache".to_string();
    let on = run_point(on_cfg, &p);
    let off = run_point(CffsConfig::cffs().with_mode(MetadataMode::Delayed), &p);

    let speedup = off.warm_p99_ns as f64 / (on.warm_p99_ns as f64).max(f64::MIN_POSITIVE);

    let mut out = header(&format!(
        "million-file namei: {} files in {}x{} dirs of {} (sample {}, {} warm rounds, seed {seed})",
        p.total_files(),
        branches,
        dirs_per_branch,
        files_per_dir,
        sample,
        rounds
    ));
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>12} {:>9} {:>10} {:>6}\n",
        "fs", "lookup p50", "p90", "p99 (ns)", "hit rate", "warm host", "fsck"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for r in [&on, &off] {
        let warm_host_ms =
            r.rows.last().map(|row| row.host_ns as f64 / 1e6).unwrap_or(0.0);
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12} {:>9.3} {:>8.1}ms {:>6}\n",
            r.label,
            r.warm_p50_ns,
            r.warm_p90_ns,
            r.warm_p99_ns,
            r.warm_hit_rate,
            warm_host_ms,
            if r.fsck_clean { "clean" } else { "DIRTY" },
        ));
    }
    out.push_str(&format!(
        "\nwarm lookup p99: {speedup:.2}x lower with the dcache (target >= 5.0)\n"
    ));

    let json = obj![
        ("experiment", "namei".to_json()),
        ("seed", Json::Int(seed as i64)),
        ("branches", Json::Int(branches as i64)),
        ("dirs_per_branch", Json::Int(dirs_per_branch as i64)),
        ("files_per_dir", Json::Int(files_per_dir as i64)),
        ("total_files", Json::Int(p.total_files() as i64)),
        ("sample", Json::Int(sample as i64)),
        ("rounds", Json::Int(rounds as i64)),
        ("dcache_entries", Json::Int(entries as i64)),
        ("dcache_warm_hit_rate", on.warm_hit_rate.to_json()),
        ("namei_warm_p50_ns", Json::Int(on.warm_p50_ns as i64)),
        ("namei_warm_p90_ns", Json::Int(on.warm_p90_ns as i64)),
        ("namei_warm_p99_ns", Json::Int(on.warm_p99_ns as i64)),
        ("namei_warm_p99_ns_nodcache", Json::Int(off.warm_p99_ns as i64)),
        ("namei_p99_speedup", speedup.to_json()),
        ("fsck_clean", Json::Bool(on.fsck_clean && off.fsck_clean)),
        (
            "rows",
            rows_json(
                &on.rows.into_iter().chain(off.rows).collect::<Vec<_>>(),
            )
        ),
    ];
    (out, json)
}

/// Render the experiment at full scale: the million-file tree.
pub fn run(seed: u64) -> String {
    report(seed, 64, 64, 256, 4096, 3).0
}
