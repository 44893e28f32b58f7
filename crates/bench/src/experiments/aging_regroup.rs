//! E13 — online regrouping after adversarial aging.
//!
//! The aging sweep (E7) shows grouping erodes as the disk churns; this
//! experiment closes the loop: it ages a C-FFS image with the adversarial
//! workload (create/delete storms, hostile size mixes, cross-directory
//! renames), then runs the online regrouping engine and measures how much
//! of the freshly-mkfs'd grouping quality comes back.
//!
//! The quality signal is the mean of `group_fetch_util_pct` — the fraction
//! of each whole-group fetch that is actually consumed before the blocks
//! leave the cache. The measured access pattern reads one directory's
//! files at a time with a cache drop between directories, so every block
//! a group fetch pulled in for *this* directory but never served counts
//! as wasted inside the measured window. On a fresh image each extent
//! holds exactly one directory's files and utilization is near 100%; on
//! the aged image extents mix directories and holes; after regrouping the
//! per-directory extents are re-formed.
//!
//! Acceptance (ISSUE 4): the recovered mean must be ≥ 90% of the fresh
//! mean. The BENCH payload records fresh/aged/recovered plus the engine's
//! work counters and a budget sweep (cost vs. benefit of `max_blocks`).

use crate::report::{header, rows_json};
use cffs::build;
use cffs_core::{Cffs, CffsConfig};
use cffs_disksim::models;
use cffs_fslib::{FileKind, FsResult, Ino, MetadataMode, BLOCK_SIZE};
use cffs_obs::json::{Json, ToJson};
use cffs_obs::obj;
use cffs_obs::telemetry::{tap_global, Cadence};
use cffs_regroup::{AutotriggerConfig, RegroupConfig, RegroupMode, RegroupOutcome};
use cffs_workloads::aging::{age_adversarial, AdversarialParams};
use cffs_workloads::runner::{cold_boundary, measure};
use cffs_workloads::PhaseResult;

/// Directories the population (and the churn) lives in.
const NDIRS: usize = 8;
/// Long-lived files seeded per directory before the churn starts.
const FILES_PER_DIR: usize = 12;

fn adv_params(seed: u64) -> AdversarialParams {
    AdversarialParams { rounds: 3, storm_files: 120, ndirs: NDIRS, seed }
}

/// Seed the long-lived population in the same `adv*` directories the
/// adversarial workload churns, so the churn fragments *around* files
/// that survive it.
fn populate(fs: &mut Cffs, seed: u64) -> FsResult<()> {
    let root = fs.root();
    for d in 0..NDIRS {
        let dir = fs.mkdir(root, &format!("adv{d:03}"))?;
        for f in 0..FILES_PER_DIR {
            // Mostly one-block files with a sprinkling of 3-block ones —
            // the population explicit grouping serves best.
            let size = if f % 5 == 4 { 3 * BLOCK_SIZE } else { BLOCK_SIZE };
            let body: Vec<u8> = (0..size)
                .map(|j| ((seed as usize ^ (d * 7919 + f * 131 + j)) % 251) as u8)
                .collect();
            let ino = fs.create(dir, &format!("base{f:04}"))?;
            fs.write(ino, 0, &body)?;
        }
    }
    fs.sync()
}

/// A deterministic aged instance: fresh mkfs, population, adversarial
/// churn. Equal seeds give byte-identical images, so budget-sweep points
/// all start from the same layout.
fn aged_instance(seed: u64) -> Cffs {
    let mut fs =
        build::on_disk(models::tiny_test_disk(), CffsConfig::cffs().with_mode(MetadataMode::Delayed));
    populate(&mut fs, seed).expect("populate");
    age_adversarial(&mut fs, adv_params(seed), |_, _| Ok(())).expect("adversarial aging");
    fs
}

/// Read every file, one directory at a time, cold. Returns the phase row
/// and the mean `group_fetch_util_pct` over the measured window.
///
/// The per-directory `drop_caches` inside the measured body is load-
/// bearing: it resolves every outstanding group fetch *within* the
/// measured counter delta, so members fetched for a directory but never
/// read are charged as wasted here rather than leaking into the next
/// phase's snapshot.
fn grouped_read(fs: &mut Cffs, phase: &str) -> (PhaseResult, u64) {
    // Enumerate up front so the measured region is pure file reads.
    let (dir_files, nfiles, nbytes) = list_dir_files(fs);
    cold_boundary(fs).expect("cold boundary");
    let row = measure(fs, phase, nfiles, nbytes, |fs| {
        for files in &dir_files {
            for &(ino, sz) in files {
                let mut buf = vec![0u8; sz];
                fs.read(ino, 0, &mut buf)?;
            }
            fs.drop_caches()?;
        }
        Ok(())
    })
    .expect("read phase");
    let util = row
        .counters
        .as_ref()
        .and_then(|c| c.histogram("group_fetch_util_pct"))
        .map(|h| h.mean())
        .unwrap_or(0);
    (row, util)
}

/// Per-directory `(ino, size)` file lists in sorted directory order,
/// plus total file and byte counts.
fn list_dir_files(fs: &mut Cffs) -> (Vec<Vec<(Ino, usize)>>, u64, u64) {
    let root = fs.root();
    let mut dirs: Vec<(String, Ino)> = fs
        .readdir(root)
        .expect("readdir root")
        .into_iter()
        .filter(|e| e.kind == FileKind::Dir)
        .map(|e| (e.name, e.ino))
        .collect();
    dirs.sort();
    let mut dir_files: Vec<Vec<(Ino, usize)>> = Vec::new();
    let (mut nfiles, mut nbytes) = (0u64, 0u64);
    for (_, dino) in &dirs {
        let mut files = Vec::new();
        for e in fs.readdir(*dino).expect("readdir") {
            if e.kind == FileKind::File {
                let sz = fs.getattr(e.ino).expect("getattr").size as usize;
                nfiles += 1;
                nbytes += sz as u64;
                files.push((e.ino, sz));
            }
        }
        dir_files.push(files);
    }
    (dir_files, nfiles, nbytes)
}

/// One budget-sweep point: regroup a fresh aged instance under `cfg`.
fn sweep_point(seed: u64, cfg: &RegroupConfig, phase: &str) -> (RegroupOutcome, u64) {
    let mut fs = aged_instance(seed);
    let outcome = cffs_regroup::run(&mut fs, cfg).expect("regroup");
    fs.sync().expect("sync");
    let (_, util) = grouped_read(&mut fs, phase);
    (outcome, util)
}

/// What the signal-driven loop did on its own aged instance.
struct AutotriggerResult {
    fires: usize,
    blocks_moved: usize,
    low_events: u64,
    util_pct: u64,
    row: PhaseResult,
}

/// Close the ROADMAP policy loop on a separate aged instance: simulate
/// live traffic (cold per-directory reads), and between directories give
/// the engine an idle moment via [`cffs_regroup::autotrigger`]. Nothing
/// here invokes the regrouper explicitly — passes fire only because the
/// `group_fetch_util_ewma` signal decays below the floor, and they run
/// [`RegroupMode::IdleOnly`] against the blocks the traffic just made
/// resident. After the traffic rounds, the end state is measured with
/// the same cold grouped read as every other stage.
fn autotrigger_run(seed: u64) -> AutotriggerResult {
    let mut fs = aged_instance(seed);
    let cfg = AutotriggerConfig::default();
    let obs = fs.obs();
    // The stage the feed exists to show: the utilization EWMA decaying
    // until the floor crossing fires budgeted regroup passes live.
    let _feed = tap_global(&obs, "autotrigger", Cadence::Sim);
    let (mut fires, mut blocks_moved) = (0usize, 0usize);
    // Each round reads every directory cold; the aged layout's mixed
    // extents feed low-utilization samples into the EWMA until the
    // trigger fires often enough to re-form the groups.
    const ROUNDS: usize = 6;
    for _ in 0..ROUNDS {
        let (dir_files, _, _) = list_dir_files(&mut fs);
        cold_boundary(&mut fs).expect("cold boundary");
        for files in &dir_files {
            for &(ino, sz) in files {
                let mut buf = vec![0u8; sz];
                fs.read(ino, 0, &mut buf).expect("read");
            }
            // Idle moment: the directory's blocks are still resident.
            if let Some(o) = cffs_regroup::autotrigger(&mut fs, &cfg).expect("autotrigger") {
                fires += 1;
                blocks_moved += o.blocks_moved;
            }
            fs.drop_caches().expect("drop");
        }
    }
    let (row, util_pct) = grouped_read(&mut fs, "autotrigger-read");
    AutotriggerResult {
        fires,
        blocks_moved,
        low_events: obs.get(cffs_obs::Ctr::SignalLowEvents),
        util_pct,
        row,
    }
}

/// Run the experiment: fresh reference, aged measurement, budget sweep,
/// exhaustive recovery. Returns the text report and the BENCH payload.
pub fn report(seed: u64) -> (String, Json) {
    // Fresh reference: the same population on a never-churned image.
    let mut fresh_fs =
        build::on_disk(models::tiny_test_disk(), CffsConfig::cffs().with_mode(MetadataMode::Delayed));
    populate(&mut fresh_fs, seed).expect("populate");
    let (fresh_row, fresh_util) = {
        // Stream each stage into the telemetry feed when the repro binary
        // set one up with --feed (each tap is a no-op otherwise). The
        // taps share the global sink, so the whole run replays as one
        // fresh → aged → regrouped → autotrigger feed in cffs-top.
        let obs = fresh_fs.obs();
        let _feed = tap_global(&obs, "fresh-read", Cadence::Sim);
        grouped_read(&mut fresh_fs, "fresh-read")
    };

    // Aged, before any regrouping.
    let mut fs = aged_instance(seed);
    let (aged_row, aged_util) = {
        let obs = fs.obs();
        let _feed = tap_global(&obs, "aged-read", Cadence::Sim);
        grouped_read(&mut fs, "aged-read")
    };

    // Budget sweep: cost (blocks moved) vs. benefit (recovered util),
    // each point regrouping its own copy of the same aged image.
    let budgets: [usize; 2] = [64, 256];
    let mut sweep: Vec<Json> = Vec::new();
    let mut sweep_text = String::new();
    for &b in &budgets {
        let cfg = RegroupConfig { max_blocks: b, mode: RegroupMode::Aggressive };
        let (o, util) = sweep_point(seed, &cfg, &format!("regroup-b{b}"));
        sweep.push(obj![
            ("max_blocks", Json::Int(b as i64)),
            ("util_pct", Json::Int(util as i64)),
            ("blocks_moved", Json::Int(o.blocks_moved as i64)),
            ("groups_formed", Json::Int(o.groups_formed as i64)),
            ("budget_exhausted", Json::Bool(o.budget_exhausted)),
        ]);
        sweep_text.push_str(&format!(
            "{:<22} {:>10} {:>14} {:>14}\n",
            format!("regroup max_blocks={b}"),
            format!("{util}%"),
            o.blocks_moved,
            o.groups_formed,
        ));
    }

    // Exhaustive pass on the measured instance — the acceptance row.
    let (rec_row, rec_util, outcome) = {
        let obs = fs.obs();
        let _feed = tap_global(&obs, "regrouped-read", Cadence::Sim);
        let outcome = cffs_regroup::run(&mut fs, &RegroupConfig::exhaustive()).expect("regroup");
        fs.sync().expect("sync");
        let (row, util) = grouped_read(&mut fs, "regrouped-read");
        (row, util, outcome)
    };
    let ratio = rec_util as f64 / (fresh_util.max(1)) as f64;

    // Signal-driven recovery: no explicit regroup call, only the
    // `group_fetch_util_ewma` floor firing budgeted IdleOnly passes.
    let auto = autotrigger_run(seed);
    let auto_ratio = auto.util_pct as f64 / (fresh_util.max(1)) as f64;

    let mut out = header(&format!(
        "online regrouping after adversarial aging (seed {seed}, 64 MB disk)"
    ));
    out.push_str(&format!(
        "{:<22} {:>10} {:>14} {:>14}\n",
        "stage", "gf util", "blocks moved", "groups formed"
    ));
    out.push_str(&"-".repeat(64));
    out.push('\n');
    out.push_str(&format!("{:<22} {:>10}\n", "fresh mkfs", format!("{fresh_util}%")));
    out.push_str(&format!("{:<22} {:>10}\n", "aged", format!("{aged_util}%")));
    out.push_str(&sweep_text);
    out.push_str(&format!(
        "{:<22} {:>10} {:>14} {:>14}\n",
        "regroup exhaustive",
        format!("{rec_util}%"),
        outcome.blocks_moved,
        outcome.groups_formed,
    ));
    out.push_str(&format!(
        "{:<22} {:>10} {:>14} {:>14}\n",
        "autotrigger (signal)",
        format!("{}%", auto.util_pct),
        auto.blocks_moved,
        format!("{} fires", auto.fires),
    ));
    out.push_str(&format!(
        "\nrecovery: {:.2}x of the fresh group-fetch utilization (target >= 0.90)\n",
        ratio
    ));
    out.push_str(&format!(
        "autotrigger: {} fires on group_fetch_util_ewma decay ({} low crossings), \
         {:.2}x of fresh\n",
        auto.fires, auto.low_events, auto_ratio
    ));

    let json = obj![
        ("experiment", "aging_regroup".to_json()),
        ("seed", Json::Int(seed as i64)),
        ("fresh_util_pct", Json::Int(fresh_util as i64)),
        ("aged_util_pct", Json::Int(aged_util as i64)),
        ("recovered_util_pct", Json::Int(rec_util as i64)),
        ("recovery_ratio", ratio.to_json()),
        ("blocks_moved", Json::Int(outcome.blocks_moved as i64)),
        ("groups_formed", Json::Int(outcome.groups_formed as i64)),
        ("dirs_regrouped", Json::Int(outcome.dirs_regrouped as i64)),
        ("budget_sweep", Json::Arr(sweep)),
        (
            "autotrigger",
            obj![
                ("fires", Json::Int(auto.fires as i64)),
                ("blocks_moved", Json::Int(auto.blocks_moved as i64)),
                ("signal_low_events", Json::Int(auto.low_events as i64)),
                ("util_pct", Json::Int(auto.util_pct as i64)),
                ("recovery_ratio", auto_ratio.to_json()),
            ]
        ),
        ("rows", rows_json(&[fresh_row, aged_row, rec_row, auto.row])),
    ];
    (out, json)
}

/// Render the experiment.
pub fn run(seed: u64) -> String {
    report(seed).0
}
