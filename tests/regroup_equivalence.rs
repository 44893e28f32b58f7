//! The regrouping engine must be invisible at the FileSystem interface:
//! a pass changes physical layout only. These tests pin the engine's
//! contract — logical equivalence, idempotence, budget and idle-only
//! semantics — over an adversarially aged image.

use cffs::core::{fsck, Cffs, CffsConfig};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_fslib::BLOCK_SIZE;
use cffs_regroup::{RegroupConfig, RegroupMode};
use cffs_workloads::aging::{age_adversarial, AdversarialParams};
use cffs_workloads::trace::snapshot;

fn aged() -> Cffs {
    let mut fs = cffs::build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    age_adversarial(
        &mut fs,
        AdversarialParams { rounds: 2, storm_files: 60, ndirs: 4, seed: 42 },
        |_, _| Ok(()),
    )
    .expect("aging");
    fs.sync().expect("sync");
    fs
}

#[test]
fn regroup_preserves_logical_state_and_survives_remount() {
    let mut fs = aged();
    let want = snapshot(&fs).expect("snapshot");
    let out = cffs_regroup::run(&mut fs, &RegroupConfig::exhaustive()).expect("regroup");
    assert!(out.blocks_moved > 0, "an aged image must need regrouping");
    assert!(out.groups_formed > 0);
    assert_eq!(snapshot(&fs).expect("snapshot"), want, "live view changed");
    let mut img = fs.unmount().expect("unmount");
    let report = fsck::fsck(&mut img, false).expect("fsck");
    assert!(report.clean(), "{:?}", report.errors);
    let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("remount");
    assert_eq!(snapshot(&fs2).expect("snapshot"), want, "remounted view changed");
}

#[test]
fn regroup_is_idempotent() {
    let mut fs = aged();
    let first = cffs_regroup::run(&mut fs, &RegroupConfig::exhaustive()).expect("first pass");
    assert!(first.blocks_moved > 0);
    let second = cffs_regroup::run(&mut fs, &RegroupConfig::exhaustive()).expect("second pass");
    assert_eq!(second.blocks_moved, 0, "a regrouped image must score clean");
    assert_eq!(second.groups_formed, 0);
}

#[test]
fn fresh_layout_scores_clean() {
    // The allocator's own placement already meets the planner's ideal:
    // files created together in one directory need no regrouping.
    let mut fs = cffs::build::on_disk(models::tiny_test_disk(), CffsConfig::cffs());
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    for i in 0..8 {
        let ino = fs.create(dir, &format!("f{i}")).unwrap();
        fs.write(ino, 0, &vec![i as u8; 3000]).unwrap();
    }
    fs.sync().unwrap();
    let plan = cffs_regroup::plan(&mut fs, &RegroupConfig::exhaustive()).expect("plan");
    assert_eq!(plan.total_blocks(), 0, "{}", plan.render());
}

#[test]
fn budget_caps_blocks_moved_and_resumes() {
    let mut fs = aged();
    let full = cffs_regroup::plan(&mut fs, &RegroupConfig::exhaustive()).expect("plan");
    assert!(full.total_blocks() > 10, "aged image too tame for a budget test");
    let capped = RegroupConfig { max_blocks: 5, mode: RegroupMode::Aggressive };
    let out = cffs_regroup::run(&mut fs, &capped).expect("capped pass");
    assert_eq!(out.blocks_moved, 5);
    assert!(out.budget_exhausted);
    // Later invocations resume where the budget stopped and finish the job.
    let mut total = out.blocks_moved;
    for _ in 0..200 {
        let next = cffs_regroup::run(&mut fs, &capped).expect("resumed pass");
        total += next.blocks_moved;
        if next.blocks_moved == 0 {
            break;
        }
    }
    let after = cffs_regroup::plan(&mut fs, &RegroupConfig::exhaustive()).expect("replan");
    assert_eq!(after.total_blocks(), 0, "budgeted passes must converge (moved {total})");
}

#[test]
fn idle_only_never_reads_cold_blocks() {
    let mut fs = aged();
    let idle = RegroupConfig { max_blocks: usize::MAX, mode: RegroupMode::IdleOnly };
    // Plan first: the namespace walk's directory reads are whole-group
    // fetches and may warm file blocks as a side effect. Dropping caches
    // *after* planning makes every source block cold, so an idle-only
    // execution of that plan must do nothing — it issues no source reads
    // of its own.
    let plan = cffs_regroup::plan(&mut fs, &idle).expect("plan");
    assert!(plan.total_blocks() > 0);
    fs.drop_caches().expect("drop");
    let out = cffs_regroup::execute(&mut fs, &plan, &idle).expect("idle pass");
    assert_eq!(out.blocks_moved, 0);
    assert_eq!(out.groups_formed, 0, "no extents may be carved for skipped work");
    assert!(out.skipped_cold > 0);
    // Warm one directory's files; now at least the resident blocks move.
    let dp = &plan.dirs[0];
    let mut warmed = 0;
    for mv in &dp.moves {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let off = mv.lbn * BLOCK_SIZE as u64;
        fs.read(mv.ino, off, &mut buf).expect("warm read");
        warmed += 1;
    }
    let out2 = cffs_regroup::execute(&mut fs, &plan, &idle).expect("idle pass 2");
    assert!(out2.blocks_moved >= warmed, "resident blocks must be eligible");
}
