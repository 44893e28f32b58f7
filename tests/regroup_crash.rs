//! Crash safety of the online regrouping engine.
//!
//! A relocation is two steps — copy-forward (data written and flushed to
//! the new block, pointer untouched) then commit (pointer durably
//! rewritten, old block freed). The safety claim (ISSUE 4): a crash at
//! *any* tear point of the protocol leaves the file system fsck-clean
//! with byte-identical logical contents. This suite drives the protocol
//! step by step over a deliberately fragmented image and, after every
//! step, sweeps the whole-crash image plus every torn variant of the most
//! recent sector write through fsck, remount, and a full-tree byte
//! comparison.

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_fslib::BLOCK_SIZE;
use cffs_workloads::trace::{snapshot, Snapshot};

fn fresh(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

/// A deterministic fragmented tree: directory `a` holds files thinned by
/// deletion, files renamed in from `b` (whose blocks sit as strays in
/// `b`-owned extents — the allocator never moves data on rename), and one
/// 14-block file whose tail pointers live in the indirect block (so
/// commits exercise the indirect flush path, not just embedded-inode
/// sectors).
fn fragmented(cfg: CffsConfig) -> Cffs {
    let fs = fresh(cfg);
    let root = fs.root();
    let da = fs.mkdir(root, "a").unwrap();
    let db = fs.mkdir(root, "b").unwrap();
    for i in 0..10 {
        for (tag, dir) in [(b'a', da), (b'b', db)] {
            let ino = fs.create(dir, &format!("f{i}")).unwrap();
            fs.write(ino, 0, &vec![tag ^ i as u8; 2500]).unwrap();
        }
    }
    // Thin both directories so surviving files sit in holey extents.
    for i in [0, 2, 4, 6, 8] {
        fs.unlink(da, &format!("f{i}")).unwrap();
        fs.unlink(db, &format!("f{i}")).unwrap();
    }
    // Cross-directory renames: the data blocks stay put in `b`'s extents,
    // so for `a` they are strays the planner must relocate.
    for i in [1, 3, 5, 7, 9] {
        fs.rename(db, &format!("f{i}"), da, &format!("g{i}")).unwrap();
    }
    // A small-but-indirect file: 14 blocks > NDIRECT, <= group_blocks.
    let big = fs.create(da, "indirect").unwrap();
    fs.write(big, 0, &vec![0x5A; 14 * BLOCK_SIZE]).unwrap();
    fs.sync().unwrap();
    fs
}

/// Crash here — whole image and every torn variant of the last write —
/// and require: repair converges, verify is clean, the remounted tree is
/// byte-identical to `want`.
fn crash_everywhere_and_verify(fs: &Cffs, want: &Snapshot, context: &str) {
    let mut images: Vec<(String, Disk)> = vec![(format!("{context}, whole"), fs.crash_image())];
    for keep in 0..=8 {
        if let Some(img) = fs.crash_image_torn(keep) {
            images.push((format!("{context}, tear at {keep}"), img));
        }
    }
    for (ctx, mut img) in images {
        fsck::fsck(&mut img, true).unwrap_or_else(|e| panic!("{ctx}: repair diverged: {e}"));
        let verify = fsck::fsck(&mut img, false).expect("verify");
        assert!(verify.clean(), "{ctx}: still dirty: {:?}", verify.errors);
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount repaired");
        let got = snapshot(&fs2).expect("snapshot");
        assert_eq!(&got, want, "{ctx}: logical contents changed");
    }
}

/// Drive every planned relocation through the two-step protocol, crashing
/// after each step, in both metadata modes.
#[test]
fn crash_at_every_tear_point_of_every_relocation() {
    for cfg in [CffsConfig::cffs(), CffsConfig::cffs().with_mode(MetadataMode::Delayed)] {
        let label = cfg.label.clone();
        let mut fs = fragmented(cfg);
        let want = snapshot(&fs).expect("snapshot");
        fs.sync().unwrap();
        let plan = cffs::regroup::plan(&mut fs, &cffs::regroup::RegroupConfig::exhaustive())
            .expect("plan");
        assert!(!plan.dirs.is_empty(), "{label}: setup must fragment something");
        for dp in &plan.dirs {
            let mut key = None;
            for (n, mv) in dp.moves.iter().enumerate() {
                let slot = loop {
                    match key.and_then(|k| fs.group_claim_slot(k)) {
                        Some(to) => break to,
                        None => {
                            key = Some(
                                fs.carve_group_for(dp.dir)
                                    .expect("carve")
                                    .expect("tiny image has room"),
                            );
                        }
                    }
                };
                // Step 1: data copied forward and durable; pointer untouched.
                fs.relocate_copy_forward(mv.ino, mv.lbn, slot).expect("copy forward");
                crash_everywhere_and_verify(
                    &fs,
                    &want,
                    &format!("{label}, dir {:#x} move {n} after copy-forward", dp.dir),
                );
                // Step 2: pointer durably rewritten, old block freed.
                fs.relocate_commit(mv.ino, mv.lbn, slot).expect("commit");
                crash_everywhere_and_verify(
                    &fs,
                    &want,
                    &format!("{label}, dir {:#x} move {n} after commit", dp.dir),
                );
            }
        }
        // The finished pass: durable, clean, unchanged, and nothing left
        // for a second pass to do.
        fs.sync().unwrap();
        crash_everywhere_and_verify(&fs, &want, &format!("{label}, after full pass"));
        let again = cffs::regroup::plan(&mut fs, &cffs::regroup::RegroupConfig::exhaustive())
            .expect("replan");
        assert_eq!(again.total_blocks(), 0, "{label}: regrouped image must score clean");
        let mut img = fs.unmount().expect("unmount");
        let report = fsck::fsck(&mut img, false).expect("final fsck");
        assert!(report.clean(), "{label}: {:?}", report.errors);
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("remount");
        assert_eq!(snapshot(&fs2).expect("snapshot"), want, "{label}: remount");
    }
}

/// The flight recorder under the torn-crash sweep: with a recorder
/// armed on the live stack, every tear point of a relocation yields a
/// dump that parses, validates against the flight schema, and whose
/// last frame reproduces the live registry's counters exactly — the
/// black box a real crashed run would leave behind agrees with the
/// state fsck then reconstructs.
#[test]
fn flight_dump_is_valid_at_every_tear_point() {
    use cffs_obs::telemetry::FRAME_COUNTERS;
    use cffs_obs::json::Json;

    let dir = std::env::temp_dir().join(format!("cffs-crash-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut fs = fragmented(CffsConfig::cffs());
    let want = snapshot(&fs).expect("snapshot");
    fs.sync().unwrap();
    let obs = fs.obs();
    // Armed directly (not via the process-global `--flight` path) so
    // parallel tests in this binary share no global state.
    let guard = cffs_obs::telemetry::arm(&dir, &obs, "regroup-crash");
    let plan =
        cffs::regroup::plan(&mut fs, &cffs::regroup::RegroupConfig::exhaustive()).expect("plan");
    let dp = &plan.dirs[0];
    let mv = &dp.moves[0];
    let key = fs.carve_group_for(dp.dir).expect("carve").expect("room");
    let slot = fs.group_claim_slot(key).expect("slot");
    fs.relocate_copy_forward(mv.ino, mv.lbn, slot).expect("copy forward");
    let mut images: Vec<(String, Disk)> = vec![("whole".to_string(), fs.crash_image())];
    for keep in 0..=8 {
        if let Some(img) = fs.crash_image_torn(keep) {
            images.push((format!("tear-{keep}"), img));
        }
    }
    for (ctx, mut img) in images {
        // Repair the torn image; a dirty verdict inside also flushes the
        // recorder with reason "fsck_failure" via the registry hook.
        fsck::fsck(&mut img, true).unwrap_or_else(|e| panic!("{ctx}: repair diverged: {e}"));
        // Dump at this tear point and require the black box to be
        // internally exact, not merely parseable.
        guard.dump(&ctx);
        let text = std::fs::read_to_string(guard.path()).expect("read dump");
        let dump = cffs_obs::flight::parse_flight(&text)
            .unwrap_or_else(|e| panic!("{ctx}: invalid flight dump: {e}"));
        // Our explicit dump is normally the last word, but the sibling
        // tests in this binary also fsck dirty images, and each unclean
        // verdict re-flushes every recorder in the process registry —
        // either reason proves the dump is current, and the counter
        // assertions below hold for both (this obs is quiescent here).
        let reason = dump.head.get("reason").and_then(Json::as_str).unwrap_or("");
        assert!(
            reason == ctx || reason == "fsck_failure",
            "{ctx}: dump is stale (reason {reason:?})"
        );
        let last = dump.frames.last().expect("frames");
        for &c in FRAME_COUNTERS {
            let dumped = last
                .get("counters")
                .and_then(|m| m.get(c.name()))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{ctx}: frame lacks {}", c.name()));
            assert_eq!(dumped, obs.get(c), "{ctx}: counter {} diverged", c.name());
        }
        let report = cffs_obs::flight::postmortem(&dump);
        assert_eq!(
            report.get("consistent"),
            Some(&Json::Bool(true)),
            "{ctx}: last frame disagrees with counters_final"
        );
        // The repaired image still reconstructs to the wanted tree.
        let verify = fsck::fsck(&mut img, false).expect("verify");
        assert!(verify.clean(), "{ctx}: still dirty: {:?}", verify.errors);
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount repaired");
        assert_eq!(&snapshot(&fs2).expect("snapshot"), &want, "{ctx}: contents changed");
    }
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// An aborted re-formation must not leak: carve an empty extent, claim a
/// slot, copy data forward — then crash before the commit. The repaired
/// image has identical contents and no trace of the abandoned extent
/// survives a later pass.
#[test]
fn aborted_reformation_leaks_nothing() {
    let mut fs = fragmented(CffsConfig::cffs());
    let want = snapshot(&fs).expect("snapshot");
    fs.sync().unwrap();
    let plan =
        cffs::regroup::plan(&mut fs, &cffs::regroup::RegroupConfig::exhaustive()).expect("plan");
    let dp = &plan.dirs[0];
    let mv = &dp.moves[0];
    let key = fs.carve_group_for(dp.dir).expect("carve").expect("room");
    let slot = fs.group_claim_slot(key).expect("slot");
    fs.relocate_copy_forward(mv.ino, mv.lbn, slot).expect("copy forward");
    // Crash with the claimed, half-populated extent never committed.
    let mut img = fs.crash_image();
    fsck::fsck(&mut img, true).expect("repair");
    assert!(fsck::fsck(&mut img, false).expect("verify").clean());
    let mut fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount");
    assert_eq!(snapshot(&fs2).expect("snapshot"), want);
    // The abandoned extent is gone or reclaimable: a full pass on the
    // repaired image still converges to a clean score.
    let out = cffs::regroup::run(&mut fs2, &cffs::regroup::RegroupConfig::exhaustive())
        .expect("regroup");
    assert_eq!(out.carve_failures, 0, "leaked extents would exhaust contiguous space");
    let again =
        cffs::regroup::plan(&mut fs2, &cffs::regroup::RegroupConfig::exhaustive()).expect("replan");
    assert_eq!(again.total_blocks(), 0);
    assert_eq!(snapshot(&fs2).expect("snapshot"), want);
}
