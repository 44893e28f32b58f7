//! Property-based integration tests.
//!
//! Unlike `tests/equivalence.rs` (fixed seeds), these let proptest explore
//! random operation sequences, which is how the nastiest corner cases
//! (rename-over-hardlink, truncate-then-append across indirect
//! boundaries, group dissolution races) were found during development.
//! The vendored proptest does not shrink: a failure names its case
//! number, and `PROPTEST_SEED` / `PROPTEST_CASES` vary the stream.

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::ffs::{Ffs, FfsOptions, MkfsParams as FfsMkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;
use cffs_fslib::model::ModelFs;
use cffs_workloads::trace::{apply, snapshot, Op};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    (0usize..6).prop_map(|i| format!("n{i}"))
}

fn arb_path() -> impl Strategy<Value = String> {
    (prop::sample::select(vec!["", "/d0", "/d1", "/d0/s0"]), arb_name())
        .prop_map(|(d, n)| format!("{d}/{n}"))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_path(), 0usize..60_000, any::<u8>())
            .prop_map(|(path, len, byte)| Op::Write { path, data: vec![byte; len] }),
        2 => (arb_path(), 1usize..10_000, any::<u8>())
            .prop_map(|(path, len, byte)| Op::Append { path, data: vec![byte; len] }),
        2 => (arb_path(), 0u64..70_000).prop_map(|(path, size)| Op::Truncate { path, size }),
        2 => arb_path().prop_map(|path| Op::Unlink { path }),
        2 => (arb_path(), arb_path()).prop_map(|(from, to)| Op::Rename { from, to }),
        1 => (arb_path(), arb_path()).prop_map(|(target, name)| Op::Link { target, name }),
        1 => prop::sample::select(vec!["/sub0", "/sub1", "/d0/sub0"])
            .prop_map(|p| Op::Mkdir { path: p.to_string() }),
        1 => prop::sample::select(vec!["/sub0", "/sub1", "/d0/sub0"])
            .prop_map(|p| Op::Rmdir { path: p.to_string() }),
    ]
}

fn skeleton() -> Vec<Op> {
    ["/d0", "/d1", "/d0/s0"]
        .iter()
        .map(|p| Op::Mkdir { path: p.to_string() })
        .collect()
}

fn cffs_variant(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every variant ends in the oracle's logical state.
    #[test]
    fn cffs_matches_oracle(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut oracle = ModelFs::new();
        for op in skeleton().iter().chain(&ops) {
            apply(&mut oracle, op).expect("oracle");
        }
        let want = snapshot(&oracle).expect("oracle snapshot");
        for cfg in [CffsConfig::cffs(), CffsConfig::conventional()] {
            let label = cfg.label.clone();
            let mut fs = cffs_variant(cfg);
            for op in skeleton().iter().chain(&ops) {
                apply(&mut fs, op).expect("replay");
            }
            let got = snapshot(&fs).expect("snapshot");
            prop_assert_eq!(&got, &want, "{} diverged", label);
        }
    }

    /// Classic FFS too.
    #[test]
    fn ffs_matches_oracle(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut oracle = ModelFs::new();
        for op in skeleton().iter().chain(&ops) {
            apply(&mut oracle, op).expect("oracle");
        }
        let want = snapshot(&oracle).expect("oracle snapshot");
        let mut fs = Ffs::mount(
            cffs::ffs::mkfs::mkfs(
                Disk::new(models::tiny_test_disk()),
                FfsMkfsParams::tiny(),
                FfsOptions::default(),
            )
            .expect("mkfs")
            .unmount()
            .expect("unmount"),
            FfsOptions::default(),
        )
        .expect("remount");
        for op in skeleton().iter().chain(&ops) {
            apply(&mut fs, op).expect("replay");
        }
        prop_assert_eq!(snapshot(&fs).expect("snapshot"), want);
    }

    /// Any crash point during any workload leaves a repairable image, and
    /// the repaired image contains a *subset* of the oracle's files with
    /// correct-or-absent contents (the ordering discipline's guarantee:
    /// fsck may discard unfinished work, never corrupt finished work that
    /// was synced).
    #[test]
    fn crash_anywhere_is_repairable(
        ops in prop::collection::vec(arb_op(), 1..40),
        crash_after in 0usize..40,
        torn_keep in 0usize..9,
    ) {
        let mut fs = cffs_variant(CffsConfig::cffs());
        for op in skeleton().iter().chain(ops.iter().take(crash_after)) {
            apply(&mut fs, op).expect("replay");
        }
        let img = if torn_keep < 8 {
            fs.crash_image_torn(torn_keep)
        } else {
            Some(fs.crash_image())
        };
        let Some(mut img) = img else { return Ok(()) };
        fsck::fsck(&mut img, true).expect("repair");
        let verify = fsck::fsck(&mut img, false).expect("verify");
        prop_assert!(verify.clean(), "not clean after repair: {:?}", verify.errors);
        // The repaired image must mount and be fully walkable.
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount");
        snapshot(&fs2).expect("walk repaired image");
    }

    /// Remount is lossless for synced state under arbitrary op sequences.
    #[test]
    fn remount_round_trip(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut fs = cffs_variant(CffsConfig::cffs());
        for op in skeleton().iter().chain(&ops) {
            apply(&mut fs, op).expect("replay");
        }
        let want = snapshot(&fs).expect("pre-unmount snapshot");
        let disk = fs.unmount().expect("unmount");
        let fs2 = Cffs::mount(disk, CffsConfig::cffs()).expect("remount");
        prop_assert_eq!(snapshot(&fs2).expect("post-remount snapshot"), want);
    }

    /// The namespace cache is invisible to semantics: a dcache'd instance
    /// (capacity 64, small enough that eviction churns constantly) agrees
    /// with a plain one on every path-resolution outcome and on the final
    /// logical state, across arbitrary create/rename/unlink/link/mkdir
    /// interleavings *and* a directory-block relocation pass (which
    /// renumbers the embedded inodes the cache has handed out).
    #[test]
    fn dcache_on_matches_dcache_off(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut on = cffs_variant(CffsConfig::cffs().with_dcache(64));
        let mut off = cffs_variant(CffsConfig::cffs());
        for op in skeleton().iter().chain(&ops) {
            apply(&mut on, op).expect("dcache replay");
            apply(&mut off, op).expect("plain replay");
            // Probe every path the generator can produce: a stale
            // positive entry shows up as Ok-vs-Err or wrong contents, a
            // stale negative entry as Err-vs-Ok.
            for dir in ["", "/d0", "/d1", "/d0/s0", "/sub0", "/sub1", "/d0/sub0"] {
                for i in 0..6 {
                    let path = format!("{dir}/n{i}");
                    let a = cffs_fslib::path::resolve(&on, &path).map(|_| ());
                    let b = cffs_fslib::path::resolve(&off, &path).map(|_| ());
                    prop_assert_eq!(a, b, "resolve {} diverged after {:?}", path, op);
                }
            }
        }
        // Relocate /d0's first blocks into a fresh extent on both
        // instances: the commit path re-homes embedded inodes, so any
        // cached ino for /d0's children is now a lie unless purged.
        if let Ok(d0) = cffs_fslib::path::resolve(&on, "/d0") {
            if let Some(group) = on.carve_group_for(d0).expect("carve") {
                for lbn in 0..4 {
                    on.relocate_block_into(d0, lbn, group).expect("relocate");
                }
            }
        }
        if let Ok(d0) = cffs_fslib::path::resolve(&off, "/d0") {
            if let Some(group) = off.carve_group_for(d0).expect("carve") {
                for lbn in 0..4 {
                    off.relocate_block_into(d0, lbn, group).expect("relocate");
                }
            }
        }
        prop_assert_eq!(
            snapshot(&on).expect("dcache snapshot"),
            snapshot(&off).expect("plain snapshot"),
            "logical state diverged"
        );
        Cffs::sync(&on).expect("sync");
        let mut img = on.crash_image();
        let verify = fsck::fsck(&mut img, false).expect("fsck");
        prop_assert!(verify.clean(), "dcache instance not fsck-clean: {:?}", verify.errors);
    }

    /// Group accounting stays exact under churn: reserved = live + slack,
    /// and statfs never double-counts.
    #[test]
    fn space_accounting_balances(ops in prop::collection::vec(arb_op(), 1..50)) {
        let mut fs = cffs_variant(CffsConfig::cffs());
        let total_free_at_start = fs.statfs().expect("statfs").free_blocks;
        for op in skeleton().iter().chain(&ops) {
            apply(&mut fs, op).expect("replay");
        }
        let st = fs.statfs().expect("statfs");
        let slack: u64 = fs.group_index().total_slack();
        prop_assert_eq!(st.group_slack_blocks, slack);
        prop_assert!(st.free_blocks + st.group_slack_blocks <= total_free_at_start);
        // Deleting everything returns all space.
        for p in ["/sub0", "/sub1"] {
            let _ = cffs_fslib::path::remove_tree(&fs, p);
        }
        for e in fs.readdir(fs.root()).expect("readdir") {
            match e.kind {
                FileKind::Dir => cffs_fslib::path::remove_tree(
                    &fs,
                    &format!("/{}", e.name),
                )
                .expect("remove tree"),
                FileKind::File => fs.unlink(fs.root(), &e.name).map(|_| ()).expect("unlink"),
            }
        }
        let st = fs.statfs().expect("statfs");
        // Only the root's own directory block (if any) may remain reserved.
        prop_assert!(
            st.free_blocks + st.group_slack_blocks + 16 >= total_free_at_start,
            "space leaked: {} + {} vs {}",
            st.free_blocks, st.group_slack_blocks, total_free_at_start
        );
    }
}
