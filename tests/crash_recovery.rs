//! Crash simulation and recovery.
//!
//! The synchronous-metadata discipline makes one promise: after a crash at
//! *any* point, fsck can repair the image to a consistent state, and no
//! name ever dangles (points at uninitialized or freed storage). The
//! embedded-inode variant strengthens it: a name and its inode are updated
//! atomically, so a crashed create either shows the complete file or
//! nothing.
//!
//! A "crash" here is [`Cffs::crash_image`] / [`Ffs::crash_image`]: the
//! disk exactly as the write history left it, with all delayed state
//! discarded.

use cffs::core::{fsck as cffs_fsck, Cffs, CffsConfig, MkfsParams};
use cffs::ffs::{fsck as ffs_fsck, Ffs, FfsOptions, MkfsParams as FfsMkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;

fn cffs_fs(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

/// Run a create/write/delete churn, crash after every N ops, and verify
/// fsck repairs each crash image to a clean state.
#[test]
fn fsck_repairs_any_crash_point_cffs() {
    for cfg in [CffsConfig::cffs(), CffsConfig::conventional()] {
        let label = cfg.label.clone();
        let fs = cffs_fs(cfg);
        let root = fs.root();
        let dir = fs.mkdir(root, "work").unwrap();
        let mut images = Vec::new();
        for i in 0..40 {
            let name = format!("f{i}");
            let ino = fs.create(dir, &name).unwrap();
            fs.write(ino, 0, &vec![i as u8; 1500]).unwrap();
            if i % 3 == 0 && i > 0 {
                fs.unlink(dir, &format!("f{}", i - 1)).unwrap();
            }
            if i % 5 == 0 {
                images.push(fs.crash_image());
            }
        }
        for (k, mut img) in images.into_iter().enumerate() {
            let report = cffs_fsck::fsck(&mut img, true)
                .unwrap_or_else(|e| panic!("{label} crash {k}: repair failed: {e}"));
            let verify = cffs_fsck::fsck(&mut img, false).expect("verify");
            assert!(
                verify.clean(),
                "{label} crash {k} not clean after repair: {:?}",
                verify.errors
            );
            let _ = report;
            // The repaired image must mount and walk.
            let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount repaired");
            let _ = path::read_file(&fs2, "/work/f0").ok();
        }
    }
}

#[test]
fn fsck_repairs_any_crash_point_ffs() {
    let fs = cffs::ffs::mkfs::mkfs(
        Disk::new(models::tiny_test_disk()),
        FfsMkfsParams::tiny(),
        FfsOptions::default(),
    )
    .expect("mkfs");
    let root = fs.root();
    let dir = fs.mkdir(root, "work").unwrap();
    let mut images = Vec::new();
    for i in 0..40 {
        let ino = fs.create(dir, &format!("f{i}")).unwrap();
        fs.write(ino, 0, &vec![i as u8; 1500]).unwrap();
        if i % 4 == 1 {
            fs.unlink(dir, &format!("f{}", i - 1)).unwrap();
        }
        if i % 5 == 0 {
            images.push(fs.crash_image());
        }
    }
    for (k, mut img) in images.into_iter().enumerate() {
        ffs_fsck::fsck(&mut img, true).unwrap_or_else(|e| panic!("crash {k}: {e}"));
        assert!(ffs_fsck::fsck(&mut img, false).expect("verify").clean(), "crash {k}");
        let fs2 = Ffs::mount(img, FfsOptions::default()).expect("mount repaired");
        let _ = fs2.readdir(fs2.root()).expect("readdir after repair");
    }
}

/// The ordering promise: with synchronous metadata, a file whose create
/// *completed* (both ordered writes issued) survives any later crash that
/// loses delayed data — its name resolves and its inode is structurally
/// valid.
#[test]
fn completed_creates_survive_crashes() {
    let fs = cffs_fs(CffsConfig::cffs());
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    for i in 0..10 {
        fs.create(dir, &format!("done{i}")).unwrap();
    }
    // Crash with data and bitmaps still delayed.
    let mut img = fs.crash_image();
    cffs_fsck::fsck(&mut img, true).expect("repair");
    let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount");
    let d = path::resolve(&fs2, "/d").expect("dir survives");
    let names = fs2.readdir(d).expect("readdir");
    assert_eq!(names.len(), 10, "all completed creates visible: {names:?}");
    for e in names {
        // Embedded atomicity: every visible name has a valid inode.
        let a = fs2.getattr(e.ino).expect("inode valid");
        assert_eq!(a.size, 0);
    }
}

/// Conventional ordering leaks inodes on a crash between the two writes
/// (never the reverse). Simulate by crashing right after creates whose
/// directory blocks are synced but whose *data* is not: fsck must only
/// ever *remove* dangling entries or *clear* orphans, and the repaired
/// image must never show a name without a valid inode.
#[test]
fn no_dangling_names_after_repair_all_variants() {
    for cfg in [
        CffsConfig::cffs(),
        CffsConfig::conventional(),
        CffsConfig::embedded_only(),
        CffsConfig::grouping_only(),
    ] {
        let label = cfg.label.clone();
        let fs = cffs_fs(cfg);
        let root = fs.root();
        let dir = fs.mkdir(root, "d").unwrap();
        for i in 0..25 {
            let ino = fs.create(dir, &format!("f{i}")).unwrap();
            fs.write(ino, 0, &vec![7u8; 3000]).unwrap();
        }
        // Rename churn to exercise the two-names window.
        for i in 0..10 {
            fs.rename(dir, &format!("f{i}"), dir, &format!("r{i}")).unwrap();
        }
        let mut img = fs.crash_image();
        cffs_fsck::fsck(&mut img, true).unwrap_or_else(|e| panic!("{label}: {e}"));
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount repaired");
        let d = match path::resolve(&fs2, "/d") {
            Ok(d) => d,
            Err(_) => continue, // whole directory lost: consistent, if sad
        };
        for e in fs2.readdir(d).expect("readdir") {
            fs2.getattr(e.ino)
                .unwrap_or_else(|err| panic!("{label}: dangling name {} ({err})", e.name));
        }
    }
}

/// Synced state is durable: after an explicit sync, a crash loses nothing.
#[test]
fn sync_makes_everything_durable() {
    let fs = cffs_fs(CffsConfig::cffs());
    path::mkdir_p(&fs, "/a/b").unwrap();
    path::write_file(&fs, "/a/b/file.txt", &vec![9u8; 10_000]).unwrap();
    fs.sync().unwrap();
    let mut img = fs.crash_image();
    let report = cffs_fsck::fsck(&mut img, false).expect("check");
    assert!(report.clean(), "synced image must be clean: {:?}", report.errors);
    let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount");
    let data = path::read_file(&fs2, "/a/b/file.txt").expect("file durable");
    assert_eq!(data, vec![9u8; 10_000]);
}
