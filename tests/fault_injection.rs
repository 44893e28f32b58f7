//! Fault injection: crashes *inside* a multi-sector write.
//!
//! The disk guarantees sector atomicity and nothing more: a crash during a
//! 4 KB block write may commit any sector-aligned prefix. The paper builds
//! directly on this ("by keeping the two items in the same sector, we can
//! guarantee that they will be consistent with respect to each other"), so
//! the suite injects torn writes at every possible split point and demands
//! that:
//!
//! * fsck repairs every torn image back to a clean state, for every
//!   variant and every tear point;
//! * with embedded inodes, a name that survives the tear always carries a
//!   complete, valid inode — never half of one.

use cffs::core::{fsck, Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs_disksim::models;
use cffs_disksim::Disk;

fn fresh(cfg: CffsConfig) -> Cffs {
    cffs::core::mkfs::mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), cfg)
        .expect("mkfs")
}

/// Tear the most recent write at every sector boundary and check that fsck
/// converges on each resulting image.
fn tear_everywhere_and_repair(fs: &Cffs, context: &str) {
    for keep in 0..=8 {
        let Some(mut img) = fs.crash_image_torn(keep) else { return };
        fsck::fsck(&mut img, true)
            .unwrap_or_else(|e| panic!("{context}, tear at {keep}: repair diverged: {e}"));
        let verify = fsck::fsck(&mut img, false).expect("verify");
        assert!(
            verify.clean(),
            "{context}, tear at {keep}: still dirty: {:?}",
            verify.errors
        );
        // And every surviving name resolves to a valid inode.
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount repaired");
        let mut stack = vec![fs2.root()];
        while let Some(dir) = stack.pop() {
            for e in fs2.readdir(dir).expect("readdir") {
                let attr = fs2
                    .getattr(e.ino)
                    .unwrap_or_else(|err| panic!("{context}, tear at {keep}: '{}' dangles: {err}", e.name));
                if attr.kind == FileKind::Dir {
                    stack.push(e.ino);
                }
            }
        }
    }
}

#[test]
fn torn_writes_during_creates_all_variants() {
    for cfg in [
        CffsConfig::cffs(),
        CffsConfig::conventional(),
        CffsConfig::embedded_only(),
        CffsConfig::grouping_only(),
    ] {
        let label = cfg.label.clone();
        let fs = fresh(cfg);
        let root = fs.root();
        let dir = fs.mkdir(root, "d").unwrap();
        for i in 0..12 {
            let ino = fs.create(dir, &format!("f{i}")).unwrap();
            fs.write(ino, 0, &vec![i as u8; 2000]).unwrap();
            tear_everywhere_and_repair(&fs, &format!("{label} after create f{i}"));
        }
    }
}

#[test]
fn torn_writes_during_deletes_and_renames() {
    let fs = fresh(CffsConfig::cffs());
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    for i in 0..10 {
        let ino = fs.create(dir, &format!("f{i}")).unwrap();
        fs.write(ino, 0, &vec![7u8; 1024]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..5 {
        fs.unlink(dir, &format!("f{i}")).unwrap();
        tear_everywhere_and_repair(&fs, &format!("after unlink f{i}"));
    }
    for i in 5..10 {
        fs.rename(dir, &format!("f{i}"), root, &format!("moved{i}")).unwrap();
        tear_everywhere_and_repair(&fs, &format!("after rename f{i}"));
    }
}

#[test]
fn torn_writes_during_sync_flush() {
    // Delayed mode: everything lands in one big flush; tear its last write.
    let fs = fresh(CffsConfig::cffs().with_mode(MetadataMode::Delayed));
    let root = fs.root();
    for d in 0..4 {
        let dir = fs.mkdir(root, &format!("d{d}")).unwrap();
        for f in 0..8 {
            let ino = fs.create(dir, &format!("f{f}")).unwrap();
            fs.write(ino, 0, &vec![(d * f) as u8; 3000]).unwrap();
        }
    }
    fs.sync().unwrap();
    tear_everywhere_and_repair(&fs, "after delayed-mode sync");
}

/// The atomicity guarantee itself, stated positively: a completed
/// embedded-inode create survives a torn *later* write untouched, because
/// name and inode went to disk in one sector program.
#[test]
fn embedded_name_inode_pair_never_splits() {
    let fs = fresh(CffsConfig::cffs());
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    let a = fs.create(dir, "complete").unwrap();
    fs.write(a, 0, b"done").unwrap();
    // A second create's sector write is the one that tears.
    let _b = fs.create(dir, "torn-victim").unwrap();
    for keep in 0..=8 {
        let Some(mut img) = fs.crash_image_torn(keep) else { break };
        fsck::fsck(&mut img, true).expect("repair");
        let fs2 = Cffs::mount(img, CffsConfig::cffs()).expect("mount");
        let d = path::resolve(&fs2, "/d").expect("dir present");
        // "complete" must exist with a whole inode; "torn-victim" is
        // all-or-nothing — present with a valid inode, or absent.
        let ino = fs2.lookup(d, "complete").expect("completed create survives");
        assert_eq!(fs2.getattr(ino).expect("valid inode").kind, FileKind::File);
        match fs2.lookup(d, "torn-victim") {
            Ok(v) => {
                fs2.getattr(v).expect("if the name landed, the inode landed with it");
            }
            Err(FsError::NotFound) => {}
            Err(e) => panic!("unexpected: {e}"),
        }
    }
}
