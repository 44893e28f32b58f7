//! Off-line file-system checker, in the spirit of `fsck` [McKusick94].
//!
//! Works directly on a disk image (timing-free raw access). Five phases,
//! echoing the classic program:
//!
//! 1. **Inodes**: parse every allocated slot in every inode table; validate
//!    sizes and collect claimed data/indirect blocks; detect blocks claimed
//!    twice or marked free in the bitmaps.
//! 2. **Namespace**: walk directories from the root; validate entries
//!    (must point at allocated inodes of the right kind) and count the
//!    references each inode receives.
//! 3. **Link counts**: compare the reference counts with stored `nlink`.
//! 4. **Orphans**: allocated inodes never referenced by any directory (the
//!    expected debris of a crash under the synchronous-ordering discipline,
//!    which leaks inodes rather than losing names).
//! 5. **Bitmaps**: compare on-disk bitmaps with the reachable block/inode
//!    sets.
//!
//! In repair mode the checker clears dangling entries and orphans, fixes
//! link counts and rewrites the bitmaps, then re-runs itself to verify the
//! image is clean.

use crate::layout::{CgHeader, Superblock, INO_BAD, INO_NIL, INO_ROOT, SB_BLOCK};
use cffs_disksim::Disk;
use cffs_fslib::inode::{Inode, NDIRECT, NO_BLOCK, PTRS_PER_BLOCK};
use cffs_fslib::{FileKind, FsError, FsResult, BLOCK_SIZE, SECTORS_PER_BLOCK};
use std::collections::HashMap;

/// Outcome of a check (and optional repair).
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Problems detected in the image as presented.
    pub errors: Vec<String>,
    /// Actions taken (repair mode only).
    pub repairs: Vec<String>,
}

impl FsckReport {
    /// True if the image had no inconsistencies.
    pub fn clean(&self) -> bool {
        self.errors.is_empty()
    }
}

fn read_block(disk: &Disk, blk: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK_SIZE];
    disk.raw_read(blk * SECTORS_PER_BLOCK, &mut buf);
    buf
}

fn write_block(disk: &mut Disk, blk: u64, data: &[u8]) {
    disk.raw_write(blk * SECTORS_PER_BLOCK, data);
}

struct Checker<'d> {
    disk: &'d mut Disk,
    sb: Superblock,
    report: FsckReport,
    /// blk -> first owner inode (for duplicate detection).
    block_owner: HashMap<u64, u64>,
    /// ino -> (inode, namespace reference count).
    inodes: HashMap<u64, (Inode, u32)>,
    repair: bool,
}

/// Check (and with `repair`, fix) the FFS image on `disk`.
pub fn fsck(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    let sb = Superblock::read_from(&read_block(disk, SB_BLOCK))?;
    let mut c = Checker {
        disk,
        sb,
        report: FsckReport::default(),
        block_owner: HashMap::new(),
        inodes: HashMap::new(),
        repair,
    };
    c.phase1_inodes()?;
    c.phase2_namespace()?;
    c.phase3_link_counts()?;
    c.phase4_orphans()?;
    c.phase5_bitmaps()?;
    if repair && !c.report.errors.is_empty() {
        // Verify the repaired image.
        let verify = fsck(c.disk, false)?;
        if !verify.clean() {
            return Err(FsError::Corrupt(format!(
                "repair failed to converge: {:?}",
                verify.errors
            )));
        }
    }
    Ok(c.report)
}

impl Checker<'_> {
    fn claim_block(&mut self, ino: u64, blk: u64) {
        if blk == 0 || blk >= self.sb.total_blocks {
            self.report.errors.push(format!("inode {ino} references invalid block {blk}"));
            return;
        }
        if let Some(prev) = self.block_owner.insert(blk, ino) {
            self.report
                .errors
                .push(format!("block {blk} claimed by inodes {prev} and {ino}"));
        }
    }

    fn phase1_inodes(&mut self) -> FsResult<()> {
        for cg in 0..self.sb.cg_count {
            for i in 0..self.sb.inodes_per_cg as u64 {
                let ino = cg as u64 * self.sb.inodes_per_cg as u64 + i;
                if ino == INO_NIL || ino == INO_BAD {
                    continue;
                }
                let (blk, off) = self.sb.inode_location(ino)?;
                let img = read_block(self.disk, blk);
                let Some(inode) = Inode::read_from(&img, off) else { continue };
                // Claim this inode's blocks.
                let direct = inode.direct;
                for d in direct.into_iter().filter(|&d| d != NO_BLOCK) {
                    self.claim_block(ino, d as u64);
                }
                if inode.indirect != NO_BLOCK {
                    let ind = inode.indirect as u64;
                    self.claim_block(ino, ind);
                    self.claim_indirect(ino, ind);
                }
                if inode.dindirect != NO_BLOCK {
                    let dind = inode.dindirect as u64;
                    self.claim_block(ino, dind);
                    let data = read_block(self.disk, dind);
                    for j in 0..PTRS_PER_BLOCK {
                        let mid = cffs_fslib::codec::get_u32(&data, j * 4);
                        if mid != NO_BLOCK {
                            self.claim_block(ino, mid as u64);
                            self.claim_indirect(ino, mid as u64);
                        }
                    }
                }
                self.inodes.insert(ino, (inode, 0));
            }
        }
        Ok(())
    }

    fn claim_indirect(&mut self, ino: u64, ind: u64) {
        let data = read_block(self.disk, ind);
        for j in 0..PTRS_PER_BLOCK {
            let p = cffs_fslib::codec::get_u32(&data, j * 4);
            if p != NO_BLOCK {
                self.claim_block(ino, p as u64);
            }
        }
    }

    /// Enumerate a file's mapped blocks in logical order (phase 2 helper).
    fn file_blocks(&mut self, inode: &Inode) -> Vec<u64> {
        let mut out = Vec::new();
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        for lbn in 0..nblocks.min(NDIRECT as u64) {
            out.push(inode.direct[lbn as usize] as u64);
        }
        if nblocks > NDIRECT as u64 && inode.indirect != NO_BLOCK {
            let data = read_block(self.disk, inode.indirect as u64);
            let upto = (nblocks - NDIRECT as u64).min(PTRS_PER_BLOCK as u64);
            for j in 0..upto as usize {
                out.push(cffs_fslib::codec::get_u32(&data, j * 4) as u64);
            }
        }
        // Directories never use double-indirect blocks in practice; the
        // namespace walk only needs directory contents.
        out
    }

    fn phase2_namespace(&mut self) -> FsResult<()> {
        if !self.inodes.contains_key(&INO_ROOT) {
            self.report.errors.push("root inode missing".to_string());
            if self.repair {
                let mut root = Inode::new(FileKind::Dir);
                root.nlink = 2;
                let (blk, off) = self.sb.inode_location(INO_ROOT)?;
                let mut img = read_block(self.disk, blk);
                root.write_to(&mut img, off);
                write_block(self.disk, blk, &img);
                self.inodes.insert(INO_ROOT, (root, 0));
                self.report.repairs.push("recreated empty root inode".to_string());
            } else {
                return Ok(());
            }
        }
        let mut queue = vec![INO_ROOT];
        let mut seen = std::collections::HashSet::new();
        seen.insert(INO_ROOT);
        // Root gets one free reference (it has no parent entry).
        if let Some(e) = self.inodes.get_mut(&INO_ROOT) {
            e.1 += 1;
        }
        while let Some(dirino) = queue.pop() {
            let dinode = self.inodes[&dirino].0.clone();
            if dinode.kind != FileKind::Dir {
                self.report.errors.push(format!("non-directory {dirino} on directory walk"));
                continue;
            }
            for blk in self.file_blocks(&dinode) {
                if blk == 0 || blk >= self.sb.total_blocks {
                    self.report
                        .errors
                        .push(format!("directory {dirino} has invalid block {blk}"));
                    continue;
                }
                let mut data = read_block(self.disk, blk);
                let entries = match crate::dir::list(&data) {
                    Ok(es) => es,
                    Err(_) => {
                        self.report
                            .errors
                            .push(format!("directory {dirino} block {blk} is corrupt"));
                        if self.repair {
                            crate::dir::init_block(&mut data);
                            write_block(self.disk, blk, &data);
                            self.report
                                .repairs
                                .push(format!("reinitialized corrupt directory block {blk}"));
                        }
                        continue;
                    }
                };
                let mut dirty = false;
                for e in entries {
                    let child = e.ino as u64;
                    let valid = match self.inodes.get(&child) {
                        Some((ci, _)) => ci.kind == e.kind,
                        None => false,
                    };
                    if !valid {
                        self.report.errors.push(format!(
                            "entry '{}' in directory {dirino} points at bad inode {child}",
                            e.name
                        ));
                        if self.repair {
                            crate::dir::remove(&mut data, &e.name)?;
                            dirty = true;
                            self.report.repairs.push(format!(
                                "removed dangling entry '{}' from directory {dirino}",
                                e.name
                            ));
                        }
                        continue;
                    }
                    if let Some(entry) = self.inodes.get_mut(&child) {
                        entry.1 += 1;
                    }
                    if e.kind == FileKind::Dir {
                        if !seen.insert(child) {
                            self.report
                                .errors
                                .push(format!("directory {child} reachable twice"));
                        } else {
                            queue.push(child);
                        }
                    }
                }
                if dirty {
                    write_block(self.disk, blk, &data);
                }
            }
        }
        Ok(())
    }

    fn phase3_link_counts(&mut self) -> FsResult<()> {
        let mut fixes = Vec::new();
        for (&ino, (inode, refs)) in &self.inodes {
            if *refs == 0 {
                continue; // phase 4 handles orphans
            }
            let expect = match inode.kind {
                // Implicit "." and "..": a directory's nlink is 2 + child dirs.
                FileKind::Dir => {
                    1 + *refs
                        + self
                            .count_child_dirs(inode)
                }
                FileKind::File => *refs,
            };
            if inode.nlink as u32 != expect {
                self.report.errors.push(format!(
                    "inode {ino} has nlink {} but {expect} references",
                    inode.nlink
                ));
                if self.repair {
                    fixes.push((ino, expect));
                }
            }
        }
        for (ino, expect) in fixes {
            let (blk, off) = self.sb.inode_location(ino)?;
            let mut img = read_block(self.disk, blk);
            if let Some(mut inode) = Inode::read_from(&img, off) {
                inode.nlink = expect as u16;
                inode.write_to(&mut img, off);
                write_block(self.disk, blk, &img);
                self.inodes.get_mut(&ino).expect("known inode").0.nlink = expect as u16;
                self.report.repairs.push(format!("fixed nlink of inode {ino} to {expect}"));
            }
        }
        Ok(())
    }

    fn count_child_dirs(&self, dinode: &Inode) -> u32 {
        // Count subdirectory entries (each contributes an implicit "..").
        let mut n = 0;
        let nblocks = dinode.size.div_ceil(BLOCK_SIZE as u64);
        for lbn in 0..nblocks.min(NDIRECT as u64) {
            let blk = dinode.direct[lbn as usize] as u64;
            if blk == 0 || blk >= self.sb.total_blocks {
                continue;
            }
            if let Ok(entries) = crate::dir::list(&read_block(self.disk, blk)) {
                n += entries.iter().filter(|e| e.kind == FileKind::Dir).count() as u32;
            }
        }
        n
    }

    fn phase4_orphans(&mut self) -> FsResult<()> {
        let orphans: Vec<u64> = self
            .inodes
            .iter()
            .filter(|(_, (_, refs))| *refs == 0)
            .map(|(&ino, _)| ino)
            .collect();
        for ino in orphans {
            self.report.errors.push(format!("inode {ino} allocated but unreferenced"));
            if self.repair {
                let (blk, off) = self.sb.inode_location(ino)?;
                let mut img = read_block(self.disk, blk);
                Inode::clear_slot(&mut img, off);
                write_block(self.disk, blk, &img);
                self.inodes.remove(&ino);
                self.report.repairs.push(format!("cleared orphan inode {ino}"));
            }
        }
        Ok(())
    }

    fn phase5_bitmaps(&mut self) -> FsResult<()> {
        // Recompute expected bitmaps from the (possibly repaired) state.
        let live: std::collections::HashSet<u64> = if self.repair {
            // After orphan clearing, only reachable inodes own blocks.
            let mut owned = std::collections::HashSet::new();
            for (&blk, &ino) in &self.block_owner {
                if self.inodes.contains_key(&ino) {
                    owned.insert(blk);
                }
            }
            owned
        } else {
            self.block_owner.keys().copied().collect()
        };
        for cg in 0..self.sb.cg_count {
            let hdr_blk = self.sb.cg_header_block(cg);
            let img = read_block(self.disk, hdr_blk);
            let Ok(mut hdr) = CgHeader::read_from(&img, cg) else {
                self.report.errors.push(format!("cylinder group {cg} header corrupt"));
                continue;
            };
            let data_start = self.sb.cg_data_start(cg);
            let mut bad = false;
            for i in 0..hdr.block_bitmap.len() {
                let blk = data_start + i as u64;
                let should = live.contains(&blk);
                if hdr.block_bitmap.get(i) != should {
                    bad = true;
                    self.report.errors.push(format!(
                        "block {blk} bitmap says {} but is {}",
                        hdr.block_bitmap.get(i),
                        should
                    ));
                    if self.repair {
                        if should {
                            hdr.block_bitmap.set(i);
                        } else {
                            hdr.block_bitmap.clear(i);
                        }
                    }
                }
            }
            for i in 0..hdr.inode_bitmap.len() {
                let ino = cg as u64 * self.sb.inodes_per_cg as u64 + i as u64;
                let should = (cg == 0 && (ino == INO_NIL || ino == INO_BAD))
                    || self.inodes.contains_key(&ino);
                if hdr.inode_bitmap.get(i) != should {
                    bad = true;
                    self.report.errors.push(format!(
                        "inode {ino} bitmap says {} but is {}",
                        hdr.inode_bitmap.get(i),
                        should
                    ));
                    if self.repair {
                        if should {
                            hdr.inode_bitmap.set(i);
                        } else {
                            hdr.inode_bitmap.clear(i);
                        }
                    }
                }
            }
            if bad && self.repair {
                let mut out = vec![0u8; BLOCK_SIZE];
                hdr.write_to(&mut out);
                write_block(self.disk, hdr_blk, &out);
                self.report.repairs.push(format!("rewrote bitmaps of cylinder group {cg}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FfsOptions;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::{path, ConcurrentFs, FileSystem};

    fn populated_disk() -> Disk {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), FfsOptions::default()).unwrap();
        path::mkdir_p(&fs, "/a/b").unwrap();
        path::write_file(&fs, "/a/x.txt", b"hello").unwrap();
        path::write_file(&fs, "/a/b/y.txt", &vec![7u8; 100_000]).unwrap();
        let f = path::resolve(&fs, "/a/x.txt").unwrap();
        fs.link(f, fs.root(), "hard").unwrap();
        fs.unmount().unwrap()
    }

    #[test]
    fn clean_fs_passes() {
        let mut disk = populated_disk();
        let report = fsck(&mut disk, false).unwrap();
        assert!(report.clean(), "unexpected errors: {:?}", report.errors);
    }

    #[test]
    fn detects_and_repairs_orphan_inode() {
        let mut disk = populated_disk();
        // Forge an orphan: allocate a slot in the bitmap + inode table with
        // no directory entry.
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let ino = 200u64;
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(&disk, blk);
        Inode::new(FileKind::File).write_to(&mut img, off);
        write_block(&mut disk, blk, &img);
        let hdr_blk = sb.cg_header_block(0);
        let mut hdr = CgHeader::read_from(&read_block(&disk, hdr_blk), 0).unwrap();
        hdr.inode_bitmap.set(ino as usize);
        let mut out = vec![0u8; BLOCK_SIZE];
        hdr.write_to(&mut out);
        write_block(&mut disk, hdr_blk, &out);

        let report = fsck(&mut disk, false).unwrap();
        assert!(!report.clean());
        let report = fsck(&mut disk, true).unwrap();
        assert!(!report.repairs.is_empty());
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn detects_dangling_dirent() {
        let mut disk = populated_disk();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        // Clear the inode that "/a/x.txt" points to without touching the
        // directory — simulating a crash with the wrong write order.
        let fs = crate::fs::Ffs::mount(disk, FfsOptions::default()).unwrap();
        let ino = path::resolve(&fs, "/a/x.txt").unwrap();
        disk = fs.unmount().unwrap();
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(&disk, blk);
        Inode::clear_slot(&mut img, off);
        write_block(&mut disk, blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("bad inode")), "{:?}", report.errors);
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
        // The name is gone after repair.
        let fs = crate::fs::Ffs::mount(disk, FfsOptions::default()).unwrap();
        assert!(path::resolve(&fs, "/a/x.txt").is_err());
        assert!(path::resolve(&fs, "/a/b/y.txt").is_ok());
    }

    #[test]
    fn detects_bitmap_drift() {
        let mut disk = populated_disk();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let hdr_blk = sb.cg_header_block(0);
        let mut hdr = CgHeader::read_from(&read_block(&disk, hdr_blk), 0).unwrap();
        // Mark a random free block as allocated.
        let idx = hdr.block_bitmap.find_free(100).unwrap();
        hdr.block_bitmap.set(idx);
        let mut out = vec![0u8; BLOCK_SIZE];
        hdr.write_to(&mut out);
        write_block(&mut disk, hdr_blk, &out);

        let report = fsck(&mut disk, false).unwrap();
        assert!(!report.clean());
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn detects_wrong_nlink() {
        let mut disk = populated_disk();
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let fs = crate::fs::Ffs::mount(disk, FfsOptions::default()).unwrap();
        let ino = path::resolve(&fs, "/a/b/y.txt").unwrap();
        disk = fs.unmount().unwrap();
        let (blk, off) = sb.inode_location(ino).unwrap();
        let mut img = read_block(&disk, blk);
        let mut inode = Inode::read_from(&img, off).unwrap();
        inode.nlink = 7;
        inode.write_to(&mut img, off);
        write_block(&mut disk, blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("nlink")));
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }
}
