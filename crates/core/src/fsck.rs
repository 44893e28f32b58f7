//! Off-line checker for C-FFS.
//!
//! The paper's "File system recovery" discussion: "Although inodes are no
//! longer at statically determined locations, they can all be found
//! (assuming no media corruption) by following the directory hierarchy."
//! That is exactly what this checker does:
//!
//! 1. **Namespace walk** from the root (external slot 0): every embedded
//!    inode is discovered inside its directory block; external references
//!    are counted. Files whose blocks are already claimed by an
//!    earlier-visited file (the debris of a crashed rename, which briefly
//!    holds two embedded copies) are treated as duplicates and dropped in
//!    repair mode.
//! 2. **External inode file scan**: slots holding images that the walk
//!    never referenced are orphans (the expected leak of the ordering
//!    discipline — never a lost name).
//! 3. **Link counts**: embedded inodes must have exactly one link by
//!    construction; external files must match their reference count;
//!    directories carry 2 + child-directories.
//! 4. **Group descriptors**: extents must lie inside their cylinder group
//!    with all blocks reserved in the bitmap; member bits must exactly
//!    match the walk's claims inside the extent.
//! 5. **Bitmaps**: a block is allocated iff it is claimed by a file, the
//!    external inode file, or reserved by a group extent.
//!
//! Repair rebuilds group descriptors and bitmaps from the walk, clears
//! orphans and duplicates, fixes link counts, then re-verifies.

use crate::dirent::{self, EntryLoc};
use crate::exfile;
use crate::layout::{
    decode_ino, embedded_ino, external_ino, CgHeader, GroupDescDisk, InoRef, Superblock,
    GROUP_BLOCKS, INO_ROOT, SB_BLOCK,
};
use cffs_fslib::inode::{Inode, NDIRECT, NO_BLOCK, PTRS_PER_BLOCK};
use cffs_disksim::Disk;
use cffs_fslib::{FileKind, FsError, FsResult, Ino, BLOCK_SIZE, SECTORS_PER_BLOCK};
use std::collections::{HashMap, HashSet};

/// Outcome of a check (and optional repair).
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Problems detected.
    pub errors: Vec<String>,
    /// Actions taken (repair mode).
    pub repairs: Vec<String>,
    /// Live files found by the walk.
    pub files: usize,
    /// Live directories found by the walk.
    pub dirs: usize,
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

/// Check (and with `repair`, fix) the C-FFS image on `disk`.
///
/// An inconsistent verdict (a report with errors, or an outright
/// failure) flushes every armed flight recorder first: the black box
/// exists precisely for the runs whose images did not come back clean.
pub fn fsck(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    let res = fsck_inner(disk, repair);
    match &res {
        Ok(report) if !report.clean() => cffs_obs::telemetry::dump_all("fsck_failure"),
        Err(_) => cffs_obs::telemetry::dump_all("fsck_failure"),
        Ok(_) => {}
    }
    res
}

fn fsck_inner(disk: &mut Disk, repair: bool) -> FsResult<FsckReport> {
    let sb = Superblock::read_from(&read_block(disk, SB_BLOCK))?;
    let mut c = Checker {
        disk,
        sb,
        repair,
        report: FsckReport::default(),
        claimed: HashMap::new(),
        ext_refs: HashMap::new(),
        inodes: HashMap::new(),
    };
    c.claim_exfile()?;
    c.walk_namespace()?;
    c.check_external_orphans()?;
    c.check_link_counts()?;
    c.check_groups_and_bitmaps()?;
    if repair && !c.report.errors.is_empty() {
        let verify = fsck_inner(c.disk, false)?;
        if !verify.clean() {
            return Err(FsError::Corrupt(format!(
                "repair failed to converge: {:?}",
                verify.errors
            )));
        }
    }
    Ok(c.report)
}

struct Checker<'d> {
    disk: &'d mut Disk,
    sb: Superblock,
    repair: bool,
    report: FsckReport,
    /// blk -> owning ino (u64::MAX = the external inode file itself).
    claimed: HashMap<u64, Ino>,
    /// external slot -> reference count from the namespace.
    ext_refs: HashMap<u32, u32>,
    /// every live inode found (by current number) with child-dir count for
    /// directories.
    inodes: HashMap<Ino, (Inode, u32)>,
}

const EXFILE_OWNER: Ino = u64::MAX;

impl Checker<'_> {
    /// Every data/indirect block an inode maps, in logical order, plus the
    /// indirect blocks themselves.
    fn blocks_of(&self, inode: &Inode) -> (Vec<u64>, Vec<u64>) {
        let mut data = Vec::new();
        let mut meta = Vec::new();
        let nblocks = inode.size.div_ceil(BLOCK_SIZE as u64);
        for lbn in 0..nblocks.min(NDIRECT as u64) {
            let b = inode.direct[lbn as usize];
            if b != NO_BLOCK {
                data.push(b as u64);
            }
        }
        if nblocks > NDIRECT as u64 && inode.indirect != NO_BLOCK {
            meta.push(inode.indirect as u64);
            let img = read_block(self.disk, inode.indirect as u64);
            let upto = (nblocks - NDIRECT as u64).min(PTRS_PER_BLOCK as u64) as usize;
            for i in 0..upto {
                let b = cffs_fslib::codec::get_u32(&img, i * 4);
                if b != NO_BLOCK {
                    data.push(b as u64);
                }
            }
        }
        let l2_total = nblocks.saturating_sub(NDIRECT as u64 + PTRS_PER_BLOCK as u64);
        if l2_total > 0 && inode.dindirect != NO_BLOCK {
            meta.push(inode.dindirect as u64);
            let dimg = read_block(self.disk, inode.dindirect as u64);
            let outers = l2_total.div_ceil(PTRS_PER_BLOCK as u64) as usize;
            for o in 0..outers.min(PTRS_PER_BLOCK) {
                let mid = cffs_fslib::codec::get_u32(&dimg, o * 4);
                if mid == NO_BLOCK {
                    continue;
                }
                meta.push(mid as u64);
                let img = read_block(self.disk, mid as u64);
                let remain = l2_total - (o * PTRS_PER_BLOCK) as u64;
                for i in 0..(remain.min(PTRS_PER_BLOCK as u64) as usize) {
                    let b = cffs_fslib::codec::get_u32(&img, i * 4);
                    if b != NO_BLOCK {
                        data.push(b as u64);
                    }
                }
            }
        }
        (data, meta)
    }

    /// Claim `blk` for `owner`; returns false (and records an error) on a
    /// duplicate or out-of-range claim.
    fn claim(&mut self, owner: Ino, blk: u64) -> bool {
        if blk < self.sb.cg_data_start(0) || blk >= self.sb.total_blocks {
            self.report.errors.push(format!("inode {owner:#x} references invalid block {blk}"));
            return false;
        }
        if let Some(prev) = self.claimed.insert(blk, owner) {
            self.report
                .errors
                .push(format!("block {blk} claimed by {prev:#x} and {owner:#x}"));
            self.claimed.insert(blk, prev);
            return false;
        }
        true
    }

    fn exfile_block(&self, slot: u32) -> Option<u64> {
        let lbn = exfile::slot_lbn(slot);
        let ex = &self.sb.exfile;
        if lbn < NDIRECT as u64 {
            let b = ex.direct[lbn as usize];
            (b != NO_BLOCK).then_some(b as u64)
        } else if ex.indirect != NO_BLOCK {
            let img = read_block(self.disk, ex.indirect as u64);
            let b = cffs_fslib::codec::get_u32(&img, (lbn as usize - NDIRECT) * 4);
            (b != NO_BLOCK).then_some(b as u64)
        } else {
            None
        }
    }

    fn read_external(&self, slot: u32) -> Option<Inode> {
        let blk = self.exfile_block(slot)?;
        Inode::read_from(&read_block(self.disk, blk), exfile::slot_off(slot))
    }

    fn claim_exfile(&mut self) -> FsResult<()> {
        let ex = self.sb.exfile.clone();
        let (data, meta) = self.blocks_of(&ex);
        for b in data.into_iter().chain(meta) {
            self.claim(EXFILE_OWNER, b);
        }
        Ok(())
    }

    fn walk_namespace(&mut self) -> FsResult<()> {
        let Some(root) = self.read_external(0) else {
            self.report.errors.push("root inode missing".into());
            if self.repair {
                let Some(blk) = self.exfile_block(0) else {
                    return Err(FsError::Corrupt("external inode file unreadable".into()));
                };
                let mut img = read_block(self.disk, blk);
                let mut r = Inode::new(FileKind::Dir);
                r.nlink = 2;
                r.write_to(&mut img, 0);
                write_block(self.disk, blk, &img);
                self.report.repairs.push("recreated empty root inode".into());
                return self.walk_namespace();
            }
            return Ok(());
        };
        self.ext_refs.insert(0, 1);
        self.inodes.insert(INO_ROOT, (root.clone(), 0));
        self.report.dirs += 1;
        let mut queue = vec![(INO_ROOT, root)];
        let mut seen_dirs: HashSet<Ino> = [INO_ROOT].into();
        while let Some((dirino, dinode)) = queue.pop() {
            let (dblocks, dmeta) = self.blocks_of(&dinode);
            for b in dblocks.iter().chain(&dmeta) {
                self.claim(dirino, *b);
            }
            let mut child_dirs = 0u32;
            for &blk in &dblocks {
                let mut img = read_block(self.disk, blk);
                let entries = match dirent::list(&img) {
                    Ok(es) => es,
                    Err(_) => {
                        self.report
                            .errors
                            .push(format!("directory {dirino:#x} block {blk} corrupt"));
                        if self.repair {
                            dirent::init_block(&mut img);
                            write_block(self.disk, blk, &img);
                            self.report
                                .repairs
                                .push(format!("reinitialized directory block {blk}"));
                        }
                        continue;
                    }
                };
                let mut dirty = false;
                for e in entries {
                    let (ino, inode) = match e.loc {
                        EntryLoc::Embedded(img_off) => {
                            let ino = embedded_ino(blk, e.offset, e.gen);
                            match Inode::read_from(&img, img_off) {
                                Some(i) if i.kind == e.kind => (ino, i),
                                _ => {
                                    self.report.errors.push(format!(
                                        "embedded inode of '{}' in {dirino:#x} invalid",
                                        e.name
                                    ));
                                    if self.repair {
                                        dirent::remove(&mut img, &e.name)?;
                                        dirty = true;
                                        self.report
                                            .repairs
                                            .push(format!("removed bad entry '{}'", e.name));
                                    }
                                    continue;
                                }
                            }
                        }
                        EntryLoc::External(slot) => {
                            let ino = external_ino(slot);
                            match self.read_external(slot) {
                                Some(i) if i.kind == e.kind => {
                                    *self.ext_refs.entry(slot).or_insert(0) += 1;
                                    (ino, i)
                                }
                                _ => {
                                    self.report.errors.push(format!(
                                        "entry '{}' in {dirino:#x} points at bad external slot {slot}",
                                        e.name
                                    ));
                                    if self.repair {
                                        dirent::remove(&mut img, &e.name)?;
                                        dirty = true;
                                        self.report
                                            .repairs
                                            .push(format!("removed dangling entry '{}'", e.name));
                                    }
                                    continue;
                                }
                            }
                        }
                    };
                    match inode.kind {
                        FileKind::Dir => {
                            if !seen_dirs.insert(ino) {
                                self.report
                                    .errors
                                    .push(format!("directory {ino:#x} reachable twice"));
                                continue;
                            }
                            child_dirs += 1;
                            self.report.dirs += 1;
                            self.inodes.insert(ino, (inode.clone(), 0));
                            queue.push((ino, inode));
                        }
                        FileKind::File => {
                            if self.inodes.contains_key(&ino) {
                                // Same external inode via several names: blocks
                                // already claimed.
                                continue;
                            }
                            // Claim this file's blocks; duplicates mean a
                            // crashed rename left two copies — drop this one.
                            let (data, meta) = self.blocks_of(&inode);
                            let dup = data.iter().chain(&meta).any(|b| self.claimed.contains_key(b));
                            if dup {
                                self.report.errors.push(format!(
                                    "file '{}' in {dirino:#x} duplicates already-claimed blocks",
                                    e.name
                                ));
                                if self.repair {
                                    dirent::remove(&mut img, &e.name)?;
                                    dirty = true;
                                    if let EntryLoc::External(slot) = e.loc {
                                        *self.ext_refs.entry(slot).or_insert(1) -= 1;
                                    }
                                    self.report
                                        .repairs
                                        .push(format!("removed duplicate entry '{}'", e.name));
                                }
                                continue;
                            }
                            for b in data.into_iter().chain(meta) {
                                self.claim(ino, b);
                            }
                            self.report.files += 1;
                            self.inodes.insert(ino, (inode, 0));
                        }
                    }
                }
                if dirty {
                    write_block(self.disk, blk, &img);
                }
            }
            if let Some(entry) = self.inodes.get_mut(&dirino) {
                entry.1 = child_dirs;
            }
        }
        Ok(())
    }

    fn check_external_orphans(&mut self) -> FsResult<()> {
        for slot in 0..self.sb.exfile_slots {
            if self.read_external(slot).is_some() && !self.ext_refs.contains_key(&slot) {
                self.report.errors.push(format!("external inode {slot} is an orphan"));
                if self.repair {
                    // Free its blocks too: nothing references them.
                    if let Some(inode) = self.read_external(slot) {
                        let (data, meta) = self.blocks_of(&inode);
                        for b in data.into_iter().chain(meta) {
                            self.claimed.remove(&b);
                        }
                    }
                    let blk = self.exfile_block(slot).expect("slot readable");
                    let mut img = read_block(self.disk, blk);
                    Inode::clear_slot(&mut img, exfile::slot_off(slot));
                    write_block(self.disk, blk, &img);
                    self.report.repairs.push(format!("cleared orphan external inode {slot}"));
                }
            }
        }
        // Stale reference counts of removed duplicates.
        self.ext_refs.retain(|_, c| *c > 0);
        Ok(())
    }

    fn check_link_counts(&mut self) -> FsResult<()> {
        let mut fixes: Vec<(Ino, u16)> = Vec::new();
        for (&ino, (inode, child_dirs)) in &self.inodes {
            let expect = match (inode.kind, decode_ino(ino)) {
                (FileKind::Dir, _) => 2 + *child_dirs as u16,
                (FileKind::File, InoRef::Embedded { .. }) => 1,
                (FileKind::File, InoRef::External(slot)) => {
                    *self.ext_refs.get(&slot).unwrap_or(&0) as u16
                }
            };
            if inode.nlink != expect {
                self.report
                    .errors
                    .push(format!("inode {ino:#x} has nlink {} but {expect} references", inode.nlink));
                if self.repair {
                    fixes.push((ino, expect));
                }
            }
        }
        for (ino, expect) in fixes {
            let (blk, img_off) = match decode_ino(ino) {
                InoRef::External(slot) => {
                    (self.exfile_block(slot).expect("readable"), exfile::slot_off(slot))
                }
                InoRef::Embedded { blk, off, .. } => {
                    let img = read_block(self.disk, blk);
                    let e = dirent::entry_at(&img, off)?;
                    let EntryLoc::Embedded(io) = e.loc else { continue };
                    (blk, io)
                }
            };
            let mut img = read_block(self.disk, blk);
            if let Some(mut inode) = Inode::read_from(&img, img_off) {
                inode.nlink = expect;
                inode.write_to(&mut img, img_off);
                write_block(self.disk, blk, &img);
                if let Some(entry) = self.inodes.get_mut(&ino) {
                    entry.0.nlink = expect;
                }
                self.report.repairs.push(format!("fixed nlink of inode {ino:#x} to {expect}"));
            }
        }
        Ok(())
    }

    fn check_groups_and_bitmaps(&mut self) -> FsResult<()> {
        for cg in 0..self.sb.cg_count {
            let hdr_blk = self.sb.cg_header_block(cg);
            let Ok(mut hdr) = CgHeader::read_from(&read_block(self.disk, hdr_blk), cg) else {
                self.report.errors.push(format!("cylinder group {cg} header corrupt"));
                continue;
            };
            let data_start = self.sb.cg_data_start(cg);
            let mut dirty = false;
            // Blocks reserved by (valid) group extents.
            let mut reserved: HashSet<u64> = HashSet::new();
            for (i, slot) in hdr.groups.iter_mut().enumerate() {
                let Some(mut desc) = *slot else { continue };
                let start = data_start + desc.start_idx as u64;
                let ok_geometry = desc.nslots as usize <= GROUP_BLOCKS
                    && desc.nslots > 0
                    && desc.start_idx as usize + desc.nslots as usize
                        <= self.sb.data_per_cg() as usize;
                let owner_ok = matches!(
                    self.inodes.get(&desc.owner),
                    Some((inode, _)) if inode.kind == FileKind::Dir
                );
                if !ok_geometry || !owner_ok {
                    self.report.errors.push(format!(
                        "group {cg}/{i} invalid (geometry ok: {ok_geometry}, owner ok: {owner_ok})"
                    ));
                    if self.repair {
                        *slot = None;
                        dirty = true;
                        self.report.repairs.push(format!("deleted group descriptor {cg}/{i}"));
                    }
                    continue;
                }
                // Member bits must match claims inside the extent.
                let mut expect: u16 = 0;
                for s in 0..desc.nslots {
                    if self.claimed.contains_key(&(start + s as u64)) {
                        expect |= 1 << s;
                    }
                }
                if desc.member_valid != expect {
                    self.report.errors.push(format!(
                        "group {cg}/{i} member bits {:#06x}, expected {expect:#06x}",
                        desc.member_valid
                    ));
                    if self.repair {
                        if expect == 0 {
                            *slot = None;
                            self.report.repairs.push(format!("dissolved empty group {cg}/{i}"));
                        } else {
                            desc.member_valid = expect;
                            *slot = Some(desc);
                            self.report.repairs.push(format!("rebuilt member bits of {cg}/{i}"));
                        }
                        dirty = true;
                    }
                }
                let live = if self.repair {
                    slot.as_ref().map(|d| (start, d.nslots)).into_iter().collect::<Vec<_>>()
                } else {
                    vec![(start, desc.nslots)]
                };
                for (s, n) in live {
                    for b in s..s + n as u64 {
                        reserved.insert(b);
                    }
                }
            }
            // Bitmap: allocated ⇔ claimed or group-reserved.
            for idx in 0..hdr.block_bitmap.len() {
                let blk = data_start + idx as u64;
                let should = self.claimed.contains_key(&blk) || reserved.contains(&blk);
                if hdr.block_bitmap.get(idx) != should {
                    self.report.errors.push(format!(
                        "block {blk} bitmap says {} but should be {should}",
                        hdr.block_bitmap.get(idx)
                    ));
                    if self.repair {
                        if should {
                            hdr.block_bitmap.set(idx);
                        } else {
                            hdr.block_bitmap.clear(idx);
                        }
                        dirty = true;
                    }
                }
            }
            if dirty {
                let mut img = vec![0u8; BLOCK_SIZE];
                hdr.write_to(&mut img);
                write_block(self.disk, hdr_blk, &img);
                self.report.repairs.push(format!("rewrote cylinder group {cg} header"));
            }
        }
        // Silence unused-variable warnings for GroupDescDisk import.
        let _ = std::mem::size_of::<GroupDescDisk>();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CffsConfig;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::path;

    fn populated(cfg: CffsConfig) -> Disk {
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), cfg).unwrap();
        path::mkdir_p(&fs, "/src/lib").unwrap();
        for i in 0..20 {
            path::write_file(&fs, &format!("/src/f{i}.c"), &vec![i as u8; 1024]).unwrap();
        }
        path::write_file(&fs, "/src/lib/big.bin", &vec![9u8; 150_000]).unwrap();
        let f = path::resolve(&fs, "/src/f0.c").unwrap();
        fs.link(f, fs.root(), "hard").unwrap();
        path::remove_file(&fs, "/src/f3.c").unwrap();
        fs.unmount().unwrap()
    }

    #[test]
    fn clean_after_workload_all_variants() {
        for cfg in [
            CffsConfig::cffs(),
            CffsConfig::conventional(),
            CffsConfig::embedded_only(),
            CffsConfig::grouping_only(),
        ] {
            let label = cfg.label.clone();
            let mut disk = populated(cfg);
            let report = fsck(&mut disk, false).unwrap();
            assert!(report.clean(), "{label}: {:?}", report.errors);
            assert_eq!(report.files, 20, "{label}"); // 19 files + big.bin
            assert_eq!(report.dirs, 3, "{label}");
        }
    }

    #[test]
    fn orphan_external_inode_detected_and_repaired() {
        let mut disk = populated(CffsConfig::cffs());
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        // Write an image into a free slot without referencing it.
        let blk = sb.exfile.direct[0] as u64;
        let mut img = read_block(&disk, blk);
        let slot = 20u32; // tiny fs: well within block 0, unused
        Inode::new(FileKind::File).write_to(&mut img, exfile::slot_off(slot));
        write_block(&mut disk, blk, &img);

        let report = fsck(&mut disk, false).unwrap();
        assert!(report.errors.iter().any(|e| e.contains("orphan")), "{:?}", report.errors);
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn bitmap_drift_detected_and_repaired() {
        let mut disk = populated(CffsConfig::cffs());
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let hdr_blk = sb.cg_header_block(1);
        let mut hdr = CgHeader::read_from(&read_block(&disk, hdr_blk), 1).unwrap();
        let idx = hdr.block_bitmap.find_free(50).unwrap();
        hdr.block_bitmap.set(idx);
        let mut img = vec![0u8; BLOCK_SIZE];
        hdr.write_to(&mut img);
        write_block(&mut disk, hdr_blk, &img);

        assert!(!fsck(&mut disk, false).unwrap().clean());
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }

    #[test]
    fn torn_create_name_never_dangles_with_embedding() {
        // The embedded-inode atomicity claim: with name and inode in one
        // sector, a crash between "inode write" and "name write" cannot
        // exist. Simulate the worst crash — directory block written, data
        // not — and verify fsck finds a structurally valid file.
        let disk = Disk::new(models::tiny_test_disk());
        let fs = mkfs(disk, MkfsParams::tiny(), CffsConfig::cffs()).unwrap();
        path::write_file(&fs, "/a.txt", b"x").unwrap();
        let mut crash = fs.crash_image();
        // Synchronous mode: the entry (name+inode) hit the disk at create.
        let report = fsck(&mut crash, true).unwrap();
        // Whatever was lost, repair converges and no name dangles.
        assert!(fsck(&mut crash, false).unwrap().clean());
        let _ = report;
    }

    #[test]
    fn corrupt_dir_block_repaired() {
        let mut disk = populated(CffsConfig::cffs());
        // Find a directory block by walking from the root and smash it.
        let sb = Superblock::read_from(&read_block(&disk, SB_BLOCK)).unwrap();
        let root = Inode::read_from(&read_block(&disk, sb.exfile.direct[0] as u64), 0).unwrap();
        let rblk = root.direct[0] as u64;
        let mut img = read_block(&disk, rblk);
        img[0] = 0xFF;
        img[1] = 0xFF; // absurd reclen
        write_block(&mut disk, rblk, &img);
        assert!(!fsck(&mut disk, false).unwrap().clean());
        fsck(&mut disk, true).unwrap();
        assert!(fsck(&mut disk, false).unwrap().clean());
    }
}
