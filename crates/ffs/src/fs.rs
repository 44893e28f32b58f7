//! The mounted file system: `Ffs` and its [`ConcurrentFs`] +
//! [`FileSystem`] implementation.
//!
//! ## Metadata update ordering
//!
//! In [`MetadataMode::Synchronous`] the classic FFS discipline [Ganger94]
//! applies:
//!
//! * **create/mkdir/link**: the initialized (or re-counted) inode block is
//!   written synchronously *before* the directory block naming it — a
//!   crash may leak an inode but can never produce a name that points at
//!   an uninitialized inode.
//! * **unlink/rmdir**: the directory block is written synchronously
//!   *before* the inode is cleared and freed — a crash may leak the inode
//!   again, but a name never points at freed storage.
//!
//! That is two synchronous disk writes per create and per delete: the cost
//! C-FFS's embedded inodes halve (name and inode share a sector) and soft
//! updates eliminate. In [`MetadataMode::Delayed`] every metadata write is
//! simply left dirty in the cache until `sync` — the paper's
//! soft-updates emulation.
//!
//! File *data* writes are always delayed; bitmaps and the superblock are
//! flushed at sync, as in the real FFS.
//!
//! ## Concurrency
//!
//! `Ffs` is `Send + Sync` but stays the serial baseline. Its only mutable
//! state, the [`Allocator`], sits behind one mutex that every operation
//! holds from entry to return (an `Op`; `drop_caches` holds it through the
//! `sync` it runs), so concurrent callers queue instead of interleaving
//! metadata updates.

use crate::alloc::Allocator;
use crate::dir;
use crate::layout::{CgHeader, Superblock, INO_ROOT, SB_BLOCK};
use cffs_cache::{BufferCache, CacheConfig};
use cffs_disksim::driver::{Driver, DriverConfig, Scheduler};
use cffs_disksim::{Disk, SimDuration, SimTime};
use cffs_fslib::error::check_name;
use cffs_fslib::inode::{Inode, MAX_FILE_SIZE, NDIRECT, NO_BLOCK, PTRS_PER_BLOCK};
use cffs_fslib::vfs::{subtree_contains, MetadataMode};
use cffs_fslib::{
    Attr, ConcurrentFs, CpuModel, DirEntry, FileKind, FsError, FsResult, FileSystem, Ino,
    StatFs, BLOCK_SIZE,
};
use cffs_obs::{Ctr, Obs, OpKind, SpanGuard};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

/// Mount-time options.
#[derive(Debug, Clone)]
pub struct FfsOptions {
    /// Metadata durability policy.
    pub metadata_mode: MetadataMode,
    /// Buffer-cache sizing.
    pub cache: CacheConfig,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// Disk-driver scheduler.
    pub scheduler: Scheduler,
    /// Label for reports.
    pub label: String,
}

impl Default for FfsOptions {
    fn default() -> Self {
        FfsOptions {
            metadata_mode: MetadataMode::Synchronous,
            cache: CacheConfig::default(),
            cpu: CpuModel::default(),
            scheduler: Scheduler::CLook,
            label: "FFS".to_string(),
        }
    }
}

/// A mounted classic Fast File System.
#[derive(Debug)]
pub struct Ffs {
    drv: Driver,
    cache: BufferCache,
    sb: Superblock,
    alloc: Mutex<Allocator>,
    cpu: CpuModel,
    mode: MetadataMode,
    label: String,
}

impl Ffs {
    /// Mount an existing file system from `disk`.
    pub fn mount(disk: Disk, opts: FfsOptions) -> FsResult<Ffs> {
        let drv = Driver::new(disk, DriverConfig { scheduler: opts.scheduler });
        let mut buf = vec![0u8; BLOCK_SIZE];
        drv.read(SB_BLOCK * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
        let sb = Superblock::read_from(&buf)?;
        let mut cgs = Vec::with_capacity(sb.cg_count as usize);
        for cg in 0..sb.cg_count {
            drv.read(sb.cg_header_block(cg) * cffs_fslib::SECTORS_PER_BLOCK, &mut buf);
            cgs.push(CgHeader::read_from(&buf, cg)?);
        }
        // Share one Obs handle across disk, driver, and cache.
        let mut cache = BufferCache::new(opts.cache);
        cache.set_obs(drv.obs());
        Ok(Ffs {
            drv,
            cache,
            sb,
            alloc: Mutex::new(Allocator::new(cgs)),
            cpu: opts.cpu,
            mode: opts.metadata_mode,
            label: opts.label,
        })
    }

    /// Sync everything and hand the disk back (for remount or inspection).
    pub fn unmount(self) -> FsResult<Disk> {
        self.sync()?;
        Ok(self.drv.into_disk())
    }

    /// Snapshot the disk as a crash at this instant would leave it: dirty
    /// cache contents are *not* included.
    pub fn crash_image(&self) -> Disk {
        self.drv.with_disk(|d| d.clone_image())
    }

    /// Snapshot the disk as a crash *during its most recent write* would
    /// leave it (only `keep_sectors` sectors landed); `None` before any
    /// write. See [`Disk::clone_image_torn`].
    pub fn crash_image_torn(&self, keep_sectors: usize) -> Option<Disk> {
        self.drv.with_disk(|d| d.clone_image_torn(keep_sectors))
    }

    /// The mounted superblock (tests, fsck, benchmarks).
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// The stack-wide observability handle (counters + event trace) shared
    /// by the disk, driver, cache, and this file-system layer.
    pub fn obs(&self) -> Arc<Obs> {
        self.drv.obs()
    }

    /// Enable/disable per-request disk trace recording (access-pattern
    /// analysis; off by default). Only this call clears the trace:
    /// enabling starts an empty one that then spans every later request,
    /// across any number of measured phases, until it is turned off.
    pub fn set_disk_trace(&self, on: bool) {
        self.drv.with_disk_mut(|d| d.set_trace(on));
    }

    /// The recorded disk trace (empty when recording is off).
    pub fn disk_trace(&self) -> Vec<cffs_disksim::TraceEntry> {
        self.drv.with_disk(|d| d.trace().to_vec())
    }

    fn charge(&self, d: SimDuration) {
        self.drv.advance(d);
    }

    /// Open a causal attribution span for one public entry point: every
    /// disk request issued while it is open is stamped with this op (see
    /// [`Obs::span`]; nested entry-point calls stay attributed to the
    /// outermost op).
    fn op_span(&self, op: OpKind) -> SpanGuard {
        self.drv.obs().span(op)
    }

    /// Start a public operation: open its span, then take the allocator
    /// lock for the operation's whole duration.
    fn begin(&self, op: OpKind) -> Op<'_> {
        let span = self.op_span(op);
        Op { fs: self, alloc: self.alloc.lock().expect("allocator poisoned"), _span: span }
    }

    fn ino_cg(&self, ino: Ino) -> u32 {
        (ino / self.sb.inodes_per_cg as u64) as u32
    }

    // ----- inode access -------------------------------------------------

    fn read_inode(&self, ino: Ino) -> FsResult<Inode> {
        self.charge(self.cpu.block_op);
        self.obs().bump(Ctr::FsExternalInodeOps);
        let (blk, off) = self.sb.inode_location(ino)?;
        let data = self.cache.read_block(&self.drv, blk)?;
        Inode::read_from(&data, off).ok_or(FsError::StaleHandle)
    }

    /// Write an inode image. `durable` requests a synchronous flush when
    /// the mount is in synchronous-metadata mode.
    fn write_inode(&self, ino: Ino, inode: &Inode, durable: bool) -> FsResult<()> {
        self.charge(self.cpu.block_op);
        self.obs().bump(Ctr::FsExternalInodeOps);
        let (blk, off) = self.sb.inode_location(ino)?;
        self.cache
            .modify_block(&self.drv, blk, true, true, |d| inode.write_to(d, off))?;
        if durable {
            if self.mode == MetadataMode::Synchronous {
                self.obs().bump(Ctr::FsSyncMetaWrites);
                self.cache.flush_block_sync(&self.drv, blk)?;
            } else {
                self.obs().bump(Ctr::FsDelayedMetaWrites);
            }
        }
        Ok(())
    }

    fn clear_inode(&self, ino: Ino, durable: bool) -> FsResult<()> {
        self.charge(self.cpu.block_op);
        let (blk, off) = self.sb.inode_location(ino)?;
        self.cache
            .modify_block(&self.drv, blk, true, true, |d| Inode::clear_slot(d, off))?;
        if durable && self.mode == MetadataMode::Synchronous {
            self.cache.flush_block_sync(&self.drv, blk)?;
        }
        Ok(())
    }

    fn require_dir(&self, ino: Ino) -> FsResult<Inode> {
        let inode = self.read_inode(ino)?;
        if inode.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(inode)
    }

    /// Apply the synchronous-metadata policy to a dirtied directory block.
    fn dir_durable(&self, blk: u64) -> FsResult<()> {
        if self.mode == MetadataMode::Synchronous {
            self.obs().bump(Ctr::FsSyncMetaWrites);
            self.cache.flush_block_sync(&self.drv, blk)?;
        } else {
            self.obs().bump(Ctr::FsDelayedMetaWrites);
        }
        Ok(())
    }
}

/// One operation in flight: the mount plus the allocator lock it holds
/// until it returns. Helpers that may allocate or free blocks (or walk
/// block maps that could) live here; the rest of the mount is reached
/// through `Deref`.
struct Op<'a> {
    fs: &'a Ffs,
    alloc: MutexGuard<'a, Allocator>,
    _span: SpanGuard,
}

impl Deref for Op<'_> {
    type Target = Ffs;

    fn deref(&self) -> &Ffs {
        self.fs
    }
}

impl Op<'_> {
    // ----- block mapping --------------------------------------------------

    /// Map logical block `lbn` of an inode to a physical block. With
    /// `alloc`, missing blocks (and indirect blocks) are allocated; the
    /// caller must persist the updated inode.
    fn bmap(&mut self, ino: Ino, inode: &mut Inode, lbn: u64, alloc: bool) -> FsResult<Option<u64>> {
        self.charge(self.cpu.block_op);
        if lbn >= cffs_fslib::inode::MAX_FILE_BLOCKS {
            return Err(FsError::FileTooBig);
        }
        let cg = self.ino_cg(ino);
        if (lbn as usize) < NDIRECT {
            let cur = inode.direct[lbn as usize];
            if cur != NO_BLOCK {
                return Ok(Some(cur as u64));
            }
            if !alloc {
                return Ok(None);
            }
            let hint = if lbn > 0 { inode.direct[lbn as usize - 1] } else { NO_BLOCK };
            self.charge(self.cpu.alloc_op);
            let blk = self.alloc.alloc_block(
                &self.fs.sb,
                cg,
                (hint != NO_BLOCK).then_some(hint as u64),
            )?;
            inode.direct[lbn as usize] = blk as u32;
            inode.blocks += 1;
            return Ok(Some(blk));
        }
        let l1 = lbn as usize - NDIRECT;
        if l1 < PTRS_PER_BLOCK {
            let Some((ind, fresh)) = self.get_or_alloc_indirect(inode.indirect, cg, alloc)? else {
                return Ok(None);
            };
            if fresh {
                inode.indirect = ind as u32;
                inode.blocks += 1;
            }
            return self.indirect_slot(ind, l1, cg, alloc, inode);
        }
        let l2 = l1 - PTRS_PER_BLOCK;
        let outer = l2 / PTRS_PER_BLOCK;
        let inner = l2 % PTRS_PER_BLOCK;
        let Some((dind, fresh)) = self.get_or_alloc_indirect(inode.dindirect, cg, alloc)? else {
            return Ok(None);
        };
        if fresh {
            inode.dindirect = dind as u32;
            inode.blocks += 1;
        }
        // Fetch/allocate the second-level indirect block pointer.
        let data = self.cache.read_block(&self.drv, dind)?;
        let mut mid = cffs_fslib::codec::get_u32(&data, outer * 4);
        if mid == NO_BLOCK {
            if !alloc {
                return Ok(None);
            }
            self.charge(self.cpu.alloc_op);
            let nb = self.alloc.alloc_block(&self.fs.sb, cg, Some(dind))?;
            self.cache
                .modify_block(&self.drv, nb, true, false, |d| d.fill(0))?;
            self.cache.modify_block(&self.drv, dind, true, true, |d| {
                cffs_fslib::codec::put_u32(d, outer * 4, nb as u32)
            })?;
            inode.blocks += 1;
            mid = nb as u32;
        }
        self.indirect_slot(mid as u64, inner, cg, alloc, inode)
    }

    /// Dereference (or allocate) a top-level indirect pointer. Returns the
    /// block and whether it was freshly allocated (the caller updates the
    /// inode's pointer and block count).
    fn get_or_alloc_indirect(
        &mut self,
        cur: u32,
        cg: u32,
        alloc: bool,
    ) -> FsResult<Option<(u64, bool)>> {
        if cur != NO_BLOCK {
            return Ok(Some((cur as u64, false)));
        }
        if !alloc {
            return Ok(None);
        }
        self.charge(self.cpu.alloc_op);
        let blk = self.alloc.alloc_block(&self.fs.sb, cg, None)?;
        self.cache
            .modify_block(&self.drv, blk, true, false, |d| d.fill(0))?;
        Ok(Some((blk, true)))
    }

    /// Read/allocate slot `idx` of the indirect block `ind`.
    fn indirect_slot(
        &mut self,
        ind: u64,
        idx: usize,
        cg: u32,
        alloc: bool,
        inode: &mut Inode,
    ) -> FsResult<Option<u64>> {
        let data = self.cache.read_block(&self.drv, ind)?;
        let cur = cffs_fslib::codec::get_u32(&data, idx * 4);
        if cur != NO_BLOCK {
            return Ok(Some(cur as u64));
        }
        if !alloc {
            return Ok(None);
        }
        self.charge(self.cpu.alloc_op);
        let hint = if idx > 0 {
            let prev = cffs_fslib::codec::get_u32(&self.cache.read_block(&self.drv, ind)?, (idx - 1) * 4);
            (prev != NO_BLOCK).then_some(prev as u64)
        } else {
            Some(ind)
        };
        let blk = self.alloc.alloc_block(&self.fs.sb, cg, hint)?;
        self.cache.modify_block(&self.drv, ind, true, true, |d| {
            cffs_fslib::codec::put_u32(d, idx * 4, blk as u32)
        })?;
        inode.blocks += 1;
        Ok(Some(blk))
    }

    /// Free every data and indirect block at or beyond logical block
    /// `from_lbn`, updating the inode in place.
    fn free_blocks_from(&mut self, ino: Ino, inode: &mut Inode, from_lbn: u64) -> FsResult<()> {
        // Direct pointers.
        for l in from_lbn..NDIRECT as u64 {
            let slot = inode.direct[l as usize];
            if slot != NO_BLOCK {
                self.release_data_block(ino, l, slot as u64);
                inode.direct[l as usize] = NO_BLOCK;
                inode.blocks = inode.blocks.saturating_sub(1);
            }
        }
        // Single indirect.
        if inode.indirect != NO_BLOCK {
            let base = NDIRECT as u64;
            let kept = self.free_indirect(ino, inode.indirect as u64, base, from_lbn, &mut inode.blocks)?;
            if !kept {
                self.release_meta_block(inode.indirect as u64);
                inode.indirect = NO_BLOCK;
                inode.blocks = inode.blocks.saturating_sub(1);
            }
        }
        // Double indirect.
        if inode.dindirect != NO_BLOCK {
            let dind = inode.dindirect as u64;
            let mut any_kept = false;
            let ptrs: Vec<u32> = {
                let data = self.cache.read_block(&self.drv, dind)?;
                (0..PTRS_PER_BLOCK).map(|i| cffs_fslib::codec::get_u32(&data, i * 4)).collect()
            };
            for (outer, &mid) in ptrs.iter().enumerate() {
                if mid == NO_BLOCK {
                    continue;
                }
                let base = NDIRECT as u64 + PTRS_PER_BLOCK as u64 + (outer * PTRS_PER_BLOCK) as u64;
                let kept = self.free_indirect(ino, mid as u64, base, from_lbn, &mut inode.blocks)?;
                if kept {
                    any_kept = true;
                } else {
                    self.release_meta_block(mid as u64);
                    inode.blocks = inode.blocks.saturating_sub(1);
                    self.cache.modify_block(&self.drv, dind, true, true, |d| {
                        cffs_fslib::codec::put_u32(d, outer * 4, NO_BLOCK)
                    })?;
                }
            }
            if !any_kept {
                self.release_meta_block(dind);
                inode.dindirect = NO_BLOCK;
                inode.blocks = inode.blocks.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// Free the data blocks of one indirect block whose first mapped lbn is
    /// `base`. Returns true if any pointer below `from_lbn` survives.
    fn free_indirect(
        &mut self,
        ino: Ino,
        ind: u64,
        base: u64,
        from_lbn: u64,
        blocks: &mut u32,
    ) -> FsResult<bool> {
        let ptrs: Vec<u32> = {
            let data = self.cache.read_block(&self.drv, ind)?;
            (0..PTRS_PER_BLOCK).map(|i| cffs_fslib::codec::get_u32(&data, i * 4)).collect()
        };
        let mut kept = false;
        for (i, &p) in ptrs.iter().enumerate() {
            let lbn = base + i as u64;
            if p == NO_BLOCK {
                continue;
            }
            if lbn >= from_lbn {
                self.release_data_block(ino, lbn, p as u64);
                *blocks = blocks.saturating_sub(1);
                self.cache.modify_block(&self.drv, ind, true, true, |d| {
                    cffs_fslib::codec::put_u32(d, i * 4, NO_BLOCK)
                })?;
            } else {
                kept = true;
            }
        }
        Ok(kept)
    }

    fn release_data_block(&mut self, ino: Ino, lbn: u64, blk: u64) {
        self.cache.unbind_logical(ino, lbn);
        self.cache.invalidate_block(&self.drv, blk);
        self.alloc.free_block(&self.fs.sb, blk);
    }

    fn release_meta_block(&mut self, blk: u64) {
        self.cache.invalidate_block(&self.drv, blk);
        self.alloc.free_block(&self.fs.sb, blk);
    }

    // ----- directory helpers -------------------------------------------

    /// Scan the directory for `name`; returns `(block, entry)`.
    fn dir_find(
        &mut self,
        dirino: Ino,
        inode: &mut Inode,
        name: &str,
    ) -> FsResult<Option<(u64, dir::RawEntry)>> {
        let nblocks = inode.size / BLOCK_SIZE as u64;
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, inode, lbn, false)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            self.charge(self.cpu.scan_cost(16));
            let data = self.cache.read_block_bound(&self.drv, blk, dirino, lbn)?;
            if let Some(e) = dir::find(&data, name)? {
                return Ok(Some((blk, e)));
            }
        }
        Ok(None)
    }

    /// Insert a name; grows the directory if needed. Returns the block
    /// that received the entry (already marked dirty) and whether the
    /// directory grew — growth makes the subsequent directory-inode write
    /// part of the ordered update (its new block pointer must reach the
    /// disk, or a crash orphans the entries in the new block).
    fn dir_insert(
        &mut self,
        dirino: Ino,
        inode: &mut Inode,
        name: &str,
        ino: Ino,
        kind: FileKind,
    ) -> FsResult<(u64, bool)> {
        let nblocks = inode.size / BLOCK_SIZE as u64;
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, inode, lbn, false)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            self.charge(self.cpu.scan_cost(16));
            let data = self.cache.read_block_bound(&self.drv, blk, dirino, lbn)?;
            if dir::has_space(&data, name)? {
                self.cache.modify_block_bound(&self.drv, blk, dirino, lbn, true, |d| {
                    dir::insert(d, name, ino as u32, kind)
                })??;
                return Ok((blk, false));
            }
        }
        // Grow by one block.
        let lbn = nblocks;
        let blk = self
            .bmap(dirino, inode, lbn, true)?
            .ok_or(FsError::NoSpace)?;
        inode.size += BLOCK_SIZE as u64;
        self.cache.modify_block_bound(&self.drv, blk, dirino, lbn, false, |d| {
            dir::init_block(d);
            dir::insert(d, name, ino as u32, kind)
        })??;
        Ok((blk, true))
    }

    /// Remove a name; returns `(block, removed inode number, kind)`.
    fn dir_remove(
        &mut self,
        dirino: Ino,
        inode: &mut Inode,
        name: &str,
    ) -> FsResult<(u64, Ino, FileKind)> {
        let Some((blk, entry)) = self.dir_find(dirino, inode, name)? else {
            return Err(FsError::NotFound);
        };
        // Re-derive the lbn for the logical binding.
        self.cache.modify_block(&self.drv, blk, true, true, |d| dir::remove(d, name))??;
        Ok((blk, entry.ino as Ino, entry.kind))
    }

    fn dir_is_empty(&mut self, dirino: Ino, inode: &mut Inode) -> FsResult<bool> {
        let nblocks = inode.size / BLOCK_SIZE as u64;
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, inode, lbn, false)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            let data = self.cache.read_block_bound(&self.drv, blk, dirino, lbn)?;
            if !dir::is_empty(&data)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The body of `readdir`: a directory's entries, sorted by name.
    fn list_dir(&mut self, dirino: Ino) -> FsResult<Vec<DirEntry>> {
        let mut inode = self.require_dir(dirino)?;
        let nblocks = inode.size / BLOCK_SIZE as u64;
        let mut out = Vec::new();
        for lbn in 0..nblocks {
            let blk = self
                .bmap(dirino, &mut inode, lbn, false)?
                .ok_or_else(|| FsError::Corrupt(format!("hole in directory {dirino}")))?;
            let data = self.cache.read_block_bound(&self.drv, blk, dirino, lbn)?;
            let entries = dir::list(&data)?;
            self.charge(self.cpu.scan_cost(entries.len()));
            out.extend(entries.into_iter().map(|e| DirEntry {
                name: e.name,
                ino: e.ino as Ino,
                kind: e.kind,
            }));
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Shared tail of unlink/rename-replace: drop one link from `ino`,
    /// freeing it when the count hits zero. The name is already gone.
    fn drop_file_link(&mut self, ino: Ino) -> FsResult<()> {
        let mut inode = self.read_inode(ino)?;
        inode.nlink -= 1;
        if inode.nlink == 0 {
            self.free_blocks_from(ino, &mut inode, 0)?;
            self.clear_inode(ino, true)?;
            self.charge(self.cpu.alloc_op);
            self.alloc.free_inode(&self.fs.sb, ino, false);
        } else {
            self.write_inode(ino, &inode, true)?;
        }
        Ok(())
    }
}

impl ConcurrentFs for Ffs {
    fn label(&self) -> &str {
        &self.label
    }

    fn root(&self) -> Ino {
        INO_ROOT
    }

    fn lookup(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let mut op = self.begin(OpKind::Lookup);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut inode = self.require_dir(dirino)?;
        match op.dir_find(dirino, &mut inode, name)? {
            Some((_, e)) => Ok(e.ino as Ino),
            None => Err(FsError::NotFound),
        }
    }

    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        let _op = self.begin(OpKind::Getattr);
        self.charge(self.cpu.syscall);
        let inode = self.read_inode(ino)?;
        Ok(Attr {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink as u32,
            blocks: inode.blocks as u64,
        })
    }

    fn create(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let mut op = self.begin(OpKind::Create);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        if op.dir_find(dirino, &mut dinode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        self.charge(self.cpu.alloc_op);
        let ino = op.alloc.alloc_inode(&self.sb, FileKind::File, self.ino_cg(dirino))?;
        let inode = Inode::new(FileKind::File);
        // Ordering: inode first (synchronously), then the name.
        self.write_inode(ino, &inode, true)?;
        let (blk, grew) = op.dir_insert(dirino, &mut dinode, name, ino, FileKind::File)?;
        self.dir_durable(blk)?;
        self.write_inode(dirino, &dinode, grew)?;
        Ok(ino)
    }

    fn mkdir(&self, dirino: Ino, name: &str) -> FsResult<Ino> {
        let mut op = self.begin(OpKind::Mkdir);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        if op.dir_find(dirino, &mut dinode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        self.charge(self.cpu.alloc_op);
        let ino = op.alloc.alloc_inode(&self.sb, FileKind::Dir, self.ino_cg(dirino))?;
        let mut inode = Inode::new(FileKind::Dir);
        inode.nlink = 2;
        self.write_inode(ino, &inode, true)?;
        let (blk, grew) = op.dir_insert(dirino, &mut dinode, name, ino, FileKind::Dir)?;
        dinode.nlink += 1;
        self.dir_durable(blk)?;
        self.write_inode(dirino, &dinode, grew)?;
        Ok(ino)
    }

    fn unlink(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let mut op = self.begin(OpKind::Unlink);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        let Some((_, entry)) = op.dir_find(dirino, &mut dinode, name)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        // Ordering: name removal hits the disk before the inode is freed.
        let (blk, ino, _) = op.dir_remove(dirino, &mut dinode, name)?;
        self.dir_durable(blk)?;
        op.drop_file_link(ino)
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let mut op = self.begin(OpKind::Read);
        self.charge(self.cpu.syscall);
        let mut inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if off >= inode.size {
            return Ok(0);
        }
        let want = buf.len().min((inode.size - off) as usize);
        let mut done = 0usize;
        while done < want {
            let pos = off + done as u64;
            let lbn = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_blk).min(want - done);
            // Logical index first (skips bmap on a hit), then bmap.
            let blk = match self.cache.lookup_logical(ino, lbn) {
                Some(b) => Some(b),
                None => op.bmap(ino, &mut inode, lbn, false)?,
            };
            match blk {
                Some(b) => {
                    let data = self.cache.read_block_bound(&self.drv, b, ino, lbn)?;
                    buf[done..done + n].copy_from_slice(&data[in_blk..in_blk + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            self.charge(self.cpu.copy_cost(n));
            done += n;
        }
        Ok(done)
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        let mut op = self.begin(OpKind::Write);
        self.charge(self.cpu.syscall);
        if data.is_empty() {
            return Ok(0);
        }
        if off + data.len() as u64 > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let mut done = 0usize;
        while done < data.len() {
            let pos = off + done as u64;
            let lbn = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_blk).min(data.len() - done);
            let had_block = self.cache.lookup_logical(ino, lbn).is_some()
                || op.bmap(ino, &mut inode, lbn, false)?.is_some();
            let blk = op.bmap(ino, &mut inode, lbn, true)?.ok_or(FsError::NoSpace)?;
            // Whole-block overwrites (and fresh blocks) skip the read.
            let read_first = had_block && n < BLOCK_SIZE;
            let src = &data[done..done + n];
            self.cache
                .modify_block_bound(&self.drv, blk, ino, lbn, read_first, |d| {
                    if !read_first && n < BLOCK_SIZE {
                        d.fill(0);
                    }
                    d[in_blk..in_blk + n].copy_from_slice(src);
                })?;
            self.charge(self.cpu.copy_cost(n));
            done += n;
        }
        inode.size = inode.size.max(off + done as u64);
        self.write_inode(ino, &inode, false)?;
        Ok(done)
    }

    fn readdir(&self, dirino: Ino) -> FsResult<Vec<DirEntry>> {
        let mut op = self.begin(OpKind::Readdir);
        self.charge(self.cpu.syscall);
        op.list_dir(dirino)
    }

    fn sync(&self) -> FsResult<()> {
        let mut op = self.begin(OpKind::Sync);
        self.charge(self.cpu.syscall);
        // Persist dirty cylinder-group headers and the superblock, then
        // flush the whole cache as one scheduled batch.
        let sb = self.sb.clone();
        let mut blocks: Vec<(u64, Vec<u8>)> = Vec::new();
        op.alloc.flush_dirty(|cg, hdr| {
            let mut img = vec![0u8; BLOCK_SIZE];
            hdr.write_to(&mut img);
            blocks.push((sb.cg_header_block(cg), img));
        });
        for (blk, img) in blocks {
            self.cache
                .modify_block(&self.drv, blk, true, false, |d| d.copy_from_slice(&img))?;
        }
        let mut sb_img = vec![0u8; BLOCK_SIZE];
        self.sb.write_to(&mut sb_img);
        self.cache
            .modify_block(&self.drv, SB_BLOCK, true, false, |d| d.copy_from_slice(&sb_img))?;
        self.cache.sync(&self.drv)
    }

    fn now(&self) -> SimTime {
        self.drv.now()
    }

    fn obs(&self) -> Option<Arc<Obs>> {
        Some(Ffs::obs(self))
    }
}

impl FileSystem for Ffs {
    fn rmdir(&self, dirino: Ino, name: &str) -> FsResult<()> {
        let mut op = self.begin(OpKind::Rmdir);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut dinode = self.require_dir(dirino)?;
        let Some((_, entry)) = op.dir_find(dirino, &mut dinode, name)? else {
            return Err(FsError::NotFound);
        };
        if entry.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        let child = entry.ino as Ino;
        let mut cinode = self.require_dir(child)?;
        if !op.dir_is_empty(child, &mut cinode)? {
            return Err(FsError::DirNotEmpty);
        }
        let (blk, _, _) = op.dir_remove(dirino, &mut dinode, name)?;
        self.dir_durable(blk)?;
        op.free_blocks_from(child, &mut cinode, 0)?;
        self.clear_inode(child, true)?;
        self.charge(self.cpu.alloc_op);
        op.alloc.free_inode(&self.sb, child, true);
        dinode.nlink = dinode.nlink.saturating_sub(1);
        self.write_inode(dirino, &dinode, false)?;
        Ok(())
    }

    fn link(&self, target: Ino, dirino: Ino, name: &str) -> FsResult<Ino> {
        let mut op = self.begin(OpKind::Link);
        self.charge(self.cpu.syscall);
        check_name(name)?;
        let mut tinode = self.read_inode(target)?;
        if tinode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if tinode.nlink == u16::MAX {
            return Err(FsError::TooManyLinks);
        }
        let mut dinode = self.require_dir(dirino)?;
        if op.dir_find(dirino, &mut dinode, name)?.is_some() {
            return Err(FsError::Exists);
        }
        tinode.nlink += 1;
        self.write_inode(target, &tinode, true)?;
        let (blk, grew) = op.dir_insert(dirino, &mut dinode, name, target, FileKind::File)?;
        self.dir_durable(blk)?;
        self.write_inode(dirino, &dinode, grew)?;
        Ok(target)
    }

    fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino> {
        let mut op = self.begin(OpKind::Rename);
        self.charge(self.cpu.syscall);
        check_name(oname)?;
        check_name(nname)?;
        let mut oinode = self.require_dir(odir)?;
        let Some((_, entry)) = op.dir_find(odir, &mut oinode, oname)? else {
            return Err(FsError::NotFound);
        };
        let moving = entry.ino as Ino;
        let moving_kind = entry.kind;
        if odir == ndir && oname == nname {
            return Ok(moving);
        }
        // A directory changing parent must not land in its own subtree.
        if moving_kind == FileKind::Dir && odir != ndir {
            let subdirs = |d| {
                let dirs = op.list_dir(d)?.into_iter().filter(|e| e.kind == FileKind::Dir);
                Ok(dirs.map(|e| e.ino).collect())
            };
            if subtree_contains(moving, ndir, subdirs)? {
                return Err(FsError::InvalidArg);
            }
        }
        let mut ninode = if ndir == odir { oinode.clone() } else { self.require_dir(ndir)? };
        // Handle an existing destination.
        if let Some((_, dst)) = op.dir_find(ndir, &mut ninode, nname)? {
            let dst_ino = dst.ino as Ino;
            if dst_ino == moving {
                // Hard link to the same object: drop the old name only.
                if ndir == odir {
                    oinode = ninode;
                }
                let (blk, ino, _) = op.dir_remove(odir, &mut oinode, oname)?;
                self.write_inode(odir, &oinode, false)?;
                self.dir_durable(blk)?;
                op.drop_file_link(ino)?;
                return Ok(moving);
            }
            match dst.kind {
                FileKind::Dir => {
                    if moving_kind != FileKind::Dir {
                        return Err(FsError::IsDir);
                    }
                    let mut dnode = self.require_dir(dst_ino)?;
                    if !op.dir_is_empty(dst_ino, &mut dnode)? {
                        return Err(FsError::DirNotEmpty);
                    }
                    let (blk, _, _) = op.dir_remove(ndir, &mut ninode, nname)?;
                    self.dir_durable(blk)?;
                    op.free_blocks_from(dst_ino, &mut dnode, 0)?;
                    self.clear_inode(dst_ino, true)?;
                    self.charge(self.cpu.alloc_op);
                    op.alloc.free_inode(&self.sb, dst_ino, true);
                    ninode.nlink = ninode.nlink.saturating_sub(1);
                }
                FileKind::File => {
                    if moving_kind == FileKind::Dir {
                        return Err(FsError::NotDir);
                    }
                    let (blk, ino, _) = op.dir_remove(ndir, &mut ninode, nname)?;
                    self.dir_durable(blk)?;
                    op.drop_file_link(ino)?;
                }
            }
        }
        // Insert the new name first, then remove the old one: a crash in
        // between leaves an extra name, never a lost file.
        let (blk, grew) = op.dir_insert(ndir, &mut ninode, nname, moving, moving_kind)?;
        self.dir_durable(blk)?;
        self.write_inode(ndir, &ninode, grew)?;
        if ndir == odir {
            oinode = self.require_dir(odir)?;
        }
        let (blk, _, _) = op.dir_remove(odir, &mut oinode, oname)?;
        self.write_inode(odir, &oinode, false)?;
        self.dir_durable(blk)?;
        // Directory moved across parents: fix nlink bookkeeping.
        if moving_kind == FileKind::Dir && odir != ndir {
            let mut o = self.require_dir(odir)?;
            o.nlink = o.nlink.saturating_sub(1);
            self.write_inode(odir, &o, false)?;
            let mut n = self.require_dir(ndir)?;
            n.nlink += 1;
            self.write_inode(ndir, &n, false)?;
        }
        Ok(moving)
    }

    fn truncate(&self, ino: Ino, size: u64) -> FsResult<()> {
        let mut op = self.begin(OpKind::Truncate);
        self.charge(self.cpu.syscall);
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.read_inode(ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        if size < inode.size {
            let keep = size.div_ceil(BLOCK_SIZE as u64);
            op.free_blocks_from(ino, &mut inode, keep)?;
            // Zero the tail of the (possibly kept) final partial block so
            // a later extension reads zeros.
            if !size.is_multiple_of(BLOCK_SIZE as u64) {
                let lbn = size / BLOCK_SIZE as u64;
                if let Some(blk) = op.bmap(ino, &mut inode, lbn, false)? {
                    let cut = (size % BLOCK_SIZE as u64) as usize;
                    self.cache.modify_block_bound(&self.drv, blk, ino, lbn, true, |d| {
                        d[cut..].fill(0)
                    })?;
                }
            }
        }
        inode.size = size;
        self.write_inode(ino, &inode, false)?;
        Ok(())
    }

    fn statfs(&self) -> FsResult<StatFs> {
        let op = self.begin(OpKind::Statfs);
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.sb.total_blocks,
            free_blocks: op.alloc.free_blocks(),
            group_slack_blocks: 0,
            total_inodes: self.sb.total_inodes(),
            free_inodes: op.alloc.free_inodes(),
        })
    }

    fn drop_caches(&self) -> FsResult<()> {
        let _span = self.op_span(OpKind::DropCaches);
        self.sync()?;
        self.cache.drop_all(&self.drv)?;
        self.drv.with_disk_mut(|d| d.flush_onboard_cache());
        Ok(())
    }

    fn cpu_model(&self) -> CpuModel {
        self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkfs::{mkfs, MkfsParams};
    use cffs_disksim::models;
    use cffs_fslib::path;

    fn fresh() -> Ffs {
        mkfs(Disk::new(models::tiny_test_disk()), MkfsParams::tiny(), FfsOptions::default())
            .expect("mkfs")
    }

    #[test]
    fn create_write_read_cycle() {
        let fs = fresh();
        let f = fs.create(fs.root(), "a").unwrap();
        fs.write(f, 0, b"hello ffs").unwrap();
        let mut buf = [0u8; 9];
        assert_eq!(fs.read(f, 0, &mut buf).unwrap(), 9);
        assert_eq!(&buf, b"hello ffs");
        let a = fs.getattr(f).unwrap();
        assert_eq!((a.size, a.kind), (9, FileKind::File));
    }

    #[test]
    fn sparse_and_indirect_files() {
        let fs = fresh();
        let f = fs.create(fs.root(), "s").unwrap();
        // Past the direct range (12 blocks).
        let off = 14 * BLOCK_SIZE as u64 + 100;
        fs.write(f, off, b"indirect").unwrap();
        let mut buf = [0u8; 8];
        fs.read(f, off, &mut buf).unwrap();
        assert_eq!(&buf, b"indirect");
        // The hole reads zero.
        let mut hole = [9u8; 64];
        fs.read(f, 5 * BLOCK_SIZE as u64, &mut hole).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
    }

    #[test]
    fn double_indirect_and_truncate_releases_space() {
        let fs = fresh();
        let f = fs.create(fs.root(), "big").unwrap();
        let off = (12 + 1024 + 3) * BLOCK_SIZE as u64;
        fs.write(f, off, b"way out").unwrap();
        fs.sync().unwrap();
        let before = fs.statfs().unwrap().free_blocks;
        fs.truncate(f, 0).unwrap();
        assert!(fs.statfs().unwrap().free_blocks > before);
        assert_eq!(fs.getattr(f).unwrap().blocks, 0);
    }

    #[test]
    fn inode_exhaustion_yields_noinodes() {
        let fs = fresh();
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        let mut n = 0u64;
        loop {
            match fs.create(d, &format!("f{n}")) {
                Ok(_) => n += 1,
                Err(FsError::NoInodes) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(n < 100_000, "never exhausted");
        }
        // tiny geometry: 256 inodes/cg, some cgs; far below disk capacity.
        let st = fs.statfs().unwrap();
        assert_eq!(st.free_inodes, 0);
        assert!(st.free_blocks > 1000, "blocks remain — the static-table limit bites first");
        // Deleting frees inodes again.
        fs.unlink(d, "f0").unwrap();
        fs.create(d, "again").unwrap();
    }

    #[test]
    fn hard_links_and_rename_share_inode() {
        let fs = fresh();
        let root = fs.root();
        let f = fs.create(root, "a").unwrap();
        fs.write(f, 0, b"shared").unwrap();
        let f2 = fs.link(f, root, "b").unwrap();
        assert_eq!(f, f2, "FFS never renumbers");
        let f3 = fs.rename(root, "a", root, "c").unwrap();
        assert_eq!(f, f3);
        assert_eq!(fs.getattr(f).unwrap().nlink, 2);
        fs.unlink(root, "b").unwrap();
        fs.unlink(root, "c").unwrap();
        assert!(fs.getattr(f).is_err());
    }

    #[test]
    fn dir_spreading_policy_visible() {
        let fs = fresh();
        let root = fs.root();
        let mut cgs = std::collections::HashSet::new();
        let ipg = fs.superblock().inodes_per_cg as u64;
        for d in 0..6 {
            let ino = fs.mkdir(root, &format!("d{d}")).unwrap();
            cgs.insert(ino / ipg);
        }
        assert!(cgs.len() >= 3, "directories should spread across CGs: {cgs:?}");
    }

    #[test]
    fn file_inodes_follow_their_directory() {
        let fs = fresh();
        let root = fs.root();
        let ipg = fs.superblock().inodes_per_cg as u64;
        let d = fs.mkdir(root, "d").unwrap();
        for i in 0..10 {
            let f = fs.create(d, &format!("f{i}")).unwrap();
            assert_eq!(f / ipg, d / ipg, "file inode left its directory's CG");
        }
    }

    #[test]
    fn sync_metadata_costs_two_writes_per_create() {
        let fs = fresh();
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        fs.sync().unwrap();
        let before = fs.obs().get(Ctr::CacheSyncFlushes);
        for i in 0..20 {
            fs.create(d, &format!("f{i}")).unwrap();
        }
        let sync_writes = fs.obs().get(Ctr::CacheSyncFlushes) - before;
        assert!(
            (40..=44).contains(&sync_writes),
            "expected ~2 ordered writes per create, saw {sync_writes} for 20 creates"
        );
    }

    #[test]
    fn remount_preserves_content() {
        let fs = fresh();
        path::mkdir_p(&fs, "/x/y").unwrap();
        path::write_file(&fs, "/x/y/z.txt", &vec![3u8; 20_000]).unwrap();
        let disk = fs.unmount().unwrap();
        let fs = Ffs::mount(disk, FfsOptions::default()).unwrap();
        assert_eq!(path::read_file(&fs, "/x/y/z.txt").unwrap(), vec![3u8; 20_000]);
    }

    #[test]
    fn rmdir_semantics() {
        let fs = fresh();
        let root = fs.root();
        let d = fs.mkdir(root, "d").unwrap();
        fs.create(d, "f").unwrap();
        assert_eq!(fs.rmdir(root, "d"), Err(FsError::DirNotEmpty));
        fs.unlink(d, "f").unwrap();
        fs.rmdir(root, "d").unwrap();
        assert_eq!(fs.lookup(root, "d"), Err(FsError::NotFound));
        // Inode is reusable.
        fs.mkdir(root, "d2").unwrap();
    }

    #[test]
    fn overwrite_middle_of_file() {
        let fs = fresh();
        let f = fs.create(fs.root(), "m").unwrap();
        fs.write(f, 0, &vec![1u8; 10_000]).unwrap();
        fs.write(f, 4000, &vec![2u8; 1000]).unwrap();
        let mut buf = vec![0u8; 10_000];
        fs.read(f, 0, &mut buf).unwrap();
        assert!(buf[..4000].iter().all(|&b| b == 1));
        assert!(buf[4000..5000].iter().all(|&b| b == 2));
        assert!(buf[5000..].iter().all(|&b| b == 1));
        assert_eq!(fs.getattr(f).unwrap().size, 10_000);
    }
}
