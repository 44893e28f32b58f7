//! The VFS layer: one trait hierarchy all implementations expose.
//!
//! [`ConcurrentFs`] is the base: the 13 operations a client thread needs
//! (lookup, create, read, write, sync, ...), all `&self` on a
//! `Send + Sync` instance. [`FileSystem`] extends it with the 8 operations
//! a single volume adds (`rename`, `link`, `rmdir`, `truncate`, `statfs`,
//! ...). Each operation is declared exactly once, and every method takes
//! `&self`, so classic FFS, the four C-FFS variants and the in-memory
//! oracle are interchangeable under both single-threaded and threaded
//! workloads. A volume set implements only the base.
//!
//! ## Inode-handle stability
//!
//! One C-FFS design consequence surfaces in the trait contract: an embedded
//! inode is *named by its physical location* inside a directory block. Two
//! operations can therefore relocate an inode and change its number:
//!
//! * [`FileSystem::rename`] may move the entry (and the embedded inode with
//!   it) to a different block; it returns the file's possibly-new inode
//!   number.
//! * [`FileSystem::link`] externalizes an embedded inode (multi-link files
//!   keep their inode in the external inode file, exactly as the paper
//!   specifies); it returns the possibly-new inode number of the target.
//!
//! Implementations without embedded inodes simply return the unchanged
//! number. Callers holding handles must adopt the returned values — the
//! same discipline a C-FFS kernel applies to its in-core inode table.

use crate::cpu::CpuModel;
use crate::error::FsResult;
use cffs_disksim::SimTime;

/// An inode number. For embedded inodes this encodes a physical location;
/// treat it as opaque.
pub type Ino = u64;

/// What kind of object an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Attributes returned by [`ConcurrentFs::getattr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// The inode number queried.
    pub ino: Ino,
    /// Object kind.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Data blocks allocated (file-system blocks, not sectors).
    pub blocks: u64,
}

/// One entry from [`ConcurrentFs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (no path separators).
    pub name: String,
    /// Inode the name refers to.
    pub ino: Ino,
    /// Kind, denormalized into the entry as FFS does.
    pub kind: FileKind,
}

/// Capacity summary returned by [`FileSystem::statfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatFs {
    /// Block size in bytes.
    pub block_size: u32,
    /// Total data blocks.
    pub total_blocks: u64,
    /// Blocks free for allocation (group-reserved slack excluded).
    pub free_blocks: u64,
    /// Blocks reserved inside partially used groups (C-FFS only; zero
    /// elsewhere). These are reclaimable, just not yet free.
    pub group_slack_blocks: u64,
    /// Total inode slots. `u64::MAX` means "dynamic" (C-FFS embedded
    /// inodes have no static limit — the paper's [Forin94] point).
    pub total_inodes: u64,
    /// Free inode slots (meaningless when `total_inodes` is dynamic).
    pub free_inodes: u64,
}

/// Metadata-integrity policy — the paper's Section 4 experimental axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetadataMode {
    /// Synchronous, ordered metadata writes: the conventional FFS approach
    /// the paper measures first.
    #[default]
    Synchronous,
    /// All metadata updates delayed (written at sync). Emulates soft
    /// updates exactly the way the paper does: "we have not yet actually
    /// implemented soft updates in C-FFS, but rather emulate it by using
    /// delayed writes for all metadata updates".
    Delayed,
}

/// The base interface every file system in this workspace implements:
/// the operations client threads can drive **in parallel against one
/// shared instance**. Every method takes `&self`, and the implementation
/// must be `Send + Sync` — internally it shards or locks its own state.
/// C-FFS shards (per-cylinder-group allocation maps, cache shards, a
/// threaded driver queue); classic FFS and the model serialize on one
/// lock.
///
/// Time discipline: each client thread advances its own virtual clock
/// (thread-local mirror in `cffs_obs::Obs`); the run's elapsed simulated
/// time is the cross-thread high-water mark `Obs::global_clock_ns`, so
/// overlapping CPU work on different threads genuinely overlaps while
/// disk requests serialize through the shared driver worker.
pub trait ConcurrentFs: Send + Sync {
    /// Short label for reports, e.g. `"C-FFS"` or `"conventional"`.
    fn label(&self) -> &str;
    /// The root directory's inode number.
    fn root(&self) -> Ino;
    /// Look `name` up in directory `dir`.
    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino>;
    /// Fetch attributes of `ino`.
    fn getattr(&self, ino: Ino) -> FsResult<Attr>;
    /// Create a regular file named `name` in `dir`. Fails with
    /// [`crate::FsError::Exists`] if the name is taken.
    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino>;
    /// Create a directory.
    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino>;
    /// Remove a file name. The file's storage is freed when the last link
    /// goes (there are no open-file reference counts in the simulation).
    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()>;
    /// Read up to `buf.len()` bytes at `off`; returns bytes read (short at
    /// end of file).
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize>;
    /// Write `data` at `off`, extending the file as needed; returns bytes
    /// written.
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize>;
    /// List a directory (excluding `.` and `..`, which the simulation keeps
    /// implicit).
    fn readdir(&self, dir: Ino) -> FsResult<Vec<DirEntry>>;
    /// Write back all dirty state (safe to race with foreground ops). On
    /// return the on-disk image is consistent and complete — the paper
    /// "forcefully write[s] back all dirty blocks before considering the
    /// measurement complete".
    fn sync(&self) -> FsResult<()>;
    /// The calling thread's current simulated time (the experiment clock).
    fn now(&self) -> SimTime;
    /// The stack-wide observability handle (counter registry + event
    /// trace), when the implementation carries one. Benchmarks snapshot it
    /// per phase; `None` means the stack has no instrumentation.
    fn obs(&self) -> Option<std::sync::Arc<cffs_obs::Obs>> {
        None
    }
}

/// The full single-volume interface: [`ConcurrentFs`] plus the
/// handle-renumbering operations (`rename`, `link`), whole-object
/// maintenance and capacity queries. Every method still takes `&self`,
/// so any implementation can be shared across threads; callers that race
/// `rename`/`link` must adopt the returned inode numbers themselves.
pub trait FileSystem: ConcurrentFs {
    /// Remove an empty directory.
    fn rmdir(&self, dir: Ino, name: &str) -> FsResult<()>;

    /// Add a hard link `dir/name` to `target` (a regular file). Returns the
    /// target's inode number after the operation — C-FFS externalizes an
    /// embedded inode here, which renumbers it.
    fn link(&self, target: Ino, dir: Ino, name: &str) -> FsResult<Ino>;

    /// Rename `odir/oname` to `ndir/nname`, replacing any existing file at
    /// the destination. Returns the moved object's inode number after the
    /// operation (embedded inodes move with their entry). Moving a
    /// directory into its own subtree fails with
    /// [`crate::FsError::InvalidArg`].
    fn rename(&self, odir: Ino, oname: &str, ndir: Ino, nname: &str) -> FsResult<Ino>;

    /// Truncate (or zero-extend) to `size` bytes.
    fn truncate(&self, ino: Ino, size: u64) -> FsResult<()>;

    /// Capacity summary.
    fn statfs(&self) -> FsResult<StatFs>;

    /// Sync, then drop all clean cached state, emulating a remount so the
    /// next phase starts cold — how the benchmark separates create and read
    /// phases. Implementations without caches may no-op.
    fn drop_caches(&self) -> FsResult<()> {
        self.sync()
    }

    /// Application-directed grouping hint (the paper's Section 6 future
    /// work): ask that the named files in `dir` be co-located in one group.
    /// Default: ignored.
    fn group_hint(&self, _dir: Ino, _names: &[&str]) -> FsResult<()> {
        Ok(())
    }

    /// The CPU cost model in effect (for workload think-time accounting).
    fn cpu_model(&self) -> CpuModel {
        CpuModel::default()
    }
}

/// Whether directory `target` is `top` itself or lies anywhere below it —
/// the check `rename` runs before moving directory `top` under `target`.
/// Nothing stores `..`, so it walks `top`'s subtree downward; `subdirs`
/// lists the subdirectories of one directory.
pub fn subtree_contains(
    top: Ino,
    target: Ino,
    mut subdirs: impl FnMut(Ino) -> FsResult<Vec<Ino>>,
) -> FsResult<bool> {
    let mut stack = vec![top];
    while let Some(dir) = stack.pop() {
        if dir == target {
            return Ok(true);
        }
        stack.extend(subdirs(dir)?);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statfs_default_is_zeroed() {
        let s = StatFs::default();
        assert_eq!(s.free_blocks, 0);
        assert_eq!(s.group_slack_blocks, 0);
    }

    #[test]
    fn metadata_mode_default_is_synchronous() {
        assert_eq!(MetadataMode::default(), MetadataMode::Synchronous);
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: workloads take both trait objects, and a
        // `&dyn FileSystem` reaches the base methods through the supertrait.
        fn _takes_dyn(fs: &dyn FileSystem) -> &dyn ConcurrentFs {
            fs
        }
    }

    // The oracle is shareable like every on-disk implementation (those
    // are asserted in the workspace's concurrency tests).
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::model::ModelFs>();
    };

    #[test]
    fn subtree_contains_walks_down_only() {
        // 1 ─┬─ 2 ── 4
        //    └─ 3
        let kids = |d: Ino| -> FsResult<Vec<Ino>> {
            Ok(match d {
                1 => vec![2, 3],
                2 => vec![4],
                _ => vec![],
            })
        };
        assert!(subtree_contains(2, 2, kids).unwrap());
        assert!(subtree_contains(1, 4, kids).unwrap());
        assert!(!subtree_contains(2, 3, kids).unwrap());
        assert!(!subtree_contains(4, 1, kids).unwrap());
    }
}
