#![warn(missing_docs)]

//! # cffs-fslib
//!
//! Shared file-system infrastructure for the C-FFS reproduction:
//!
//! * [`vfs::ConcurrentFs`] and its extension [`vfs::FileSystem`] — the one
//!   `&self` trait hierarchy every implementation (classic FFS, the four
//!   C-FFS variants, and the in-memory oracle) exposes; a volume set
//!   implements the base. Benchmarks, workloads and integration tests are
//!   written against it.
//! * [`error::FsError`] — the common error type.
//! * [`bitmap::Bitmap`] — block/inode bitmaps with contiguous-run search
//!   (explicit grouping needs 16-block extents).
//! * [`cpu::CpuModel`] — per-operation CPU costs charged to the simulated
//!   clock, calibrated to the paper's 120 MHz Pentium testbed.
//! * [`path`] — `mkdir -p` / read / write convenience helpers over either
//!   trait.
//! * [`model::ModelFs`] — a HashMap-backed reference implementation used as
//!   the oracle in property and threaded tests.
//! * [`codec`] — little-endian on-disk integer codecs.

pub mod bitmap;
pub mod codec;
pub mod cpu;
pub mod error;
pub mod inode;
pub mod model;
pub mod path;
pub mod vfs;

pub use bitmap::Bitmap;
pub use cpu::CpuModel;
pub use error::{FsError, FsResult};
pub use inode::Inode;
pub use vfs::{
    Attr, ConcurrentFs, DirEntry, FileKind, FileSystem, Ino, MetadataMode, StatFs,
};

/// File-system block size in bytes. The paper's implementation used 4 KB
/// blocks with no fragments; so do we.
pub const BLOCK_SIZE: usize = 4096;

/// Sectors per file-system block.
pub const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / cffs_disksim::SECTOR_SIZE) as u64;

/// Maximum file-name length, as in FFS.
pub const MAX_NAME_LEN: usize = 255;
