#![warn(missing_docs)]

//! # cffs — the C-FFS reproduction, in one crate
//!
//! A full reimplementation of *Embedded Inodes and Explicit Grouping:
//! Exploiting Disk Bandwidth for Small Files* (Ganger & Kaashoek, USENIX
//! 1997) on a simulated mid-90s disk. See `README.md` for the tour,
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use cffs::prelude::*;
//!
//! // A C-FFS on the paper's testbed disk (Seagate ST31200).
//! let fs = cffs::build::cffs_on_testbed();
//! let root = fs.root();
//! let dir = fs.mkdir(root, "src").unwrap();
//! let ino = fs.create(dir, "hello.c").unwrap();
//! fs.write(ino, 0, b"int main(void) { return 0; }").unwrap();
//! fs.sync().unwrap();
//! println!("simulated time: {}", cffs::disksim::SimDuration::from_nanos(fs.now().as_nanos()));
//! ```

pub mod feedview;

pub use cffs_cache as cache;
pub use cffs_obs as obs;
pub use cffs_core as core;
pub use cffs_disksim as disksim;
pub use cffs_ffs as ffs;
pub use cffs_fslib as fslib;
pub use cffs_regroup as regroup;
pub use cffs_volume as volume;
pub use cffs_workloads as workloads;

/// The traits and types almost every user needs.
pub mod prelude {
    pub use cffs_core::{Cffs, CffsConfig};
    pub use cffs_disksim::{SimDuration, SimTime};
    pub use cffs_ffs::{Ffs, FfsOptions};
    pub use cffs_fslib::{
        path, Attr, ConcurrentFs, DirEntry, FileKind, FileSystem, FsError, FsResult, Ino,
        MetadataMode, StatFs,
    };
}

/// Convenience constructors for the experiment configurations.
pub mod build {
    use cffs_core::{mkfs as cffs_mkfs, Cffs, CffsConfig};
    use cffs_disksim::{models, Disk, DiskModel};
    use cffs_ffs::{mkfs as ffs_mkfs, Ffs, FfsOptions, MkfsParams as FfsMkfsParams};
    use cffs_fslib::vfs::MetadataMode;
    use cffs_fslib::FileSystem;

    /// A freshly formatted C-FFS (both techniques on) on the paper's
    /// testbed disk.
    pub fn cffs_on_testbed() -> Cffs {
        on_disk(models::seagate_st31200(), CffsConfig::cffs())
    }

    /// A freshly formatted C-FFS variant on the given drive model.
    pub fn on_disk(model: DiskModel, cfg: CffsConfig) -> Cffs {
        cffs_mkfs::mkfs(Disk::new(model), cffs_mkfs::MkfsParams::default(), cfg)
            .expect("mkfs on a fresh simulated disk cannot fail")
    }

    /// A freshly formatted classic FFS on the given drive model.
    pub fn ffs_on_disk(model: DiskModel, opts: FfsOptions) -> Ffs {
        ffs_mkfs::mkfs(Disk::new(model), FfsMkfsParams::default(), opts)
            .expect("mkfs on a fresh simulated disk cannot fail")
    }

    /// The paper's four C-FFS variants in presentation order
    /// (conventional, embedded only, grouping only, C-FFS), each freshly
    /// formatted on its own testbed disk with the given metadata mode.
    pub fn four_variants(mode: MetadataMode) -> Vec<Cffs> {
        [
            CffsConfig::conventional(),
            CffsConfig::embedded_only(),
            CffsConfig::grouping_only(),
            CffsConfig::cffs(),
        ]
        .into_iter()
        .map(|cfg| on_disk(models::seagate_st31200(), cfg.with_mode(mode)))
        .collect()
    }

    /// All five measured file systems (classic FFS + the four variants) as
    /// trait objects, for workloads that iterate uniformly.
    pub fn all_five(mode: MetadataMode) -> Vec<Box<dyn FileSystem>> {
        let mut v: Vec<Box<dyn FileSystem>> = Vec::with_capacity(5);
        v.push(Box::new(ffs_on_disk(
            models::seagate_st31200(),
            FfsOptions { metadata_mode: mode, ..FfsOptions::default() },
        )));
        for fs in four_variants(mode) {
            v.push(Box::new(fs));
        }
        v
    }
}
