//! The paper's small-file micro-benchmark.
//!
//! "The micro-benchmark, based on the small-file benchmark from
//! [Rosenblum92], has four phases: create and write 10000 1KB files, read
//! the same files in the same order, overwrite the same files in the same
//! order, and then remove the files in the same order."
//!
//! Files are spread across a configurable number of directories (the
//! paper used multiple directories so directory-entry scans stay cheap
//! and grouping has realistic per-directory populations). Between phases
//! the cache is dropped so each phase starts cold, and each phase ends
//! with a full write-back, as in the paper.

use crate::namegen::{dir_name, file_name};
use crate::runner::{cold_boundary, measure, PhaseResult};
use cffs_fslib::{FileSystem, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How benchmark files are assigned to directories.
///
/// This choice decides how adversarial the access pattern is for a
/// locality-based allocator. With [`Assignment::DirMajor`] all of a
/// directory's files are created (and later read) back-to-back, so even a
/// conventional FFS lays them out disk-sequentially and the drive's
/// read-ahead hides most positioning costs. With
/// [`Assignment::RoundRobin`] consecutive operations touch *different*
/// directories — which FFS deliberately spreads across cylinder groups —
/// so the conventional system pays a positioning delay per file, while
/// C-FFS amortizes one group fetch over the next 16 accesses to that
/// directory. Round-robin is the default: it exercises the cross-directory
/// interleaving that the paper's Section 2 argument (locality is not
/// adjacency) is about, and it reproduces the paper's measured shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assignment {
    /// File `i` goes to directory `i % ndirs`; access cycles directories.
    #[default]
    RoundRobin,
    /// Directory 0 gets the first `nfiles/ndirs` files, and so on.
    DirMajor,
}

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct SmallFileParams {
    /// Number of files.
    pub nfiles: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Directories the files are spread over.
    pub ndirs: usize,
    /// File→directory assignment.
    pub order: Assignment,
    /// Seed for payload generation. Every payload is a pure function of
    /// `(seed, file index)`, so two runs with equal parameters are
    /// byte-identical end to end — same data, same block layout, same
    /// disk requests, same trace timeline.
    pub seed: u64,
}

impl Default for SmallFileParams {
    /// The paper's configuration: 10 000 × 1 KB files, spread over 100
    /// directories, accessed round-robin.
    fn default() -> Self {
        SmallFileParams {
            nfiles: 10_000,
            file_size: 1024,
            ndirs: 100,
            order: Assignment::RoundRobin,
            seed: 1997,
        }
    }
}

impl SmallFileParams {
    /// A scaled-down configuration for tests.
    pub fn small() -> Self {
        SmallFileParams { nfiles: 200, ndirs: 4, ..SmallFileParams::default() }
    }

    fn dir_of(&self, i: usize) -> usize {
        match self.order {
            Assignment::RoundRobin => i % self.ndirs,
            Assignment::DirMajor => i / self.nfiles.div_ceil(self.ndirs),
        }
    }
}

/// Deterministic per-file payload: a fixed-seed PRNG stream keyed by
/// `(seed, file index)`, so create and read phases regenerate identical
/// bytes without storing them.
fn payload(seed: u64, i: usize, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

/// Run all four phases; returns one [`PhaseResult`] per phase
/// (`create`, `read`, `overwrite`, `delete`).
pub fn run(
    fs: &mut (impl FileSystem + ?Sized),
    params: SmallFileParams,
) -> FsResult<Vec<PhaseResult>> {
    let mut results = Vec::with_capacity(4);
    let root = fs.root();

    // Setup (unmeasured): the directory skeleton.
    let mut dirs: Vec<Ino> = Vec::with_capacity(params.ndirs);
    for d in 0..params.ndirs {
        dirs.push(fs.mkdir(root, &dir_name(d))?);
    }
    cold_boundary(fs)?;

    let total_bytes = (params.nfiles * params.file_size) as u64;

    // Phase 1: create and write.
    results.push(measure(fs, "create", params.nfiles as u64, total_bytes, |fs| {
        for i in 0..params.nfiles {
            let ino = fs.create(dirs[params.dir_of(i)], &file_name(i))?;
            let data = payload(params.seed, i, params.file_size);
            fs.write(ino, 0, &data)?;
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 2: read in the same order.
    results.push(measure(fs, "read", params.nfiles as u64, total_bytes, |fs| {
        let mut buf = vec![0u8; params.file_size];
        for i in 0..params.nfiles {
            let ino = fs.lookup(dirs[params.dir_of(i)], &file_name(i))?;
            let n = fs.read(ino, 0, &mut buf)?;
            debug_assert_eq!(n, params.file_size);
            debug_assert_eq!(buf, payload(params.seed, i, params.file_size));
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 3: overwrite in the same order.
    results.push(measure(fs, "overwrite", params.nfiles as u64, total_bytes, |fs| {
        for i in 0..params.nfiles {
            let ino = fs.lookup(dirs[params.dir_of(i)], &file_name(i))?;
            let data = payload(params.seed, i + 1, params.file_size);
            fs.write(ino, 0, &data)?;
        }
        Ok(())
    })?);
    cold_boundary(fs)?;

    // Phase 4: delete in the same order.
    results.push(measure(fs, "delete", params.nfiles as u64, 0, |fs| {
        for i in 0..params.nfiles {
            fs.unlink(dirs[params.dir_of(i)], &file_name(i))?;
        }
        Ok(())
    })?);

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;
    use cffs_fslib::ConcurrentFs;

    #[test]
    fn four_phases_on_the_oracle() {
        let mut fs = ModelFs::new();
        let rs = run(&mut fs, SmallFileParams::small()).unwrap();
        let phases: Vec<&str> = rs.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(phases, vec!["create", "read", "overwrite", "delete"]);
        assert!(rs.iter().all(|r| r.items == 200));
        // Everything was deleted.
        for d in 0..4 {
            let dir = fs.lookup(1, &dir_name(d)).unwrap();
            assert!(fs.readdir(dir).unwrap().is_empty());
        }
    }

    #[test]
    fn payload_is_deterministic_and_distinct() {
        assert_eq!(payload(1997, 3, 64), payload(1997, 3, 64));
        assert_ne!(payload(1997, 3, 64), payload(1997, 4, 64));
        assert_ne!(payload(1997, 3, 64), payload(7, 3, 64), "seed changes the stream");
    }
}
