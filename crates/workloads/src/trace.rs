//! Operation traces: random generation and replay.
//!
//! A trace is a path-level operation sequence that any [`FileSystem`] can
//! replay. The equivalence tests generate a random trace, replay it
//! against the in-memory oracle and every on-disk implementation, and
//! compare the full logical state (tree structure + file contents) — the
//! strongest cheap correctness check we have, because it is completely
//! implementation-agnostic.

use cffs_fslib::{path, ConcurrentFs, FileKind, FileSystem, FsError, FsResult};
use cffs_obs::json::{FromJson, Json, JsonError, ToJson};
use cffs_obs::obj;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One path-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create (or truncate) a file with the given contents.
    Write {
        /// Absolute path.
        path: String,
        /// File contents.
        data: Vec<u8>,
    },
    /// Append to an existing file.
    Append {
        /// Absolute path.
        path: String,
        /// Bytes to append.
        data: Vec<u8>,
    },
    /// Truncate a file.
    Truncate {
        /// Absolute path.
        path: String,
        /// New size.
        size: u64,
    },
    /// Make a directory (parents must exist).
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// Remove a file.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Absolute path.
        path: String,
    },
    /// Rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Hard-link a file.
    Link {
        /// Existing file.
        target: String,
        /// New name.
        name: String,
    },
}


impl ToJson for Op {
    fn to_json(&self) -> Json {
        match self {
            Op::Write { path, data } => obj![
                ("op", "write".to_json()),
                ("path", path.to_json()),
                ("data", data.to_json()),
            ],
            Op::Append { path, data } => obj![
                ("op", "append".to_json()),
                ("path", path.to_json()),
                ("data", data.to_json()),
            ],
            Op::Truncate { path, size } => obj![
                ("op", "truncate".to_json()),
                ("path", path.to_json()),
                ("size", size.to_json()),
            ],
            Op::Mkdir { path } => obj![("op", "mkdir".to_json()), ("path", path.to_json())],
            Op::Unlink { path } => obj![("op", "unlink".to_json()), ("path", path.to_json())],
            Op::Rmdir { path } => obj![("op", "rmdir".to_json()), ("path", path.to_json())],
            Op::Rename { from, to } => obj![
                ("op", "rename".to_json()),
                ("from", from.to_json()),
                ("to", to.to_json()),
            ],
            Op::Link { target, name } => obj![
                ("op", "link".to_json()),
                ("target", target.to_json()),
                ("name", name.to_json()),
            ],
        }
    }
}

impl FromJson for Op {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let kind = j.want("op")?.as_str().ok_or_else(|| JsonError("op must be a string".into()))?;
        let path = |key: &str| -> Result<String, JsonError> { String::from_json(j.want(key)?) };
        Ok(match kind {
            "write" => Op::Write { path: path("path")?, data: Vec::from_json(j.want("data")?)? },
            "append" => Op::Append { path: path("path")?, data: Vec::from_json(j.want("data")?)? },
            "truncate" => Op::Truncate { path: path("path")?, size: u64::from_json(j.want("size")?)? },
            "mkdir" => Op::Mkdir { path: path("path")? },
            "unlink" => Op::Unlink { path: path("path")? },
            "rmdir" => Op::Rmdir { path: path("path")? },
            "rename" => Op::Rename { from: path("from")?, to: path("to")? },
            "link" => Op::Link { target: path("target")?, name: path("name")? },
            other => return Err(JsonError(format!("unknown op {other:?}"))),
        })
    }
}

/// Replay one op; "expected" errors (name collisions the generator allows)
/// are tolerated, real errors propagate.
pub fn apply(fs: &mut (impl FileSystem + ?Sized), op: &Op) -> FsResult<()> {
    let tolerated = |e: &FsError| {
        matches!(
            e,
            FsError::NotFound
                | FsError::Exists
                | FsError::DirNotEmpty
                | FsError::IsDir
                | FsError::NotDir
        )
    };
    let r: FsResult<()> = (|| {
        match op {
            Op::Write { path: p, data } => {
                path::write_file(fs, p, data)?;
            }
            Op::Append { path: p, data } => {
                let ino = path::resolve(fs, p)?;
                let size = fs.getattr(ino)?.size;
                let mut off = 0usize;
                while off < data.len() {
                    off += fs.write(ino, size + off as u64, &data[off..])?;
                }
            }
            Op::Truncate { path: p, size } => {
                let ino = path::resolve(fs, p)?;
                fs.truncate(ino, *size)?;
            }
            Op::Mkdir { path: p } => {
                let (dir, name) = path::resolve_parent(fs, p)?;
                fs.mkdir(dir, name)?;
            }
            Op::Unlink { path: p } => {
                let (dir, name) = path::resolve_parent(fs, p)?;
                fs.unlink(dir, name)?;
            }
            Op::Rmdir { path: p } => {
                let (dir, name) = path::resolve_parent(fs, p)?;
                fs.rmdir(dir, name)?;
            }
            Op::Rename { from, to } => {
                let (fd, fname) = path::resolve_parent(fs, from)?;
                let fname = fname.to_string();
                let (td, tname) = path::resolve_parent(fs, to)?;
                let tname = tname.to_string();
                fs.rename(fd, &fname, td, &tname)?;
            }
            Op::Link { target, name } => {
                let t = path::resolve(fs, target)?;
                let (dir, leaf) = path::resolve_parent(fs, name)?;
                let leaf = leaf.to_string();
                fs.link(t, dir, &leaf)?;
            }
        }
        Ok(())
    })();
    match r {
        Err(ref e) if tolerated(e) => Ok(()),
        other => other,
    }
}

/// Replay a whole trace.
pub fn replay(fs: &mut (impl FileSystem + ?Sized), ops: &[Op]) -> FsResult<()> {
    for op in ops {
        apply(fs, op)?;
    }
    Ok(())
}

/// Snapshot of the logical state: path → `None` for a directory, or
/// `Some(contents)` for a file.
pub type Snapshot = BTreeMap<String, Option<Vec<u8>>>;

/// Capture the logical state of the whole tree. Needs only base
/// operations, so a volume set can be snapshotted too.
pub fn snapshot(fs: &(impl ConcurrentFs + ?Sized)) -> FsResult<Snapshot> {
    let mut entries: Vec<(String, FileKind)> = Vec::new();
    path::walk(fs, "/", &mut |p, _, kind| entries.push((p.to_string(), kind)))?;
    let mut out = Snapshot::new();
    for (p, kind) in entries {
        match kind {
            FileKind::Dir => {
                out.insert(p, None);
            }
            FileKind::File => {
                let data = path::read_file(fs, &p)?;
                out.insert(p, Some(data));
            }
        }
    }
    Ok(out)
}

/// Serialize a trace to JSON (record once, replay anywhere — including
/// against a different file-system implementation or configuration).
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn save(ops: &[Op], w: &mut impl std::io::Write) -> std::io::Result<()> {
    w.write_all(ops.to_vec().to_json().to_string().as_bytes())
}

/// Deserialize a trace saved by [`save`].
///
/// # Errors
/// Returns an error for malformed JSON.
pub fn load(r: &mut impl std::io::Read) -> std::io::Result<Vec<Op>> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let parsed = cffs_obs::json::parse(&text).map_err(std::io::Error::other)?;
    Vec::<Op>::from_json(&parsed).map_err(std::io::Error::other)
}

/// Generate a random trace over a bounded namespace. Deterministic in
/// `seed`; sizes span holes, block boundaries and multi-block files so
/// replay exercises direct and indirect mappings.
pub fn random_trace(seed: u64, nops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dirs = ["", "/d0", "/d1", "/d0/s0", "/d0/s1", "/d1/s0"];
    let files = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let mut ops = Vec::with_capacity(nops + dirs.len());
    for d in &dirs[1..] {
        ops.push(Op::Mkdir { path: d.to_string() });
    }
    let rand_path = |rng: &mut StdRng| {
        format!("{}/{}", dirs[rng.gen_range(0..dirs.len())], files[rng.gen_range(0..files.len())])
    };
    for _ in 0..nops {
        let op = match rng.gen_range(0..100) {
            0..=34 => {
                let len = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..512),
                    1 => rng.gen_range(512..4096),
                    2 => rng.gen_range(4096..20_000),
                    _ => rng.gen_range(20_000..100_000),
                };
                let byte = rng.gen::<u8>();
                Op::Write { path: rand_path(&mut rng), data: vec![byte; len] }
            }
            35..=49 => Op::Append {
                path: rand_path(&mut rng),
                data: vec![rng.gen::<u8>(); rng.gen_range(1..8192)],
            },
            50..=59 => Op::Truncate {
                path: rand_path(&mut rng),
                size: rng.gen_range(0..50_000),
            },
            60..=74 => Op::Unlink { path: rand_path(&mut rng) },
            75..=84 => Op::Rename { from: rand_path(&mut rng), to: rand_path(&mut rng) },
            85..=92 => Op::Link { target: rand_path(&mut rng), name: rand_path(&mut rng) },
            93..=96 => Op::Mkdir {
                path: format!("{}/sub{}", dirs[rng.gen_range(0..dirs.len())], rng.gen_range(0..3)),
            },
            _ => Op::Rmdir {
                path: format!("{}/sub{}", dirs[rng.gen_range(0..dirs.len())], rng.gen_range(0..3)),
            },
        };
        ops.push(op);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use cffs_fslib::model::ModelFs;

    #[test]
    fn replay_and_snapshot_round_trip() {
        let ops = vec![
            Op::Mkdir { path: "/x".into() },
            Op::Write { path: "/x/f".into(), data: b"hello".to_vec() },
            Op::Append { path: "/x/f".into(), data: b" world".to_vec() },
            Op::Write { path: "/x/g".into(), data: vec![7; 10_000] },
            Op::Truncate { path: "/x/g".into(), size: 5000 },
            Op::Rename { from: "/x/f".into(), to: "/x/h".into() },
        ];
        let mut fs = ModelFs::new();
        replay(&mut fs, &ops).unwrap();
        let snap = snapshot(&fs).unwrap();
        assert_eq!(snap["/x/h"], Some(b"hello world".to_vec()));
        assert_eq!(snap["/x/g"].as_ref().unwrap().len(), 5000);
        assert!(!snap.contains_key("/x/f"));
        assert_eq!(snap["/x"], None);
    }

    #[test]
    fn random_traces_replay_cleanly_on_oracle() {
        for seed in 0..5 {
            let ops = random_trace(seed, 300);
            let mut fs = ModelFs::new();
            replay(&mut fs, &ops).unwrap();
            snapshot(&fs).unwrap();
        }
    }

    #[test]
    fn trace_json_round_trip() {
        let ops = random_trace(3, 50);
        let mut bytes = Vec::new();
        save(&ops, &mut bytes).unwrap();
        let back = load(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, ops);
        // A reloaded trace replays to the same state.
        let mut a = ModelFs::new();
        replay(&mut a, &ops).unwrap();
        let mut b = ModelFs::new();
        replay(&mut b, &back).unwrap();
        assert_eq!(snapshot(&a).unwrap(), snapshot(&b).unwrap());
    }

    #[test]
    fn identical_seeds_identical_traces() {
        assert_eq!(random_trace(11, 100), random_trace(11, 100));
        assert_ne!(random_trace(11, 100), random_trace(12, 100));
    }
}
