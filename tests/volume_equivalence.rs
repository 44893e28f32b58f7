//! Property-based equivalence: a multi-disk [`VolumeSet`] must be
//! logically indistinguishable from a single C-FFS.
//!
//! Proptest explores seeded sequences of concurrent-surface operations
//! (mkdir/create/write/unlink/sync, with writes big enough to cross the
//! stripe threshold) and applies each sequence, single-threaded, to two
//! subjects: a 2–3 volume set with an 8 KB stripe policy and a plain
//! one-disk `Cffs` oracle. Every op's success/failure must agree, every
//! mid-sequence read must return identical bytes, and the final
//! namespaces must walk identically (names, kinds, sizes, contents —
//! holes included). Then the set runs one regroup pass per shard —
//! which renumbers embedded inos and invalidates every handle — and the
//! walk must *still* match, with every volume fsck-clean.

use cffs::core::{Cffs, CffsConfig, MkfsParams};
use cffs::prelude::*;
use cffs::volume::{VolumeCfg, VolumeSet};
use cffs_disksim::{models, Disk};
use cffs_fslib::ConcurrentFs;
use proptest::prelude::*;

/// One operation on the concurrent surface. Paths come from a small
/// fixed universe so sequences collide (create-over-dir, unlink of a
/// striped file, write-after-unlink) instead of wandering.
#[derive(Debug, Clone)]
enum Op {
    Mkdir { dir: &'static str, name: String },
    Create { dir: &'static str, name: String },
    /// `open(O_CREAT)` + `pwrite`: creates the file if absent.
    Write { dir: &'static str, name: String, off: u64, len: usize, byte: u8 },
    Unlink { dir: &'static str, name: String },
    /// Read from both subjects and compare bytes mid-sequence.
    ReadCheck { dir: &'static str, name: String, off: u64, len: usize },
    Sync,
}

const DIRS: [&str; 3] = ["", "/d0", "/d0/d1"];

fn arb_name() -> impl Strategy<Value = String> {
    (0usize..4).prop_map(|i| format!("f{i}"))
}

fn arb_dir() -> impl Strategy<Value = &'static str> {
    prop::sample::select(DIRS.to_vec())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (arb_dir(), prop::sample::select(vec!["d0", "d1"]))
            .prop_map(|(dir, n)| Op::Mkdir { dir, name: n.to_string() }),
        2 => (arb_dir(), arb_name()).prop_map(|(dir, name)| Op::Create { dir, name }),
        // Lengths up to 24 KB and offsets up to 20 KB: well past the
        // subject's 8 KB stripe threshold, so promotion, multi-part
        // writes, and holes between parts all get exercised.
        4 => (arb_dir(), arb_name(), 0u64..20_000, 0usize..24_000, any::<u8>())
            .prop_map(|(dir, name, off, len, byte)| Op::Write { dir, name, off, len, byte }),
        2 => (arb_dir(), arb_name()).prop_map(|(dir, name)| Op::Unlink { dir, name }),
        2 => (arb_dir(), arb_name(), 0u64..30_000, 1usize..24_000)
            .prop_map(|(dir, name, off, len)| Op::ReadCheck { dir, name, off, len }),
        1 => Just(Op::Sync),
    ]
}

fn resolve(fs: &(impl ConcurrentFs + ?Sized), path: &str) -> FsResult<Ino> {
    let mut cur = fs.root();
    for c in path.split('/').filter(|c| !c.is_empty()) {
        cur = fs.lookup(cur, c)?;
    }
    Ok(cur)
}

/// Apply one op; the return value is what must agree across subjects.
fn apply(fs: &(impl ConcurrentFs + ?Sized), op: &Op) -> Result<Option<Vec<u8>>, String> {
    let dir_of = |d: &str| resolve(fs, d).map_err(|e| format!("resolve {d:?}: {e:?}"));
    match op {
        Op::Mkdir { dir, name } => {
            let d = dir_of(dir)?;
            fs.mkdir(d, name).map(|_| None).map_err(|e| format!("{e:?}"))
        }
        Op::Create { dir, name } => {
            let d = dir_of(dir)?;
            fs.create(d, name).map(|_| None).map_err(|e| format!("{e:?}"))
        }
        Op::Write { dir, name, off, len, byte } => {
            let d = dir_of(dir)?;
            let ino = match fs.lookup(d, name) {
                Ok(i) => i,
                Err(FsError::NotFound) => fs.create(d, name).map_err(|e| format!("{e:?}"))?,
                Err(e) => return Err(format!("{e:?}")),
            };
            fs.write(ino, *off, &vec![*byte; *len]).map(|_| None).map_err(|e| format!("{e:?}"))
        }
        Op::Unlink { dir, name } => {
            let d = dir_of(dir)?;
            fs.unlink(d, name).map(|_| None).map_err(|e| format!("{e:?}"))
        }
        Op::ReadCheck { dir, name, off, len } => {
            let d = dir_of(dir)?;
            let ino = fs.lookup(d, name).map_err(|e| format!("{e:?}"))?;
            let mut buf = vec![0u8; *len];
            let n = fs.read(ino, *off, &mut buf).map_err(|e| format!("{e:?}"))?;
            buf.truncate(n);
            Ok(Some(buf))
        }
        Op::Sync => fs.sync().map(|_| None).map_err(|e| format!("{e:?}")),
    }
}

/// Logical state: every path with its kind, size, and (for files) full
/// contents, resolved fresh from the root — so it survives handle
/// invalidation.
fn walk(fs: &(impl ConcurrentFs + ?Sized), dir: Ino, prefix: &str, out: &mut Vec<String>) {
    let mut entries = fs.readdir(dir).expect("readdir");
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let path = format!("{prefix}/{}", e.name);
        let attr = fs.getattr(e.ino).expect("getattr");
        match attr.kind {
            FileKind::Dir => {
                out.push(format!("{path}/ "));
                walk(fs, e.ino, &path, out);
            }
            FileKind::File => {
                let mut buf = vec![0u8; attr.size as usize];
                let n = fs.read(e.ino, 0, &mut buf).expect("read");
                assert_eq!(n, buf.len(), "short read of {path}");
                // Content fingerprint: size plus a rolling sum is enough
                // to catch byte-level divergence without megabyte dumps
                // in a failing case's assertion message.
                let sum = buf.iter().fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
                out.push(format!("{path} size={} sum={sum:#x}", attr.size));
            }
        }
    }
}

fn snapshot(fs: &(impl ConcurrentFs + ?Sized)) -> Vec<String> {
    let mut out = Vec::new();
    walk(fs, fs.root(), "", &mut out);
    out
}

fn subject(nvols: usize) -> VolumeSet {
    let disks = (0..nvols).map(|_| Disk::new(models::tiny_test_disk())).collect();
    let cfg = VolumeCfg::new(CffsConfig::cffs())
        .with_mkfs(MkfsParams::tiny())
        .with_stripes(8 * 1024, 8 * 1024);
    VolumeSet::format(disks, cfg).expect("format volume set")
}

fn oracle() -> Cffs {
    cffs::core::mkfs::mkfs(
        Disk::new(models::tiny_test_disk()),
        MkfsParams::tiny(),
        CffsConfig::cffs(),
    )
    .expect("mkfs oracle")
}

/// Coverage guard for the property above: the op mix must actually
/// drive files into the striped layout, or the equivalence proof says
/// nothing about striping. A single 24 KB write crosses the 8 KB
/// threshold and must land in the stripe registry.
#[test]
fn write_past_threshold_stripes() {
    let vs = subject(3);
    let single = oracle();
    let op = Op::Write { dir: "", name: "f0".to_string(), off: 0, len: 24_000, byte: 7 };
    apply(&vs, &op).expect("set write");
    apply(&single, &op).expect("single write");
    assert!(vs.stripe_count() > 0, "24 KB write did not stripe");
    assert_eq!(snapshot(&vs), snapshot(&single));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A 2–3 volume set and a single C-FFS agree on every op outcome,
    /// every read, the final walk, the walk again after a regroup pass
    /// on every shard, and fsck.
    #[test]
    fn volume_set_matches_single_cffs(
        nvols in 2usize..=3,
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let mut vs = subject(nvols);
        let single = oracle();
        for (i, op) in ops.iter().enumerate() {
            let got = apply(&vs, op);
            let want = apply(&single, op);
            // Outcomes must agree in success; payloads (read bytes)
            // must agree exactly. Error *messages* may differ in
            // detail, so only the Ok/Err shape is compared there.
            match (&got, &want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(g, w, "op {} {:?} payload diverged", i, op),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "op {} {:?}: set {:?} vs single {:?}", i, op, got, want),
            }
        }
        prop_assert_eq!(snapshot(&vs), snapshot(&single), "final walk diverged");

        // Regroup every shard: renumbers embedded inos and invalidates
        // all handles, but must not change the logical namespace.
        vs.regroup_all(&cffs::regroup::RegroupConfig::exhaustive()).expect("regroup");
        prop_assert_eq!(snapshot(&vs), snapshot(&single), "walk diverged after regroup");
        for (v, rep) in vs.fsck_all().expect("fsck").iter().enumerate() {
            prop_assert!(rep.clean(), "volume {} dirty after regroup: {:?}", v, rep.errors);
        }
    }
}
