//! `namei-warm`: warm full-path resolution with the dcache off.
//!
//! Setup builds a 16×16×256 tree (65 536 zero-byte files, directory
//! blocks ≈10 MB, inside the 16 MB buffer cache) and resolves the whole
//! seeded sample once. The window then resolves seeded full paths
//! `/b{b}/d{d}/f{f}` one component at a time, each followed by `getattr`
//! and `read`. Nothing reaches the disk: the cost is host CPU in the
//! dirent scans, the cache hit path and the obs clock and spans. A
//! driver or disk change should read as no change here.

use crate::layers;
use crate::probe::{Probe, Recorder, Span};
use crate::report::{self, Acc, LayerInputs, Metric, SameWork, Window};
use crate::stats::Rng;
use crate::Args;
use cffs::core::{Cffs, CffsConfig};
use cffs::disksim::{models, TraceEntry};
use cffs::fslib::{ConcurrentFs, FileKind, FsResult, Ino, MetadataMode};
use cffs::obs::Ctr;
use std::time::Instant;

const BRANCHES: usize = 16;
const DIRS: usize = 16;
const FILES: usize = 256;
/// Paths per sample round.
const SAMPLE: usize = 4096;
/// Trees built per end-to-end run, for the setup median.
const SETUPS: usize = 5;
/// Passes over the sample per second of `--seconds`: about what a
/// 2-core 2.1 GHz Xeon VM completes, set-ups included.
const PASSES_PER_SECOND: f64 = 20.0;
/// Sample passes per window in trace mode, and traced windows per run.
const TRACE_PASSES: usize = 5;
const TRACED_WINDOWS: usize = 2;

/// The seeded sample of `(branch, dir, file)` triples.
fn sample(seed: u64) -> Vec<(usize, usize, usize)> {
    let mut rng = Rng::new(seed);
    (0..SAMPLE)
        .map(|_| {
            (
                rng.below(BRANCHES as u64) as usize,
                rng.below(DIRS as u64) as usize,
                rng.below(FILES as u64) as usize,
            )
        })
        .collect()
}

/// The sample's `(parent, name)` lookup keys with stand-in parent inos,
/// for timing `Dcache::lookup` on the names this workload resolves.
pub fn sample_keys(seed: u64) -> Vec<(u64, String)> {
    let names = Names::new(seed);
    sample(seed)
        .into_iter()
        .flat_map(|(b, d, f)| {
            [
                (1, names.b[b].clone()),
                (100 + b as u64, names.d[d].clone()),
                (10_000 + (b * DIRS + d) as u64, names.f[f].clone()),
            ]
        })
        .collect()
}

struct Tree<'r> {
    fs: Probe<'r, Cffs>,
    /// Every file's ino as recorded at create time, `[b][d][f]` flattened.
    files: Vec<Ino>,
    stream: Vec<TraceEntry>,
}

fn build<'r>(rec: &'r Recorder, names: &Names, capture: bool) -> (Tree<'r>, f64) {
    let t0 = Instant::now();
    let fs = cffs::build::on_disk(
        models::seagate_st31200(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    fs.set_disk_trace(capture);
    rec.reset_shadow();
    let fs = Probe::new(fs, rec);
    let root = fs.root();
    let mut tree = Tree {
        files: Vec::new(),
        stream: Vec::new(),
        fs,
    };
    let checked = |r: FsResult<Ino>, what: String| {
        r.unwrap_or_else(|e| {
            rec.fail(format!("building {what}: {e:?}"));
            0
        })
    };
    for b in 0..BRANCHES {
        let branch = checked(tree.fs.mkdir(root, &names.b[b]), format!("/b{b}"));
        for d in 0..DIRS {
            let leaf = checked(tree.fs.mkdir(branch, &names.d[d]), format!("/b{b}/d{d}"));
            for (f, name) in names.f.iter().enumerate() {
                let ino = checked(tree.fs.create(leaf, name), format!("/b{b}/d{d}/{f}"));
                tree.files.push(ino);
            }
        }
    }
    if let Err(e) = tree.fs.inner().sync() {
        rec.fail(format!("sync after build: {e:?}"));
    }
    tree.stream = tree.fs.inner().disk_trace();
    tree.fs.inner().set_disk_trace(false);
    (tree, t0.elapsed().as_secs_f64())
}

/// One pass over the sample: resolve, `getattr`, `read`, each checked
/// against the inode recorded at build time.
fn resolve_all(tree: &Tree<'_>, rec: &Recorder, paths: &[(usize, usize, usize)], names: &Names) {
    let fs = &tree.fs;
    let root = fs.root();
    let mut buf = [0u8; 1];
    for &(b, d, f) in paths {
        rec.begin_request();
        let want = tree.files[(b * DIRS + d) * FILES + f];
        let r = fs
            .lookup(root, &names.b[b])
            .and_then(|i| fs.lookup(i, &names.d[d]))
            .and_then(|i| fs.lookup(i, &names.f[f]))
            .and_then(|ino| {
                if ino != want {
                    rec.fail(format!(
                        "/b{b}/d{d}/f{f} resolved to {ino}, built as {want}"
                    ));
                }
                let a = fs.getattr(ino)?;
                if a.ino != ino || a.kind != FileKind::File || a.size != 0 {
                    rec.fail(format!("getattr /b{b}/d{d}/f{f}: {a:?}"));
                }
                fs.read(ino, 0, &mut buf)
            });
        if let Err(e) = r {
            rec.fail(format!("resolving /b{b}/d{d}/f{f}: {e:?}"));
        }
    }
    rec.end_request();
}

/// Component names, generated once: branch and leaf directories are
/// `b{i}` and `d{i}`; file names are seeded (the same in every leaf).
struct Names {
    b: Vec<String>,
    d: Vec<String>,
    f: Vec<String>,
}

impl Names {
    fn new(seed: u64) -> Names {
        let mut rng = Rng::new(seed ^ 0x6E61_6D65);
        Names {
            b: (0..BRANCHES).map(|i| format!("b{i}")).collect(),
            d: (0..DIRS).map(|i| format!("d{i}")).collect(),
            f: (0..FILES).map(|i| rng.name(i)).collect(),
        }
    }
}

/// Measure `passes` passes over the sample, one window each, folded into
/// `acc`; each pass is checked to repeat the same simulated work.
fn measure(
    tree: &Tree<'_>,
    rec: &Recorder,
    paths: &[(usize, usize, usize)],
    names: &Names,
    passes: usize,
    acc: &mut Acc,
    same: &mut SameWork,
) {
    let obs = tree.fs.inner().obs();
    let fs = &tree.fs;
    for _ in 0..passes {
        let before = obs.snapshot("namei", fs.now().as_nanos());
        let (calls0, sim0) = (rec.attempted(), fs.now().as_nanos());
        rec.set_window(true);
        let span = rec.open("phase.resolve");
        let h0 = Instant::now();
        resolve_all(tree, rec, paths, names);
        let host_ns = h0.elapsed().as_nanos() as u64;
        drop(span);
        rec.set_window(false);
        let window = Window {
            calls: rec.attempted() - calls0,
            host_ns,
            sim_ns: fs.now().as_nanos() - sim0,
        };
        let lat = rec.take_latencies();
        let delta = obs.snapshot("namei", fs.now().as_nanos()).delta(&before);
        same.check(rec, &window, &lat, &delta);
        acc.add(window, &lat, &delta);
    }
}

pub fn run(args: &Args, rec: &Recorder) -> (Vec<Metric>, Vec<Span>) {
    let paths = sample(args.seed);
    let names = Names::new(args.seed);
    let mut same = SameWork::default();

    if !args.trace {
        // `SETUPS` trees, each warmed and then measured for the same
        // number of passes over the sample. The pass count is fixed by
        // `--seconds`, not by the clock: the buffer cache's memory grows
        // with every hit it serves, so a time-bound loop would make peak
        // RSS follow the host's speed.
        let passes = ((args.seconds * PASSES_PER_SECOND) as usize / SETUPS).max(2);
        let mut setups = Vec::new();
        let mut acc = Acc::default();
        for _ in 0..SETUPS {
            let (tree, mut setup_s) = build(rec, &names, false);
            let t0 = Instant::now();
            resolve_all(&tree, rec, &paths, &names);
            setup_s += t0.elapsed().as_secs_f64();
            setups.push(setup_s);
            measure(&tree, rec, &paths, &names, passes, &mut acc, &mut same);
        }
        return (report::end_to_end(&acc, &setups), Vec::new());
    }

    // Trace mode: one tree (its build stream is the replayed one), then
    // untraced and traced windows alternately.
    let (tree, _) = build(rec, &names, true);
    resolve_all(&tree, rec, &paths, &names);
    let (mut untraced, mut traced) = (Acc::default(), Acc::default());
    for _ in 0..TRACED_WINDOWS {
        measure(
            &tree,
            rec,
            &paths,
            &names,
            TRACE_PASSES,
            &mut untraced,
            &mut same,
        );
        rec.set_tracing(true);
        let workload = rec.open("workload.namei-warm");
        measure(
            &tree,
            rec,
            &paths,
            &names,
            TRACE_PASSES,
            &mut traced,
            &mut same,
        );
        drop(workload);
        rec.set_tracing(false);
    }
    let spans = rec.take_spans();
    let (times, obs) = layers::time_all(
        rec,
        &tree.stream,
        &models::seagate_st31200(),
        args.seed,
        &tree.fs.inner().obs(),
    );
    let reqs = traced
        .delta
        .as_ref()
        .map_or(0, |d| d.get(Ctr::DiskRequests));
    let metrics = report::per_layer(&LayerInputs {
        spans: &spans,
        traced: &traced,
        untraced: &untraced,
        vol_reqs: vec![reqs],
        round_fanouts: 0,
        round_calls: 0,
        times,
        obs,
        regroup_host_ms: 0.0,
        regroup_blocks_moved: 0,
    });
    let mut all = spans;
    all.extend(rec.take_spans());
    (metrics, all)
}
