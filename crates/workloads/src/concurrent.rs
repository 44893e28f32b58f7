//! Multi-threaded client workload for the concurrent surface.
//!
//! N client threads share one [`ConcurrentFs`] instance. Each thread
//! replays a seeded session against its own *disjoint* directory set
//! (directories created round-robin across cylinder groups, so threads
//! allocate from different CGs and the per-CG sharding actually pays),
//! plus an optional *shared* directory set every thread contends on.
//!
//! ## Phases and the measured window
//!
//! 1. **Setup** (main thread): directory trees, then `sync`.
//! 2. **Populate** (threaded): each thread creates and writes its own
//!    files — concurrent allocation across disjoint CGs. Ends with a
//!    `sync` barrier so nothing is dirty and everything is cache-warm.
//! 3. **Warm window** (threaded, *measured*): `read_rounds` rounds of
//!    seeded re-reads, `getattr` and `readdir` per thread — strictly
//!    read-only. Every operation is a cache hit, so the window issues no
//!    disk requests and its cost is pure per-thread simulated CPU — the
//!    window's elapsed time is the cross-thread clock high-water mark,
//!    and aggregate ops/s scales with threads exactly as far as the
//!    sharded locks let threads overlap. Because no shared disk timeline
//!    is touched, the window is deterministic under any OS scheduling.
//! 4. **Churn** (threaded): seeded overwrites and unlinks plus the
//!    shared-directory contention phase — the mutation races the stress
//!    tests care about.
//! 5. Final `sync`.
//!
//! ## Time discipline
//!
//! Each thread advances its own virtual simulated clock (the thread-local
//! mirror in [`cffs_obs::Obs`]); disk requests serialize through the
//! shared driver worker. A window's elapsed simulated time is the delta
//! of `Obs::global_clock_ns` — every thread's work fits before it.

use cffs_disksim::SimDuration;
use cffs_fslib::path::{mkdir_p, read_file, resolve, resolve_parent};
use cffs_fslib::{ConcurrentFs, FsResult, Ino};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one multi-threaded run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentParams {
    /// Client threads sharing the file system.
    pub nthreads: usize,
    /// Disjoint directories per thread (each thread touches only its own).
    pub dirs_per_thread: usize,
    /// Files created, written, read back, and stat'd per directory.
    pub files_per_dir: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Directories every thread contends on (0 = fully disjoint run).
    pub shared_dirs: usize,
    /// Files each thread adds to (and reads from) each shared directory.
    pub shared_files_per_thread: usize,
    /// Rounds of the measured warm window: each round re-reads every
    /// file in a fresh seeded shuffle, mixing in seeded `getattr` and
    /// `readdir` calls (read-only — mutation happens in the churn phase).
    pub read_rounds: usize,
    /// RNG seed; thread `t` derives its session from `seed ^ t`.
    pub seed: u64,
}

impl Default for ConcurrentParams {
    fn default() -> Self {
        ConcurrentParams {
            nthreads: 4,
            dirs_per_thread: 4,
            files_per_dir: 32,
            file_size: 4096,
            shared_dirs: 0,
            shared_files_per_thread: 0,
            read_rounds: 1,
            seed: 42,
        }
    }
}

/// Result of one multi-threaded run.
#[derive(Debug, Clone)]
pub struct ConcurrentResult {
    /// Threads that ran.
    pub nthreads: usize,
    /// Operations completed per thread, all phases (create/write/read/
    /// getattr/readdir/unlink each count one).
    pub per_thread_ops: Vec<u64>,
    /// Operations completed per thread inside the measured warm window.
    pub measured_ops: Vec<u64>,
    /// Payload bytes written plus read, all threads, all phases.
    pub bytes: u64,
    /// Elapsed simulated time of the measured warm window (cross-thread
    /// clock high-water mark delta).
    pub elapsed: SimDuration,
}

impl ConcurrentResult {
    /// Total operations across threads and phases.
    pub fn total_ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }

    /// Operations inside the measured window, all threads.
    pub fn total_measured_ops(&self) -> u64 {
        self.measured_ops.iter().sum()
    }

    /// Aggregate measured-window operations per second of simulated time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.as_nanos() == 0 {
            return f64::INFINITY;
        }
        self.total_measured_ops() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Phase 2 body: populate this thread's directories. Returns
/// (ops, bytes, inos per directory).
fn populate(
    fs: &(impl ConcurrentFs + ?Sized),
    t: usize,
    own_dirs: &[Ino],
    p: &ConcurrentParams,
) -> FsResult<(u64, u64, Vec<Vec<Ino>>)> {
    let payload = vec![(t & 0xff) as u8; p.file_size];
    let mut ops = 0u64;
    let mut bytes = 0u64;
    let mut inos: Vec<Vec<Ino>> = vec![Vec::new(); own_dirs.len()];
    // Interleave across the thread's dirs so consecutive ops hit
    // different CGs.
    for f in 0..p.files_per_dir {
        for (d, &dir) in own_dirs.iter().enumerate() {
            let ino = fs.create(dir, &format!("f{f}"))?;
            ops += 1;
            fs.write(ino, 0, &payload)?;
            ops += 1;
            bytes += p.file_size as u64;
            inos[d].push(ino);
        }
    }
    Ok((ops, bytes, inos))
}

/// Phase 3 body: the measured warm window — seeded re-reads, attribute
/// and directory scans, all cache hits and strictly read-only. Returns
/// (ops, bytes).
///
/// The window issues no writes on purpose: a dirty buffer can trip the
/// delayed-flush watermark mid-window, and the resulting disk request's
/// completion time sits on the *shared* disk timeline — the submitting
/// thread's clock would jump past its siblings' positions and the
/// window's elapsed time would depend on OS scheduling. Read-only means
/// pure per-thread CPU: deterministic and genuinely parallel.
fn warm_window(
    fs: &(impl ConcurrentFs + ?Sized),
    t: usize,
    own_dirs: &[Ino],
    inos: &[Vec<Ino>],
    p: &ConcurrentParams,
) -> FsResult<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut buf = vec![0u8; p.file_size];
    let mut ops = 0u64;
    let mut bytes = 0u64;
    for _round in 0..p.read_rounds {
        let mut order: Vec<(usize, usize)> = (0..own_dirs.len())
            .flat_map(|d| (0..p.files_per_dir).map(move |f| (d, f)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i as u64) as usize);
        }
        for (d, f) in order {
            let n = fs.read(inos[d][f], 0, &mut buf)?;
            ops += 1;
            bytes += n as u64;
            match rng.gen_range(0..16u64) {
                0..=3 => {
                    fs.getattr(inos[d][f])?;
                    ops += 1;
                }
                4..=5 => {
                    fs.readdir(own_dirs[d])?;
                    ops += 1;
                }
                _ => {}
            }
        }
    }
    Ok((ops, bytes))
}

/// Phase 4 body: seeded unlinks in the thread's own directories, then
/// the shared-directory contention round. Returns (ops, bytes).
fn churn(
    fs: &(impl ConcurrentFs + ?Sized),
    t: usize,
    own_dirs: &[Ino],
    shared: &[Ino],
    p: &ConcurrentParams,
) -> FsResult<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64((p.seed ^ t as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    let payload = vec![(t & 0xff) as u8; p.file_size];
    let mut ops = 0u64;
    let mut bytes = 0u64;
    // Overwrite a seeded eighth of each directory in place (dirties
    // cached buffers, allocates nothing), then delete a seeded quarter.
    // Mutation lives here, outside the measured window — see
    // `warm_window` for why the window itself stays read-only.
    // Targets resolve by full path from the root, so every overwrite
    // walks the same namespace a real client would.
    for (d, _) in own_dirs.iter().enumerate() {
        for f in 0..p.files_per_dir {
            if rng.gen_range(0..8u64) == 0 {
                let ino = resolve(fs, &format!("/t{t}_d{d}/f{f}"))?;
                fs.write(ino, 0, &payload)?;
                ops += 2;
                bytes += p.file_size as u64;
            }
        }
    }
    for &dir in own_dirs {
        for f in 0..p.files_per_dir {
            if rng.gen_range(0..4u64) == 0 {
                fs.unlink(dir, &format!("f{f}"))?;
                ops += 1;
            }
        }
    }
    // Contend on the shared directories — every thread creates its own
    // (thread-unique) names, then re-reads and re-lists, so the
    // per-directory op stripe and the shared CG state genuinely collide.
    // Files go through the path helpers: racing threads resolve
    // "/sharedN" concurrently while siblings insert into it.
    for (s, &dir) in shared.iter().enumerate() {
        for f in 0..p.shared_files_per_thread {
            let path = format!("/shared{s}/t{t}_s{f}");
            let (parent, name) = resolve_parent(fs, &path)?;
            let ino = fs.create(parent, name)?;
            fs.write(ino, 0, &payload)?;
            ops += 2;
            bytes += p.file_size as u64;
        }
        for f in 0..p.shared_files_per_thread {
            let data = read_file(fs, &format!("/shared{s}/t{t}_s{f}"))?;
            ops += 1;
            bytes += data.len() as u64;
        }
        if p.shared_files_per_thread > 0 {
            fs.readdir(dir)?;
            ops += 1;
        }
    }
    Ok((ops, bytes))
}

/// Fan a per-thread body over thread indices and collect each thread's
/// (ops, bytes) tally, propagating the first error.
///
/// Every worker's virtual clock is pinned to the fork-time watermark
/// before its first op. Without the pin, a worker whose OS thread starts
/// late in *wall* time would fall back to the global clock mirror — which
/// its siblings have already pushed — and the per-thread timelines would
/// chain serially instead of overlapping from a common origin.
pub(crate) fn fan_out<F>(
    fs: &(impl ConcurrentFs + ?Sized),
    nthreads: usize,
    body: F,
) -> FsResult<Vec<(u64, u64)>>
where
    F: Fn(usize) -> FsResult<(u64, u64)> + Sync,
{
    let obs = fs.obs();
    let fork_ns = obs.as_ref().map(|o| o.global_clock_ns());
    let results: Vec<FsResult<(u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let body = &body;
                let obs = obs.clone();
                scope.spawn(move || {
                    if let (Some(o), Some(ns)) = (obs, fork_ns) {
                        o.pin_clock_ns(ns);
                        // Slot 0 is the main thread; clients are 1-based
                        // so the feed's per-thread op rows tell them apart.
                        o.bind_thread_slot(t + 1);
                    }
                    body(t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    results.into_iter().collect()
}

/// Run the workload: set up the directory trees, populate concurrently,
/// sync to a warm quiescent point, run the measured warm window, churn,
/// final sync. See the module docs for why only the warm window is timed.
pub fn run(
    fs: &(impl ConcurrentFs + ?Sized),
    p: &ConcurrentParams,
) -> FsResult<ConcurrentResult> {
    run_with_phase_hook(fs, p, |_| {})
}

/// [`run`], invoking `hook` with the phase name at each quiescent point
/// (after every barrier: "setup", "populate", "warm", "churn"). The
/// registries are stable when the hook runs — no client thread is live —
/// so a manual-cadence feed tap can cut a consistent frame per phase
/// even though the phases themselves are multi-threaded.
pub fn run_with_phase_hook(
    fs: &(impl ConcurrentFs + ?Sized),
    p: &ConcurrentParams,
    hook: impl Fn(&str),
) -> FsResult<ConcurrentResult> {
    // Phase 1 — setup (main thread, unmeasured). Directory CGs are
    // assigned round-robin by the allocator, so consecutive mkdirs land
    // in different cylinder groups.
    let mut own: Vec<Vec<Ino>> = Vec::with_capacity(p.nthreads);
    for t in 0..p.nthreads {
        let mut dirs = Vec::with_capacity(p.dirs_per_thread);
        for d in 0..p.dirs_per_thread {
            dirs.push(mkdir_p(fs, &format!("/t{t}_d{d}"))?);
        }
        own.push(dirs);
    }
    let mut shared = Vec::with_capacity(p.shared_dirs);
    for s in 0..p.shared_dirs {
        shared.push(mkdir_p(fs, &format!("/shared{s}"))?);
    }
    fs.sync()?;
    hook("setup");

    let mut per_thread_ops = vec![0u64; p.nthreads];
    let mut bytes = 0u64;

    // Phase 2 — concurrent populate, then a sync barrier: the window
    // that follows starts with a warm cache and nothing dirty.
    let inos: std::sync::Mutex<Vec<Vec<Vec<Ino>>>> =
        std::sync::Mutex::new(vec![Vec::new(); p.nthreads]);
    let pop = fan_out(fs, p.nthreads, |t| {
        let (ops, b, ino_sets) = populate(fs, t, &own[t], p)?;
        inos.lock().unwrap()[t] = ino_sets;
        Ok((ops, b))
    })?;
    for (t, (ops, b)) in pop.into_iter().enumerate() {
        per_thread_ops[t] += ops;
        bytes += b;
    }
    let inos = inos.into_inner().unwrap();
    fs.sync()?;
    hook("populate");

    // Phase 3 — the measured warm window.
    let start_ns = match fs.obs() {
        Some(o) => o.global_clock_ns(),
        None => fs.now().as_nanos(),
    };
    let warm = fan_out(fs, p.nthreads, |t| warm_window(fs, t, &own[t], &inos[t], p))?;
    let end_ns = match fs.obs() {
        Some(o) => o.global_clock_ns(),
        None => fs.now().as_nanos(),
    };
    let mut measured_ops = vec![0u64; p.nthreads];
    for (t, (ops, b)) in warm.into_iter().enumerate() {
        measured_ops[t] = ops;
        per_thread_ops[t] += ops;
        bytes += b;
    }
    hook("warm");

    // Phase 4 — churn + shared-directory contention, then final sync.
    let churned = fan_out(fs, p.nthreads, |t| churn(fs, t, &own[t], &shared, p))?;
    for (t, (ops, b)) in churned.into_iter().enumerate() {
        per_thread_ops[t] += ops;
        bytes += b;
    }
    fs.sync()?;
    hook("churn");

    Ok(ConcurrentResult {
        nthreads: p.nthreads,
        per_thread_ops,
        measured_ops,
        bytes,
        elapsed: SimDuration::from_nanos(end_ns.saturating_sub(start_ns)),
    })
}
