//! The benchmark's view of the file system: a [`ConcurrentFs`] wrapper
//! that times every call on both clocks, records spans when tracing, and
//! checks every read against a shadow copy of what was written.
//!
//! Everything here sits outside the program under test. Host time of a
//! call is taken between the two `Instant` reads that bracket the inner
//! call; the simulated latency is the delta of the calling thread's
//! `now()` across the same call. Bookkeeping (sample push, shadow
//! update, read check) happens after the second timestamp, so it never
//! counts towards a call's latency — only towards the window's
//! throughput, equally on every build.

use crate::stats::Latencies;
use cffs::fslib::{Attr, ConcurrentFs, DirEntry, FsResult, Ino};
use cffs::obs::Obs;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// FS call kinds the benchmark issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lookup,
    Getattr,
    Create,
    Mkdir,
    Unlink,
    Read,
    Write,
    Readdir,
    Sync,
}

impl Op {
    pub const ALL: [Op; 9] = [
        Op::Lookup,
        Op::Getattr,
        Op::Create,
        Op::Mkdir,
        Op::Unlink,
        Op::Read,
        Op::Write,
        Op::Readdir,
        Op::Sync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Lookup => "lookup",
            Op::Getattr => "getattr",
            Op::Create => "create",
            Op::Mkdir => "mkdir",
            Op::Unlink => "unlink",
            Op::Read => "read",
            Op::Write => "write",
            Op::Readdir => "readdir",
            Op::Sync => "sync",
        }
    }
}

/// One span: a name, host start/end (ns since the recorder's epoch),
/// the span that caused it, and the request it belongs to. Call spans
/// also carry their simulated latency.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub sim_ns: u64,
}

const SLOTS: usize = 8;
const SHADOW_SHARDS: usize = 64;

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Per-thread buffers (one mutex per slot, so client threads do not
/// contend on the bookkeeping).
#[derive(Default)]
struct Slot {
    latencies: Latencies,
    spans: Vec<Span>,
}

/// Collects latencies, spans and failures for one benchmark run.
pub struct Recorder {
    epoch: Instant,
    window: AtomicBool,
    tracing: AtomicBool,
    /// Parent of call spans: the phase span currently open.
    phase: AtomicU64,
    next_id: AtomicU64,
    next_slot: AtomicUsize,
    slots: Vec<Mutex<Slot>>,
    /// Workload, phase and layer spans (few; main thread only).
    outer: Mutex<Vec<Span>>,
    attempted: AtomicU64,
    failed: AtomicU64,
    /// Expected contents of every file written through the probe.
    shadow: Vec<Mutex<HashMap<Ino, Vec<u8>>>>,
    /// First few failure descriptions, for the report.
    notes: Mutex<Vec<String>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            window: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            phase: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            next_slot: AtomicUsize::new(0),
            slots: (0..SLOTS).map(|_| Mutex::new(Slot::default())).collect(),
            outer: Mutex::new(Vec::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shadow: (0..SHADOW_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            notes: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open or close the measured window: latencies are kept only inside.
    pub fn set_window(&self, on: bool) {
        self.window.store(on, Ordering::SeqCst);
    }

    /// Record call spans (in addition to latencies) while on.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    /// Start a new client request on this thread: the calls that follow
    /// share its trace id until the next request starts.
    pub fn begin_request(&self) {
        let id = self.new_id();
        REQUEST.with(|r| r.set(id));
    }

    /// End the current request: later calls on this thread each become a
    /// request of their own.
    pub fn end_request(&self) {
        REQUEST.with(|r| r.set(0));
    }

    /// Open an outer span (workload, phase or direct layer call). While
    /// it is open, call spans take it as their parent.
    pub fn open(&self, name: &'static str) -> OuterSpan<'_> {
        let id = self.new_id();
        let parent = self.phase.swap(id, Ordering::SeqCst);
        OuterSpan {
            rec: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Count a failed or incorrect operation.
    pub fn fail(&self, what: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut notes = self.notes.lock().expect("notes lock poisoned");
        if notes.len() < 16 {
            notes.push(what);
        }
    }

    /// Count a non-call check (fsck, determinism) as attempted.
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn notes(&self) -> Vec<String> {
        self.notes.lock().expect("notes lock poisoned").clone()
    }

    /// Forget every shadow file (a fresh file system follows).
    pub fn reset_shadow(&self) {
        for s in &self.shadow {
            s.lock().expect("shadow lock poisoned").clear();
        }
    }

    /// Take the call latencies recorded so far.
    pub fn take_latencies(&self) -> Latencies {
        let mut out = Latencies::default();
        for s in &self.slots {
            out.merge(&std::mem::take(
                &mut s.lock().expect("slot lock poisoned").latencies,
            ));
        }
        out
    }

    /// Take every span recorded so far (call spans and outer spans).
    pub fn take_spans(&self) -> Vec<Span> {
        let mut out = std::mem::take(&mut *self.outer.lock().expect("span lock poisoned"));
        for s in &self.slots {
            out.append(&mut s.lock().expect("slot lock poisoned").spans);
        }
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }

    fn slot(&self) -> &Mutex<Slot> {
        let i = SLOT.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_slot.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        });
        &self.slots[i]
    }

    fn shadow_of(&self, ino: Ino) -> &Mutex<HashMap<Ino, Vec<u8>>> {
        &self.shadow[(ino.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % SHADOW_SHARDS]
    }

    fn record(&self, op: Op, start_ns: u64, host_ns: u64, sim_ns: u64) {
        if !self.window.load(Ordering::Relaxed) {
            return;
        }
        let mut slot = self.slot().lock().expect("slot lock poisoned");
        slot.latencies.add(host_ns, sim_ns);
        if self.tracing.load(Ordering::Relaxed) {
            let id = self.new_id();
            let trace = match REQUEST.with(|r| r.get()) {
                0 => id,
                t => t,
            };
            slot.spans.push(Span {
                id,
                parent: self.phase.load(Ordering::Relaxed),
                trace,
                name: op.name(),
                start_ns,
                end_ns: start_ns + host_ns,
                sim_ns,
            });
        }
    }
}

/// Guard of an outer span; closes it on drop.
pub struct OuterSpan<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for OuterSpan<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        self.rec.phase.store(self.parent, Ordering::SeqCst);
        if let Ok(mut v) = self.rec.outer.lock() {
            v.push(Span {
                id: self.id,
                parent: self.parent,
                trace: self.id,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                sim_ns: 0,
            });
        }
    }
}

/// The timing, tracing and checking wrapper around a file system.
pub struct Probe<'r, F> {
    inner: F,
    rec: &'r Recorder,
}

impl<'r, F: ConcurrentFs> Probe<'r, F> {
    pub fn new(inner: F, rec: &'r Recorder) -> Self {
        Probe { inner, rec }
    }

    pub fn inner(&self) -> &F {
        &self.inner
    }

    pub fn into_inner(self) -> F {
        self.inner
    }

    /// Time one call. Errors are returned, not counted: some callers
    /// probe for absent names on purpose, so the workload decides which
    /// errors are failures.
    fn call<R>(&self, op: Op, f: impl FnOnce(&F) -> FsResult<R>) -> FsResult<R> {
        let sim0 = self.inner.now().as_nanos();
        let start_ns = self.rec.now_ns();
        let t0 = Instant::now();
        let r = f(&self.inner);
        let host_ns = t0.elapsed().as_nanos() as u64;
        let sim_ns = self.inner.now().as_nanos().saturating_sub(sim0);
        self.rec.attempted.fetch_add(1, Ordering::Relaxed);
        self.rec.record(op, start_ns, host_ns, sim_ns);
        r
    }
}

impl<F: ConcurrentFs> ConcurrentFs for Probe<'_, F> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn root(&self) -> Ino {
        self.inner.root()
    }

    fn lookup(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.call(Op::Lookup, |fs| fs.lookup(dir, name))
    }

    fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        self.call(Op::Getattr, |fs| fs.getattr(ino))
    }

    fn create(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        let r = self.call(Op::Create, |fs| fs.create(dir, name));
        if let Ok(ino) = r {
            self.rec
                .shadow_of(ino)
                .lock()
                .expect("shadow lock poisoned")
                .insert(ino, Vec::new());
        }
        r
    }

    fn mkdir(&self, dir: Ino, name: &str) -> FsResult<Ino> {
        self.call(Op::Mkdir, |fs| fs.mkdir(dir, name))
    }

    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        self.call(Op::Unlink, |fs| fs.unlink(dir, name))
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let r = self.call(Op::Read, |fs| fs.read(ino, off, buf));
        if let Ok(n) = r {
            let shadow = self
                .rec
                .shadow_of(ino)
                .lock()
                .expect("shadow lock poisoned");
            let ok = match shadow.get(&ino) {
                Some(want) => {
                    let lo = (off as usize).min(want.len());
                    let hi = (lo + buf.len()).min(want.len());
                    n == hi - lo && buf[..n] == want[lo..hi]
                }
                None => false,
            };
            drop(shadow);
            if !ok {
                self.rec.fail(format!(
                    "read {ino} at {off}: the {n} bytes returned differ from what was written"
                ));
            }
        }
        r
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> FsResult<usize> {
        let r = self.call(Op::Write, |fs| fs.write(ino, off, data));
        if let Ok(n) = r {
            let mut shadow = self
                .rec
                .shadow_of(ino)
                .lock()
                .expect("shadow lock poisoned");
            let file = shadow.entry(ino).or_default();
            let (lo, hi) = (off as usize, off as usize + n);
            if file.len() < hi {
                file.resize(hi, 0);
            }
            file[lo..hi].copy_from_slice(&data[..n]);
        }
        r
    }

    fn readdir(&self, dir: Ino) -> FsResult<Vec<DirEntry>> {
        self.call(Op::Readdir, |fs| fs.readdir(dir))
    }

    fn sync(&self) -> FsResult<()> {
        self.call(Op::Sync, |fs| fs.sync())
    }

    fn now(&self) -> cffs::disksim::SimTime {
        self.inner.now()
    }

    fn obs(&self) -> Option<Arc<Obs>> {
        self.inner.obs()
    }
}
