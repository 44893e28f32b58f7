//! Telemetry — one frame producer per observed stack, feeding two sinks.
//!
//! Every observed stack ([`Obs`]) gets at most one [`Producer`], created
//! on demand and parked (weakly) in the stack's telemetry slot. The
//! producer owns the one frame builder and the one simulated-clock
//! pacer, and serves two sinks:
//!
//! * the **stream sink** ([`FeedSink`], the repro binaries' `--feed`):
//!   an append-only JSONL file. Each cut appends its records once, as
//!   whole newline-terminated lines, so a follower reads every complete
//!   line exactly once and treats a final line without a newline as a
//!   write still in progress. Attaching a tap ([`attach`]) appends a
//!   `base` record — the tap's attach-time cumulative frame — so readers
//!   can derive the first frame's deltas.
//! * the **ring sink** (the flight recorder, `--flight`): a bounded
//!   window of already-rendered `frame`, `span` and `event` lines,
//!   rewritten atomically (tmp + rename) to `FLIGHT_<name>.jsonl` behind a
//!   fresh `head` line at every cut. A run killed at any instant leaves a
//!   complete dump; explicit dumps (panic hook, unclean fsck,
//!   [`Obs::dump_flight`]) cut a frame first, so the last frame always
//!   equals the head's final counter snapshot.
//!
//! Frames are **cumulative**: counters, ops, per-thread ops, per-CG I/O
//! and sectors, histogram sum/count and per-volume rows are running
//! totals, and consumers derive deltas (`cffs-top` between consecutive
//! frames, `cffs-inspect postmortem` across the retained window). One
//! rendered frame line serves both sinks when they cut together.
//!
//! Cadence ([`Cadence`]) only concerns the stream: `Sim` cuts at each
//! [`SIM_INTERVAL_NS`] boundary of simulated time, `Host` from a wall-
//! clock sampler thread, `Manual` only on [`TapGuard::frame`]. The ring
//! always follows the simulated pacer. The pacer rides
//! [`Obs::set_clock_ns`]: one relaxed load of the due time, which sits at
//! `u64::MAX` while nothing wants periodic frames.
//!
//! Spans and events are not collected on their own hot paths: each cut
//! lifts them out of the trace ring via the [`Obs::events_since`]
//! watermark. Every registry read is an atomic load or a short copy
//! under one leaf lock taken sequentially, never nested, so a cut can
//! run from any thread without stopping the stack (DESIGN.md §8).

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, Weak};

use crate::json::Json;
use crate::{obj, Ctr, Event, Obs, Sig, THREAD_SLOTS};

/// Simulated-time frame cadence of the pacer: 50 ms, a few dozen frames
/// per benchmark phase at the repro binaries' scales.
pub const SIM_INTERVAL_NS: u64 = 50_000_000;

/// Frames retained in a flight ring (the last ~3 simulated seconds).
pub const FLIGHT_FRAMES: usize = 64;

/// Closed op spans retained in a flight ring.
pub const FLIGHT_SPANS: usize = 256;

/// `signal.*` / `regroup.*` events retained in a flight ring.
pub const FLIGHT_EVENTS: usize = 256;

/// Counters carried (cumulative) in every frame, in frame order.
pub const FRAME_COUNTERS: &[Ctr] = &[
    Ctr::DiskRequests,
    Ctr::DiskReads,
    Ctr::DiskWrites,
    Ctr::DriverQueueSubmit,
    Ctr::CacheLookups,
    Ctr::CacheMisses,
    Ctr::CacheWritebacks,
    Ctr::DcacheHits,
    Ctr::DcacheMisses,
    Ctr::DcacheNegHits,
    Ctr::DcacheEvictions,
    Ctr::FsGroupFetches,
    Ctr::RegroupBlocksMoved,
    Ctr::RegroupGroupsFormed,
    Ctr::RegroupAutotriggers,
    Ctr::SignalLowEvents,
    Ctr::SignalHighEvents,
    Ctr::LockWaitNsAlloc,
    Ctr::LockWaitNsCache,
    Ctr::LockWaitNsDriver,
    Ctr::VolStripePromotions,
    Ctr::VolStripePartIos,
    Ctr::VolDirFanouts,
];

/// Histograms whose cumulative `(sum, count)` every frame carries.
pub const FRAME_HISTOS: &[&str] =
    &["group_fetch_util_pct", "driver_batch_reqs", "cache_shard_hit_pct", "dcache_hit_pct"];

/// Record types of both sinks, with one-line descriptions — the glossary
/// README documents and `tests/doc_drift.rs` cross-checks.
pub const RECORDS: &[(&str, &str)] = &[
    ("head", "flight dump header: name, capture reason, final counter snapshot, SLO table"),
    ("base", "feed only: a tap's attach-time frame, the baseline of its first frame's deltas"),
    ("frame", "one cut: cumulative counters, gauges, signals, per-CG and per-volume registers"),
    ("span", "flight only: one closed op span lifted from the trace ring (op, open time, latency)"),
    ("event", "one signal.* or regroup.* trace event recorded since the previous cut"),
];

/// Fields of a `frame` (and `base`) record, with one-line descriptions —
/// the one frame glossary README documents and `tests/doc_drift.rs`
/// cross-checks. Every value is cumulative or a point-in-time gauge.
pub const FRAME_FIELDS: &[(&str, &str)] = &[
    ("rec", "record discriminator: frame, or base for a feed tap's baseline"),
    ("stage", "label of the run stage that cut this frame (the recorder's name until a feed tap relabels it)"),
    ("t_ns", "simulated time the frame was cut, nanoseconds"),
    ("counters", "cumulative curated counter values at the cut"),
    ("ops", "cumulative outermost file-system ops completed at the cut"),
    ("queue_depth", "submissions waiting in the threaded driver queue at the cut"),
    ("histos", "per-histogram cumulative {sum, count}"),
    ("signals", "live signal registry: EWMAs, armed thresholds, crossing counts"),
    ("cgs", "per-cylinder-group occupancy, utilization EWMA, and cumulative I/O and sector tallies"),
    ("threads", "per-thread-slot cumulative op counts"),
    (
        "slo_burn_milli",
        "worst per-op SLO error-budget burn so far, milli-units (1000 = exactly at budget); 0 when no objectives are armed",
    ),
    (
        "volumes",
        "per-volume rows (vol, ops, queue_depth, dreads, dwrites, gf_util_ewma_milli) for volume-set producers; empty array otherwise",
    ),
];

/// When a feed tap cuts frames (the flight ring always follows the
/// simulated pacer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// A frame each time the simulated clock crosses a
    /// [`SIM_INTERVAL_NS`] boundary (deterministic for a deterministic
    /// run).
    Sim,
    /// A background sampler thread cuts frames every wall-clock
    /// interval (for watching live; frame count is nondeterministic).
    Host(std::time::Duration),
    /// Frames only on explicit [`TapGuard::frame`] calls.
    Manual,
}

/// Recover a possibly-poisoned lock: telemetry must stay usable from a
/// panic hook, where `.expect()` would abort with a double panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The next pacer boundary strictly after `now_ns`.
fn next_due(now_ns: u64) -> u64 {
    (now_ns / SIM_INTERVAL_NS + 1) * SIM_INTERVAL_NS
}

// ---- stream sink ----

/// The append-only feed file.
pub struct FeedSink {
    path: PathBuf,
    state: Mutex<FeedFile>,
}

struct FeedFile {
    file: std::fs::File,
    frames: u64,
    /// Set after the first failed write: the sink stops writing, so the
    /// file stays a valid prefix and the warning prints once.
    failed: bool,
}

impl FeedSink {
    /// Create (truncate) the feed file. The empty file exists right away
    /// so `cffs-top --follow` can latch on before the first frame.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Arc<FeedSink>> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(Arc::new(FeedSink { path, state: Mutex::new(FeedFile { file, frames: 0, failed: false }) }))
    }

    /// Frames appended so far.
    pub fn frames(&self) -> u64 {
        lock(&self.state).frames
    }

    /// Append whole lines (`frames` of them frame records) in one write.
    /// Write failures warn once and stop the feed rather than killing the
    /// run — telemetry must never fail the experiment it watches.
    fn append(&self, lines: &str, frames: u64) {
        let mut f = lock(&self.state);
        if f.failed {
            return;
        }
        match f.file.write_all(lines.as_bytes()) {
            Ok(()) => f.frames += frames,
            Err(e) => {
                f.failed = true;
                eprintln!("warning: telemetry feed write to {} failed: {e}", self.path.display());
            }
        }
    }
}

// ---- ring sink ----

/// The flight recorder's bounded window of rendered lines.
struct Ring {
    path: PathBuf,
    name: String,
    frames: VecDeque<String>,
    spans: VecDeque<String>,
    events: VecDeque<String>,
    /// Trace-ring watermarks: `marks[0]` for the primary registry,
    /// `marks[1 + i]` for volume `i`.
    marks: Vec<u64>,
    /// Reason recorded in the head of the most recent persist.
    reason: String,
    /// Set after the first failed write so the warning prints once.
    write_failed: bool,
}

/// Push `line`, dropping the oldest past `cap`.
fn push_bounded(q: &mut VecDeque<String>, line: String, cap: usize) {
    if q.len() == cap {
        q.pop_front();
    }
    q.push_back(line);
}

/// `signal.*` and `regroup.*` events are the ones telemetry carries.
fn is_carried_event(e: &Event) -> bool {
    e.tag.starts_with("signal.") || e.tag.starts_with("regroup.")
}

/// One `event` record line, tagged with its volume (`Null` = primary).
fn event_line(e: &Event, vol: Json) -> String {
    obj![
        ("rec", Json::Str("event".into())),
        ("vol", vol),
        ("t_ns", Json::Int(e.t_ns as i64)),
        ("tag", Json::Str(e.tag.to_string())),
        ("a", Json::Int(e.a as i64)),
        ("b", Json::Int(e.b as i64)),
    ]
    .to_string()
}

impl Ring {
    /// Lift fresh spans and events out of every registry's trace ring.
    fn harvest(&mut self, obs: &Obs) {
        let regs = std::iter::once(obs).chain(obs.volumes().iter().map(|v| &**v));
        for (i, reg) in regs.enumerate() {
            if self.marks.len() <= i {
                self.marks.push(reg.events_recorded());
                continue;
            }
            let vol = if i == 0 { Json::Null } else { Json::Int(i as i64 - 1) };
            let (fresh, mark) = reg.events_since(self.marks[i]);
            self.marks[i] = mark;
            for e in &fresh {
                if e.tag.starts_with("op.") && e.span != 0 {
                    let line = obj![
                        ("rec", Json::Str("span".into())),
                        ("vol", vol.clone()),
                        ("t_ns", Json::Int(e.t_ns as i64)),
                        ("op", Json::Str(e.op.to_string())),
                        ("span", Json::Int(e.span as i64)),
                        ("dur_ns", Json::Int(e.dur_ns as i64)),
                    ]
                    .to_string();
                    push_bounded(&mut self.spans, line, FLIGHT_SPANS);
                } else if is_carried_event(e) {
                    push_bounded(&mut self.events, event_line(e, vol.clone()), FLIGHT_EVENTS);
                }
            }
        }
    }

    /// Atomically rewrite the dump file from the current window. Write
    /// failures warn once and drop dumps rather than killing the run —
    /// the black box must never fail the flight it records.
    fn persist(&mut self, obs: &Obs, t_ns: u64) {
        let head = obj![
            ("rec", Json::Str("head".into())),
            ("name", Json::Str(self.name.clone())),
            ("reason", Json::Str(self.reason.clone())),
            ("t_ns", Json::Int(t_ns as i64)),
            ("interval_ns", Json::Int(SIM_INTERVAL_NS as i64)),
            (
                "counters_final",
                Json::Obj(
                    Ctr::ALL
                        .iter()
                        .map(|&c| (c.name().to_string(), Json::Int(obs.get(c) as i64)))
                        .collect()
                )
            ),
            ("slo", obs.slo_json()),
            ("nframes", Json::Int(self.frames.len() as i64)),
            ("nspans", Json::Int(self.spans.len() as i64)),
            ("nevents", Json::Int(self.events.len() as i64)),
        ];
        let mut text = head.to_string();
        text.push('\n');
        for line in self.frames.iter().chain(&self.spans).chain(&self.events) {
            text.push_str(line);
            text.push('\n');
        }
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.path.with_extension(format!("{}.{}.tmp", std::process::id(), seq));
        let res = std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = res {
            if !self.write_failed {
                self.write_failed = true;
                eprintln!("warning: flight recorder write to {} failed: {e}", self.path.display());
            }
        }
    }
}

// ---- the producer ----

/// The one frame producer of an observed stack (see the module docs).
pub(crate) struct Producer {
    obs: Arc<Obs>,
    state: Mutex<State>,
}

struct State {
    /// Next pacer boundary; mirrored into `Obs::telemetry_due_ns`.
    due_ns: u64,
    stage: String,
    feed: Option<FeedTap>,
    ring: Option<Ring>,
}

/// The feed attachment of a producer.
struct FeedTap {
    sink: Arc<FeedSink>,
    sim: bool,
    /// Trace-ring watermark of the primary registry at the last cut.
    mark: u64,
}

impl Producer {
    /// The stack's producer, created (and parked in its slot) on first
    /// use.
    fn of(obs: &Arc<Obs>, stage: &str) -> Arc<Producer> {
        let mut slot = lock(&obs.telemetry);
        if let Some(p) = slot.as_ref().and_then(Weak::upgrade) {
            return p;
        }
        let p = Arc::new(Producer {
            obs: Arc::clone(obs),
            state: Mutex::new(State { due_ns: u64::MAX, stage: stage.to_string(), feed: None, ring: None }),
        });
        *slot = Some(Arc::downgrade(&p));
        p
    }

    /// Start or stop the pacer to match the attached sinks.
    fn rearm(&self, st: &mut State) {
        let wanted = st.ring.is_some() || st.feed.as_ref().is_some_and(|f| f.sim);
        st.due_ns = match (wanted, st.due_ns) {
            (false, _) => u64::MAX,
            (true, u64::MAX) => next_due(self.obs.global_clock_ns()),
            (true, due) => due,
        };
        self.obs.telemetry_due_ns.store(st.due_ns, Ordering::Relaxed);
    }

    /// Render one cumulative frame record (`rec` is `frame` or `base`).
    fn frame_line(&self, rec: &str, stage: &str, t_ns: u64) -> String {
        let obs = &self.obs;
        let int = |v: u64| Json::Int(v as i64);
        let counters = Json::Obj(
            FRAME_COUNTERS.iter().map(|&c| (c.name().to_string(), int(obs.get(c)))).collect(),
        );
        let h = obs.histos();
        let histos = Json::Obj(
            FRAME_HISTOS
                .iter()
                .zip([
                    &h.group_fetch_util_pct,
                    &h.driver_batch_reqs,
                    &h.cache_shard_hit_pct,
                    &h.dcache_hit_pct,
                ])
                .map(|(&name, hg)| {
                    let s = hg.snapshot();
                    (name.to_string(), obj![("sum", int(s.sum)), ("count", int(s.count()))])
                })
                .collect(),
        );
        let cgs = Json::Arr(
            obs.cg_stats()
                .iter()
                .map(|c| {
                    obj![
                        ("cg", int(u64::from(c.cg))),
                        ("data_blocks", int(c.data_blocks)),
                        ("used", int(c.used)),
                        ("util_ewma_milli", int(c.util_ewma_milli)),
                        ("util_samples", int(c.util_samples)),
                        ("read_ios", int(c.read_ios)),
                        ("write_ios", int(c.write_ios)),
                        ("read_sectors", int(c.read_sectors)),
                        ("write_sectors", int(c.write_sectors)),
                    ]
                })
                .collect(),
        );
        let threads = obs.thread_ops();
        let volumes = Json::Arr(
            obs.volumes()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let gf = v.signal(Sig::GroupFetchUtil);
                    obj![
                        ("vol", int(i as u64)),
                        ("ops", int(v.thread_ops().iter().sum())),
                        ("queue_depth", int(v.queue_depth())),
                        ("dreads", int(v.get(Ctr::DiskReads))),
                        ("dwrites", int(v.get(Ctr::DiskWrites))),
                        ("gf_util_ewma_milli", Json::Int((gf.ewma * 1000.0).round() as i64)),
                    ]
                })
                .collect(),
        );
        obj![
            ("rec", Json::Str(rec.to_string())),
            ("stage", Json::Str(stage.to_string())),
            ("t_ns", int(t_ns)),
            ("counters", counters),
            ("ops", int(threads.iter().sum())),
            ("queue_depth", int(obs.queue_depth())),
            ("histos", histos),
            ("signals", obs.signals_json()),
            ("cgs", cgs),
            ("threads", Json::Arr(threads.iter().map(|&n| int(n)).collect())),
            ("slo_burn_milli", int(obs.slo_burn_milli())),
            ("volumes", volumes),
        ]
        .to_string()
    }

    /// Cut one frame at `t_ns` into the feed (when `to_feed` and a tap is
    /// attached) and into the ring with reason `ring_reason` (when given
    /// and a recorder is armed). Both sinks share one rendered frame.
    fn cut(&self, st: &mut State, t_ns: u64, to_feed: bool, ring_reason: Option<&str>) {
        let to_feed = to_feed && st.feed.is_some();
        let ring_reason = ring_reason.filter(|_| st.ring.is_some());
        if !to_feed && ring_reason.is_none() {
            return;
        }
        let frame = self.frame_line("frame", &st.stage, t_ns);
        if let Some(tap) = st.feed.as_mut().filter(|_| to_feed) {
            // The primary registry's events since the last feed cut land
            // just before the frame, so a reader sees them first.
            let (fresh, mark) = self.obs.events_since(tap.mark);
            tap.mark = mark;
            let mut lines = String::new();
            for e in fresh.iter().filter(|e| is_carried_event(e)) {
                lines.push_str(&event_line(e, Json::Null));
                lines.push('\n');
            }
            lines.push_str(&frame);
            lines.push('\n');
            tap.sink.append(&lines, 1);
        }
        if let (Some(reason), Some(ring)) = (ring_reason, st.ring.as_mut()) {
            ring.harvest(&self.obs);
            push_bounded(&mut ring.frames, frame, FLIGHT_FRAMES);
            ring.reason = reason.to_string();
            ring.persist(&self.obs, t_ns);
        }
    }

    /// Pacer entry (via [`sim_fire`]): rechecks under the producer lock
    /// so concurrent clock movers cut exactly one frame per crossing.
    fn tick(&self, now_ns: u64) {
        let mut st = lock(&self.state);
        if now_ns < st.due_ns {
            return;
        }
        st.due_ns = next_due(now_ns);
        self.obs.telemetry_due_ns.store(st.due_ns, Ordering::Relaxed);
        let to_feed = st.feed.as_ref().is_some_and(|f| f.sim);
        self.cut(&mut st, now_ns, to_feed, Some("periodic"));
    }

    /// Cut a ring frame and persist with an explicit reason (panic, fsck
    /// failure, operator request). Harvesting touches registry locks that
    /// may be poisoned mid-panic — any such failure falls back to
    /// persisting the window already captured.
    pub(crate) fn dump(&self, reason: &str) {
        let t = self.obs.global_clock_ns();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.cut(&mut lock(&self.state), t, false, Some(reason));
        }));
        if r.is_err() {
            if let Some(ring) = lock(&self.state).ring.as_mut() {
                ring.reason = reason.to_string();
                ring.persist(&self.obs, t);
            }
        }
    }
}

/// Dispatch a pacer crossing from [`Obs::set_clock_ns`] to the stack's
/// producer (resetting the pacer when the producer is gone).
pub(crate) fn sim_fire(obs: &Obs, now_ns: u64) {
    let p = lock(&obs.telemetry).as_ref().and_then(Weak::upgrade);
    match p {
        Some(p) => p.tick(now_ns),
        None => obs.telemetry_due_ns.store(u64::MAX, Ordering::Relaxed),
    }
}

// ---- feed taps ----

/// Guard returned by [`attach`]. Dropping it stops the sampler thread,
/// cuts one final frame (so every stage gets at least one frame even if
/// it ended between cadence boundaries) and detaches the tap.
pub struct TapGuard {
    producer: Arc<Producer>,
    stop: Option<Arc<AtomicBool>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl TapGuard {
    /// Cut a feed frame right now, relabelling the stage. The manual
    /// cadence's only trigger; valid (if rarely needed) on the others.
    pub fn frame(&self, stage: &str) {
        let p = &self.producer;
        let mut st = lock(&p.state);
        st.stage = stage.to_string();
        p.cut(&mut st, p.obs.global_clock_ns(), true, None);
    }
}

impl Drop for TapGuard {
    fn drop(&mut self) {
        if let Some(stop) = &self.stop {
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let p = &self.producer;
        let mut st = lock(&p.state);
        p.cut(&mut st, p.obs.global_clock_ns(), true, None);
        st.feed = None;
        p.rearm(&mut st);
    }
}

/// Attach `obs` to `sink` with the given stage label and cadence. The
/// tap's `base` record goes out right away. One tap per stack at a time;
/// a volume set's frames carry its volumes' rows (see
/// [`Obs::set_volumes`]).
pub fn attach(sink: &Arc<FeedSink>, obs: &Arc<Obs>, stage: &str, cadence: Cadence) -> TapGuard {
    let producer = Producer::of(obs, stage);
    {
        let mut st = lock(&producer.state);
        st.stage = stage.to_string();
        let mut base = producer.frame_line("base", stage, obs.global_clock_ns());
        base.push('\n');
        sink.append(&base, 0);
        st.feed = Some(FeedTap {
            sink: Arc::clone(sink),
            sim: cadence == Cadence::Sim,
            mark: obs.events_recorded(),
        });
        producer.rearm(&mut st);
    }
    let mut guard = TapGuard { producer, stop: None, join: None };
    if let Cadence::Host(every) = cadence {
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (Arc::clone(&guard.producer), Arc::clone(&stop));
        guard.join = Some(std::thread::spawn(move || {
            // The background sampler: a frame per wall interval until
            // the guard drops.
            while !s.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                if s.load(Ordering::Relaxed) {
                    break;
                }
                let mut st = lock(&p.state);
                p.cut(&mut st, p.obs.global_clock_ns(), true, None);
            }
        }));
        guard.stop = Some(stop);
    }
    guard
}

// ---- flight rings ----

/// `FLIGHT_<name>.jsonl` file name for a stack label (non-portable
/// characters mapped to `_`).
fn flight_file_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("FLIGHT_{safe}.jsonl")
}

/// Guard returned by [`arm`]. Dropping it cuts one final frame (reason
/// `"detach"`), persists, and disarms the recorder.
pub struct FlightGuard {
    producer: Arc<Producer>,
    path: PathBuf,
}

impl FlightGuard {
    /// Where this recorder persists its dumps.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cut a frame and persist with an explicit reason.
    pub fn dump(&self, reason: &str) {
        self.producer.dump(reason);
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        self.producer.dump("detach");
        let p = &self.producer;
        let mut st = lock(&p.state);
        st.ring = None;
        p.rearm(&mut st);
        drop(st);
        lock(&GLOBAL).rings.retain(|(_, w)| !std::ptr::eq(w.as_ptr(), Arc::as_ptr(p)));
    }
}

/// Arm a flight recorder on `obs`, persisting to `FLIGHT_<name>.jsonl`
/// under `dir` at every pacer boundary. A volume set's frames carry its
/// volumes' rows and its ring merges their spans and events, tagged with
/// the volume index. The recorder registers itself for [`dump_all`].
/// One recorder per stack at a time.
pub fn arm(dir: impl Into<PathBuf>, obs: &Arc<Obs>, name: &str) -> FlightGuard {
    let path = dir.into().join(flight_file_name(name));
    let producer = Producer::of(obs, name);
    lock(&GLOBAL).rings.push((path.clone(), Arc::downgrade(&producer)));
    {
        let mut st = lock(&producer.state);
        st.ring = Some(Ring {
            path: path.clone(),
            name: name.to_string(),
            frames: VecDeque::new(),
            spans: VecDeque::new(),
            events: VecDeque::new(),
            marks: Vec::new(),
            reason: String::new(),
            write_failed: false,
        });
        // Watermark every registry, then persist the (empty-window) dump
        // immediately so even a run killed before the first boundary
        // leaves a parseable black box.
        st.ring.as_mut().expect("just armed").harvest(obs);
        producer.rearm(&mut st);
        producer.cut(&mut st, obs.global_clock_ns(), false, Some("armed"));
    }
    FlightGuard { producer, path }
}

// ---- process-global wiring ----

/// The repro binaries' `--feed`/`--flight` targets plus every armed
/// recorder (weak: guards own the producers), so the panic hook and
/// fsck failures can dump them all.
struct Global {
    feed: Option<Arc<FeedSink>>,
    flight_dir: Option<PathBuf>,
    rings: Vec<(PathBuf, Weak<Producer>)>,
}

static GLOBAL: Mutex<Global> = Mutex::new(Global { feed: None, flight_dir: None, rings: Vec::new() });

/// Create the process-global feed at `path` (truncating any previous
/// file); every later [`tap_global`] streams into it, so a run's
/// consecutive stages accumulate into one replayable feed.
pub fn set_global_feed(path: impl Into<PathBuf>) -> std::io::Result<()> {
    lock(&GLOBAL).feed = Some(FeedSink::create(path)?);
    Ok(())
}

/// Enable the process-global flight recorder: every stack mounted
/// afterwards arms a recorder under `dir` (created if missing), and the
/// panic hook is installed so an unwinding run flushes every armed
/// recorder before dying.
pub fn set_global_flight(dir: impl Into<PathBuf>) -> std::io::Result<()> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir)?;
    lock(&GLOBAL).flight_dir = Some(dir);
    static PANIC_HOOK: Once = Once::new();
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_all("panic");
            prev(info);
        }));
    });
    Ok(())
}

/// Attach `obs` to the process-global feed (no-op `None` when `--feed`
/// was not given).
pub fn tap_global(obs: &Arc<Obs>, stage: &str, cadence: Cadence) -> Option<TapGuard> {
    let sink = lock(&GLOBAL).feed.clone();
    sink.map(|sink| attach(&sink, obs, stage, cadence))
}

/// Arm a recorder on `obs` under the global directory (no-op `None` when
/// `--flight` was not given — the hot path then keeps its single relaxed
/// load). The volumes of a set share one mount label, so the name gets
/// the first `-2`, `-3`, ... suffix no live recorder owns.
pub fn arm_global(obs: &Arc<Obs>, name: &str) -> Option<FlightGuard> {
    let (dir, name) = {
        let g = lock(&GLOBAL);
        let dir = g.flight_dir.clone()?;
        let taken = |cand: &str| {
            let path = dir.join(flight_file_name(cand));
            g.rings.iter().any(|(p, _)| *p == path)
        };
        let name = std::iter::once(name.to_string())
            .chain((2..).map(|n| format!("{name}-{n}")))
            .find(|cand| !taken(cand))
            .expect("unbounded suffix search");
        (dir, name)
    };
    Some(arm(dir, obs, &name))
}

/// Flush every armed recorder with the given reason. Called by the panic
/// hook, by fsck on an inconsistent image, and by the bench reporters
/// before an `exit(1)`. Cheap no-op when nothing is armed.
pub fn dump_all(reason: &str) {
    let producers: Vec<Arc<Producer>> =
        lock(&GLOBAL).rings.iter().filter_map(|(_, w)| w.upgrade()).collect();
    for p in producers {
        p.dump(reason);
    }
}

// ---- schema ----

fn want_u64(j: &Json, k: &str, what: &str) -> Result<u64, String> {
    j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("{what} lacks u64 {k:?}"))
}

fn want_str<'a>(j: &'a Json, k: &str, what: &str) -> Result<&'a str, String> {
    j.get(k).and_then(Json::as_str).ok_or_else(|| format!("{what} lacks string {k:?}"))
}

fn want_arr<'a>(j: &'a Json, k: &str, what: &str) -> Result<&'a [Json], String> {
    j.get(k).and_then(Json::as_arr).ok_or_else(|| format!("{what} lacks array {k:?}"))
}

/// Validate one `frame` or `base` record against [`FRAME_FIELDS`] — the
/// one frame checker shared by `bench_schema_check --feed`, the feed and
/// flight parsers, and the tests, so the schema cannot drift from it.
pub fn validate_frame(frame: &Json) -> Result<(), String> {
    let what = "frame";
    for k in ["t_ns", "ops", "queue_depth", "slo_burn_milli"] {
        want_u64(frame, k, what)?;
    }
    want_str(frame, "stage", what)?;
    let counters = frame.get("counters").ok_or("frame lacks \"counters\"")?;
    for &c in FRAME_COUNTERS {
        want_u64(counters, c.name(), "frame counters")?;
    }
    let histos = frame.get("histos").ok_or("frame lacks \"histos\"")?;
    for &n in FRAME_HISTOS {
        let h = histos.get(n).ok_or_else(|| format!("frame histos lack {n:?}"))?;
        for k in ["sum", "count"] {
            want_u64(h, k, &format!("histogram {n:?}"))?;
        }
    }
    let signals = frame.get("signals").ok_or("frame lacks \"signals\"")?;
    for sig in Sig::ALL {
        let what = format!("signal {:?}", sig.name());
        let s = signals.get(sig.name()).ok_or_else(|| format!("{what} missing"))?;
        for k in ["ewma_milli", "samples", "low_count", "high_count"] {
            want_u64(s, k, &what)?;
        }
        for k in ["low", "high"] {
            s.get(k).and_then(Json::as_bool).ok_or_else(|| format!("{what} lacks bool {k:?}"))?;
        }
        for k in ["floor_milli", "ceiling_milli"] {
            match s.get(k) {
                Some(Json::Null) | Some(Json::Int(_)) => {}
                _ => return Err(format!("{what} lacks null-or-int {k:?}")),
            }
        }
    }
    for c in want_arr(frame, "cgs", what)? {
        for k in [
            "cg",
            "data_blocks",
            "used",
            "util_ewma_milli",
            "util_samples",
            "read_ios",
            "write_ios",
            "read_sectors",
            "write_sectors",
        ] {
            want_u64(c, k, "cg row")?;
        }
    }
    let threads = want_arr(frame, "threads", what)?;
    if threads.len() != THREAD_SLOTS {
        return Err(format!("frame \"threads\" has {} slots, want {THREAD_SLOTS}", threads.len()));
    }
    if !threads.iter().all(|t| t.as_u64().is_some()) {
        return Err("frame \"threads\" holds a non-u64 slot".to_string());
    }
    for (i, v) in want_arr(frame, "volumes", what)?.iter().enumerate() {
        for k in ["vol", "ops", "queue_depth", "dreads", "dwrites", "gf_util_ewma_milli"] {
            want_u64(v, k, "volume row")?;
        }
        if v.get("vol").and_then(Json::as_u64) != Some(i as u64) {
            return Err(format!("volume row {i} out of order"));
        }
    }
    // Shapes are checked; this catches a FRAME_FIELDS row with no
    // producer.
    for (name, _) in FRAME_FIELDS {
        if frame.get(name).is_none() {
            return Err(format!("documented frame field {name:?} missing"));
        }
    }
    Ok(())
}

fn vol_tag_ok(j: &Json) -> Result<(), String> {
    match j.get("vol") {
        Some(Json::Null) | Some(Json::Int(_)) => Ok(()),
        _ => Err("record lacks null-or-int \"vol\"".to_string()),
    }
}

/// Validate one record of either sink by its `rec` discriminator,
/// returning the record type.
pub fn validate_record(j: &Json) -> Result<&str, String> {
    let rec = want_str(j, "rec", "record")?;
    match rec {
        "head" => {
            for k in ["name", "reason"] {
                want_str(j, k, "head")?;
            }
            for k in ["t_ns", "interval_ns", "nframes", "nspans", "nevents"] {
                want_u64(j, k, "head")?;
            }
            let fin = j.get("counters_final").ok_or("head lacks \"counters_final\"")?;
            for c in Ctr::ALL {
                want_u64(fin, c.name(), "counters_final")?;
            }
            j.get("slo").ok_or("head lacks \"slo\"")?;
        }
        "base" | "frame" => validate_frame(j)?,
        "span" => {
            vol_tag_ok(j)?;
            j.get("op")
                .and_then(Json::as_str)
                .filter(|s| !s.is_empty())
                .ok_or("span lacks non-empty string \"op\"")?;
            for k in ["t_ns", "span", "dur_ns"] {
                want_u64(j, k, "span")?;
            }
        }
        "event" => {
            vol_tag_ok(j)?;
            want_str(j, "tag", "event")?;
            for k in ["t_ns", "a", "b"] {
                want_u64(j, k, "event")?;
            }
        }
        other => return Err(format!("unknown record type {other:?}")),
    }
    Ok(rec)
}

/// Parse a feed's JSONL into its `base`, `frame` and `event` records, in
/// file order, validating each. Only whole lines count: a final line
/// without a newline is a write still in progress and is ignored, while
/// a malformed newline-terminated line is an error.
pub fn parse_feed(text: &str) -> Result<Vec<Json>, String> {
    let whole = text.rfind('\n').map_or("", |i| &text[..=i]);
    let mut out = Vec::new();
    for (i, line) in whole.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ln = i + 1;
        let j = crate::json::parse(line).map_err(|e| format!("feed line {ln}: {e:?}"))?;
        match validate_record(&j) {
            Ok("base" | "frame" | "event") => out.push(j),
            Ok(other) => return Err(format!("feed line {ln}: {other:?} record in a feed")),
            Err(e) => return Err(format!("feed line {ln}: {e}")),
        }
    }
    Ok(out)
}

/// True for a `frame` record (the unit readers render and count).
pub fn is_frame(rec: &Json) -> bool {
    rec.get("rec").and_then(Json::as_str) == Some("frame")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cffs-feed-{tag}-{}.jsonl", std::process::id()))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cffs-flight-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn frames_of(path: &Path) -> Vec<Json> {
        let recs = parse_feed(&std::fs::read_to_string(path).unwrap()).expect("records validate");
        recs.into_iter().filter(is_frame).collect()
    }

    fn ctr(frame: &Json, name: &str) -> Option<u64> {
        frame.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64)
    }

    /// Armed recorders live in the process-global registry, so a
    /// concurrent test's [`dump_all`] would overwrite this test's dump
    /// (and its head reason) mid-assertion — serialize every test that
    /// arms one.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        lock(&SERIAL)
    }

    fn parse_dump(path: &Path) -> crate::flight::FlightDump {
        crate::flight::parse_flight(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn manual_tap_emits_valid_frames() {
        let path = tmp_path("manual");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        obs.configure_cg_table(crate::CgTableConfig {
            first_block: 2,
            cg_size: 1024,
            sectors_per_block: 8,
            groups: vec![(1023, 10), (1023, 0)],
        });
        {
            let tap = attach(&sink, &obs, "warm", Cadence::Manual);
            obs.set_clock_ns(1_000);
            obs.bump(Ctr::DiskRequests);
            {
                let _g = obs.span(OpKind::Read);
            }
            tap.frame("warm");
            obs.cg_used_delta(1, 3);
            obs.cg_util_sample(1, 75);
            tap.frame("churn");
        } // drop cuts the final frame
        let frames = frames_of(&path);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].get("stage").and_then(Json::as_str), Some("warm"));
        assert_eq!(frames[1].get("stage").and_then(Json::as_str), Some("churn"));
        // Cumulative: the disk request and op show from frame 0 on.
        assert_eq!(ctr(&frames[0], "disk_requests"), Some(1));
        assert_eq!(ctr(&frames[1], "disk_requests"), Some(1));
        assert_eq!(frames[0].get("ops").and_then(Json::as_u64), Some(1));
        // The CG gauge and EWMA show in frame 1.
        let cgs = frames[1].get("cgs").and_then(Json::as_arr).expect("cgs array");
        assert_eq!(cgs[1].get("used").and_then(Json::as_u64), Some(3));
        assert_eq!(cgs[1].get("util_ewma_milli").and_then(Json::as_u64), Some(75_000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_cadence_cuts_frames_on_clock_crossings() {
        let path = tmp_path("sim");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let i = SIM_INTERVAL_NS;
        {
            let _tap = attach(&sink, &obs, "run", Cadence::Sim);
            obs.set_clock_ns(i / 2); // below first boundary: no frame
            assert_eq!(sink.frames(), 0);
            obs.set_clock_ns(i + i / 5); // crosses i
            assert_eq!(sink.frames(), 1);
            obs.set_clock_ns(i + i / 3); // still inside [i, 2i)
            assert_eq!(sink.frames(), 1);
            obs.set_clock_ns(5 * i); // crosses (one frame per tick, not per interval)
            assert_eq!(sink.frames(), 2);
        }
        assert_eq!(sink.frames(), 3); // + final frame on detach
        // Detach reset the pacer: further clock movement is frame-free.
        assert_eq!(obs.telemetry_due_ns.load(Ordering::Relaxed), u64::MAX);
        obs.set_clock_ns(100 * i);
        assert_eq!(sink.frames(), 3);
        let frames = frames_of(&path);
        assert_eq!(frames[0].get("t_ns").and_then(Json::as_u64), Some(i + i / 5));
        assert_eq!(frames[1].get("t_ns").and_then(Json::as_u64), Some(5 * i));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn host_cadence_samples_in_wall_time() {
        let path = tmp_path("host");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        {
            let _tap =
                attach(&sink, &obs, "soak", Cadence::Host(std::time::Duration::from_millis(1)));
            obs.set_clock_ns(42);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // At least the detach frame; almost surely sampler frames too.
        assert!(sink.frames() >= 1);
        assert_eq!(frames_of(&path).len() as u64, sink.frames());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_frame_rejects_missing_fields() {
        let path = tmp_path("invalid");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let tap = attach(&sink, &obs, "s", Cadence::Manual);
        tap.frame("s");
        let mut frame = frames_of(&path).pop().unwrap();
        validate_frame(&frame).unwrap();
        if let Json::Obj(m) = &mut frame {
            m.retain(|(k, _)| k != "signals");
        }
        assert!(validate_frame(&frame).is_err());
        drop(tap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn feed_and_flight_share_one_pacer_and_frame() {
        let _s = serial();
        let dir = tmp_dir("shared");
        let path = dir.join("feed.jsonl");
        let sink = FeedSink::create(&path).unwrap();
        let obs = Obs::new();
        let guard = arm(&dir, &obs, "unit-shared");
        let tap = attach(&sink, &obs, "both", Cadence::Sim);
        obs.add(Ctr::DiskWrites, 4);
        obs.set_clock_ns(SIM_INTERVAL_NS + 7);
        // One crossing cut one frame into each sink: the same line.
        let feed_frame = frames_of(&path).pop().expect("feed frame");
        let dump = parse_dump(guard.path());
        assert_eq!(dump.frames.last(), Some(&feed_frame));
        drop(tap);
        // The ring keeps the pacer running after the feed detaches.
        assert_eq!(obs.telemetry_due_ns.load(Ordering::Relaxed), 2 * SIM_INTERVAL_NS);
        drop(guard);
        assert_eq!(obs.telemetry_due_ns.load(Ordering::Relaxed), u64::MAX);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn armed_flight_persists_parseable_dump_every_cut() {
        let _s = serial();
        let dir = tmp_dir("basic");
        let obs = Obs::new();
        let path;
        {
            let guard = arm(&dir, &obs, "unit basic");
            path = guard.path().to_path_buf();
            // The arm-time dump exists before any clock movement.
            let dump = parse_dump(&path);
            assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("armed"));
            obs.bump(Ctr::DiskRequests);
            {
                let _g = obs.span(OpKind::Create);
            }
            obs.set_clock_ns(60_000_000); // crosses the 50 ms boundary
            let dump = parse_dump(&path);
            assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("periodic"));
            assert_eq!(dump.frames.len(), 2);
            // Cumulative counters: the bump shows in the last frame.
            assert_eq!(ctr(dump.frames.last().unwrap(), "disk_requests"), Some(1));
            // The span was harvested from the trace ring.
            assert_eq!(dump.spans.len(), 1);
            assert_eq!(dump.spans[0].get("op").and_then(Json::as_str), Some("create"));
        }
        // Guard drop cut a final "detach" dump and disarmed the pacer.
        let dump = parse_dump(&path);
        assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("detach"));
        obs.set_clock_ns(500_000_000);
        let dump2 = parse_dump(&path);
        assert_eq!(dump2.frames.len(), dump.frames.len(), "no cuts after detach");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_dump_last_frame_matches_final_counters() {
        let _s = serial();
        let dir = tmp_dir("explicit");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, "unit-explicit");
        obs.add(Ctr::DiskReads, 17);
        obs.add(Ctr::CacheWritebacks, 3);
        guard.dump("operator");
        let dump = parse_dump(guard.path());
        assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("operator"));
        let report = crate::flight::postmortem(&dump);
        assert_eq!(report.get("consistent"), Some(&Json::Bool(true)));
        assert_eq!(ctr(dump.frames.last().unwrap(), "disk_reads"), Some(17));
        assert_eq!(
            dump.head.get("counters_final").and_then(|c| c.get("disk_reads")).and_then(Json::as_u64),
            Some(17)
        );
        let text = crate::flight::render_postmortem(&report);
        assert!(text.contains("internally consistent"), "{text}");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn volume_rows_and_tags_are_merged() {
        let _s = serial();
        let dir = tmp_dir("vols");
        let set = Obs::new();
        let vols = vec![Obs::new(), Obs::new()];
        set.set_volumes(vols.clone());
        let guard = arm(&dir, &set, "unit-vols");
        vols[1].add(Ctr::DiskWrites, 5);
        {
            let _g = vols[1].span(OpKind::Write);
        }
        guard.dump("check");
        let dump = parse_dump(guard.path());
        let volumes = dump.frames.last().unwrap().get("volumes").and_then(Json::as_arr).unwrap();
        assert_eq!(volumes.len(), 2);
        assert_eq!(volumes[1].get("dwrites").and_then(Json::as_u64), Some(5));
        // The volume-1 span carries its volume tag.
        let span = dump.spans.iter().find(|s| s.get("op").and_then(Json::as_str) == Some("write"));
        assert_eq!(span.unwrap().get("vol").and_then(Json::as_u64), Some(1));
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_all_reaches_every_armed_flight() {
        let _s = serial();
        let dir = tmp_dir("all");
        let a = Obs::new();
        let b = Obs::new();
        let ga = arm(&dir, &a, "unit-all-a");
        let gb = arm(&dir, &b, "unit-all-b");
        dump_all("fsck_failure");
        for g in [&ga, &gb] {
            let dump = parse_dump(g.path());
            assert_eq!(dump.head.get("reason").and_then(Json::as_str), Some("fsck_failure"));
        }
        drop(ga);
        drop(gb);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rings_stay_bounded() {
        let _s = serial();
        let dir = tmp_dir("bounded");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, "unit-bounded");
        for i in 0..(FLIGHT_FRAMES as u64 + 40) {
            obs.set_clock_ns((i + 1) * SIM_INTERVAL_NS);
        }
        for _ in 0..(FLIGHT_SPANS + 50) {
            let _g = obs.span(OpKind::Read);
        }
        guard.dump("bound-check");
        let dump = parse_dump(guard.path());
        assert!(dump.frames.len() <= FLIGHT_FRAMES);
        assert!(dump.spans.len() <= FLIGHT_SPANS);
        let report = crate::flight::postmortem(&dump);
        let diag = report.get("diagnosis").and_then(Json::as_arr).expect("diagnosis");
        assert!(!diag.is_empty(), "diagnosis is never empty");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_rejects_torn_and_malformed_dumps() {
        let _s = serial();
        assert!(crate::flight::parse_flight("").is_err(), "no head");
        assert!(crate::flight::parse_flight("{\"rec\":\"frame\"}").is_err(), "frame before head");
        let dir = tmp_dir("reject");
        let obs = Obs::new();
        let guard = arm(&dir, &obs, "unit-reject");
        guard.dump("x");
        let text = std::fs::read_to_string(guard.path()).unwrap();
        // Head alone (frames stripped) must not validate.
        let head_only: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        assert!(crate::flight::parse_flight(&head_only).is_err());
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }
}
