//! Telemetry feed integration tests: schema validity end-to-end, and
//! the determinism contract — a seeded run's feed *renders* (via the
//! `cffs-top` engine) byte-identically across runs, single- and
//! multi-threaded. The feed files themselves carry host-time
//! `lock_wait_ns_*` totals, so only the rendering (which skips them) is
//! the deterministic artifact.

use cffs::build;
use cffs::feedview::FeedView;
use cffs::obs::json::Json;
use cffs::obs::telemetry::{self, Cadence};
use cffs::prelude::*;
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_workloads::concurrent::{self, ConcurrentParams};
use cffs_workloads::soak::{self, SoakParams};

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cffs-feedtest-{tag}-{}.jsonl", std::process::id()))
}

/// Replay a feed through the `cffs-top` rendering engine in headless
/// (deterministic) mode, concatenating every frame's dashboard.
fn render_feed(text: &str) -> String {
    let records = telemetry::parse_feed(text).expect("every record validates");
    assert!(records.iter().any(telemetry::is_frame), "feed has frames");
    let mut view = FeedView::new(false);
    let mut out = String::new();
    for r in &records {
        if view.push(r) {
            out.push_str(&view.render());
            out.push_str("---\n");
        }
    }
    out
}

/// The feed's `frame` records, in file order.
fn frames(text: &str) -> Vec<Json> {
    telemetry::parse_feed(text).unwrap().into_iter().filter(telemetry::is_frame).collect()
}

/// One seeded single-threaded producer run: soak churn on a fresh C-FFS
/// with a simulated-cadence tap (frames cut at deterministic clock
/// points). Returns the feed text.
fn sim_producer(tag: &str, seed: u64) -> String {
    let path = tmp(tag);
    let sink = telemetry::FeedSink::create(&path).expect("create feed");
    let mut fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = fs.obs();
    {
        let _tap = telemetry::attach(&sink, &obs, "soak", Cadence::Sim);
        let p = SoakParams { rounds: 2, ndirs: 3, files_per_dir: 10, seed, ..SoakParams::default() };
        soak::run(&mut fs, &p, |_| {}).expect("soak");
    }
    let text = std::fs::read_to_string(&path).expect("read feed");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn single_threaded_feed_rendering_is_byte_deterministic() {
    let a = sim_producer("sim-a", 1997);
    let b = sim_producer("sim-b", 1997);
    let (ra, rb) = (render_feed(&a), render_feed(&b));
    assert!(
        ra == rb,
        "same seed must render byte-identically;\nfirst divergence at byte {}",
        ra.bytes().zip(rb.bytes()).position(|(x, y)| x != y).unwrap_or(ra.len().min(rb.len()))
    );
    // The run did real work and the frames show it.
    assert!(ra.contains("stage=soak"), "{ra}");
    assert!(ra.contains("cg heatmap"), "{ra}");
    let n = frames(&a).len();
    assert!(n >= 3, "sim cadence cut several frames, got {n}");
    // A different seed produces a different feed (the determinism above
    // is not vacuous).
    let c = sim_producer("sim-c", 4242);
    assert!(render_feed(&c) != ra, "different seeds must differ");
}

/// One seeded multi-threaded producer run: the E14 concurrent workload
/// with a manual-cadence tap cutting one frame per quiescent phase
/// barrier. Returns the feed text.
fn concurrent_producer(tag: &str, seed: u64) -> String {
    let path = tmp(tag);
    let sink = telemetry::FeedSink::create(&path).expect("create feed");
    let fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = cffs_core::Cffs::obs(&fs);
    {
        let tap = telemetry::attach(&sink, &obs, "concurrent", Cadence::Manual);
        // One dir per thread on a 4-CG disk: the round-robin dir rotor
        // gives each thread its own cylinder group, so no two threads
        // ever race on the same CG allocator. With shared CGs the churn
        // phase's alloc/free interleaving picks different physical
        // blocks run to run — same work, different seeks — and the
        // barrier timestamp legitimately shifts by a disk revolution.
        let p = ConcurrentParams {
            nthreads: 4,
            dirs_per_thread: 1,
            files_per_dir: 16,
            file_size: 4096,
            shared_dirs: 0,
            shared_files_per_thread: 0,
            read_rounds: 2,
            seed,
        };
        concurrent::run_with_phase_hook(&fs, &p, |phase| tap.frame(phase))
            .expect("concurrent run");
    }
    let text = std::fs::read_to_string(&path).expect("read feed");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn concurrent_feed_rendering_is_byte_deterministic() {
    let a = concurrent_producer("conc-a", 7);
    let b = concurrent_producer("conc-b", 7);
    let (ra, rb) = (render_feed(&a), render_feed(&b));
    if ra != rb {
        std::fs::write("/tmp/feed-a.jsonl", &a).ok();
        std::fs::write("/tmp/feed-b.jsonl", &b).ok();
        for (la, lb) in ra.lines().zip(rb.lines()) {
            if la != lb {
                panic!(
                    "multi-threaded producer must render byte-identically;\n  a: {la}\n  b: {lb}"
                );
            }
        }
        panic!("renderings differ in length: {} vs {}", ra.len(), rb.len());
    }
    // Every client thread's slot shows up in the per-thread panel
    // (slots 1..=4; slot 0 is the main thread's setup/sync work).
    for t in 1..=4 {
        assert!(ra.contains(&format!("t{t}:")), "thread slot {t} missing:\n{ra}");
    }
    // One frame per phase barrier plus the detach frame.
    let frames = frames(&a);
    assert_eq!(frames.len(), 5, "setup/populate/warm/churn + detach");
    let stages: Vec<&str> =
        frames.iter().filter_map(|f| f.get("stage").and_then(|s| s.as_str())).collect();
    assert_eq!(stages, ["setup", "populate", "warm", "churn", "churn"]);
}

#[test]
fn feed_frames_validate_against_the_shared_schema_checker() {
    // parse_feed already validates; this pins the specific shape a
    // downstream consumer greps for.
    let text = sim_producer("schema", 11);
    let records = telemetry::parse_feed(&text).unwrap();
    // A tap's base record opens the feed, and frames follow it.
    assert_eq!(records[0].get("rec").and_then(Json::as_str), Some("base"));
    let frames = frames(&text);
    let last = frames.last().unwrap();
    let cgs = last.get("cgs").and_then(|c| c.as_arr()).unwrap();
    assert!(!cgs.is_empty(), "mounted C-FFS configures the per-CG table");
    let used: u64 =
        cgs.iter().filter_map(|c| c.get("used").and_then(|u| u.as_u64())).sum();
    assert!(used > 0, "soak left blocks allocated");
}

#[test]
fn torn_last_line_replays_the_complete_frames() {
    let text = sim_producer("torn", 1997);
    let full = render_feed(&text);
    // Cut the final frame line mid-write, as a follower polling a live
    // feed may find it.
    let last = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    let torn = &text[..last + (text.len() - last) / 2];
    let n = frames(&text).len();
    let want: String = full.split_inclusive("---\n").take(n - 1).collect();
    assert_eq!(render_feed(torn), want, "the complete frames replay unchanged");
    // Newline-terminated, the same fragment is malformed, not pending.
    assert!(telemetry::parse_feed(&format!("{torn}\n")).is_err());
}

#[test]
fn feed_is_appended_in_place() {
    use std::os::unix::fs::MetadataExt as _;
    let path = tmp("append");
    let sink = telemetry::FeedSink::create(&path).expect("create feed");
    let ino = std::fs::metadata(&path).unwrap().ino();
    let fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = fs.obs();
    let tap = telemetry::attach(&sink, &obs, "append", Cadence::Manual);
    let root = fs.root();
    for n in 0..64 {
        let file = fs.create(root, &format!("f{n}")).expect("create");
        fs.write(file, 0, &[n as u8; 1500]).expect("write");
        tap.frame("append");
        // The same file throughout, holding nothing but whole lines: each
        // frame was appended once, not rewritten into a new file.
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(meta.ino(), ino, "frame {n} replaced the feed file");
        let text = std::fs::read_to_string(&path).unwrap();
        let line_bytes: u64 = text.lines().map(|l| l.len() as u64 + 1).sum();
        assert_eq!(meta.len(), line_bytes, "frame {n} left a partial line");
    }
    drop(tap);
    assert_eq!(frames(&std::fs::read_to_string(&path).unwrap()).len(), 65);
    assert_eq!(sink.frames(), 65);
    std::fs::remove_file(&path).ok();
}
