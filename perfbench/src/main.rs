//! Two-clock benchmark of the C-FFS stack.
//!
//! `cffs-perfbench --workload <smallfile|namei-warm|sessions> --seed N
//! --seconds S --trace <0|1> [--spans PATH]`
//!
//! Each workload is a closed loop over the public `ConcurrentFs` surface
//! (every client issues its next call when the previous one returns).
//! With `--trace 0` it prints the end-to-end metrics, on the host clock
//! (what the Rust code costs) and on the simulated clock (the paper's
//! currency). With `--trace 1` it runs untraced and traced windows
//! alternately and prints the per-layer metrics: call spans recorded
//! around every FS call, counter deltas from the stack's `Obs`
//! registries, direct timers of single layer functions and a replay of
//! the captured disk request stream. The last line of standard output is
//! one JSON object; the exit code is non-zero when any call failed or
//! any output check did not hold. See `METRICS.md` for the workloads,
//! the metric pairings and the spread each bound rests on.

mod layers;
mod namei_warm;
mod probe;
mod report;
mod sessions;
mod smallfile;
mod stats;

use probe::{Recorder, Span};
use report::Metric;
use std::io::Write as _;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<String>,
}

/// Deadline helper: the run measures for `seconds` of host time.
pub struct Clock {
    start: Instant,
    seconds: f64,
}

impl Clock {
    pub fn new(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds,
        }
    }

    /// Share of the run's time used so far (1.0 = the deadline).
    pub fn used(&self) -> f64 {
        self.start.elapsed().as_secs_f64() / self.seconds
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cffs-perfbench --workload <smallfile|namei-warm|sessions> --seed N \
         --seconds S --trace <0|1> [--spans PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = val.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--spans" => spans = Some(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !["smallfile", "namei-warm", "sessions"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        spans,
    }
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"sim_ns\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.sim_ns
        )?;
    }
    w.flush()
}

fn main() {
    let args = parse_args();
    let rec = Recorder::new();
    let (metrics, spans) = match args.workload.as_str() {
        "smallfile" => smallfile::run(&args, &rec),
        "namei-warm" => namei_warm::run(&args, &rec),
        _ => sessions::run(&args, &rec),
    };
    if let (Some(path), true) = (&args.spans, args.trace) {
        if let Err(e) = write_spans(path, &spans) {
            eprintln!("warning: could not write spans to {path}: {e}");
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            rec.fail(format!("metric {} is not finite", m.name));
        }
    }
    let (attempted, failed) = (rec.attempted(), rec.failed());
    println!(
        "workload {} seed {} trace {}: {attempted} operations and checks, {failed} failed, op_fail_frac {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        stats::ratio(failed as f64, attempted as f64)
    );
    for note in rec.notes() {
        println!("failure: {note}");
    }
    for Metric { name, value, unit } in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    );
    std::io::stdout().flush().ok();
    if failed > 0 {
        std::process::exit(1);
    }
}
