//! Flight-recorder dumps, read back — the consumer half of the black
//! box whose producer lives in [`crate::telemetry`].
//!
//! A `FLIGHT_<name>.jsonl` dump is a `head` record followed by the
//! ring's retained `frame`, `span` and `event` records. Frames carry
//! **cumulative** values: the ring overwrites its oldest frames, and
//! cumulative values keep every retained frame independently meaningful
//! — [`postmortem`] derives window deltas from the first and last
//! retained frames.

use crate::json::Json;
use crate::obj;
use crate::telemetry::{validate_record, FRAME_COUNTERS};
use crate::Sig;

/// A parsed `FLIGHT_*.jsonl` dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub head: Json,
    pub frames: Vec<Json>,
    pub spans: Vec<Json>,
    pub events: Vec<Json>,
}

/// Parse and validate a flight dump. The first line must be the head
/// record; every record is checked against the documented schema.
pub fn parse_flight(text: &str) -> Result<FlightDump, String> {
    let mut head = None;
    let mut frames = Vec::new();
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ln = i + 1;
        let j = crate::json::parse(line).map_err(|e| format!("flight line {ln}: {e:?}"))?;
        let rec = validate_record(&j).map_err(|e| format!("flight line {ln}: {e}"))?;
        match rec {
            "head" if head.is_none() && frames.is_empty() => head = Some(j),
            "head" => return Err(format!("flight line {ln}: head must be the first record")),
            "frame" => frames.push(j),
            "span" => spans.push(j),
            "event" => events.push(j),
            other => return Err(format!("flight line {ln}: {other:?} record in a flight dump")),
        }
    }
    let head = head.ok_or("flight dump lacks a head record")?;
    if frames.is_empty() {
        return Err("flight dump has no frames".to_string());
    }
    Ok(FlightDump { head, frames, spans, events })
}

/// Correlate a parsed dump into a structured postmortem report: the
/// capture window's counter deltas, gauge/signal state at capture, the
/// per-CG utilization trajectory, the slowest spans, and a list of
/// plain-language diagnosis lines (always non-empty).
pub fn postmortem(dump: &FlightDump) -> Json {
    let first = &dump.frames[0];
    let last = dump.frames.last().expect("parse_flight requires frames");
    let fu = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    let t0 = fu(first, "t_ns");
    let t1 = fu(last, "t_ns");
    let reason = dump.head.get("reason").and_then(Json::as_str).unwrap_or("?").to_string();
    let name = dump.head.get("name").and_then(Json::as_str).unwrap_or("?").to_string();

    // Window deltas of the curated counters (cumulative frames make this
    // a plain subtraction between the oldest and newest retained frames).
    let ctr_at = |f: &Json, name: &str| {
        f.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    let mut window: Vec<(String, Json)> = Vec::new();
    for &c in FRAME_COUNTERS {
        let d = ctr_at(last, c.name()).saturating_sub(ctr_at(first, c.name()));
        if d > 0 {
            window.push((c.name().to_string(), Json::Int(d as i64)));
        }
    }

    // Internal consistency: an explicit dump cuts a frame first, so the
    // last frame must equal the head's final snapshot on every curated
    // counter. A mismatch means the dump was torn mid-flight.
    let fin = dump.head.get("counters_final");
    let mut mismatches: Vec<Json> = Vec::new();
    for &c in FRAME_COUNTERS {
        let head_v = fin.and_then(|f| f.get(c.name())).and_then(Json::as_u64).unwrap_or(0);
        if head_v != ctr_at(last, c.name()) {
            mismatches.push(Json::Str(c.name().to_string()));
        }
    }

    // Signal state at capture.
    let mut signal_notes: Vec<String> = Vec::new();
    if let Some(signals) = last.get("signals") {
        for sig in Sig::ALL {
            let Some(s) = signals.get(sig.name()) else { continue };
            let low = matches!(s.get("low"), Some(Json::Bool(true)));
            let high = matches!(s.get("high"), Some(Json::Bool(true)));
            if low || high {
                signal_notes.push(format!(
                    "signal {} was {} at capture (ewma {} milli, {} low / {} high crossings)",
                    sig.name(),
                    if low { "low" } else { "high" },
                    fu(s, "ewma_milli"),
                    fu(s, "low_count"),
                    fu(s, "high_count"),
                ));
            }
        }
    }

    // Per-CG trajectory: traffic over the window and utilization drops.
    let cg_rows = |f: &Json| -> Vec<(u64, u64, u64, u64)> {
        match f.get("cgs") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|c| (fu(c, "cg"), fu(c, "util_ewma_milli"), fu(c, "read_ios"), fu(c, "write_ios")))
                .collect(),
            _ => Vec::new(),
        }
    };
    let cgs0 = cg_rows(first);
    let cgs1 = cg_rows(last);
    let mut hot: Vec<(u64, u64)> = Vec::new(); // (cg, window ios)
    let mut drops: Vec<(u64, u64, u64)> = Vec::new(); // (cg, util0, util1)
    for (i, &(cg, util1, r1, w1)) in cgs1.iter().enumerate() {
        let (_, util0, r0, w0) = cgs0.get(i).copied().unwrap_or((cg, util1, 0, 0));
        let dio = (r1 + w1).saturating_sub(r0 + w0);
        if dio > 0 {
            hot.push((cg, dio));
        }
        // A collapse: the EWMA lost at least a quarter of its value
        // across the window (and started from something real).
        if util0 >= 1000 && util1 < util0 - util0 / 4 {
            drops.push((cg, util0, util1));
        }
    }
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(4);

    // Slowest spans in the window.
    let mut spans: Vec<&Json> = dump.spans.iter().collect();
    spans.sort_by(|a, b| fu(b, "dur_ns").cmp(&fu(a, "dur_ns")).then(fu(a, "t_ns").cmp(&fu(b, "t_ns"))));
    let top_spans: Vec<Json> = spans.iter().take(5).map(|&s| s.clone()).collect();

    let queue_last = fu(last, "queue_depth");
    let burn = fu(last, "slo_burn_milli");
    let window_ms = t1.saturating_sub(t0) / 1_000_000;

    // Diagnosis: always at least the capture line and the consistency
    // verdict, then whatever the window shows.
    let mut diagnosis: Vec<String> = Vec::new();
    diagnosis.push(format!(
        "{name}: captured on \"{reason}\" at t={t1} ns; window covers {window_ms} ms across {} frames, {} spans, {} events",
        dump.frames.len(),
        dump.spans.len(),
        dump.events.len(),
    ));
    if mismatches.is_empty() {
        diagnosis.push(
            "dump is internally consistent: last frame matches the final counter snapshot"
                .to_string(),
        );
    } else {
        diagnosis.push(format!(
            "WARNING: last frame disagrees with the final counter snapshot on {} counters (torn dump?)",
            mismatches.len()
        ));
    }
    let wc = |n: &str| window.iter().find(|(k, _)| k == n).and_then(|(_, v)| v.as_u64()).unwrap_or(0);
    if !window.is_empty() {
        diagnosis.push(format!(
            "window I/O: {} disk reads, {} disk writes, {} writebacks, {} group fetches, {} regroup blocks moved",
            wc("disk_reads"),
            wc("disk_writes"),
            wc("cache_writebacks"),
            wc("fs_group_fetches"),
            wc("regroup_blocks_moved"),
        ));
    }
    if queue_last > 0 {
        diagnosis.push(format!(
            "{queue_last} submissions were still waiting in the driver queue at capture"
        ));
    }
    diagnosis.extend(signal_notes);
    if burn >= 1000 {
        diagnosis.push(format!(
            "SLO error budget exhausted: worst per-op burn {burn} milli (1000 = exactly at budget)"
        ));
    } else if burn > 0 {
        diagnosis.push(format!("SLO burn at {burn} milli of the error budget"));
    }
    for &(cg, u0, u1) in drops.iter().take(4) {
        diagnosis.push(format!(
            "group-fetch utilization collapsed in CG {cg}: {u0} -> {u1} milli-pct over the window"
        ));
    }
    if let Some(s) = top_spans.first() {
        diagnosis.push(format!(
            "slowest op in window: {} took {} us (span {})",
            s.get("op").and_then(Json::as_str).unwrap_or("?"),
            fu(s, "dur_ns") / 1_000,
            fu(s, "span"),
        ));
    }

    obj![
        ("name", Json::Str(name)),
        ("reason", Json::Str(reason)),
        ("t_first_ns", Json::Int(t0 as i64)),
        ("t_last_ns", Json::Int(t1 as i64)),
        ("frames", Json::Int(dump.frames.len() as i64)),
        ("spans", Json::Int(dump.spans.len() as i64)),
        ("events", Json::Int(dump.events.len() as i64)),
        ("consistent", Json::Bool(mismatches.is_empty())),
        ("mismatches", Json::Arr(mismatches)),
        ("counters_window", Json::Obj(window)),
        ("queue_depth_last", Json::Int(queue_last as i64)),
        ("slo_burn_milli", Json::Int(burn as i64)),
        (
            "hot_cgs",
            Json::Arr(
                hot.iter()
                    .map(|&(cg, dio)| obj![
                        ("cg", Json::Int(cg as i64)),
                        ("window_ios", Json::Int(dio as i64)),
                    ])
                    .collect()
            )
        ),
        (
            "util_drops",
            Json::Arr(
                drops
                    .iter()
                    .map(|&(cg, u0, u1)| obj![
                        ("cg", Json::Int(cg as i64)),
                        ("from_milli", Json::Int(u0 as i64)),
                        ("to_milli", Json::Int(u1 as i64)),
                    ])
                    .collect()
            )
        ),
        ("top_spans", Json::Arr(top_spans)),
        (
            "diagnosis",
            Json::Arr(diagnosis.into_iter().map(Json::Str).collect())
        ),
    ]
}

/// Plain-text rendering of a [`postmortem`] report.
pub fn render_postmortem(report: &Json) -> String {
    let mut out = String::new();
    let gs = |k: &str| report.get(k).and_then(Json::as_str).unwrap_or("?");
    let gu = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!("postmortem: {} (reason: {})\n", gs("name"), gs("reason")));
    out.push_str(&format!(
        "window: t={}..{} ns  frames={} spans={} events={}\n",
        gu("t_first_ns"),
        gu("t_last_ns"),
        gu("frames"),
        gu("spans"),
        gu("events"),
    ));
    out.push_str("\ndiagnosis:\n");
    if let Some(Json::Arr(lines)) = report.get("diagnosis") {
        for l in lines {
            out.push_str(&format!("  - {}\n", l.as_str().unwrap_or("?")));
        }
    }
    if let Some(Json::Obj(window)) = report.get("counters_window") {
        if !window.is_empty() {
            out.push_str("\ncounter deltas over the window:\n");
            for (k, v) in window {
                out.push_str(&format!("  {:<28} {}\n", k, v.as_u64().unwrap_or(0)));
            }
        }
    }
    if let Some(Json::Arr(spans)) = report.get("top_spans") {
        if !spans.is_empty() {
            out.push_str("\nslowest spans in the window:\n");
            for s in spans {
                out.push_str(&format!(
                    "  {:<12} t={} ns  dur={} ns\n",
                    s.get("op").and_then(Json::as_str).unwrap_or("?"),
                    s.get("t_ns").and_then(Json::as_u64).unwrap_or(0),
                    s.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                ));
            }
        }
    }
    out
}
