#![warn(missing_docs)]

//! # cffs-bench
//!
//! The reproduction harness. Each module under [`experiments`] regenerates
//! one table or figure from the paper (see `DESIGN.md` §3 for the
//! experiment index); the `repro_*` binaries are thin wrappers, and
//! `repro_all` runs the whole suite. Wall-clock micro-benches live under
//! `benches/` (plain `main` harnesses; see [`microbench`]).

pub mod experiments;
pub mod microbench;
pub mod report;

pub use report::{phase_table, speedup};

/// Wire the process-global telemetry sinks from a binary's argv — the
/// shared implementation of the `repro_*` flags:
///
/// * `--feed PATH` appends a live JSONL telemetry feed to PATH (watch it
///   with `cffs-top --follow PATH`);
/// * `--flight DIR` arms the forensic flight recorder: every stack
///   mounted afterwards keeps a bounded black box of recent frames,
///   spans, and signal/regroup events, persisted atomically under DIR as
///   `FLIGHT_<label>.jsonl` on every cut and flushed on panic, fsck
///   failure, or bench-writer death (`cffs-inspect postmortem` reads the
///   dumps).
///
/// A flag without a value prints a usage line and exits with status 2.
pub fn wire_telemetry(args: &[String]) {
    let (feed, flight) = telemetry_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: [--feed PATH] [--flight DIR]");
        std::process::exit(2);
    });
    if let Some(path) = feed {
        cffs_obs::telemetry::set_global_feed(path).expect("create telemetry feed");
    }
    if let Some(dir) = flight {
        cffs_obs::telemetry::set_global_flight(dir).expect("create flight directory");
    }
}

/// The `--feed` and `--flight` values in `args`. A flag without a value,
/// or whose value looks like another flag, is an error.
fn telemetry_args(args: &[String]) -> Result<(Option<&str>, Option<&str>), String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.as_str())),
            _ => Err(format!("{flag} needs a value")),
        }
    };
    Ok((value("--feed")?, value("--flight")?))
}

#[cfg(test)]
mod tests {
    use super::telemetry_args;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn telemetry_flags_take_their_values() {
        let a = args(&["repro", "--feed", "f.jsonl", "--flight", "dir", "--seed", "3"]);
        assert_eq!(telemetry_args(&a), Ok((Some("f.jsonl"), Some("dir"))));
        assert_eq!(telemetry_args(&args(&["repro", "--seed", "3"])), Ok((None, None)));
    }

    #[test]
    fn telemetry_flags_reject_missing_values() {
        assert!(telemetry_args(&args(&["repro", "--feed"])).is_err());
        assert!(telemetry_args(&args(&["repro", "--flight"])).is_err());
        // The next flag is not a value: no file named `--flight`.
        assert!(telemetry_args(&args(&["repro", "--feed", "--flight", "dir"])).is_err());
    }
}
