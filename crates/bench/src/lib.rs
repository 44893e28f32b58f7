#![warn(missing_docs)]

//! # cffs-bench
//!
//! The reproduction harness. Each module under [`experiments`] regenerates
//! one table or figure from the paper (see `DESIGN.md` §3 for the
//! experiment index); the `repro` binary runs any of them by name
//! (`repro smallfile`, `repro all`, ...) with flags parsed by
//! [`parse_args`]. Wall-clock micro-benches live under `benches/` (plain
//! `main` harnesses; see [`microbench`]).

pub mod experiments;
pub mod microbench;
pub mod report;

pub use report::{phase_table, speedup};

/// The value a command-line [`Flag`] takes.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A non-negative integer.
    Num,
    /// One word out of a fixed set.
    OneOf(&'static [&'static str]),
    /// A free-form value such as a path, shown in usage as the given
    /// placeholder.
    Text(&'static str),
    /// No value: the flag is either present or absent.
    Switch,
}

/// One flag a command accepts, with the value it has when absent.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, e.g. `--files`.
    pub name: &'static str,
    /// What value it takes.
    pub kind: Kind,
    /// The value used when the flag is absent (`None`: stays absent).
    pub default: Option<&'static str>,
}

impl Flag {
    /// A numeric flag with a default.
    pub const fn num(name: &'static str, default: &'static str) -> Flag {
        Flag { name, kind: Kind::Num, default: Some(default) }
    }

    /// A flag taking one of `words`, with a default.
    pub const fn one_of(
        name: &'static str,
        words: &'static [&'static str],
        default: &'static str,
    ) -> Flag {
        Flag { name, kind: Kind::OneOf(words), default: Some(default) }
    }

    /// A flag with no default, absent unless given.
    pub const fn optional(name: &'static str, kind: Kind) -> Flag {
        Flag { name, kind, default: None }
    }
}

/// The flags every command accepts on top of its own:
///
/// * `--feed PATH` appends a live JSONL telemetry feed to PATH (watch it
///   with `cffs-top --follow PATH`);
/// * `--flight DIR` arms the forensic flight recorder: every stack
///   mounted afterwards keeps a bounded black box of recent frames,
///   spans, and signal/regroup events, persisted atomically under DIR as
///   `FLIGHT_<label>.jsonl` on every cut and flushed on panic, fsck
///   failure, or bench-writer death (`cffs-inspect postmortem` reads the
///   dumps).
const TELEMETRY_FLAGS: [Flag; 2] =
    [Flag::optional("--feed", Kind::Text("PATH")), Flag::optional("--flight", Kind::Text("DIR"))];

/// Parsed flag values, defaults filled in. Every value has been checked
/// against its [`Kind`], so the accessors only panic on a flag name the
/// command never declared.
#[derive(Debug)]
pub struct Args(Vec<(&'static str, String)>);

impl Args {
    /// The value of `flag`, if given or defaulted (`""` for a switch).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(n, _)| *n == flag).map(|(_, v)| v.as_str())
    }

    /// The numeric value of `flag`, if given or defaulted.
    pub fn opt_num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag).map(|v| v.parse().unwrap_or_else(|_| panic!("{flag}={v} out of range")))
    }

    /// The numeric value of a `flag` that has a default.
    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> T {
        self.opt_num(flag).unwrap_or_else(|| panic!("{flag} has no default"))
    }

    /// Whether the switch `flag` was given.
    pub fn on(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }
}

/// Parse `argv` (the arguments after the command name) against `flags`
/// plus `--feed PATH` and `--flight DIR`. An unknown or repeated flag, a missing value
/// (or one that looks like another flag), a value that is not a number
/// where one is needed, or a word outside a flag's set is an error.
pub fn parse_args(flags: &[Flag], argv: &[String]) -> Result<Args, String> {
    let all = || flags.iter().chain(&TELEMETRY_FLAGS);
    let mut given: Vec<(&'static str, String)> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag =
            all().find(|f| f.name == arg).ok_or_else(|| format!("unknown argument {arg:?}"))?;
        if given.iter().any(|(n, _)| *n == flag.name) {
            return Err(format!("{arg} given twice"));
        }
        let value = match flag.kind {
            Kind::Switch => String::new(),
            _ => match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("{arg} needs a value")),
            },
        };
        match flag.kind {
            Kind::Num if value.parse::<u64>().is_err() => {
                return Err(format!("{arg} needs a number, got {value:?}"))
            }
            Kind::OneOf(words) if !words.contains(&value.as_str()) => {
                return Err(format!("{arg} must be one of {}, got {value:?}", words.join("|")))
            }
            _ => {}
        }
        given.push((flag.name, value));
    }
    for f in all() {
        if let (Some(d), false) = (f.default, given.iter().any(|(n, _)| *n == f.name)) {
            given.push((f.name, d.to_string()));
        }
    }
    Ok(Args(given))
}

/// The usage synopsis of `flags` plus the telemetry flags, e.g.
/// `[--mode sync|softdep|both] [--files N] [--feed PATH] [--flight DIR]`.
pub fn usage(flags: &[Flag]) -> String {
    let flag = |f: &Flag| match f.kind {
        Kind::Num => format!("[{} N]", f.name),
        Kind::OneOf(words) => format!("[{} {}]", f.name, words.join("|")),
        Kind::Text(placeholder) => format!("[{} {placeholder}]", f.name),
        Kind::Switch => format!("[{}]", f.name),
    };
    flags.iter().chain(&TELEMETRY_FLAGS).map(flag).collect::<Vec<_>>().join(" ")
}

/// [`parse_args`], or print the error and `usage: <command> <synopsis>`
/// on stderr and exit with status 2.
pub fn parse_args_or_exit(command: &str, flags: &[Flag], argv: &[String]) -> Args {
    parse_args(flags, argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {command} {}", usage(flags));
        std::process::exit(2);
    })
}

/// Wire the process-global telemetry sinks named by `--feed` and
/// `--flight` in `args`.
pub fn wire_telemetry(args: &Args) {
    if let Some(path) = args.get("--feed") {
        cffs_obs::telemetry::set_global_feed(path).expect("create telemetry feed");
    }
    if let Some(dir) = args.get("--flight") {
        cffs_obs::telemetry::set_global_flight(dir).expect("create flight directory");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [Flag; 4] = [
        Flag::num("--files", "10000"),
        Flag::one_of("--mode", &["sync", "softdep", "both"], "both"),
        Flag::optional("--host-ms", Kind::Num),
        Flag::optional("--quick", Kind::Switch),
    ];

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(&FLAGS, &list.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn telemetry_flags_take_their_values() {
        let a = parse(&["--feed", "f.jsonl", "--flight", "dir", "--files", "3"]).unwrap();
        assert_eq!((a.get("--feed"), a.get("--flight")), (Some("f.jsonl"), Some("dir")));
        let a = parse(&["--files", "3"]).unwrap();
        assert_eq!((a.get("--feed"), a.get("--flight")), (None, None));
    }

    #[test]
    fn telemetry_flags_reject_missing_values() {
        assert!(parse(&["--feed"]).is_err());
        assert!(parse(&["--flight"]).is_err());
        // The next flag is not a value: no file named `--flight`.
        assert!(parse(&["--feed", "--flight", "dir"]).is_err());
    }

    #[test]
    fn flags_default_when_absent() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.num::<u64>("--files"), 10_000);
        assert_eq!(a.get("--mode"), Some("both"));
        assert_eq!(a.opt_num::<u64>("--host-ms"), None);
        assert!(!a.on("--quick"));
        let a = parse(&["--quick", "--mode", "sync", "--host-ms", "50", "--files", "60"]).unwrap();
        assert_eq!(a.num::<usize>("--files"), 60);
        assert_eq!(a.get("--mode"), Some("sync"));
        assert_eq!(a.opt_num::<u64>("--host-ms"), Some(50));
        assert!(a.on("--quick"));
    }

    #[test]
    fn flags_reject_unknown_and_malformed_input() {
        // A typo for `--files` must not silently run at the default scale.
        assert!(parse(&["--file", "60"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["60"]).is_err());
        assert!(parse(&["--files", "6o"]).unwrap_err().contains("needs a number"));
        assert!(parse(&["--files", "-1"]).is_err());
        assert!(parse(&["--mode", "sycn"]).unwrap_err().contains("sync|softdep|both"));
        assert!(parse(&["--files", "1", "--files", "2"]).unwrap_err().contains("twice"));
    }

    #[test]
    fn usage_lists_every_flag() {
        assert_eq!(
            usage(&FLAGS),
            "[--files N] [--mode sync|softdep|both] [--host-ms N] [--quick] \
             [--feed PATH] [--flight DIR]"
        );
    }
}
