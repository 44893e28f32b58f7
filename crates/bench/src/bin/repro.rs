//! Run one reproduction by name: `repro <experiment> [flags]`.
//!
//! Each entry of [`EXPERIMENTS`] names an experiment, the flags it takes
//! (with their defaults) and how it reports: the text report goes to
//! stdout and each `BENCH_<NAME>.json` payload (counters included) is
//! written to the cwd, or to `BENCH_OUT_DIR` when set. `repro all
//! [--quick]` runs E1–E12 in order and is the source material for
//! `EXPERIMENTS.md`; `--quick` scales the workloads down (1/10 of the
//! files, fewer aging ops) for a fast smoke run.
//!
//! Every experiment also takes `--feed PATH` (stream live telemetry to
//! PATH; watch it with `cffs-top --follow PATH`) and `--flight DIR` (arm
//! the flight recorder, dumping `FLIGHT_<label>.jsonl` under DIR for
//! `cffs-inspect postmortem`). An unknown experiment or flag, a missing
//! value, a bad number or a word outside a flag's set prints a usage line
//! and exits with status 2.

use cffs::build;
use cffs_bench::experiments::*;
use cffs_bench::report::{emit_artifact, emit_bench};
use cffs_bench::{parse_args_or_exit, usage, Args, Flag, Kind};
use cffs_core::CffsConfig;
use cffs_disksim::models;
use cffs_fslib::MetadataMode;
use cffs_obs::json::Json;
use cffs_obs::telemetry::{tap_global, Cadence};
use cffs_workloads::appdev::DevTreeParams;
use cffs_workloads::postmark::PostmarkParams;
use cffs_workloads::smallfile::{Assignment, SmallFileParams};
use cffs_workloads::soak::{self, SoakParams};

/// One runnable experiment.
struct Experiment {
    /// The name given on the command line.
    name: &'static str,
    /// The flags it accepts besides `--feed`/`--flight`.
    flags: &'static [Flag],
    /// Print its report and emit its artifacts.
    run: fn(&Args),
}

const MODE: Flag = Flag::one_of("--mode", &["sync", "softdep", "both"], "both");
const SEED: Flag = Flag::num("--seed", "1997");

/// Every experiment, in paper order (E1–E16), then the soak driver and
/// the whole suite.
const EXPERIMENTS: &[Experiment] = &[
    // E1: Table 1 — characteristics of three modern (1996) disk drives.
    Experiment { name: "table1", flags: &[], run: |_| show("TABLE1", table1::report()) },
    // E2: Figure 2 — average access time vs request size.
    Experiment {
        name: "fig2",
        flags: &[Flag::num("--samples", "500")],
        run: |a| show("FIG2", fig2::report(a.num("--samples"))),
    },
    // E3: Table 2 — the testbed drive (Seagate ST31200).
    Experiment { name: "table2", flags: &[], run: |_| show("TABLE2", table2::report()) },
    // E4/E5: the small-file micro-benchmark (paper Section 4.2), plus a
    // collapsed-stack fold of each C-FFS run (phase;op;queue|service).
    Experiment {
        name: "smallfile",
        flags: &[
            MODE,
            Flag::num("--files", "10000"),
            Flag::num("--size", "1024"),
            Flag::num("--dirs", "100"),
            Flag::one_of("--order", &["roundrobin", "dirmajor"], "roundrobin"),
            SEED,
        ],
        run: |a| {
            let params = SmallFileParams {
                nfiles: a.num("--files"),
                file_size: a.num("--size"),
                ndirs: a.num("--dirs"),
                order: match a.get("--order") {
                    Some("dirmajor") => Assignment::DirMajor,
                    _ => Assignment::RoundRobin,
                },
                seed: a.num("--seed"),
            };
            for (mode, tag) in modes(a) {
                let (text, json, fold) = smallfile::report_with_folds(mode, params);
                show(&format!("SMALLFILE_{tag}"), (text, json));
                emit_artifact(&format!("FOLD_SMALLFILE_{tag}.txt"), &fold.collapse());
            }
        },
    },
    // E6: throughput vs file size — where the grouping advantage decays.
    Experiment { name: "filesize", flags: &[], run: |_| show("FILESIZE", filesize::report()) },
    // E7: file-system aging ([Herrin93] program) vs target utilization.
    Experiment {
        name: "aging",
        flags: &[Flag::num("--ops", "20000")],
        run: |a| show("AGING", aging::report(a.num("--ops"))),
    },
    // E8: disk-request accounting, read out of the counters.
    Experiment {
        name: "diskreqs",
        flags: &[Flag::num("--files", "10000")],
        run: |a| {
            let params = SmallFileParams { nfiles: a.num("--files"), ..SmallFileParams::default() };
            show("DISKREQS", diskreqs::report(params));
        },
    },
    // E9: the software-development application suite.
    Experiment {
        name: "apps",
        flags: &[MODE, Flag::num("--seed", "3")],
        run: |a| {
            let params = DevTreeParams { seed: a.num("--seed"), ..DevTreeParams::default() };
            for (mode, tag) in modes(a) {
                show(&format!("APPS_{tag}"), apps::report(mode, params));
            }
        },
    },
    // E10: directory growth vs static inode preallocation.
    Experiment { name: "dirsize", flags: &[], run: |_| show("DIRSIZE", dirsize::report()) },
    // E11 (extra): ablation sweeps of the C-FFS design choices.
    Experiment { name: "ablation", flags: &[], run: |_| show("ABLATION", ablation::report()) },
    // E12 (extra): PostMark-style server workload on all five file systems.
    Experiment {
        name: "postmark",
        flags: &[MODE, Flag::num("--transactions", "10000"), SEED],
        run: |a| {
            let params = PostmarkParams {
                transactions: a.num("--transactions"),
                seed: a.num("--seed"),
                ..PostmarkParams::default()
            };
            for (mode, tag) in modes(a) {
                show(&format!("POSTMARK_{tag}"), postmark::report(mode, params));
            }
        },
    },
    // E13 (extra): online regrouping after adversarial aging; acceptance
    // is a recovered group-fetch utilization >= 0.90 of fresh.
    Experiment {
        name: "aging_regroup",
        flags: &[SEED],
        run: |a| show("AGING_REGROUP", aging_regroup::report(a.num("--seed"))),
    },
    // E14 (extra): 1/2/4-thread scaling on disjoint cylinder groups;
    // acceptance is a 4-thread aggregate >= 2.5x the 1-thread one.
    Experiment {
        name: "concurrent",
        flags: &[
            SEED,
            Flag::num("--dirs", "4"),
            Flag::num("--files", "24"),
            Flag::num("--rounds", "20"),
        ],
        run: |a| {
            let r = concurrent::report(
                a.num("--seed"),
                a.num("--dirs"),
                a.num("--files"),
                a.num("--rounds"),
            );
            show("CONCURRENT", r);
        },
    },
    // E15 (extra): million-file namei with and without the namespace
    // cache; acceptance is a >= 0.90 warm hit rate and >= 5x lower p99.
    Experiment {
        name: "namei",
        flags: &[
            SEED,
            Flag::num("--branches", "64"),
            Flag::num("--dirs", "64"),
            Flag::num("--files", "256"),
            Flag::num("--sample", "4096"),
            Flag::num("--rounds", "3"),
        ],
        run: |a| {
            let (branches, dirs, files) = (a.num("--branches"), a.num("--dirs"), a.num("--files"));
            let r = namei::report(
                a.num("--seed"),
                branches,
                dirs,
                files,
                a.num("--sample"),
                a.num("--rounds"),
            );
            show("NAMEI", r);
        },
    },
    // E16 (extra): scale-out volume sets of 1, 2, 4 and 8 disks;
    // acceptance is a 4-volume aggregate >= 3.0x the 1-volume one.
    Experiment {
        name: "volume",
        flags: &[
            SEED,
            Flag::num("--sessions", "2000"),
            Flag::num("--dirs", "64"),
            Flag::num("--files", "16"),
            Flag::num("--ops", "8"),
            Flag::num("--threads", "4"),
        ],
        run: |a| {
            let (sessions, dirs, files) = (a.num("--sessions"), a.num("--dirs"), a.num("--files"));
            let r = volume::report(
                a.num("--seed"),
                sessions,
                dirs,
                files,
                a.num("--ops"),
                a.num("--threads"),
            );
            show("VOLUME", r);
        },
    },
    // Open-ended churn to watch live with `cffs-top`; emits no BENCH
    // payload. The feed samples at the simulated cadence, or every N
    // wall-clock milliseconds with `--host-ms N`.
    Experiment {
        name: "soak",
        flags: &[
            Flag::num("--rounds", "8"),
            Flag::num("--dirs", "6"),
            Flag::num("--files", "24"),
            SEED,
            Flag::optional("--host-ms", Kind::Num),
        ],
        run: run_soak,
    },
    Experiment {
        name: "all",
        flags: &[Flag::optional("--quick", Kind::Switch)],
        run: |a| {
            println!("C-FFS reproduction — full experiment suite");
            println!("==========================================");
            for (_, step) in ALL {
                step(a.on("--quick"));
            }
        },
    },
];

/// One `repro all` step: the table entry it abbreviates, and its body,
/// given `--quick`.
type Step = (&'static str, fn(bool));

/// `repro all`: E1–E12. Steps pass parameters directly because the quick
/// scale (e.g. 50 small-file directories) is not reachable through the
/// entries' own flags.
const ALL: &[Step] = &[
    ("table1", |_| {
        println!("\n==== E1: Table 1 — 1996 drive characteristics ====\n");
        show("TABLE1", table1::report());
    }),
    ("fig2", |quick| {
        println!("\n==== E2: Figure 2 — access time vs request size ====\n");
        show("FIG2", fig2::report(if quick { 100 } else { 500 }));
    }),
    ("table2", |_| {
        println!("\n==== E3: Table 2 — testbed drive ====\n");
        show("TABLE2", table2::report());
    }),
    ("smallfile", |quick| {
        for (mode, tag) in MODES {
            show(&format!("SMALLFILE_{tag}"), smallfile::report(mode, suite_smallfile(quick)));
        }
    }),
    ("filesize", |_| show("FILESIZE", filesize::report())),
    ("aging", |quick| show("AGING", aging::report(if quick { 5_000 } else { 20_000 }))),
    ("diskreqs", |quick| show("DISKREQS", diskreqs::report(suite_smallfile(quick)))),
    ("apps", |_| {
        for (mode, tag) in MODES {
            show(&format!("APPS_{tag}"), apps::report(mode, DevTreeParams::default()));
        }
    }),
    ("dirsize", |_| show("DIRSIZE", dirsize::report())),
    ("ablation", |_| show("ABLATION", ablation::report())),
    ("postmark", |quick| {
        let pm = if quick {
            PostmarkParams { nfiles: 500, transactions: 1000, ..PostmarkParams::default() }
        } else {
            PostmarkParams::default()
        };
        show("POSTMARK_SYNC", postmark::report(MetadataMode::Synchronous, pm));
    }),
];

/// The metadata modes and the BENCH name suffix each reports under.
const MODES: [(MetadataMode, &str); 2] =
    [(MetadataMode::Synchronous, "SYNC"), (MetadataMode::Delayed, "SOFTDEP")];

/// The [`MODES`] selected by `--mode sync|softdep|both`.
fn modes(a: &Args) -> impl Iterator<Item = (MetadataMode, &'static str)> + '_ {
    let mode = a.get("--mode").expect("--mode has a default");
    MODES.into_iter().filter(move |(_, tag)| mode == "both" || tag.eq_ignore_ascii_case(mode))
}

/// The small-file parameters of `repro all` (E4, E5, E8).
fn suite_smallfile(quick: bool) -> SmallFileParams {
    if quick {
        SmallFileParams { nfiles: 1000, ndirs: 50, ..SmallFileParams::default() }
    } else {
        SmallFileParams::default()
    }
}

/// Print a text report and write its `BENCH_<bench>.json` payload.
fn show(bench: &str, (text, json): (String, Json)) {
    print!("{text}");
    emit_bench(bench, json);
}

/// `repro soak`: churn a fresh C-FFS image until the rounds run out.
fn run_soak(a: &Args) {
    let p = SoakParams {
        rounds: a.num("--rounds"),
        ndirs: a.num("--dirs"),
        files_per_dir: a.num("--files"),
        seed: a.num("--seed"),
        ..SoakParams::default()
    };
    let mut fs = build::on_disk(
        models::tiny_test_disk(),
        CffsConfig::cffs().with_mode(MetadataMode::Delayed),
    );
    let obs = fs.obs();
    let _feed = match a.opt_num("--host-ms") {
        Some(ms) => tap_global(&obs, "soak", Cadence::Host(std::time::Duration::from_millis(ms))),
        None => tap_global(&obs, "soak", Cadence::Sim),
    };
    let r = soak::run(&mut fs, &p, |i| {
        eprintln!("soak: round {}/{} done", i + 1, p.rounds);
    })
    .expect("soak run");
    println!(
        "soak: {} rounds, {} ops, {} bytes, {} simulated",
        r.rounds,
        r.ops,
        r.bytes,
        cffs_disksim::SimDuration::from_nanos(fs.now().as_nanos()),
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("", String::as_str);
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!(
            "error: no experiment named {name:?}\nusage: repro <experiment> [flags], one of:"
        );
        for e in EXPERIMENTS {
            eprintln!("  {} {}", e.name, usage(e.flags));
        }
        std::process::exit(2);
    };
    let args = parse_args_or_exit(&format!("repro {name}"), exp.flags, &argv[1..]);
    cffs_bench::wire_telemetry(&args);
    (exp.run)(&args);
}

#[cfg(test)]
mod tests {
    use super::{ALL, EXPERIMENTS};

    #[test]
    fn experiment_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.name != e.name), "{} listed twice", e.name);
        }
    }

    #[test]
    fn every_suite_step_names_an_experiment() {
        for (name, _) in ALL {
            assert!(
                EXPERIMENTS.iter().any(|e| e.name == *name),
                "`all` step {name} not in the table"
            );
        }
    }

    #[test]
    fn every_default_is_a_valid_value() {
        for e in EXPERIMENTS {
            for f in e.flags {
                let Some(default) = f.default else { continue };
                let argv = [f.name.to_string(), default.to_string()];
                cffs_bench::parse_args(e.flags, &argv)
                    .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            }
        }
    }
}
