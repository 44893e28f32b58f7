//! The `repro` binary end to end: a good invocation writes its BENCH
//! payload, malformed input exits 2 without running anything, and every
//! `repro <name>` the docs mention names a real experiment.

use std::path::{Path, PathBuf};
use std::process::Output;

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(out: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("BENCH_OUT_DIR", out)
        .current_dir(out)
        .output()
        .expect("spawn repro")
}

fn bench_files(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
    names.map(|n| n.to_string_lossy().into_owned()).filter(|n| n.starts_with("BENCH_")).collect()
}

/// The experiment names `repro` lists when given an unknown one, run in
/// the output directory `case` (one per test: tests run in parallel).
fn experiment_names(case: &str) -> Vec<String> {
    let out = repro(&out_dir(case), &["nosuch"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    let listed = stderr.lines().filter_map(|l| l.strip_prefix("  "));
    listed.map(|l| l.split(' ').next().unwrap().to_string()).collect()
}

#[test]
fn table1_writes_its_payload() {
    let dir = out_dir("table1");
    let out = repro(&dir, &["table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(bench_files(&dir), ["BENCH_TABLE1.json"]);
}

#[test]
fn malformed_input_exits_2_and_writes_nothing() {
    for (case, args) in [
        ("typo", &["smallfile", "--file", "60"][..]),
        ("mode", &["smallfile", "--mode", "sycn"]),
        ("number", &["fig2", "--samples", "many"]),
        ("unknown", &["nosuch"]),
        ("none", &[]),
    ] {
        let dir = out_dir(case);
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"), "{args:?}");
        assert!(bench_files(&dir).is_empty(), "{args:?} wrote a payload");
    }
}

#[test]
fn unknown_experiment_lists_the_table() {
    let names = experiment_names("list");
    for name in ["table1", "smallfile", "volume", "soak", "all"] {
        assert!(names.iter().any(|n| n == name), "{name} missing from {names:?}");
    }
}

#[test]
fn docs_name_only_real_experiments() {
    let names = experiment_names("docs");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        assert!(!text.contains("repro_"), "{doc} still names a repro_<x> binary");
        for (i, _) in text.match_indices("repro ") {
            if text[..i].ends_with(|c: char| c.is_alphanumeric()) {
                continue;
            }
            let rest = &text[i + "repro ".len()..];
            let word: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if !word.is_empty() {
                assert!(names.contains(&word), "{doc}: `repro {word}` is not an experiment");
            }
        }
    }
}
