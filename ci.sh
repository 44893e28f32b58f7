#!/bin/sh
# Offline CI gate: build, test, lint. No network access is assumed or
# required — the workspace has no external dependencies (rand/proptest are
# vendored path crates), so --offline must always succeed.
set -eu

cd "$(dirname "$0")"

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets --offline

echo "== test =="
cargo test --workspace --offline -q

echo "== test (release, 8 test threads: concurrency suite under real parallelism) =="
cargo test --release --workspace --offline -q -- --test-threads=8

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== perfbench build (own workspace; implements ConcurrentFs) =="
# The benchmark package sits outside the workspace, so the steps above
# never compile it; a trait change could break it while they stay green.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== bench smoke (repro smallfile, aging_regroup, concurrent, namei, volume, diskreqs; reduced scale) =="
# The release build above produced the one experiment binary.
REPRO=target/release/repro
BENCH_TMP=$(mktemp -d)
# Feed and flight recorder armed together: both sinks share one producer.
BENCH_OUT_DIR="$BENCH_TMP/out" $REPRO smallfile --files 60 --dirs 3 --mode sync --seed 1997 \
    --feed "$BENCH_TMP/feed_smallfile.jsonl" --flight "$BENCH_TMP/flight" > /dev/null
BENCH_OUT_DIR="$BENCH_TMP/out" $REPRO aging_regroup --feed "$BENCH_TMP/feed.jsonl" > /dev/null
# Reduced scale must match the checked-in BENCH_CONCURRENT baseline
# invocation exactly (the scaling ratio is scale-sensitive).
BENCH_OUT_DIR="$BENCH_TMP/out" $REPRO concurrent --dirs 2 --files 12 --rounds 8 > /dev/null
# Reduced scale must match the checked-in BENCH_NAMEI baseline invocation
# exactly. Keep --files at 256: the p99 speedup the gate enforces needs
# multi-block leaf directories to measure anything.
BENCH_OUT_DIR="$BENCH_TMP/out" $REPRO namei --branches 4 --dirs 4 --files 256 --sample 1024 \
    --rounds 3 > /dev/null
# Reduced scale must match the checked-in BENCH_VOLUME baseline invocation
# exactly (the volume scaling ratio is scale-sensitive). Records a live
# per-volume feed for the schema smoke below.
BENCH_OUT_DIR="$BENCH_TMP/out" $REPRO volume --seed 1997 --sessions 480 --dirs 64 --files 16 \
    --ops 6 --threads 4 --feed "$BENCH_TMP/feed_volume.jsonl" > /dev/null
# E8 (disk-request accounting, read from the phase counter deltas): every
# claim line must be reported; its BENCH_DISKREQS.json joins the schema
# check below.
BENCH_OUT_DIR="$BENCH_TMP/out" $REPRO diskreqs --files 1000 > "$BENCH_TMP/diskreqs.txt"
for claim in 'read-phase disk requests:' 'sync writes per create:' \
    'delete throughput:' 'blocks dirtied during delete:'; do
    grep -q -- "^- $claim" "$BENCH_TMP/diskreqs.txt" \
        || { echo "repro diskreqs report lacks claim line: $claim"; exit 1; }
done
# Malformed input is rejected, not run at some other scale: a typo for
# --files must exit 2 (usage error) and write nothing.
status=0
BENCH_OUT_DIR="$BENCH_TMP/typo" $REPRO smallfile --file 60 > /dev/null 2>&1 || status=$?
test "$status" -eq 2 \
    || { echo "repro smallfile --file 60 exited $status, expected 2"; exit 1; }
test ! -e "$BENCH_TMP/typo" || { echo "rejected repro run wrote output"; exit 1; }
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    "$BENCH_TMP"/out/BENCH_*.json

echo "== telemetry feed smoke (record schema + cffs-top headless replay and follow) =="
# The aging_regroup smoke above recorded a live feed; every record must
# validate, and the dashboard must replay it headless.
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    --feed "$BENCH_TMP/feed.jsonl"
# The smallfile smoke's feed was cut alongside its flight recorder.
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    --feed "$BENCH_TMP/feed_smallfile.jsonl"
# The repro volume smoke recorded a feed with per-volume rows; every
# frame (including its volumes array) must validate too.
cargo run --release --offline -p cffs-bench --bin bench_schema_check -- \
    --feed "$BENCH_TMP/feed_volume.jsonl"
cargo run --release --offline --bin cffs-top -- \
    --replay "$BENCH_TMP/feed.jsonl" --headless --frames 5 \
    | grep -q '^rendered 5 frames$' \
    || { echo "cffs-top headless replay smoke failed"; exit 1; }
# The follow path reads appended whole lines; on a finished feed it must
# render the first frames just as the replay does.
cargo run --release --offline --bin cffs-top -- \
    --follow "$BENCH_TMP/feed.jsonl" --headless --frames 5 \
    | grep -q '^rendered 5 frames$' \
    || { echo "cffs-top headless follow smoke failed"; exit 1; }

echo "== flight recorder + postmortem smoke (black box, fault injection) =="
# The smallfile smoke above armed a black box (next to its feed); its
# finished run must have left a schema-valid dump whose last frame
# matches the final counter snapshot (the postmortem's consistency check).
for dump in "$BENCH_TMP"/flight/FLIGHT_*.jsonl; do
    cargo run --release --offline --bin cffs-inspect -- postmortem "$dump" \
        | grep -q 'internally consistent' \
        || { echo "postmortem of $dump not consistent"; exit 1; }
done
# Fault injection: corrupt an image under an armed recorder; the unclean
# fsck verdict must flush the black box with reason fsck_failure, and the
# postmortem of that dump must carry a non-empty diagnosis.
cargo run --release --offline -p cffs-bench --bin flight_fault_smoke -- \
    --flight "$BENCH_TMP/flight_fault" > /dev/null
cargo run --release --offline --bin cffs-inspect -- postmortem \
    "$BENCH_TMP"/flight_fault/FLIGHT_*.jsonl > "$BENCH_TMP/postmortem.txt"
grep -q 'reason: fsck_failure' "$BENCH_TMP/postmortem.txt" \
    || { echo "fault-injected dump did not capture the fsck failure"; exit 1; }
grep -q '^  - ' "$BENCH_TMP/postmortem.txt" \
    || { echo "postmortem produced an empty diagnosis"; exit 1; }

echo "== cffs-inspect diff (deterministic regression attribution) =="
# Byte-determinism on the checked-in baselines: two invocations of the
# same comparison must agree exactly.
cargo run --release --offline --bin cffs-inspect -- diff --json \
    crates/bench/baselines/BENCH_SMALLFILE_SYNC.json \
    crates/bench/baselines/BENCH_AGING_REGROUP.json > "$BENCH_TMP/diff_a.json"
cargo run --release --offline --bin cffs-inspect -- diff --json \
    crates/bench/baselines/BENCH_SMALLFILE_SYNC.json \
    crates/bench/baselines/BENCH_AGING_REGROUP.json > "$BENCH_TMP/diff_b.json"
cmp -s "$BENCH_TMP/diff_a.json" "$BENCH_TMP/diff_b.json" \
    || { echo "cffs-inspect diff is not deterministic"; exit 1; }
# Attribution: a perturbed smallfile run (different scale, same rows)
# against the ci run must attribute at least one moved metric.
BENCH_OUT_DIR="$BENCH_TMP/out2" $REPRO smallfile --files 72 --dirs 3 --mode sync --seed 1997 \
    > /dev/null
cargo run --release --offline --bin cffs-inspect -- diff --json \
    "$BENCH_TMP/out/BENCH_SMALLFILE_SYNC.json" \
    "$BENCH_TMP/out2/BENCH_SMALLFILE_SYNC.json" > "$BENCH_TMP/diff_c.json"
grep -q '"total_attributions": 0,' "$BENCH_TMP/diff_c.json" \
    && { echo "diff of two different-scale runs attributed nothing"; exit 1; }

echo "== profiler smoke (flamegraph fold + smallfile FOLD artifact) =="
# The fold must be non-empty, every line must be `stack weight`, and the
# smallfile smoke above must have left a per-phase FOLD artifact behind.
FOLD="$BENCH_TMP/fold.txt"
cargo run --release --offline --bin cffs-inspect -- flamegraph --demo > "$FOLD"
awk 'BEGIN { n = 0 }
     !/^[^ ]+ [0-9]+$/ { print "malformed fold line: " $0; exit 1 }
     { n += 1 }
     END { if (n == 0) { print "empty fold"; exit 1 } }' "$FOLD"
awk 'BEGIN { n = 0 }
     !/^[^ ]+ [0-9]+$/ { print "malformed fold line: " $0; exit 1 }
     { n += 1 }
     END { if (n == 0) { print "empty fold"; exit 1 } }' \
    "$BENCH_TMP/out/FOLD_SMALLFILE_SYNC.txt"
cargo run --release --offline --bin cffs-inspect -- flamegraph --svg-ready --demo \
    | grep -q '^<svg ' || { echo "flamegraph --svg-ready did not emit SVG"; exit 1; }

echo "== bench perf gate (p90 latency + group-fetch utilization vs baselines) =="
# Simulated time is deterministic, so unchanged code reproduces the
# single-threaded baselines exactly; the band absorbs small intentional
# shifts and the threaded runs' scheduling noise. Refresh the five
# baselines with the smoke invocations above, telemetry flags dropped:
#   B=crates/bench/baselines
#   BENCH_OUT_DIR=$B target/release/repro smallfile --files 60 --dirs 3 --mode sync --seed 1997
#   rm $B/FOLD_SMALLFILE_SYNC.txt
#   BENCH_OUT_DIR=$B target/release/repro aging_regroup
#   BENCH_OUT_DIR=$B target/release/repro concurrent --dirs 2 --files 12 --rounds 8
#   BENCH_OUT_DIR=$B target/release/repro namei --branches 4 --dirs 4 --files 256 --sample 1024 --rounds 3
#   BENCH_OUT_DIR=$B target/release/repro volume --seed 1997 --sessions 480 --dirs 64 --files 16 --ops 6 --threads 4
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_SMALLFILE_SYNC.json" \
    crates/bench/baselines/BENCH_SMALLFILE_SYNC.json --tolerance-pct 25
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_AGING_REGROUP.json" \
    crates/bench/baselines/BENCH_AGING_REGROUP.json --tolerance-pct 25
# Concurrent scaling: relative band vs baseline plus the absolute
# >= 2.5x acceptance floor enforced inside bench_gate.
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_CONCURRENT.json" \
    crates/bench/baselines/BENCH_CONCURRENT.json --tolerance-pct 25
# Namei: relative band vs baseline plus the absolute >= 0.90 warm hit
# rate and >= 5x p99 speedup floors enforced inside bench_gate.
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_NAMEI.json" \
    crates/bench/baselines/BENCH_NAMEI.json --tolerance-pct 25
# Volume scaling: relative band vs baseline plus the absolute >= 3.0x
# 4-volume acceptance floor enforced inside bench_gate.
cargo run --release --offline -p cffs-bench --bin bench_gate -- \
    "$BENCH_TMP/out/BENCH_VOLUME.json" \
    crates/bench/baselines/BENCH_VOLUME.json --tolerance-pct 25
# Every gate run above must have left its machine-readable verdict next
# to the payload it judged.
for name in SMALLFILE_SYNC AGING_REGROUP CONCURRENT NAMEI VOLUME; do
    test -s "$BENCH_TMP/out/GATE_REPORT_BENCH_$name.json" \
        || { echo "bench_gate left no GATE_REPORT for $name"; exit 1; }
done
rm -rf "$BENCH_TMP"

echo "== ci.sh: all green =="
