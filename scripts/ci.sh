#!/usr/bin/env bash
# Full local CI gate: formatting, lints, build, and the complete test suite.
#
# Everything runs --offline: external dependencies are satisfied by the
# in-workspace shim crates (crates/shims/), so no registry access is needed
# or attempted.
#
# `scripts/ci.sh --replay` runs only the chaos regression corpus: every
# archived reproducer under tests/chaos_corpus/ must rerun to its recorded
# verdict (the blind spots chaos found stay pinned until a checker change
# legitimately flips them — at which point the corpus file is re-recorded).
# Replays run in virtual time like every campaign here, so the verdict is
# load-independent and a replay asserts byte-parity on the first attempt.
set -euo pipefail
cd "$(dirname "$0")/.."

replay_corpus() {
    echo "==> chaos regression corpus: every archived reproducer reruns to its recorded verdict (sim, first attempt)"
    local found=0
    for artifact in tests/chaos_corpus/*.json; do
        [ -e "$artifact" ] || continue
        found=1
        echo "    replaying $artifact"
        cargo run --offline -q --release -p harness --bin wdog-chaos -- --replay "$artifact"
    done
    if [ "$found" -eq 0 ]; then
        echo "    (corpus empty — nothing to replay)"
    fi
}

# Fails when a scenario the committed results/$1 closes as verified-recovered
# closes as anything else (or is missing) in the fresh campaign file $2.
recovery_not_downgraded() {
    git cat-file -e "HEAD:results/$1" 2>/dev/null || return 0
    git show "HEAD:results/$1" | python3 -c '
import json, sys
def dispositions(f):
    return {s["scenario"]: s["disposition"] for s in json.load(f)["scenarios"]}
old, new = dispositions(sys.stdin), dispositions(open(sys.argv[1]))
lost = [f"{k}: {d} -> " + new.get(k, "missing")
        for k, d in old.items() if d == "verified-recovered" and new.get(k) != d]
if lost:
    sys.exit("\n".join(lost))
' "$2"
}

if [ "${1:-}" = "--replay" ]; then
    replay_corpus
    echo "REPLAY OK"
    exit 0
fi

echo "==> no stale error sidecars tracked in git"
# Campaign bins delete their results/<name>.err sidecar on success, so a
# tracked one is a fossil of a failed run that was committed by accident.
if git ls-files -- 'results/*.err' 'results/**/*.err' | grep -q .; then
    echo "tracked .err sidecars found — rerun the campaign (bins clear them on success) or git rm:"
    git ls-files -- 'results/*.err' 'results/**/*.err'
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> wdog-lint --target all --deny-drift + analysis gates"
# --deny-coverage-regression diffs against the archived
# results/analysis/coverage_<target>.json and fails on newly uncovered
# vulnerable ops; the refreshed artifacts are written back in place.
# --deny-real-clock keeps production code off raw time calls — the
# virtual-time substrate's determinism rests on every sleep and deadline
# going through Clock.
cargo run --offline -q -p harness --bin wdog-lint -- --target all --deny-drift \
    --deny-unsafe-checker --deny-deadlock-cycle --deny-coverage-regression \
    --deny-real-clock

# Program logic reduction (Figures 2-3) is a pure function of the three
# targets' IR: the archived table must come out byte for byte.
echo "==> reduction: regenerates results/reduction.json byte-identically"
red="$(mktemp -d)"
cargo run --offline -q -p harness --bin reduction -- --out "$red" >/dev/null
if ! cmp -s "$red/reduction.json" results/reduction.json; then
    echo "reduction: output differs from results/reduction.json — the IR or the reducer changed; rerun 'reduction' and commit the table"
    exit 1
fi
rm -rf "$red"

# The paper's own tables. Every scenario run is on a fresh SimClock with the
# extrinsic detectors as clock actors, so Table 1 (E1) and Table 2 (E2) are
# pure functions of (target, seed), virtual-millisecond latencies included:
# consecutive runs must agree byte for byte with each other and with the
# archive. Telemetry sidecars land in the scratch dirs and are not compared
# (hook fire latencies are wall time by design), but both bins exit nonzero
# when a target's sidecar fails the telemetry schema — the check the old
# kvs-only telemetry smoke made.
echo "==> table1 --target all: twice, byte-identical, equal to results/table1*.json"
t1a="$(mktemp -d)"
t1b="$(mktemp -d)"
for d in "$t1a" "$t1b"; do
    cargo run --offline -q --release -p harness --bin table1 -- --target all --out "$d" >/dev/null
done
for f in table1 table1-minizk table1-miniblock; do
    if ! cmp -s "$t1a/$f.json" "$t1b/$f.json"; then
        echo "table1 [$f]: results diverged between consecutive runs — nondeterminism bug"
        exit 1
    fi
    if ! cmp -s "$t1b/$f.json" "results/$f.json"; then
        echo "table1 [$f]: output differs from results/$f.json — rerun 'table1 --target all' and commit the tables with EXPERIMENTS E1"
        exit 1
    fi
done
rm -rf "$t1a" "$t1b"

# One run only: 3 families x (gray catalogue + 3 bursty control runs) x 3
# targets is most of this script's scenario time, nearly all of it the
# bursty control runs' context switching.
echo "==> table2 --target all: equal to results/table2*.json"
t2="$(mktemp -d)"
cargo run --offline -q --release -p harness --bin table2 -- --target all --out "$t2" >/dev/null
for f in table2 table2-minizk table2-miniblock; do
    if ! cmp -s "$t2/$f.json" "results/$f.json"; then
        echo "table2 [$f]: output differs from results/$f.json — rerun 'table2 --target all' and commit the tables with EXPERIMENTS E2"
        exit 1
    fi
done
rm -rf "$t2"

# E4 (ZOOKEEPER-2201) is one scenario-runner configuration over seeds 0-9,
# each on a fresh SimClock: the same byte-for-byte contract as Table 1.
echo "==> zk2201: twice, byte-identical, equal to results/zk2201.json"
zka="$(mktemp -d)"
zkb="$(mktemp -d)"
for d in "$zka" "$zkb"; do
    cargo run --offline -q --release -p harness --bin zk2201 -- --out "$d" >/dev/null
done
if ! cmp -s "$zka/zk2201.json" "$zkb/zk2201.json"; then
    echo "zk2201: results diverged between consecutive runs — nondeterminism bug"
    exit 1
fi
if ! cmp -s "$zkb/zk2201.json" results/zk2201.json; then
    echo "zk2201: output differs from results/zk2201.json — rerun 'zk2201' and commit it with EXPERIMENTS E4"
    exit 1
fi
rm -rf "$zka" "$zkb"

# E6 is gated on its shape check, not cmp: E6a and E6b reproduce to the
# digit, but E6c compares request latencies in wall time — its measurand —
# so results/ablations.json differs in those three numbers on every run.
echo "==> ablations: shape check"
abl="$(mktemp -d)"
abl_out="$(cargo run --offline -q --release -p harness --bin ablations -- --out "$abl")"
if ! grep -q '^shape check: OK' <<<"$abl_out"; then
    echo "$abl_out"
    echo "ablations: E6 shape check did not pass"
    exit 1
fi
rm -rf "$abl"

# Recovery campaigns are pure functions of (target, seed): every
# hop from a checker's verdict to the incident's close is a clock actor, so
# the whole catalogue on all three targets must serialize byte-identically
# on consecutive runs. Both runs write to scratch dirs (their telemetry
# snapshots carry wall-clock samples); the agreed campaigns then refresh
# the archived results/recovery*.json — unless a scenario the committed
# archive closes verified-recovered no longer does, which fails here instead
# of landing in the archive unnoticed. That check also covers the old kvs
# smoke (background-task-stuck and state-corruption are archived
# verified-recovered), which overwrote results/recovery.json mid-script.
echo "==> wdog-recovery --target all: full catalogue twice, campaigns byte-identical"
rec1="$(mktemp -d)"
rec2="$(mktemp -d)"
for d in "$rec1" "$rec2"; do
    cargo run --offline -q --release -p harness --bin wdog-recovery -- --target all --out "$d"
done
for f in recovery recovery-minizk recovery-miniblock; do
    if ! cmp -s "$rec1/$f.json" "$rec2/$f.json"; then
        echo "wdog-recovery [$f]: campaigns diverged between consecutive runs — nondeterminism bug"
        exit 1
    fi
    if ! recovery_not_downgraded "$f.json" "$rec2/$f.json"; then
        echo "wdog-recovery [$f]: scenarios archived as verified-recovered no longer are (above) — fix the regression, or commit the downgrade deliberately"
        exit 1
    fi
    cp "$rec2/$f.json" "results/$f.json"
done
rm -rf "$rec1" "$rec2"

# The chaos gate. The old real-clock smoke ran 50 schedules per target and
# cost 50 x (0.5s warmup + 2.5s horizon + 0.4s grace) = 170s of wall clock
# each. In virtual time the gate runs 1000 schedules per target — 20x the
# coverage — and --max-wall-ms 170000 asserts each sweep still comes in
# under the old 50-schedule budget. Each sweep runs twice
# and the archived reports must agree byte-for-byte on the first attempt:
# determinism by construction, not by contract.
for t in kvs minizk miniblock; do
    echo "==> chaos sweep [$t]: 1000 schedules, twice, byte-identical, under the old 50-schedule budget"
    cargo run --offline -q --release -p harness --bin wdog-chaos -- --target "$t" \
        --seed 42 --schedules 1000 --max-wall-ms 170000 \
        --require-detected 1 --require-clean-benign
    cp "results/chaos/chaos_$t.json" "results/chaos/chaos_$t.run1.json"
    cargo run --offline -q --release -p harness --bin wdog-chaos -- --target "$t" \
        --seed 42 --schedules 1000 --max-wall-ms 170000 \
        --require-detected 1 --require-clean-benign
    if ! cmp -s "results/chaos/chaos_$t.run1.json" "results/chaos/chaos_$t.json"; then
        echo "chaos sweep [$t]: reports diverged between consecutive runs — nondeterminism bug"
        exit 1
    fi
    rm -f "results/chaos/chaos_$t.run1.json"
done

# The inference gate rides on the chaos archive the sweeps above just
# refreshed. Two passes over every target: the first writes the corpus,
# the second re-records with per-target confidence floors — at least 10
# mined invariants everywhere, and on kvs/miniblock at least one archived
# missed fault verdict that the inferred checkers flip to detected
# (minizk's misses are all txn-log bit rot, invisible at the value level,
# so it gates on invariants only). The two corpora must agree
# byte-for-byte: recording is virtual-time deterministic and everything
# downstream is a pure function of the journals.
echo "==> wdog-infer gate: mine >=10 invariants per target, flip archived misses, byte-identical corpus"
cargo run --offline -q --release -p harness --bin wdog-infer -- --target all \
    --require-invariants 10
for t in kvs minizk miniblock; do
    cp "results/inferred/inferred_$t.json" "results/inferred/inferred_$t.run1.json"
done
cargo run --offline -q --release -p harness --bin wdog-infer -- --target kvs \
    --require-invariants 10 --require-flips 1
cargo run --offline -q --release -p harness --bin wdog-infer -- --target minizk \
    --require-invariants 10
cargo run --offline -q --release -p harness --bin wdog-infer -- --target miniblock \
    --require-invariants 10 --require-flips 1
for t in kvs minizk miniblock; do
    if ! cmp -s "results/inferred/inferred_$t.run1.json" "results/inferred/inferred_$t.json"; then
        echo "wdog-infer [$t]: corpus diverged between consecutive runs — nondeterminism bug"
        exit 1
    fi
    rm -f "results/inferred/inferred_$t.run1.json"
done

replay_corpus

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test --offline -q

# The root package's integration tests already ran in tier-1.
echo "==> workspace crate tests"
cargo test --offline --workspace --exclude watchdogs -q

# benchmark/ is its own workspace, so nothing above compiles it: an API
# break under crates/ would otherwise first show when the benchmark runs.
# --locked: its Cargo.lock pins the dependency list of every crate it
# builds, so this also fails if one of their [dependencies] tables moved.
echo "==> benchmark workspace: build + tests against the current crates"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "CI OK"
