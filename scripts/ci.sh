#!/usr/bin/env bash
# Full local CI gate: formatting, lints, build, every campaign against its
# archive under results/, and the complete test suite.
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

# `stage NAME` opens a stage: it closes the open one, printing its wall
# seconds, then prints NAME as a `==>` header. A bare `stage` only closes,
# so the log carries each stage's cost, a failed one's included.
stage_name=""
stage_start=0
stage() {
    if [ -n "$stage_name" ]; then
        echo "<== $((SECONDS - stage_start)) s: $stage_name"
    fi
    stage_name="${1:-}"
    stage_start=$SECONDS
    if [ -n "$stage_name" ]; then
        echo "==> $stage_name"
    fi
}
trap stage EXIT

replay_corpus() {
    stage "chaos regression corpus: every archived reproducer reruns to its recorded verdict (sim, first attempt)"
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

# Every campaign here is a pure function of (target, seed), so the archive
# under results/ is its own regression gate: `gate RUNS "ARTIFACTS" BIN ARGS...`
# runs the harness binary BIN RUNS times, each into its own scratch dir, and
# requires every artifact (a path under the --out dir; a directory compares
# whole) to be byte-identical between the runs and to its copy under
# results/. The scratch dirs persist across gates, so a later campaign can
# read an earlier one's fresh output. CI never writes under results/.
scratch="$(mktemp -d)"
trap 'stage; rm -rf "$scratch"' EXIT
# `same OLD NEW` is silent when they are equal; otherwise it prints the
# first 80 lines of their diff, so the log shows which rows moved.
same() {
    local out
    out="$(diff -ru "$1" "$2")" && return 0
    head -n 80 <<<"$out"
    return 1
}
gate() {
    local runs=$1 artifacts=$2 bin=$3
    shift 3
    local cmd="cargo run --release -p harness --bin $bin${*:+ -- $*}" i a
    stage "$bin${*:+ $*}: ${runs}x, equal to results/{${artifacts// /,}}"
    for ((i = 1; i <= runs; i++)); do
        cargo run --offline -q --release -p harness --bin "$bin" -- "$@" --out "$scratch/run$i" >/dev/null
    done
    for a in $artifacts; do
        if [ "$runs" -gt 1 ] && ! same "$scratch/run1/$a" "$scratch/run$runs/$a"; then
            echo "$bin: $a diverged between consecutive runs — nondeterminism bug"
            exit 1
        fi
        if ! same "results/$a" "$scratch/run$runs/$a"; then
            echo "$bin: $a differs from results/$a — rerun \`$cmd\` and commit"
            exit 1
        fi
    done
}

if [ "${1:-}" = "--replay" ]; then
    replay_corpus
    stage
    echo "REPLAY OK"
    exit 0
fi

stage "no stale error sidecars tracked in git"
# Campaign bins delete their results/<name>.err sidecar on success, so a
# tracked one is a fossil of a failed run that was committed by accident.
if git ls-files -- 'results/*.err' 'results/**/*.err' | grep -q .; then
    echo "tracked .err sidecars found — rerun the campaign (bins clear them on success) or git rm:"
    git ls-files -- 'results/*.err' 'results/**/*.err'
    exit 1
fi

# Informational only: the non-test line count under crates/, by the one
# rule in scripts/count_lines.sh. It gates nothing.
stage "non-test lines under crates/ (informational)"
echo "    $(scripts/count_lines.sh)"

stage "cargo fmt --check"
cargo fmt --check

# Clippy is also the real-clock gate: crates/clippy.toml disallows raw
# Instant::now, SystemTime::now and thread::sleep in every crate under
# crates/ (shims excepted), and each sanctioned wall-time site carries an
# #[expect] with its reason — the virtual-time campaigns' determinism rests
# on every other sleep and deadline going through Clock.
stage "cargo clippy --workspace --all-targets -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

stage "cargo doc: no broken or ambiguous intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --offline --locked

# wdog-lint has two gates: it exits 1 on a shared-mutation probe or a
# lock-order cycle. Its archived lock and safety reports compare byte for
# byte, and tests/analyze_passes.rs reads the same
# results/analysis/locks_<t>.json, so a lock-order change also fails tier-1
# until `wdog-lint --target all` is rerun and its output committed.
gate 1 "analysis" wdog-lint --target all

# Program logic reduction (Figures 2-3) is a pure function of the three
# targets' source.
gate 1 "reduction.json reduction.txt" reduction

# The paper's own tables. Every scenario is a one-fault schedule played by
# the one campaign run (harness::session::run) on a fresh SimClock, with the
# extrinsic detectors attached as clock actors, so Table 1 (E1) and Table 2
# (E2) are pure functions of (target, seed), virtual-millisecond latencies
# included.
# Both bins exit nonzero when the kvs table fails its paper-shape check.
# Table 2 runs once: its bursty control runs are most of this script's
# scenario time.
gate 2 "table1.json table1-minizk.json table1-miniblock.json table1.txt table1-minizk.txt table1-miniblock.txt" table1 --target all
gate 1 "table2.json table2-minizk.json table2-miniblock.json table2.txt table2-minizk.txt table2-miniblock.txt" table2 --target all

# E4 (ZOOKEEPER-2201) is one scenario-runner configuration over seeds 0-9.
gate 2 "zk2201.json zk2201.txt" zk2201

# E6: all three ablations run in virtual time, E6c's request latencies
# included.
gate 2 "ablations.json ablations.txt" ablations

# Recovery campaigns: the same campaign run with a recovery coordinator
# attached, one one-fault schedule per catalogue scenario. Every hop from a
# checker's verdict to the incident's close is a clock actor, so the whole
# catalogue on all three targets serializes byte-identically.
gate 2 "recovery.json recovery-minizk.json recovery-miniblock.json" wdog-recovery --target all

# The chaos sweep: 1000 schedules per target in virtual time, each target's
# sweep under --max-wall-ms (the old 50-schedule real-clock smoke's budget).
# The comparison covers the reports and every reproducer the sweep writes,
# so a stale or missing reproducer fails too. A benign schedule that fires
# a checker exits nonzero.
gate 2 "chaos" wdog-chaos --target all --seed 42 --schedules 1000 --max-wall-ms 170000

# Inference rescores the missed schedules of the fresh sweeps above (same
# scratch dirs): recording is virtual-time deterministic and everything
# downstream is a pure function of the journals.
gate 2 "inferred" wdog-infer --target all

replay_corpus

stage "tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test --offline -q

# The root package's integration tests already ran in tier-1.
stage "workspace crate tests"
cargo test --offline --workspace --exclude watchdogs -q

# benchmark/ is its own workspace, so nothing above compiles it: an API
# break under crates/ would otherwise first show when the benchmark runs.
# --locked: its Cargo.lock pins the dependency list of every crate it
# builds, so this also fails if one of their [dependencies] tables moved.
stage "benchmark workspace: build + tests against the current crates"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

# Run it too, on the workload that drives every target: wdog-bench exits
# nonzero on a failed request, a wrong value read back or a replay mismatch.
stage "benchmark workspace: one short gray-sim run"
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
    --workload gray-sim --seconds 5 --trace 0
# gray-sim's request phase is minizk, so drive kvs's real-clock request path
# too, every read checked against the value written.
stage "benchmark workspace: one short kvs-read run"
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
    --workload kvs-read --seed 42 --seconds 5 --trace 0
# gray-sim runs miniblock only under the sim clock: drive its armed
# block writes and reads, and the disk mimics beside them, on the real one.
stage "benchmark workspace: one short miniblock-rw run"
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
    --workload miniblock-rw --seed 42 --seconds 5 --trace 0

# The six sim metrics (detection, blame, benign cleanliness, detection
# latency, recovery, MTTR) come from virtual-time campaigns that take no run
# length: every workload on seeds 1-10 must reproduce the newest archived
# BENCH_<n>.json run for run, so a change that moves them on any seed fails
# here and not first in the benchmark.
stage "benchmark workspace: sim metrics equal the newest BENCH_<n>.json on seeds 1-10"
python3 scripts/sim_metrics.py

# Nothing above may touch the archive or the test fixtures.
stage "results/ and tests/ untouched"
if [ -n "$(git status --porcelain -- results tests)" ]; then
    echo "CI modified tracked archive or test files:"
    git status --porcelain -- results tests
    exit 1
fi

stage
echo "CI OK"
