//! The docs cite the benchmark contract, and only it.
//!
//! `BENCHMARK.json` is the one list of what this repository measures.
//! Prose that names a layer metric the contract does not have, or a
//! measuring tool that was deleted in favour of the benchmark, has drifted.

use std::collections::BTreeSet;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Instruments `benchmark/` superseded, and mechanisms deleted because
/// another one already answered their question (the gate flags and the
/// real-clock scan gave way to archive comparison and clippy, the runtime's
/// telemetry copies to the typed records they copied, settings nothing
/// varied to constants, counters nothing read, the key-level drift lint
/// and its allowlists to the coverage matrix's region-by-region gate,
/// that gate's hand-written descriptions to the IR extracted from source,
/// the IR flags, dedup switches and directives that extraction made
/// redundant to reachability and one dedup switch, the coverage matrix
/// itself to the reducer's record of what each checker covers, the probe
/// and signal checker structs to constructor functions returning
/// `FnChecker`, and the health board nothing read to the report log);
/// neither docs nor CI may lean on them.
const RETIRED: [&str; 89] = [
    "wdog-load",
    "cargo bench",
    "--bench-guard",
    "load_baseline",
    "results/load",
    "--bin wdog-telemetry",
    "KillHierarchy",
    "DetectionTracker",
    "arm_fault",
    "ImpactGatedAction",
    "checker_dispatch_delay_ms",
    "Bug2201",
    "bug2201",
    "HeartbeatProber",
    "zk_gray_failure",
    "FlightRecorder",
    "FlightEvent",
    "flight_dropped",
    "GaugeEntry",
    "with_flight_capacity",
    "--deny-drift",
    "--deny-real-clock",
    "--deny-coverage-regression",
    "--require-detected",
    "--require-clean-benign",
    "--require-invariants",
    "--require-flips",
    "--require-verified",
    "--coverage-out",
    "real_clock.json",
    "attach_telemetry",
    "validate_snapshot",
    "to_prometheus",
    "observe_report",
    "hook_fires_total",
    "flush_threshold_bytes",
    "EmitConfig",
    "LoadChecker",
    "write_chaos_json",
    "shrink_budget",
    "max_reproducers",
    "max_rescore",
    "FaultSurface::FULL",
    "FaultSurface::SUBSTRATE",
    "op_start",
    "op_end",
    "inflight_ops",
    "completed_ops",
    "peak_memory_bytes",
    "pongs_sent",
    "syncs_completed",
    "repl_sent",
    "pipeline_cap",
    "heartbeat_interval",
    "report_interval",
    "scan_interval",
    "drift_allowlist",
    "DriftReport",
    "AllowEntry",
    "render_drift",
    "drift-all.json",
    "DescribedOp",
    "HookCoverage",
    "not_described",
    "not_in_source",
    "class_counts",
    "in_loop",
    "init_only",
    "call_in_loop",
    "total_ops",
    "dedupe_similar",
    "global_reduction",
    "replica_annotation",
    "wdog: region",
    "wdog: replica",
    "coverage_matrix",
    "CoverageMatrix",
    "CoverageStatus",
    "BlindSpot",
    "load_blind_spots",
    "stuck_coverage",
    "CallGraphSummary",
    "ProbeChecker",
    "MemoryWatermarkChecker",
    "QueueDepthChecker",
    "SleepDriftChecker",
    "DiskSpaceChecker",
    "HealthBoard",
    "ComponentHealth",
];

const FILE_SUFFIXES: [&str; 5] = [".rs", ".json", ".toml", ".sh", ".md"];

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn per_layer_names() -> BTreeSet<String> {
    let contract: serde_json::Value =
        serde_json::from_str(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    contract
        .as_object()
        .and_then(|o| o.get("per_layer"))
        .and_then(|v| v.as_array())
        .expect("BENCHMARK.json has a per_layer array")
        .iter()
        .map(|m| {
            m.as_object()
                .and_then(|o| o.get("name"))
                .and_then(|n| n.as_str())
                .expect("every per_layer entry has a name")
                .to_owned()
        })
        .collect()
}

/// The inline-code spans of a markdown text (fenced blocks excluded).
fn backticked(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

#[test]
fn layer_metrics_named_in_docs_exist_in_the_contract() {
    let names = per_layer_names();
    let layers: BTreeSet<&str> = names.iter().filter_map(|n| n.split('.').next()).collect();

    let mut cited = 0;
    let mut unknown = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for token in backticked(&text) {
            let cites_a_layer = token
                .split_once('.')
                .is_some_and(|(layer, _)| layers.contains(layer));
            let is_pattern = token.contains(['*', '<', '{']);
            let is_file = FILE_SUFFIXES.iter().any(|s| token.ends_with(s));
            if cites_a_layer && !is_pattern && !is_file {
                cited += 1;
                if !names.contains(token) {
                    unknown.push(format!("{doc}: `{token}`"));
                }
            }
        }
    }
    assert!(cited > 0, "the docs cite no layer metric at all");
    assert!(
        unknown.is_empty(),
        "docs name layer metrics BENCHMARK.json does not list: {unknown:#?}"
    );
}

#[test]
fn retired_instruments_are_not_mentioned() {
    let mut stale = Vec::new();
    for file in DOCS.into_iter().chain(["scripts/ci.sh"]) {
        let text = read(file);
        for word in RETIRED {
            if text.contains(word) {
                stale.push(format!("{file}: {word}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "superseded instruments still cited: {stale:#?}"
    );
}
