//! Golden and property tests for the deep static-analysis passes.
//!
//! Three guarantees, layered:
//!
//! 1. **Archive** — the lock-order report for each target matches the
//!    archived `results/analysis/locks_<t>.json`. Any change to a target's
//!    source or to the lock pass shows up as a reviewable diff. Regenerate
//!    with `cargo run --release -p harness --bin wdog-lint -- --target all`.
//! 2. **Acceptance pins** — the lock graphs are cycle-free, and the whole
//!    bundle serializes byte-identically across repeated runs.
//! 3. **File-order stability** — extracting a target from its source
//!    files in reversed order yields the same callees for every function.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use harness::lint::{run_analysis, AnalysisBundle};
use wdog_analyze::extract::read_sources;
use wdog_analyze::{extract_model, target_named, TARGETS};

fn archive_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/analysis")
        .join(format!("{name}.json"))
}

fn bundles() -> Vec<AnalysisBundle> {
    TARGETS
        .iter()
        .map(|t| {
            let sources = read_sources(t).expect("workspace sources readable");
            run_analysis(t, &sources)
        })
        .collect()
}

const REGENERATE: &str = "cargo run --release -p harness --bin wdog-lint -- --target all";

fn check_archive(name: &str, rendered: String) {
    let path = archive_path(name);
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with `{REGENERATE}`",
            path.display()
        )
    });
    assert_eq!(
        committed,
        rendered,
        "analysis for `{name}` drifted from {}\n\
         review the change, then regenerate with `{REGENERATE}`",
        path.display()
    );
}

#[test]
fn coverage_and_lock_reports_match_committed_snapshots() {
    for b in bundles() {
        check_archive(
            &format!("locks_{}", b.target),
            serde_json::to_string_pretty(&b.locks).expect("lock report serializes"),
        );
    }
}

#[test]
fn analysis_bundles_are_byte_identical_across_runs() {
    let first: Vec<String> = bundles()
        .iter()
        .map(|b| serde_json::to_string(b).unwrap())
        .collect();
    let second: Vec<String> = bundles()
        .iter()
        .map(|b| serde_json::to_string(b).unwrap())
        .collect();
    assert_eq!(first, second, "analysis output varies run-to-run");
}

#[test]
fn shipped_lock_graphs_are_cycle_free() {
    for b in bundles() {
        assert!(
            b.locks.cycles.is_empty(),
            "{}: lock-order cycles: {:?}",
            b.target,
            b.locks.cycles
        );
    }
}

#[test]
fn extraction_callgraph_is_stable_under_file_order() {
    for t in ["kvs", "minizk", "miniblock"] {
        let cfg = target_named(t).expect("builtin target");
        let sources = read_sources(cfg).expect("workspace sources readable");
        let load = |sources: &[(String, String)]| -> BTreeMap<String, BTreeSet<String>> {
            let ir = extract_model(cfg.name, cfg.model(sources)).ir;
            ir.functions
                .values()
                .map(|f| {
                    (
                        f.name.clone(),
                        f.callees().into_iter().map(str::to_owned).collect(),
                    )
                })
                .collect()
        };

        let forward = load(&sources);
        let reversed: Vec<(String, String)> = sources.iter().rev().cloned().collect();
        assert_eq!(
            forward,
            load(&reversed),
            "{t}: call graph depends on source file ordering"
        );
    }
}
