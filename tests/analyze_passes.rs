//! Golden and property tests for the deep static-analysis passes.
//!
//! Four guarantees, layered:
//!
//! 1. **Archive** — the lock-order report for each target matches the
//!    archived `results/analysis/locks_<t>.json`. Any change to a target's
//!    source or to the lock pass shows up as a reviewable diff. Regenerate
//!    with `cargo run --release -p harness --bin wdog-lint -- --target all`.
//! 2. **Acceptance pins** — every shipped probe classifies as read-only or
//!    replica-write; the lock graphs are cycle-free; and the whole bundle
//!    serializes byte-identically across repeated runs.
//! 3. **File-order stability** — extracting a target from its source
//!    files in reversed order yields the identical call graph.
//! 4. **Properties** — on random call topologies (cycles included), call
//!    graph construction is insertion-order independent, the SCC
//!    partition covers every node exactly once, and the condensation is
//!    acyclic.

use std::collections::BTreeSet;
use std::path::PathBuf;

use proptest::prelude::*;

use harness::lint::{run_analysis, AnalysisBundle};
use wdog_analyze::extract::read_sources;
use wdog_analyze::{extract_model, target_named, CallGraph, TARGETS};
use wdog_gen::ir::ProgramBuilder;

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
fn every_shipped_probe_is_read_only_or_replica_write() {
    for b in bundles() {
        assert!(!b.safety.probes.is_empty(), "{}: no probes found", b.target);
        assert!(
            b.safety.is_safe(),
            "{}: shared-mutation probes: {:?}",
            b.target,
            b.safety.violations()
        );
    }
}

#[test]
fn shipped_lock_graphs_are_cycle_free() {
    for b in bundles() {
        assert!(
            b.locks.is_cycle_free(),
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
        let load = |sources: &[(String, String)]| {
            CallGraph::build(&extract_model(cfg.name, cfg.model(sources, true)).ir)
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

/// Builds an IR with functions `f0..fn` and the given call topology,
/// inserting functions in the order given by `insertion`.
fn topology_ir(n: usize, edges: &[Vec<usize>], insertion: &[usize]) -> wdog_gen::ProgramIr {
    let mut builder = ProgramBuilder::new("prop");
    for &i in insertion {
        let callees: BTreeSet<usize> = edges[i].iter().copied().filter(|&c| c < n).collect();
        builder = builder.function(format!("f{i}"), move |mut f| {
            if i == 0 {
                f = f.long_running();
            }
            for c in &callees {
                f = f.call(format!("f{c}"));
            }
            f
        });
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn callgraph_is_insertion_order_independent_and_scc_stable(
        n in 2..10usize,
        edges in proptest::collection::vec(proptest::collection::vec(0..10usize, 0..4), 10),
        keys in proptest::collection::vec(any::<u32>(), 10),
    ) {
        let forward: Vec<usize> = (0..n).collect();
        // A deterministic permutation derived from the random keys.
        let mut permuted = forward.clone();
        permuted.sort_by_key(|&i| (keys[i], i));

        let a = CallGraph::build(&topology_ir(n, &edges, &forward));
        let b = CallGraph::build(&topology_ir(n, &edges, &permuted));
        prop_assert_eq!(&a, &b, "construction depends on insertion order");

        // The SCC partition covers every node exactly once...
        let sccs = a.sccs();
        let mut seen = BTreeSet::new();
        for comp in &sccs {
            for m in comp {
                prop_assert!(seen.insert(m.clone()), "node {} in two SCCs", m);
            }
        }
        prop_assert_eq!(seen.len(), a.edges.len());
        // ... is itself stable across the permutation ...
        prop_assert_eq!(&sccs, &b.sccs());
        // ... and condenses to a DAG even when the graph has cycles.
        prop_assert!(a.condensation_is_acyclic());
        for comp in a.cyclic_sccs() {
            prop_assert!(
                comp.len() > 1 || a.edges[&comp[0]].contains(&comp[0]),
                "cyclic SCC without a cycle: {:?}",
                comp
            );
        }
    }
}
