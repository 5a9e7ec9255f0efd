//! The static analysis behind `wdog-lint`.
//!
//! The extractor recovers each target's IR straight from its Rust source —
//! the IR its `describe_ir()` returns, committed as
//! `tests/snapshots/<target>.json`. [`run_analysis`] runs every static pass
//! over one extraction: the interprocedural call graph, lock-order deadlock
//! detection, the checker-safety lint, and the coverage matrix of the plan
//! generated from that IR (cross-referenced against chaos-confirmed misses
//! via [`load_blind_spots`]). The `wdog-lint` binary archives the resulting
//! [`AnalysisBundle`] under `results/analysis/` and exits 1 on a
//! shared-mutation probe or a lock-order cycle.

use std::path::Path;

use serde::{Deserialize, Serialize};

use wdog_analyze::{
    analyze_locks, analyze_safety_model, coverage_matrix, extract_model, BlindSpot, CallGraph,
    CallGraphSummary, CoverageMatrix, LockOrderReport, SafetyReport, TargetConfig, TARGETS,
};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::ReductionConfig;

/// Resolves a `--target` value to analyzer scopes (`all` selects every
/// target).
pub fn select_lint_targets(name: &str) -> Option<Vec<&'static TargetConfig>> {
    let selected: Vec<&'static TargetConfig> = TARGETS
        .iter()
        .filter(|t| name == "all" || t.name == name)
        .collect();
    (!selected.is_empty()).then_some(selected)
}

/// The full static-analysis output for one target: call-graph shape,
/// lock-order report, checker-safety classification, and the coverage-gap
/// matrix. Serialized (deterministically) under `results/analysis/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisBundle {
    /// Target name.
    pub target: String,
    /// Call-graph shape the passes ran over.
    pub callgraph: CallGraphSummary,
    /// Lock acquisition orders and deadlock cycles.
    pub locks: LockOrderReport,
    /// Probe-body safety classes.
    pub safety: SafetyReport,
    /// Vulnerable-op × checker coverage.
    pub coverage: CoverageMatrix,
}

/// Reads archived chaos reproducers from `dir` (the regression corpus,
/// `tests/chaos_corpus/`) and returns the *missed* ones for `target` as blind
/// spots the coverage matrix cross-references. Reproducers of other targets
/// or verdicts are skipped; a missing directory yields an empty list, and a
/// file that is unreadable or does not parse as a reproducer is an error.
pub fn load_blind_spots(dir: &Path, target: &str) -> std::io::Result<Vec<BlindSpot>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();

    let mut spots = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let rep: crate::chaos::Reproducer = serde_json::from_str(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        if rep.target != target || rep.kind != "missed" {
            continue;
        }
        let faults = &rep.schedule.faults;
        let mut labels: Vec<&str> = faults.iter().map(|f| f.spec.kind.label()).collect();
        labels.dedup();
        let mut blames: Vec<String> = faults.iter().flat_map(|f| f.blames.clone()).collect();
        blames.sort();
        blames.dedup();
        spots.push(BlindSpot {
            id: rep.schedule.id.clone(),
            fault: labels.join("+"),
            blames,
            statically_flagged: false,
            evidence: Vec::new(),
        });
    }
    Ok(spots)
}

/// Runs the static-analysis passes for one target over its `sources` (as
/// [`wdog_analyze::extract::read_sources`] returns them): extraction, call
/// graph, lock order, probe safety, and the coverage matrix against the
/// default plan generated from the extracted IR — the checkers that ship.
pub fn run_analysis(
    cfg: &TargetConfig,
    sources: &[(String, String)],
    blind_spots: &[BlindSpot],
) -> AnalysisBundle {
    let extracted = extract_model(cfg.name, cfg.model(sources, true));
    let plan = generate_plan(&extracted.ir, &ReductionConfig::default());
    AnalysisBundle {
        target: cfg.name.to_owned(),
        callgraph: CallGraph::summary(&extracted.ir),
        locks: analyze_locks(&extracted.ir),
        safety: analyze_safety_model(cfg.name, &cfg.model(sources, false)),
        coverage: coverage_matrix(&extracted, &plan, blind_spots),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corpus_file_that_does_not_parse_is_an_error() {
        let dir = std::env::temp_dir().join(format!("harness-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A reproducer in an older schema: its faults carry no `blames`.
        let stale = r#"{"kind":"missed","target":"kvs","schedule":{"id":"chaos-1-000",
            "seed":1,"benign":false,"horizon":{"secs":2,"nanos":0},"faults":[{
            "scenario":"busy-loop","spec":{"name":"busy-loop#0","kind":{"TaskBusyLoop":
            {"toggle":"t"}},"start_after":{"secs":0,"nanos":0},"duration":null},
            "expected_class":"stuck","component_hint":"compact","benign":false}]},
            "verdict":"missed","shrink_steps":0,"shrink_evals":0}"#;
        std::fs::write(dir.join("chaos-1-000.kvs.missed.json"), stale).unwrap();
        let loaded = load_blind_spots(&dir, "kvs");
        std::fs::remove_dir_all(&dir).unwrap();
        let err = loaded.expect_err("a stale reproducer must not be skipped");
        assert!(err.to_string().contains("chaos-1-000"), "{err}");
    }
}
