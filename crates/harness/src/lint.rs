//! The drift lint: extracted IR vs self-description vs registered hooks.
//!
//! Each target crate ships two things this lint consumes: its
//! `describe_ir()` self-description and its `drift_allowlist()` of
//! deliberate, documented exceptions. The extractor recovers the same IR
//! straight from the target's Rust source, and [`run_lint`] diffs the
//! two (plus the generated hook plan) into a
//! [`wdog_gen::DriftReport`]. The `wdog-lint` binary renders the report
//! and exits 1 on any denied finding.
//!
//! [`run_analysis`] layers the deeper static passes on top of the same
//! extraction: the interprocedural call graph, lock-order deadlock
//! detection, the checker-safety lint, and the coverage-gap matrix
//! (cross-referenced against chaos-confirmed misses via
//! [`load_blind_spots`]). The `wdog-lint` binary archives the resulting
//! [`AnalysisBundle`] under `results/analysis/` and exits 1 on a
//! shared-mutation probe or a lock-order cycle.

use std::path::Path;

use serde::{Deserialize, Serialize};

use wdog_analyze::{
    analyze_locks, analyze_safety, compare, coverage_matrix, extract_target, target_named,
    BlindSpot, CallGraph, CallGraphSummary, CoverageMatrix, LockOrderReport, SafetyReport,
};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::ReductionConfig;
use wdog_gen::vulnerable::VulnerabilityRules;
use wdog_gen::{AllowEntry, DriftReport, ProgramIr};

/// One lintable target: the analyzer scope plus the target's own
/// description and allowlist hooks.
pub struct LintTarget {
    /// Target name (`kvs`, `minizk`, `miniblock`).
    pub name: &'static str,
    /// The target's `describe_ir`.
    pub describe: fn() -> ProgramIr,
    /// The target's documented drift exceptions.
    pub allow: fn() -> Vec<AllowEntry>,
}

/// All lintable targets.
pub fn lint_targets() -> Vec<LintTarget> {
    vec![
        LintTarget {
            name: "kvs",
            describe: kvs::wd::describe_ir,
            allow: kvs::wd::drift_allowlist,
        },
        LintTarget {
            name: "minizk",
            describe: minizk::wd::describe_ir,
            allow: minizk::wd::drift_allowlist,
        },
        LintTarget {
            name: "miniblock",
            describe: miniblock::wd::describe_ir,
            allow: miniblock::wd::drift_allowlist,
        },
    ]
}

/// Resolves a `--target` value to lint targets (`all` selects every one).
pub fn select_lint_targets(name: &str) -> Option<Vec<LintTarget>> {
    if name == "all" {
        return Some(lint_targets());
    }
    let selected: Vec<LintTarget> = lint_targets()
        .into_iter()
        .filter(|t| t.name == name)
        .collect();
    if selected.is_empty() {
        None
    } else {
        Some(selected)
    }
}

/// Extracts, compares, and allowlists one target.
pub fn run_lint(target: &LintTarget) -> std::io::Result<DriftReport> {
    let cfg = target_named(target.name)
        .unwrap_or_else(|| panic!("no analyzer scope registered for target {}", target.name));
    let extracted = extract_target(cfg)?;
    let described = (target.describe)();
    let plan = generate_plan(&described, &ReductionConfig::default());
    let mut report = compare(
        &described,
        &plan,
        &extracted,
        &VulnerabilityRules::default(),
    );
    report.apply_allowlist(&(target.allow)());
    Ok(report)
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

/// Runs the deep static-analysis passes for one target: extraction, call
/// graph, lock order, probe safety, and the coverage matrix against the
/// plan generated from the target's own self-description (so coverage
/// reflects the checkers that actually ship).
pub fn run_analysis(
    target: &LintTarget,
    blind_spots: &[BlindSpot],
) -> std::io::Result<AnalysisBundle> {
    let cfg = target_named(target.name)
        .unwrap_or_else(|| panic!("no analyzer scope registered for target {}", target.name));
    let extracted = extract_target(cfg)?;
    let described = (target.describe)();
    let plan = generate_plan(&described, &ReductionConfig::default());
    let graph = CallGraph::build(&extracted.ir);
    Ok(AnalysisBundle {
        target: target.name.to_owned(),
        callgraph: graph.summary(target.name),
        locks: analyze_locks(&extracted.ir, &graph),
        safety: analyze_safety(cfg)?,
        coverage: coverage_matrix(&extracted.ir, &plan, blind_spots),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_target_has_an_analyzer_scope() {
        for t in lint_targets() {
            assert!(
                target_named(t.name).is_some(),
                "no TargetConfig for {}",
                t.name
            );
        }
    }

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

    #[test]
    fn merged_tree_is_drift_clean() {
        for t in lint_targets() {
            let report = run_lint(&t).expect("extraction reads workspace sources");
            assert!(
                report.is_clean(),
                "{} drifted:\n{}",
                t.name,
                wdog_gen::pretty::render_drift(&report)
            );
            assert!(report.matched_ops > 0, "{} matched nothing", t.name);
        }
    }
}
