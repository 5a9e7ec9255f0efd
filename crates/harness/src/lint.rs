//! The static analysis behind `wdog-lint`.
//!
//! Each target crate ships its `describe_ir()` self-description; the
//! extractor recovers the same IR straight from the target's Rust source.
//! [`run_analysis`] runs every static pass over one extraction: the
//! interprocedural call graph, lock-order deadlock detection, the
//! checker-safety lint, and the coverage matrix, which checks the plan
//! generated from the description against the source region by region
//! (cross-referenced against chaos-confirmed misses via
//! [`load_blind_spots`]). The `wdog-lint` binary archives the resulting
//! [`AnalysisBundle`] under `results/analysis/` and exits 1 on a coverage
//! violation, a shared-mutation probe or a lock-order cycle.

use std::path::Path;

use serde::{Deserialize, Serialize};

use wdog_analyze::extract::read_sources;
use wdog_analyze::{
    analyze_locks, analyze_safety_model, coverage_matrix, extract_model, target_named, BlindSpot,
    CallGraph, CallGraphSummary, CoverageMatrix, LockOrderReport, SafetyReport, TargetConfig,
};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::ReductionConfig;
use wdog_gen::ProgramIr;

/// One lintable target: the analyzer scope plus the target's own
/// description.
pub struct LintTarget {
    /// Target name (`kvs`, `minizk`, `miniblock`).
    pub name: &'static str,
    /// The target's `describe_ir`.
    pub describe: fn() -> ProgramIr,
}

/// All lintable targets.
pub fn lint_targets() -> Vec<LintTarget> {
    vec![
        LintTarget {
            name: "kvs",
            describe: kvs::wd::describe_ir,
        },
        LintTarget {
            name: "minizk",
            describe: minizk::wd::describe_ir,
        },
        LintTarget {
            name: "miniblock",
            describe: miniblock::wd::describe_ir,
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

impl LintTarget {
    /// The analyzer scope of this target.
    fn scope(&self) -> &'static TargetConfig {
        target_named(self.name)
            .unwrap_or_else(|| panic!("no analyzer scope registered for target {}", self.name))
    }

    /// Reads this target's crate sources, the input of [`run_analysis`].
    pub fn sources(&self) -> std::io::Result<Vec<(String, String)>> {
        read_sources(self.scope())
    }
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

/// Runs the static-analysis passes for one target over its `sources`:
/// extraction, call graph, lock order, probe safety, and the coverage
/// matrix against the default plan generated from the target's own
/// self-description (so coverage reflects the checkers that actually ship).
pub fn run_analysis(
    target: &LintTarget,
    sources: &[(String, String)],
    blind_spots: &[BlindSpot],
) -> AnalysisBundle {
    let cfg = target.scope();
    let extracted = extract_model(cfg.name, cfg.model(sources, true));
    let described = (target.describe)();
    let plan = generate_plan(&described, &ReductionConfig::default());
    let graph = CallGraph::build(&extracted.ir);
    AnalysisBundle {
        target: target.name.to_owned(),
        callgraph: graph.summary(target.name),
        locks: analyze_locks(&extracted.ir, &graph),
        safety: analyze_safety_model(cfg.name, &cfg.model(sources, false)),
        coverage: coverage_matrix(&extracted, &plan, blind_spots),
    }
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
    fn merged_tree_passes_the_coverage_gate() {
        for t in lint_targets() {
            let sources = t.sources().expect("workspace sources readable");
            let coverage = run_analysis(&t, &sources, &[]).coverage;
            assert_eq!(coverage.violations(), Vec::<String>::new(), "{}", t.name);
            let described = coverage.regions.iter().flat_map(|r| &r.described);
            assert!(described.count() > 0, "{} matched nothing", t.name);
        }
    }
}
