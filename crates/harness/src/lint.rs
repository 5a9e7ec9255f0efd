//! The static analysis behind `wdog-lint`.
//!
//! The extractor recovers each target's IR straight from its Rust source —
//! the IR its `describe_ir()` returns, committed as
//! `tests/snapshots/<target>.json`. [`run_analysis`] runs the gated pass
//! over one target: lock-order deadlock detection over the extraction. The
//! `wdog-lint` binary archives the resulting [`AnalysisBundle`] under
//! `results/analysis/` and exits 1 on a lock-order cycle. Checker
//! isolation is enforced at run time, not here (`wdog_base::isolation`).

use serde::{Deserialize, Serialize};

use wdog_analyze::{analyze_locks, extract_model, LockOrderReport, TargetConfig, TARGETS};

/// Resolves a `--target` value to analyzer scopes (`all` selects every
/// target).
pub fn select_lint_targets(name: &str) -> Option<Vec<&'static TargetConfig>> {
    let selected: Vec<&'static TargetConfig> = TARGETS
        .iter()
        .filter(|t| name == "all" || t.name == name)
        .collect();
    (!selected.is_empty()).then_some(selected)
}

/// The static-analysis output for one target: its lock-order report.
/// Serialized (deterministically) under `results/analysis/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisBundle {
    /// Target name.
    pub target: String,
    /// Lock acquisition orders and deadlock cycles.
    pub locks: LockOrderReport,
}

/// Runs the static-analysis passes for one target over its `sources` (as
/// [`wdog_analyze::extract::read_sources`] returns them): lock order over
/// the extracted IR.
pub fn run_analysis(cfg: &TargetConfig, sources: &[(String, String)]) -> AnalysisBundle {
    let extracted = extract_model(cfg.name, cfg.model(sources));
    AnalysisBundle {
        target: cfg.name.to_owned(),
        locks: analyze_locks(&extracted.ir),
    }
}
