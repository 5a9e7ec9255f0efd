//! Experiment E3b — Figures 2 and 3: program logic reduction, rendered and
//! measured.
//!
//! AutoWatchdog's §4.2 claim is that it generates "tens of checkers" per
//! real system by reducing each long-running region to its vulnerable
//! operations. This experiment runs the full pipeline over the IR each
//! target extracts from its own source, prints the Figure 2-style keep/drop
//! listing for the minizk snapshot region (the paper's own example) and the
//! Figure 3-style generated checker, and tabulates the reduction statistics
//! — including the dedup ablation (E6c).

use serde::{Deserialize, Serialize};

use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::pretty::{render_checker, render_region, render_summary};
use wdog_gen::reduce::ReductionConfig;

use crate::fmt::Table;

/// Reduction statistics for one program under one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramReductionStats {
    /// Program name.
    pub program: String,
    /// Configuration label (`full`, `no-dedup`).
    pub config: String,
    /// Functions in the IR.
    pub functions: usize,
    /// Long-running regions.
    pub regions: usize,
    /// Total non-call ops.
    pub ops_total: usize,
    /// Vulnerable ops inside regions.
    pub ops_vulnerable: usize,
    /// Ops retained into checkers.
    pub ops_retained: usize,
    /// Generated checkers.
    pub checkers: usize,
    /// Fraction of all ops retained.
    pub retention: f64,
}

/// A vulnerable op that reduction dropped because another region's
/// checker keeps a similar one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoveredOp {
    /// Program name.
    pub program: String,
    /// The checker that covers the op.
    pub checker: String,
    /// The dropped op, `function#op`.
    pub op: String,
    /// The region the dropped op belongs to.
    pub region: String,
    /// The kept op that covers it.
    pub covered_by: String,
}

/// The full E3b result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReductionResult {
    /// One row per (program, config).
    pub stats: Vec<ProgramReductionStats>,
    /// The Figure 2-style listing for minizk's snapshot region.
    pub figure2: String,
    /// The Figure 3-style generated checker for that region.
    pub figure3: String,
    /// What each shipped checker covers for another region, per program.
    pub covered: Vec<CoveredOp>,
}

fn stats_for(ir: &ProgramIr, config: &ReductionConfig, label: &str) -> ProgramReductionStats {
    let plan = generate_plan(ir, config);
    let s = plan.reduced.stats;
    ProgramReductionStats {
        program: ir.name.clone(),
        config: label.to_owned(),
        functions: s.functions_total,
        regions: s.regions,
        ops_total: s.ops_total,
        ops_vulnerable: s.ops_vulnerable,
        ops_retained: s.ops_retained,
        checkers: plan.checkers.len(),
        retention: s.retention_ratio(),
    }
}

/// The ops each checker of `plan` covers for another region.
fn covered_ops(plan: &WatchdogPlan) -> Vec<CoveredOp> {
    plan.checkers
        .iter()
        .flat_map(|c| {
            plan.reduced
                .covered_for_others(&c.context_key)
                .into_iter()
                .map(|(op, region, by)| CoveredOp {
                    program: plan.program.clone(),
                    checker: c.name.clone(),
                    op: op.to_string(),
                    region: region.to_owned(),
                    covered_by: by.to_string(),
                })
        })
        .collect()
}

/// Runs E3b over the three target systems.
pub fn run() -> ReductionResult {
    let kvs_ir = kvs::wd::describe_ir();
    let zk_ir = minizk::wd::describe_ir();
    let bb_ir = miniblock::wd::describe_ir();
    let full = ReductionConfig::default();
    let no_dedup = ReductionConfig { dedup: false };

    let stats = vec![
        stats_for(&kvs_ir, &full, "full"),
        stats_for(&kvs_ir, &no_dedup, "no-dedup"),
        stats_for(&zk_ir, &full, "full"),
        stats_for(&zk_ir, &no_dedup, "no-dedup"),
        stats_for(&bb_ir, &full, "full"),
        stats_for(&bb_ir, &no_dedup, "no-dedup"),
    ];

    let zk_plan = generate_plan(&zk_ir, &full);
    let figure2 = render_region(&zk_ir, &zk_plan, "snapshot_sync_loop");
    let figure3 = zk_plan
        .checker_for("snapshot_sync_loop")
        .map(render_checker)
        .unwrap_or_default();
    let covered = [
        generate_plan(&kvs_ir, &full),
        zk_plan,
        generate_plan(&bb_ir, &full),
    ]
    .iter()
    .flat_map(covered_ops)
    .collect();

    ReductionResult {
        stats,
        figure2,
        figure3,
        covered,
    }
}

/// Renders the E3b output: stats table plus both figure listings.
pub fn render(result: &ReductionResult) -> String {
    let mut t = Table::new(&[
        "program",
        "config",
        "functions",
        "regions",
        "ops",
        "vulnerable",
        "retained",
        "retention",
        "checkers",
    ]);
    for s in &result.stats {
        t.row_owned(vec![
            s.program.clone(),
            s.config.clone(),
            s.functions.to_string(),
            s.regions.to_string(),
            s.ops_total.to_string(),
            s.ops_vulnerable.to_string(),
            s.ops_retained.to_string(),
            format!("{:.0}%", s.retention * 100.0),
            s.checkers.to_string(),
        ]);
    }
    let mut out = String::from("E3b / Figures 2-3 — program logic reduction\n\n");
    out.push_str(&t.render());
    out.push_str("\n--- Figure 2 analog: reducing the minizk snapshot region ---\n\n");
    out.push_str(&result.figure2);
    out.push_str("\n--- Figure 3 analog: the generated checker ---\n\n");
    out.push_str(&result.figure3);
    // Also print the per-program checker inventories.
    out.push_str("\n--- Checker inventory ---\n\n");
    out.push_str(&render_summary(&generate_plan(
        &kvs::wd::describe_ir(),
        &ReductionConfig::default(),
    )));
    out.push('\n');
    out.push_str(&render_summary(&generate_plan(
        &minizk::wd::describe_ir(),
        &ReductionConfig::default(),
    )));
    out.push('\n');
    out.push_str(&render_summary(&generate_plan(
        &miniblock::wd::describe_ir(),
        &ReductionConfig::default(),
    )));
    out
}

/// Shape checks for E3b. Returns violations.
pub fn shape_violations(result: &ReductionResult) -> Vec<String> {
    let mut v = Vec::new();
    for s in result.stats.iter().filter(|s| s.config == "full") {
        if s.retention >= 0.5 {
            v.push(format!(
                "{}: retained {:.0}% of ops — reduction should exclude most code",
                s.program,
                s.retention * 100.0
            ));
        }
        if s.checkers == 0 {
            v.push(format!("{}: no checkers generated", s.program));
        }
    }
    // Dedup must strictly shrink the retained set on every program.
    for program in ["kvs", "minizk", "miniblock"] {
        let full = result
            .stats
            .iter()
            .find(|s| s.program == program && s.config == "full");
        let nd = result
            .stats
            .iter()
            .find(|s| s.program == program && s.config == "no-dedup");
        if let (Some(f), Some(n)) = (full, nd) {
            if f.ops_retained >= n.ops_retained {
                v.push(format!("{program}: dedup did not shrink retained ops"));
            }
        }
    }
    if !result.figure2.contains("[KEEP] write_record") {
        v.push("figure 2 listing does not keep write_record".into());
    }
    if !result.figure3.contains("serialize_snapshot#write_record") {
        v.push("figure 3 checker does not execute write_record".into());
    }
    v
}
