//! Figure 2/3-style rendering of reductions and generated checkers.
//!
//! The paper illustrates AutoWatchdog with a before/after listing: the
//! original `serializeSnapshot` chain annotated with what reduction keeps
//! (Figure 2) and the generated checker that invokes the reduced function
//! with a context-readiness guard (Figure 3). [`render_region`] and
//! [`render_checker`] produce the equivalent listings for any program, used
//! by experiment E3b and the `autogen_demo` example.

use std::fmt::Write as _;

use crate::ir::{OpKind, ProgramIr};
use crate::plan::{GeneratedChecker, WatchdogPlan};

fn kind_note(kind: &OpKind, resource: Option<&str>) -> String {
    match resource {
        Some(r) => format!("{} @{r}", kind.label()),
        None => kind.label().to_owned(),
    }
}

/// Renders one region's functions with keep/drop annotations (Figure 2).
///
/// Retained ops are tagged `KEEP`, the ops reduction recorded as covered
/// by a kept similar op `DROP(similar)` and deterministic code
/// `DROP(deterministic)`; the fields the program's hooks fire into the
/// region's context head the listing.
pub fn render_region(ir: &ProgramIr, plan: &WatchdogPlan, entry: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "region `{entry}` of program `{}`:", plan.program);
    if let Some(fields) = ir.regions_fired.get(entry) {
        let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
        let _ = writeln!(
            out,
            "  hooks publish {{{}}} -> context[{entry}]",
            fields.join(", ")
        );
    }
    let kept_ids: Vec<String> = plan
        .checker_for(entry)
        .map(|c| c.ops.iter().map(|o| o.op_id.as_str().to_owned()).collect())
        .unwrap_or_default();
    for rf in plan.reduced.functions_in(entry) {
        let Some(func) = ir.function(&rf.name) else {
            continue;
        };
        let _ = writeln!(out, "  fn {}:", func.name);
        for op in &func.ops {
            if let OpKind::Call { callee } = &op.kind {
                let _ = writeln!(out, "    call {callee}(..)            // follow callee");
                continue;
            }
            let id = op.id_in(&func.name);
            let note = kind_note(&op.kind, op.resource.as_deref());
            if kept_ids.iter().any(|k| k == id.as_str()) {
                let _ = writeln!(out, "    [KEEP] {} ({note})", op.name);
            } else if rf.dropped_vulnerable.iter().any(|(d, _)| *d == id) {
                let _ = writeln!(out, "    [DROP: similar/covered] {} ({note})", op.name);
            } else {
                let _ = writeln!(out, "    [DROP: deterministic] {} ({note})", op.name);
            }
        }
    }
    out
}

/// Renders a generated checker as pseudo-code (Figure 3).
pub fn render_checker(checker: &GeneratedChecker) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checker {} (component {}) {{",
        checker.name, checker.component
    );
    let _ = writeln!(
        out,
        "    let ctx = ContextFactory::context(\"{}\");",
        checker.context_key
    );
    let _ = writeln!(out, "    if ctx.status != READY {{ return NotReady; }}");
    for field in &checker.required_fields {
        let _ = writeln!(out, "    let {field} = ctx.args_getter(\"{field}\");");
    }
    for op in &checker.ops {
        let _ = writeln!(
            out,
            "    exec {}(ctx);    // {}",
            op.op_id,
            kind_note(&op.kind, op.resource.as_deref())
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a one-paragraph summary of a whole plan (checker inventory):
/// under each checker, the ops it covers for another region.
pub fn render_summary(plan: &WatchdogPlan) -> String {
    let mut out = String::new();
    let s = &plan.reduced.stats;
    let _ = writeln!(
        out,
        "program `{}`: {} functions ({} in {} long-running regions), \
         {} ops -> {} vulnerable -> {} retained ({:.1}% of all ops)",
        plan.program,
        s.functions_total,
        s.functions_in_regions,
        s.regions,
        s.ops_total,
        s.ops_vulnerable,
        s.ops_retained,
        s.retention_ratio() * 100.0
    );
    let _ = writeln!(out, "generated {} checkers:", plan.checkers.len());
    for c in &plan.checkers {
        let _ = writeln!(
            out,
            "  - {} ({} ops, {} context fields)",
            c.name,
            c.ops.len(),
            c.required_fields.len()
        );
        for (op, region, by) in plan.reduced.covered_for_others(&c.context_key) {
            let _ = writeln!(out, "      covers {op} of `{region}` as {by}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use crate::plan::generate_plan;
    use crate::reduce::ReductionConfig;

    fn setup() -> (ProgramIr, WatchdogPlan) {
        let ir = ProgramBuilder::new("minizk")
            .function("snapshot_loop", |f| f.long_running().call("serialize_node"))
            .function("serialize_node", |f| {
                f.compute("get_node")
                    .op("node_lock", OpKind::LockAcquire, |o| o.resource("node"))
                    .op("write_record", OpKind::DiskWrite, |o| {
                        o.resource("snapshot/")
                    })
                    .op("write_record_2", OpKind::DiskWrite, |o| {
                        o.resource("snapshot/")
                    })
            })
            .fires("snapshot_loop", &["record"])
            .build();
        let plan = generate_plan(&ir, &ReductionConfig::default());
        (ir, plan)
    }

    #[test]
    fn region_rendering_tags_keep_and_drop() {
        let (ir, plan) = setup();
        let s = render_region(&ir, &plan, "snapshot_loop");
        assert!(s.contains("[KEEP] node_lock"), "{s}");
        assert!(s.contains("[KEEP] write_record"), "{s}");
        assert!(s.contains("[DROP: similar/covered] write_record_2"), "{s}");
        assert!(s.contains("[DROP: deterministic] get_node"), "{s}");
        assert!(s.contains("hooks publish {record} -> context[snapshot_loop]"));
    }

    #[test]
    fn checker_rendering_includes_guard_and_ops() {
        let (_, plan) = setup();
        let s = render_checker(&plan.checkers[0]);
        assert!(s.contains("checker snapshot_loop_checker"));
        assert!(s.contains("if ctx.status != READY { return NotReady; }"));
        assert!(s.contains("exec serialize_node#write_record(ctx)"));
        assert!(s.contains("args_getter(\"record\")"));
    }

    #[test]
    fn summary_counts_match_plan() {
        let (_, plan) = setup();
        let s = render_summary(&plan);
        assert!(s.contains("generated 1 checkers:"), "{s}");
        assert!(s.contains("minizk"));
        assert!(!s.contains("covers"), "one region covers no other: {s}");
    }

    #[test]
    fn summary_lists_ops_covered_for_other_regions() {
        let ir = ProgramBuilder::new("p")
            .function("a_loop", |f| {
                f.long_running()
                    .op("w", OpKind::DiskWrite, |o| o.resource("d/"))
            })
            .function("b_loop", |f| {
                f.long_running()
                    .op("w", OpKind::DiskWrite, |o| o.resource("d/"))
            })
            .build();
        let s = render_summary(&generate_plan(&ir, &ReductionConfig::default()));
        let listed = concat!(
            "  - a_loop_checker (1 ops, 0 context fields)\n",
            "      covers b_loop#w of `b_loop` as a_loop#w\n",
        );
        assert!(s.contains(listed), "{s}");
    }
}
