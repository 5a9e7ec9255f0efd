//! Checker generation (paper §4.1, steps 4–5).
//!
//! After reduction, each long-running region becomes one **generated mimic
//! checker** whose operation list is the region's retained ops flattened
//! along the call chain (the paper's Figure 3: `serializeSnapshot_reduced`
//! executes the vulnerable `writeRecord` hoisted from `serializeNode`).
//!
//! "*C* at this point cannot be directly executed, however, due to
//! uninitialized variables or parameters. So we further analyze the context
//! required for the execution of *C*": here the hooks already sit in the
//! program (Figure 2, line 28), and the IR records the fields each one
//! fires into its context key. A checker requires exactly the fields
//! fired into its region's key, so it runs only once the program has
//! published every one of them.

use serde::{Deserialize, Serialize};

use wdog_base::ids::OpId;

use crate::ir::{OpKind, ProgramIr};
use crate::reduce::{reduce_program, ReducedProgram, ReductionConfig};

/// One operation scheduled into a generated checker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedOp {
    /// Fully qualified id, `function#op`.
    pub op_id: OpId,
    /// The original function the op came from.
    pub function: String,
    /// The op's name within its function.
    pub name: String,
    /// Semantic class.
    pub kind: OpKind,
    /// The resource touched, if named.
    pub resource: Option<String>,
}

/// One generated mimic checker (one per long-running region).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedChecker {
    /// Checker name, `{entry}_checker`.
    pub name: String,
    /// Component label, `{program}.{entry}`.
    pub component: String,
    /// Context slot the checker reads (and its hooks publish).
    pub context_key: String,
    /// Operations in call-site order.
    pub ops: Vec<PlannedOp>,
    /// The context fields the program fires into `context_key`, sorted.
    pub required_fields: Vec<String>,
}

/// The complete generation output for one program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogPlan {
    /// Program name.
    pub program: String,
    /// Generated checkers, one per region with retained ops.
    pub checkers: Vec<GeneratedChecker>,
    /// The underlying reduction (for statistics and rendering).
    pub reduced: ReducedProgram,
}

impl WatchdogPlan {
    /// Looks up a generated checker by region entry.
    pub fn checker_for(&self, entry: &str) -> Option<&GeneratedChecker> {
        self.checkers.iter().find(|c| c.context_key == entry)
    }
}

/// Runs the full AutoWatchdog pipeline: reduction, context inference and
/// checker planning.
pub fn generate_plan(ir: &ProgramIr, config: &ReductionConfig) -> WatchdogPlan {
    let reduced = reduce_program(ir, config);
    let mut checkers = Vec::new();

    for region in &reduced.regions {
        let flat = reduced.flattened_ops(&region.entry);
        if flat.is_empty() {
            continue;
        }
        let ops = flat
            .into_iter()
            .map(|(function, op)| PlannedOp {
                op_id: op.id_in(function),
                function: function.to_owned(),
                name: op.name.clone(),
                kind: op.kind.clone(),
                resource: op.resource.clone(),
            })
            .collect();
        checkers.push(GeneratedChecker {
            name: format!("{}_checker", region.entry),
            component: format!("{}.{}", ir.name, region.entry),
            context_key: region.entry.clone(),
            ops,
            required_fields: ir
                .regions_fired
                .get(&region.entry)
                .into_iter()
                .flatten()
                .cloned()
                .collect(),
        });
    }

    WatchdogPlan {
        program: ir.name.clone(),
        checkers,
        reduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;

    fn ir() -> ProgramIr {
        ProgramBuilder::new("minizk")
            .function("snapshot_loop", |f| {
                f.long_running().call("serialize_snapshot")
            })
            .function("serialize_snapshot", |f| {
                f.compute("prep").call("serialize_node")
            })
            .function("serialize_node", |f| {
                f.op("node_lock", OpKind::LockAcquire, |o| o.resource("node"))
                    .op("write_record", OpKind::DiskWrite, |o| {
                        o.resource("snapshot/")
                    })
            })
            .function("idle_loop", |f| f.long_running().compute("tick"))
            .fires("snapshot_loop", &["record", "node_path"])
            .fires("idle_loop", &["tick_count"])
            .build()
    }

    #[test]
    fn one_checker_per_region_with_ops() {
        let plan = generate_plan(&ir(), &ReductionConfig::default());
        // idle_loop has no vulnerable ops, so only snapshot_loop generates.
        assert_eq!(plan.checkers.len(), 1);
        let c = &plan.checkers[0];
        assert_eq!(c.name, "snapshot_loop_checker");
        assert_eq!(c.component, "minizk.snapshot_loop");
        assert_eq!(c.context_key, "snapshot_loop");
    }

    #[test]
    fn ops_are_hoisted_along_call_chain() {
        let plan = generate_plan(&ir(), &ReductionConfig::default());
        let c = &plan.checkers[0];
        let ids: Vec<&str> = c.ops.iter().map(|o| o.op_id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["serialize_node#node_lock", "serialize_node#write_record"]
        );
    }

    #[test]
    fn required_fields_are_what_source_fires_sorted() {
        let plan = generate_plan(&ir(), &ReductionConfig::default());
        assert_eq!(plan.checkers[0].required_fields, ["node_path", "record"]);
        let unfired = ProgramBuilder::new("p")
            .function("main", |f| {
                f.long_running().simple_op("w", OpKind::DiskWrite)
            })
            .build();
        let plan = generate_plan(&unfired, &ReductionConfig::default());
        assert!(plan.checkers[0].required_fields.is_empty());
    }

    #[test]
    fn checker_lookup_by_entry() {
        let plan = generate_plan(&ir(), &ReductionConfig::default());
        assert!(plan.checker_for("snapshot_loop").is_some());
        assert!(plan.checker_for("idle_loop").is_none());
    }

    #[test]
    fn plan_serializes_roundtrip() {
        let plan = generate_plan(&ir(), &ReductionConfig::default());
        let json = serde_json::to_string(&plan).unwrap();
        let back: WatchdogPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn multiple_regions_yield_multiple_checkers() {
        let two = ProgramBuilder::new("kvs")
            .function("flusher_loop", |f| {
                f.long_running()
                    .op("wal_write", OpKind::DiskWrite, |o| o.resource("wal/"))
            })
            .function("repl_loop", |f| {
                f.long_running()
                    .op("send", OpKind::NetSend, |o| o.resource("replica"))
            })
            .build();
        let plan = generate_plan(&two, &ReductionConfig::default());
        assert_eq!(plan.checkers.len(), 2);
    }
}
