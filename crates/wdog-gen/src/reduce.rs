//! Program logic reduction (paper §4.1, steps 2–3).
//!
//! Reduction turns the IR of a program *P* into the skeleton of its watchdog
//! *W*:
//!
//! 1. within each long-running region, keep only **vulnerable** operations
//!    (per [`vulnerable::classify`](crate::vulnerable::classify));
//! 2. remove **similar** vulnerable operations inside a function — two ops
//!    with the same kind and resource fail the same way, so checking one
//!    suffices (the paper's "if P invoked `write()` many times in a loop,
//!    W may only need to invoke `write()` once");
//! 3. perform a **global reduction along the call chains** — an operation
//!    class already retained anywhere along the region's call graph is not
//!    retained again in deeper callees.
//!
//! Each vulnerable op a dedup step drops is recorded with the kept op whose
//! class claimed it ([`ReducedFunction::dropped_vulnerable`]): that record
//! is the one statement of which checker watches which op.
//!
//! [`ReductionConfig::dedup`] turns both dedup steps off together, so
//! experiment E6 can measure the checker-count blow-up without them.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use wdog_base::ids::OpId;

use crate::ir::{Operation, ProgramIr};
use crate::regions::{find_regions, Region};
use crate::vulnerable::is_vulnerable;

/// Configuration for one reduction run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionConfig {
    /// Remove similar ops within a function and op classes already
    /// covered along the call chain (both paper steps; the E6 ablation
    /// turns them off).
    pub dedup: bool,
}

impl Default for ReductionConfig {
    fn default() -> Self {
        Self { dedup: true }
    }
}

/// The reduced version of one function within one region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducedFunction {
    /// Original function name.
    pub name: String,
    /// Entry function of the region this reduction belongs to.
    pub region: String,
    /// Operations retained for checking, in original order.
    pub kept_ops: Vec<Operation>,
    /// Vulnerable operations dropped as similar/covered, in original
    /// order, each paired with the kept op of the same similarity class.
    pub dropped_vulnerable: Vec<(OpId, OpId)>,
    /// Non-vulnerable operations excluded (logically deterministic code).
    pub dropped_deterministic: usize,
    /// Callees inside the same region, in call order, each with the number
    /// of kept ops that precede its first call site.
    pub calls: Vec<(usize, String)>,
}

/// Aggregate statistics for one reduction run (experiment E3b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionStats {
    /// Functions in the IR.
    pub functions_total: usize,
    /// Distinct functions inside at least one long-running region.
    pub functions_in_regions: usize,
    /// Non-call operations in the IR.
    pub ops_total: usize,
    /// Operations inside regions classified vulnerable.
    pub ops_vulnerable: usize,
    /// Operations retained after both dedup steps.
    pub ops_retained: usize,
    /// Long-running regions found.
    pub regions: usize,
}

impl ReductionStats {
    /// Fraction of all ops retained, in `[0, 1]`.
    pub fn retention_ratio(&self) -> f64 {
        if self.ops_total == 0 {
            0.0
        } else {
            self.ops_retained as f64 / self.ops_total as f64
        }
    }
}

/// The complete reduction output for one program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducedProgram {
    /// Program name.
    pub program: String,
    /// The long-running regions found.
    pub regions: Vec<Region>,
    /// Reduced functions, grouped by region in DFS order from each entry.
    pub functions: Vec<ReducedFunction>,
    /// Aggregate statistics.
    pub stats: ReductionStats,
}

impl ReducedProgram {
    /// Returns the reduced functions belonging to `region` in DFS order.
    pub fn functions_in(&self, region: &str) -> Vec<&ReducedFunction> {
        self.functions
            .iter()
            .filter(|f| f.region == region)
            .collect()
    }

    /// Returns all retained ops of one region as `(function, op)` pairs —
    /// the op list of the region's mimic checker. A callee's ops sit where
    /// its call sits, so the checker runs ops in the order the region's
    /// thread reaches them (a write inside a closure passed to a lock
    /// helper runs after that helper's lock).
    pub fn flattened_ops(&self, region: &str) -> Vec<(&str, &Operation)> {
        let funcs = self.functions_in(region);
        let mut visited = BTreeSet::new();
        let mut out = Vec::new();
        // The entry's chain first; then any function the chain does not
        // reach (a callee of a function reduced in an earlier region).
        for f in &funcs {
            flatten(f, &funcs, &mut visited, &mut out);
        }
        out
    }

    /// The vulnerable ops of other regions that `region`'s checker covers:
    /// `(dropped op, its region, the kept op that covers it)`, in
    /// reduction order.
    pub fn covered_for_others(&self, region: &str) -> Vec<(&OpId, &str, &OpId)> {
        let kept: BTreeSet<OpId> = self
            .functions_in(region)
            .iter()
            .flat_map(|f| f.kept_ops.iter().map(|o| o.id_in(&f.name)))
            .collect();
        self.functions
            .iter()
            .filter(|f| f.region != region)
            .flat_map(|f| {
                f.dropped_vulnerable
                    .iter()
                    .filter(|(_, by)| kept.contains(by))
                    .map(|(op, by)| (op, f.region.as_str(), by))
            })
            .collect()
    }
}

fn flatten<'a>(
    f: &'a ReducedFunction,
    funcs: &[&'a ReducedFunction],
    visited: &mut BTreeSet<&'a str>,
    out: &mut Vec<(&'a str, &'a Operation)>,
) {
    if !visited.insert(f.name.as_str()) {
        return;
    }
    let mut next = 0;
    for (at, callee) in &f.calls {
        out.extend(f.kept_ops[next..*at].iter().map(|o| (f.name.as_str(), o)));
        next = *at;
        if let Some(c) = funcs.iter().find(|c| c.name == *callee) {
            flatten(c, funcs, visited, out);
        }
    }
    out.extend(f.kept_ops[next..].iter().map(|o| (f.name.as_str(), o)));
}

/// Runs program logic reduction over `ir`.
pub fn reduce_program(ir: &ProgramIr, config: &ReductionConfig) -> ReducedProgram {
    let regions = find_regions(ir);
    let mut functions: Vec<ReducedFunction> = Vec::new();
    // Functions already reduced in an earlier region: with dedup
    // a function shared between two regions is checked once, by the first.
    let mut globally_reduced: BTreeSet<String> = BTreeSet::new();
    // Op classes already retained anywhere along processed call chains,
    // each with the op that retained it.
    let mut global_seen: BTreeMap<(String, Option<String>), OpId> = BTreeMap::new();

    let mut ops_vulnerable = 0usize;
    let mut ops_retained = 0usize;
    let mut region_functions: BTreeSet<String> = BTreeSet::new();

    for region in &regions {
        // Deterministic DFS from the entry following call order.
        let mut order: Vec<String> = Vec::new();
        let mut visited: BTreeSet<String> = BTreeSet::new();
        dfs(ir, &region.entry, region, &mut visited, &mut order);

        for fname in order {
            region_functions.insert(fname.clone());
            if config.dedup && globally_reduced.contains(&fname) {
                continue;
            }
            globally_reduced.insert(fname.clone());
            let func = ir
                .function(&fname)
                .expect("region functions exist in the IR");

            let mut kept: Vec<Operation> = Vec::new();
            let mut dropped_vulnerable = Vec::new();
            let mut dropped_deterministic = 0usize;
            let mut calls: Vec<(usize, String)> = Vec::new();

            for op in &func.ops {
                if let crate::ir::OpKind::Call { callee } = &op.kind {
                    if region.contains(callee) && !calls.iter().any(|(_, c)| c == callee) {
                        calls.push((kept.len(), callee.clone()));
                    }
                    continue;
                }
                if !is_vulnerable(op) {
                    dropped_deterministic += 1;
                    continue;
                }
                ops_vulnerable += 1;
                let key = op.similarity_key();
                // A class kept earlier in this function is in `global_seen`
                // too: one map serves both dedup steps.
                if config.dedup {
                    if let Some(by) = global_seen.get(&key) {
                        dropped_vulnerable.push((op.id_in(&fname), by.clone()));
                        continue;
                    }
                }
                global_seen.insert(key, op.id_in(&fname));
                kept.push(op.clone());
                ops_retained += 1;
            }

            functions.push(ReducedFunction {
                name: fname,
                region: region.entry.clone(),
                kept_ops: kept,
                dropped_vulnerable,
                dropped_deterministic,
                calls,
            });
        }
    }

    let stats = ReductionStats {
        functions_total: ir.functions.len(),
        functions_in_regions: region_functions.len(),
        ops_total: ir
            .functions
            .values()
            .flat_map(|f| &f.ops)
            .filter(|o| !o.kind.is_call())
            .count(),
        ops_vulnerable,
        ops_retained,
        regions: regions.len(),
    };

    ReducedProgram {
        program: ir.name.clone(),
        regions,
        functions,
        stats,
    }
}

fn dfs(
    ir: &ProgramIr,
    name: &str,
    region: &Region,
    visited: &mut BTreeSet<String>,
    order: &mut Vec<String>,
) {
    if visited.contains(name) || !region.contains(name) {
        return;
    }
    visited.insert(name.to_owned());
    order.push(name.to_owned());
    if let Some(func) = ir.function(name) {
        for callee in func.callees() {
            dfs(ir, callee, region, visited, order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{OpKind, ProgramBuilder};

    /// The paper's Figure 2 shape: `serialize_snapshot` calls `serialize`
    /// calls `serialize_node`, which holds a lock and performs the
    /// vulnerable `write_record`, recursing over children.
    fn zk_like() -> ProgramIr {
        ProgramBuilder::new("minizk")
            .function("snapshot_loop", |f| {
                f.long_running().call("serialize_snapshot")
            })
            .function("serialize_snapshot", |f| {
                f.compute("reset_count").call("serialize")
            })
            .function("serialize", |f| {
                f.compute("init_path").call("serialize_node")
            })
            .function("serialize_node", |f| {
                f.compute("get_node")
                    .op("node_lock", OpKind::LockAcquire, |o| o.resource("node"))
                    .op("write_record", OpKind::DiskWrite, |o| {
                        o.resource("snapshot/")
                    })
                    .simple_op("node_unlock", OpKind::LockRelease)
                    .compute("append_path")
                    .call("serialize_node")
            })
            .build()
    }

    #[test]
    fn keeps_only_vulnerable_ops() {
        let reduced = reduce_program(&zk_like(), &ReductionConfig::default());
        let node = reduced
            .functions
            .iter()
            .find(|f| f.name == "serialize_node")
            .unwrap();
        let names: Vec<&str> = node.kept_ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["node_lock", "write_record"]);
        assert!(node.dropped_deterministic >= 3, "computes must be dropped");
    }

    #[test]
    fn flattened_ops_follow_call_chain_order() {
        let reduced = reduce_program(&zk_like(), &ReductionConfig::default());
        let flat = reduced.flattened_ops("snapshot_loop");
        let names: Vec<&str> = flat.iter().map(|(_, o)| o.name.as_str()).collect();
        assert_eq!(names, vec!["node_lock", "write_record"]);
        assert!(flat.iter().all(|(f, _)| *f == "serialize_node"));

        // A caller whose own op comes after a call: the callee's lock runs
        // first, where the call sits, not after the caller's write.
        let ir = ProgramBuilder::new("minizk")
            .function("snapshot_loop", |f| {
                f.long_running().call("serialize_snapshot")
            })
            .function("serialize_snapshot", |f| {
                f.call("with_locked_data")
                    .op("write_record", OpKind::NetSend, |o| o.resource("peer"))
            })
            .function("with_locked_data", |f| {
                f.op("lock", OpKind::LockAcquire, |o| o.resource("znode"))
            })
            .build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let ids: Vec<String> = reduced
            .flattened_ops("snapshot_loop")
            .iter()
            .map(|(f, o)| o.id_in(f).to_string())
            .collect();
        assert_eq!(
            ids,
            ["with_locked_data#lock", "serialize_snapshot#write_record"]
        );
    }

    #[test]
    fn similar_ops_deduped_within_function() {
        let ir = ProgramBuilder::new("p")
            .function("main", |f| {
                f.long_running()
                    .op("w1", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .op("w2", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .op("w3", OpKind::DiskWrite, |o| o.resource("sst/"))
            })
            .build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let main = &reduced.functions[0];
        let names: Vec<&str> = main.kept_ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["w1", "w3"], "same-resource writes dedupe");
        assert_eq!(
            main.dropped_vulnerable,
            vec![(OpId::new("main#w2"), OpId::new("main#w1"))]
        );
    }

    #[test]
    fn dedup_can_be_disabled_for_ablation() {
        let ir = ProgramBuilder::new("p")
            .function("main", |f| {
                f.long_running()
                    .op("w1", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .op("w2", OpKind::DiskWrite, |o| o.resource("wal/"))
            })
            .build();
        let cfg = ReductionConfig { dedup: false };
        let reduced = reduce_program(&ir, &cfg);
        assert_eq!(reduced.functions[0].kept_ops.len(), 2);
    }

    #[test]
    fn global_reduction_covers_call_chain() {
        // caller writes to wal/, callee writes to wal/ too: the callee's
        // write is covered along the chain.
        let ir = ProgramBuilder::new("p")
            .function("main", |f| {
                f.long_running()
                    .op("w", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .call("helper")
            })
            .function("helper", |f| {
                f.op("w_deep", OpKind::DiskWrite, |o| o.resource("wal/"))
                    .op("send", OpKind::NetSend, |o| o.resource("peer"))
            })
            .build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let helper = reduced
            .functions
            .iter()
            .find(|f| f.name == "helper")
            .unwrap();
        let names: Vec<&str> = helper.kept_ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["send"], "covered write must be dropped");
        assert_eq!(
            helper.dropped_vulnerable,
            vec![(OpId::new("helper#w_deep"), OpId::new("main#w"))]
        );
        assert!(reduced.covered_for_others("main").is_empty(), "same region");
    }

    #[test]
    fn cross_region_drop_names_the_covering_region() {
        // Both regions write `wal/log`; shadow_loop sorts first, so its
        // checker keeps the probe and covers writer_loop's write.
        let ir = ProgramBuilder::new("p")
            .function("writer_loop", |f| {
                f.long_running()
                    .op("wal_append", OpKind::DiskWrite, |o| o.resource("wal/log"))
            })
            .function("shadow_loop", |f| {
                f.long_running()
                    .op("wal_mirror", OpKind::DiskWrite, |o| o.resource("wal/log"))
            })
            .build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let (op, region, by) = (
            OpId::new("writer_loop#wal_append"),
            "writer_loop",
            OpId::new("shadow_loop#wal_mirror"),
        );
        assert_eq!(
            reduced.covered_for_others("shadow_loop"),
            vec![(&op, region, &by)]
        );
        assert!(reduced.covered_for_others("writer_loop").is_empty());
    }

    #[test]
    fn shared_function_reduced_once_across_regions() {
        let ir = ProgramBuilder::new("p")
            .function("loop_a", |f| f.long_running().call("shared"))
            .function("loop_b", |f| f.long_running().call("shared"))
            .function("shared", |f| {
                f.op("w", OpKind::DiskWrite, |o| o.resource("d/"))
            })
            .build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let shared_reductions: Vec<_> = reduced
            .functions
            .iter()
            .filter(|f| f.name == "shared")
            .collect();
        assert_eq!(shared_reductions.len(), 1);
        assert_eq!(shared_reductions[0].region, "loop_a");
    }

    #[test]
    fn stats_are_consistent() {
        let reduced = reduce_program(&zk_like(), &ReductionConfig::default());
        let s = reduced.stats;
        assert_eq!(s.functions_total, 4);
        assert_eq!(s.functions_in_regions, 4);
        assert_eq!(s.regions, 1);
        // Every non-call op: reset_count, init_path and serialize_node's 5.
        assert_eq!(s.ops_total, 7);
        assert!(s.ops_retained <= s.ops_vulnerable);
        assert!(s.ops_vulnerable <= s.ops_total);
        assert!(s.retention_ratio() > 0.0 && s.retention_ratio() < 1.0);
        // The reduction thesis: most code is excluded.
        assert!(
            s.retention_ratio() < 0.5,
            "retained {}/{} — reduction too weak",
            s.ops_retained,
            s.ops_total
        );
    }

    #[test]
    fn annotated_compute_survives_reduction() {
        let ir = ProgramBuilder::new("p")
            .function("main", |f| {
                f.long_running()
                    .op("checksum_partition", OpKind::Compute, |o| {
                        o.annotate_vulnerable().resource("part-0")
                    })
                    .compute("sort_ranges")
            })
            .build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let names: Vec<&str> = reduced.functions[0]
            .kept_ops
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(names, vec!["checksum_partition"]);
    }

    #[test]
    fn empty_program_reduces_to_nothing() {
        let ir = ProgramBuilder::new("p").build();
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        assert!(reduced.functions.is_empty());
        assert_eq!(reduced.stats.ops_total, 0);
        assert_eq!(reduced.stats.retention_ratio(), 0.0);
    }
}
