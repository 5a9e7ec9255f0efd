//! Long-running region identification (paper §4.1, step 1).
//!
//! "First, we extract code regions that may be executed continuously. In
//! this way, we exclude checking for code execution in the initialization
//! stage. Multiple long running regions may be identified."
//!
//! A region is the set of functions [`reachable`] along call edges from
//! one entry marked [`long_running`](crate::ir::Function::long_running).
//! Initialization code has no region: extraction keeps only the functions
//! a spawned or hook-firing entry reaches. Call edges to functions that do
//! not exist in the IR are ignored (the validator surfaces them
//! separately).

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::ir::ProgramIr;

/// One continuously-executing region of the program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// The long-running entry function.
    pub entry: String,
    /// Every function reachable from the entry (including it), sorted.
    pub functions: BTreeSet<String>,
}

impl Region {
    /// Returns `true` if `function` belongs to this region.
    pub fn contains(&self, function: &str) -> bool {
        self.functions.contains(function)
    }
}

/// Finds all long-running regions of `ir`, sorted by entry name.
pub fn find_regions(ir: &ProgramIr) -> Vec<Region> {
    ir.functions
        .values()
        .filter(|f| f.long_running)
        .map(|f| Region {
            entry: f.name.clone(),
            functions: reachable(ir, &f.name),
        })
        .collect()
}

/// Every function of `ir` reachable along call edges from `from`
/// (including it), sorted; empty when `from` is not in `ir`.
pub fn reachable(ir: &ProgramIr, from: &str) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(name) = stack.pop() {
        let Some(func) = ir.function(name) else {
            continue; // Dangling call edge; reported by the validator.
        };
        if seen.insert(name.to_owned()) {
            stack.extend(func.callees());
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{OpKind, ProgramBuilder};

    fn ir() -> ProgramIr {
        ProgramBuilder::new("p")
            .function("loop_a", |f| f.long_running().call("shared").call("a_only"))
            .function("loop_b", |f| f.long_running().call("shared"))
            .function("shared", |f| f.simple_op("w", OpKind::DiskWrite))
            .function("a_only", |f| f.simple_op("s", OpKind::NetSend).call("deep"))
            .function("deep", |f| f.compute("calc"))
            .function("unreached", |f| f.simple_op("r", OpKind::DiskRead))
            .build()
    }

    #[test]
    fn finds_one_region_per_long_running_entry() {
        let regions = find_regions(&ir());
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].entry, "loop_a");
        assert_eq!(regions[1].entry, "loop_b");
    }

    #[test]
    fn regions_close_over_call_chains() {
        let regions = find_regions(&ir());
        let a = &regions[0];
        for f in ["loop_a", "shared", "a_only", "deep"] {
            assert!(a.contains(f), "loop_a region missing {f}");
        }
        assert!(!a.contains("loop_b"));
        let b = &regions[1];
        assert_eq!(
            b.functions.iter().cloned().collect::<Vec<_>>(),
            vec!["loop_b", "shared"]
        );
    }

    #[test]
    fn reachable_closes_over_chains_from_any_function() {
        let ir = ir();
        assert_eq!(
            reachable(&ir, "a_only").into_iter().collect::<Vec<_>>(),
            vec!["a_only", "deep"]
        );
        assert!(reachable(&ir, "ghost").is_empty());
    }

    #[test]
    fn cycles_terminate() {
        let regions = find_regions(
            &ProgramBuilder::new("p")
                .function("a", |f| f.long_running().call("b"))
                .function("b", |f| f.call("a"))
                .build(),
        );
        assert_eq!(regions.len(), 1);
        assert!(regions[0].contains("a"));
        assert!(regions[0].contains("b"));
    }

    #[test]
    fn dangling_calls_skipped_gracefully() {
        let regions = find_regions(
            &ProgramBuilder::new("p")
                .function("a", |f| f.long_running().call("ghost"))
                .build(),
        );
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].functions.len(), 1);
    }

    #[test]
    fn no_long_running_means_no_regions() {
        let regions = find_regions(
            &ProgramBuilder::new("p")
                .function("a", |f| f.simple_op("w", OpKind::DiskWrite))
                .build(),
        );
        assert!(regions.is_empty());
    }
}
