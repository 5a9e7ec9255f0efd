//! Lock-order analysis: acquisition sequences, the global lock graph,
//! and deadlock cycles as candidate watchdog checkers.
//!
//! The IR already carries `LockAcquire`/`LockRelease` ops with named
//! resources (the extractor derives them from receiver chains, the
//! self-descriptions name them directly). This pass derives, per
//! function, the sequence of lock resources acquired, then builds a
//! global *lock graph*: an edge `a → b` means some execution acquires
//! `b` while holding `a` — either directly in one function body, or
//! interprocedurally (a callee reachable from a call site made under `a`
//! acquires `b`). Cycles in that graph are potential ABBA deadlocks.
//!
//! Because the IR is a linear over-approximation of each body (no
//! branch-sensitivity) and `LockRelease` is only extracted where the
//! source drops guards explicitly, the analysis is deliberately
//! *pessimistic*: it may report an ordering edge a real execution never
//! takes, but it cannot miss one that the IR witnesses. Each cycle is
//! also emitted as a **candidate deadlock-watchdog checker**: an ordered
//! bounded `try_lock` probe over the cycle's resources, the shape every
//! hand-written lock checker in the target crates already takes.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use wdog_gen::ir::{OpKind, ProgramIr};
use wdog_gen::regions::reachable;

use crate::callgraph::CallGraph;

/// Lock resources acquired by one function, in op order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockSequence {
    /// Function name.
    pub function: String,
    /// Acquired lock resources, in order, duplicates kept.
    pub acquires: Vec<String>,
}

/// One ordering edge in the lock graph with its witnesses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockEdge {
    /// Lock held first.
    pub from: String,
    /// Lock acquired second.
    pub to: String,
    /// `function` or `function -> callee` sites that witness the edge,
    /// sorted and deduplicated.
    pub witnesses: Vec<String>,
}

/// A potential-deadlock cycle and its derived checker spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockCycle {
    /// The cycle's lock resources, sorted.
    pub resources: Vec<String>,
    /// Witnesses of every edge inside the cycle.
    pub witnesses: Vec<String>,
    /// The candidate checker emitted for this cycle.
    pub checker: CandidateLockChecker,
}

/// A candidate deadlock-watchdog checker: bounded try-locks in a fixed
/// global order. If every probe acquires within its bound, no thread is
/// wedged inside the cycle; a timeout names the wedged resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateLockChecker {
    /// Checker name, `{program}.deadlock.{joined resources}`.
    pub name: String,
    /// Component the checker reports against.
    pub component: String,
    /// Ordered probe ops, `try_lock:{resource}`.
    pub ops: Vec<String>,
}

/// The complete lock-order analysis for one program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockOrderReport {
    /// Program name.
    pub program: String,
    /// Per-function acquisition sequences (functions with none omitted).
    pub sequences: Vec<LockSequence>,
    /// The global lock graph, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// Potential deadlock cycles (empty on a well-ordered program).
    pub cycles: Vec<DeadlockCycle>,
    /// `LockAcquire` ops with no named resource, skipped (`function#op`).
    pub unnamed_acquires: Vec<String>,
}

impl LockOrderReport {
    /// True when no deadlock cycle was found.
    pub fn is_cycle_free(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// Lock resources acquired anywhere in `f` itself.
fn own_acquires(ir: &ProgramIr, name: &str) -> BTreeSet<String> {
    let Some(f) = ir.function(name) else {
        return BTreeSet::new();
    };
    f.ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::LockAcquire))
        .filter_map(|o| o.resource.clone())
        .collect()
}

/// Runs the lock-order analysis over `ir`.
pub fn analyze_locks(ir: &ProgramIr) -> LockOrderReport {
    // Transitive acquire sets: every lock a call into `f` may take.
    let mut transitive: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for name in ir.functions.keys() {
        let mut all = BTreeSet::new();
        for r in reachable(ir, name) {
            all.extend(own_acquires(ir, &r));
        }
        transitive.insert(name.clone(), all);
    }

    let mut sequences = Vec::new();
    let mut unnamed = Vec::new();
    let mut witnesses: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();

    for f in ir.functions.values() {
        let mut held: Vec<String> = Vec::new();
        let mut acquires = Vec::new();
        for op in &f.ops {
            match &op.kind {
                OpKind::LockAcquire => {
                    let Some(res) = &op.resource else {
                        unnamed.push(op.id_in(&f.name).to_string());
                        continue;
                    };
                    for h in &held {
                        if h != res {
                            witnesses
                                .entry((h.clone(), res.clone()))
                                .or_default()
                                .insert(f.name.clone());
                        }
                    }
                    held.push(res.clone());
                    acquires.push(res.clone());
                }
                OpKind::LockRelease => {
                    if let Some(res) = &op.resource {
                        if let Some(pos) = held.iter().rposition(|h| h == res) {
                            held.remove(pos);
                        }
                    } else {
                        // Unnamed release: pessimistically drops nothing
                        // (keeps ordering edges over-approximate).
                    }
                }
                OpKind::Call { callee } => {
                    if held.is_empty() {
                        continue;
                    }
                    let Some(callee_locks) = transitive.get(callee) else {
                        continue;
                    };
                    for h in &held {
                        for l in callee_locks {
                            if h != l {
                                witnesses
                                    .entry((h.clone(), l.clone()))
                                    .or_default()
                                    .insert(format!("{} -> {}", f.name, callee));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if !acquires.is_empty() {
            sequences.push(LockSequence {
                function: f.name.clone(),
                acquires,
            });
        }
    }
    sequences.sort_by(|a, b| a.function.cmp(&b.function));
    unnamed.sort();
    unnamed.dedup();

    let edges: Vec<LockEdge> = witnesses
        .iter()
        .map(|((from, to), w)| LockEdge {
            from: from.clone(),
            to: to.clone(),
            witnesses: w.iter().cloned().collect(),
        })
        .collect();

    let cycles = find_cycles(&ir.name, &edges);

    LockOrderReport {
        program: ir.name.clone(),
        sequences,
        edges,
        cycles,
        unnamed_acquires: unnamed,
    }
}

/// SCCs of the lock graph with more than one lock (self-edges are
/// filtered at edge construction: re-acquiring the same named resource is
/// reported by the targets' own reentrancy, not this pass).
fn find_cycles(program: &str, edges: &[LockEdge]) -> Vec<DeadlockCycle> {
    // Reuse the call-graph SCC machinery by shaping locks as a graph.
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.clone()).or_default().insert(e.to.clone());
        adj.entry(e.to.clone()).or_default();
    }
    let graph = CallGraph { edges: adj };
    graph
        .cyclic_sccs()
        .into_iter()
        .map(|resources| {
            let inside: BTreeSet<&str> = resources.iter().map(String::as_str).collect();
            let mut witnesses: BTreeSet<String> = BTreeSet::new();
            for e in edges {
                if inside.contains(e.from.as_str()) && inside.contains(e.to.as_str()) {
                    witnesses.extend(e.witnesses.iter().cloned());
                }
            }
            let checker = CandidateLockChecker {
                name: format!("{program}.deadlock.{}", resources.join("_")),
                component: format!("{program}.locks"),
                ops: resources.iter().map(|r| format!("try_lock:{r}")).collect(),
            };
            DeadlockCycle {
                resources,
                witnesses: witnesses.into_iter().collect(),
                checker,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_gen::ir::ProgramBuilder;

    fn analyze(ir: &ProgramIr) -> LockOrderReport {
        analyze_locks(ir)
    }

    #[test]
    fn intra_function_ordering_edges() {
        let ir = ProgramBuilder::new("p")
            .function("f", |f| {
                f.op("a", OpKind::LockAcquire, |o| o.resource("la")).op(
                    "b",
                    OpKind::LockAcquire,
                    |o| o.resource("lb"),
                )
            })
            .build();
        let r = analyze(&ir);
        assert_eq!(r.sequences.len(), 1);
        assert_eq!(r.sequences[0].acquires, vec!["la", "lb"]);
        assert_eq!(r.edges.len(), 1);
        assert_eq!((&*r.edges[0].from, &*r.edges[0].to), ("la", "lb"));
        assert_eq!(r.edges[0].witnesses, vec!["f"]);
        assert!(r.is_cycle_free());
    }

    #[test]
    fn release_clears_held_set() {
        let ir = ProgramBuilder::new("p")
            .function("f", |f| {
                f.op("a", OpKind::LockAcquire, |o| o.resource("la"))
                    .op("ra", OpKind::LockRelease, |o| o.resource("la"))
                    .op("b", OpKind::LockAcquire, |o| o.resource("lb"))
            })
            .build();
        let r = analyze(&ir);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn interprocedural_edge_through_call_chain() {
        let ir = ProgramBuilder::new("p")
            .function("outer", |f| {
                f.op("a", OpKind::LockAcquire, |o| o.resource("la"))
                    .call("middle")
            })
            .function("middle", |f| f.call("inner"))
            .function("inner", |f| {
                f.op("b", OpKind::LockAcquire, |o| o.resource("lb"))
            })
            .build();
        let r = analyze(&ir);
        assert_eq!(r.edges.len(), 1);
        assert_eq!(r.edges[0].witnesses, vec!["outer -> middle"]);
    }

    #[test]
    fn abba_cycle_yields_candidate_checker() {
        let ir = ProgramBuilder::new("p")
            .function("f", |f| {
                f.op("a", OpKind::LockAcquire, |o| o.resource("la")).op(
                    "b",
                    OpKind::LockAcquire,
                    |o| o.resource("lb"),
                )
            })
            .function("g", |f| {
                f.op("b", OpKind::LockAcquire, |o| o.resource("lb")).op(
                    "a",
                    OpKind::LockAcquire,
                    |o| o.resource("la"),
                )
            })
            .build();
        let r = analyze(&ir);
        assert_eq!(r.cycles.len(), 1);
        let c = &r.cycles[0];
        assert_eq!(c.resources, vec!["la", "lb"]);
        assert_eq!(c.witnesses, vec!["f", "g"]);
        assert_eq!(c.checker.name, "p.deadlock.la_lb");
        assert_eq!(c.checker.ops, vec!["try_lock:la", "try_lock:lb"]);
        assert!(!r.is_cycle_free());
    }

    #[test]
    fn reacquiring_same_lock_is_not_a_cycle() {
        let ir = ProgramBuilder::new("p")
            .function("f", |f| {
                f.op("a", OpKind::LockAcquire, |o| o.resource("la")).op(
                    "b",
                    OpKind::LockAcquire,
                    |o| o.resource("la"),
                )
            })
            .build();
        let r = analyze(&ir);
        assert!(r.edges.is_empty());
        assert!(r.is_cycle_free());
    }

    #[test]
    fn unnamed_acquires_are_recorded_not_dropped_silently() {
        let ir = ProgramBuilder::new("p")
            .function("f", |f| f.simple_op("a", OpKind::LockAcquire))
            .build();
        let r = analyze(&ir);
        assert_eq!(r.unnamed_acquires, vec!["f#a"]);
    }
}
