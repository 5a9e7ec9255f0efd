//! Lock-order analysis: acquisition sequences, the global lock graph,
//! and its deadlock cycles.
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
//! takes, but it cannot miss one that the IR witnesses. Two locks share a
//! cycle when each reaches the other in the lock graph; `wdog-lint` fails
//! on any such cycle.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use wdog_gen::ir::{OpKind, ProgramIr};
use wdog_gen::regions::reachable;

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

/// A potential-deadlock cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlockCycle {
    /// The cycle's lock resources, sorted.
    pub resources: Vec<String>,
    /// Witnesses of every edge inside the cycle.
    pub witnesses: Vec<String>,
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

    let cycles = find_cycles(&edges);

    LockOrderReport {
        program: ir.name.clone(),
        sequences,
        edges,
        cycles,
        unnamed_acquires: unnamed,
    }
}

/// The lock graph's cycles: groups of two or more locks that each reach
/// every other, members sorted, groups ordered by their first member.
/// Self-edges are filtered at edge construction: re-acquiring the same
/// named resource is reported by the targets' own reentrancy, not here.
fn find_cycles(edges: &[LockEdge]) -> Vec<DeadlockCycle> {
    let mut next: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        next.entry(&e.from).or_default().insert(&e.to);
        next.entry(&e.to).or_default();
    }
    let mut reach: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for &from in next.keys() {
        let mut seen = BTreeSet::new();
        let mut todo = vec![from];
        while let Some(lock) = todo.pop() {
            todo.extend(next[lock].iter().copied().filter(|&n| seen.insert(n)));
        }
        reach.insert(from, seen);
    }
    let mut cycles: Vec<DeadlockCycle> = Vec::new();
    for (&lock, to) in &reach {
        let resources: Vec<String> = reach
            .iter()
            .filter(|&(&other, back)| to.contains(other) && back.contains(lock))
            .map(|(&other, _)| other.to_owned())
            .collect();
        // Keys iterate sorted, so a group is built once: at its first member.
        if resources.len() < 2 || resources[0] != lock {
            continue;
        }
        let witnesses: BTreeSet<String> = edges
            .iter()
            .filter(|e| resources.contains(&e.from) && resources.contains(&e.to))
            .flat_map(|e| e.witnesses.iter().cloned())
            .collect();
        cycles.push(DeadlockCycle {
            resources,
            witnesses: witnesses.into_iter().collect(),
        });
    }
    cycles
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
        assert!(r.cycles.is_empty());
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
    fn abba_cycle_is_reported() {
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
    }

    /// One function per `(held, acquired)` pair, named `{held}{acquired}`.
    fn ordered(pairs: &[(&str, &str)]) -> ProgramIr {
        let mut b = ProgramBuilder::new("p");
        for &(x, y) in pairs {
            b = b.function(format!("{x}{y}"), |f| {
                f.op("x", OpKind::LockAcquire, |o| o.resource(x)).op(
                    "y",
                    OpKind::LockAcquire,
                    |o| o.resource(y),
                )
            });
        }
        b.build()
    }

    fn cycles(pairs: &[(&str, &str)]) -> Vec<(Vec<String>, Vec<String>)> {
        analyze(&ordered(pairs))
            .cycles
            .into_iter()
            .map(|c| (c.resources, c.witnesses))
            .collect()
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn three_lock_ring_is_one_cycle() {
        assert_eq!(
            cycles(&[("c", "a"), ("a", "b"), ("b", "c")]),
            vec![(strs(&["a", "b", "c"]), strs(&["ab", "bc", "ca"]))]
        );
    }

    #[test]
    fn disjoint_abba_pairs_are_two_cycles_in_order() {
        assert_eq!(
            cycles(&[("y", "x"), ("b", "a"), ("x", "y"), ("a", "b")]),
            vec![
                (strs(&["a", "b"]), strs(&["ab", "ba"])),
                (strs(&["x", "y"]), strs(&["xy", "yx"])),
            ]
        );
    }

    #[test]
    fn a_tail_edge_is_not_part_of_the_ring() {
        assert_eq!(
            cycles(&[("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")]),
            vec![(strs(&["b", "c"]), strs(&["bc", "cb"]))]
        );
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
        assert!(r.cycles.is_empty());
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
