//! Interprocedural call graph over an extracted IR and its strongly
//! connected components, which the lock-order pass walks.
//!
//! Reachability is not here: every pass walks calls with
//! [`wdog_gen::regions::reachable`], the walk that defines the regions.
//! The graph is built deterministically: nodes are every function in the
//! IR, edges are the resolved `Call` ops (dangling callees are dropped;
//! the IR validator reports those separately), and all node and neighbour
//! iteration is in sorted order. It therefore depends only on the *set* of
//! functions and calls, never on source-file ordering — a property the
//! workspace proptests pin down.

use std::collections::{BTreeMap, BTreeSet};

use wdog_gen::ir::ProgramIr;

/// A deterministic call graph: sorted nodes, sorted edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// Adjacency: every function in the IR has an entry, even if it calls
    /// nothing. Only edges to functions that exist in the IR are kept.
    pub edges: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Builds the graph from `ir`.
    pub fn build(ir: &ProgramIr) -> Self {
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in ir.functions.values() {
            let callees = edges.entry(f.name.clone()).or_default();
            for callee in f.callees() {
                if ir.function(callee).is_some() {
                    callees.insert(callee.to_owned());
                }
            }
        }
        Self { edges }
    }

    /// Strongly connected components via iterative Tarjan, normalized for
    /// determinism: members sorted within each SCC, SCCs sorted by their
    /// smallest member. The partition depends only on the edge set.
    pub fn sccs(&self) -> Vec<Vec<String>> {
        let names: Vec<&String> = self.edges.keys().collect();
        let index_of: BTreeMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let n = names.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![usize::MAX; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<String>> = Vec::new();

        // Explicit DFS frames: (node, neighbour iterator position).
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            let neigh = |v: usize| -> Vec<usize> {
                self.edges[names[v]]
                    .iter()
                    .map(|c| index_of[c.as_str()])
                    .collect()
            };
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;
            frames.push((start, neigh(start), 0));

            while let Some((v, ns, pos)) = frames.last_mut() {
                if *pos < ns.len() {
                    let w = ns[*pos];
                    *pos += 1;
                    let v = *v;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, neigh(w), 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    let v = *v;
                    frames.pop();
                    if let Some((parent, _, _)) = frames.last() {
                        lowlink[*parent] = lowlink[*parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(names[w].clone());
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs.sort_by(|a, b| a[0].cmp(&b[0]));
        sccs
    }

    /// SCCs that are actual cycles: more than one member, or a self-loop.
    pub fn cyclic_sccs(&self) -> Vec<Vec<String>> {
        self.sccs()
            .into_iter()
            .filter(|c| c.len() > 1 || self.edges[&c[0]].contains(&c[0]))
            .collect()
    }

    /// True if the condensation (SCCs collapsed to single nodes) is
    /// acyclic — which Tarjan guarantees; exposed so property tests can
    /// assert it directly against an independent check.
    pub fn condensation_is_acyclic(&self) -> bool {
        let sccs = self.sccs();
        let mut comp_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, c) in sccs.iter().enumerate() {
            for m in c {
                comp_of.insert(m, i);
            }
        }
        // Collect condensation edges, then Kahn's algorithm.
        let mut cedges: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (from, tos) in &self.edges {
            for to in tos {
                let (a, b) = (comp_of[from.as_str()], comp_of[to.as_str()]);
                if a != b {
                    cedges.entry(a).or_default().insert(b);
                }
            }
        }
        let n = sccs.len();
        let mut indeg = vec![0usize; n];
        for tos in cedges.values() {
            for &t in tos {
                indeg[t] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            if let Some(tos) = cedges.get(&v) {
                for &t in tos {
                    indeg[t] -= 1;
                    if indeg[t] == 0 {
                        queue.push(t);
                    }
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_gen::ir::{OpKind, ProgramBuilder};

    fn ir() -> ProgramIr {
        ProgramBuilder::new("p")
            .function("main_loop", |f| f.long_running().call("work").call("log"))
            .function("work", |f| f.simple_op("w", OpKind::DiskWrite).call("log"))
            .function("log", |f| f.compute("fmt"))
            .function("init", |f| f.call("work"))
            .function("lonely", |f| f.compute("idle"))
            .build()
    }

    #[test]
    fn builds_sorted_edges() {
        let g = CallGraph::build(&ir());
        assert_eq!(g.edges.len(), 5);
        assert_eq!(g.edges.values().map(BTreeSet::len).sum::<usize>(), 4);
        assert_eq!(
            g.edges["main_loop"].iter().collect::<Vec<_>>(),
            vec!["log", "work"]
        );
    }

    #[test]
    fn dangling_callees_are_dropped() {
        let g = CallGraph::build(
            &ProgramBuilder::new("p")
                .function("a", |f| f.call("ghost"))
                .build(),
        );
        assert!(g.edges["a"].is_empty());
    }

    #[test]
    fn sccs_partition_all_nodes_and_find_cycles() {
        let g = CallGraph::build(
            &ProgramBuilder::new("p")
                .function("a", |f| f.call("b"))
                .function("b", |f| f.call("c"))
                .function("c", |f| f.call("a"))
                .function("d", |f| f.call("d"))
                .function("e", |f| f.compute("x"))
                .build(),
        );
        let sccs = g.sccs();
        let total: usize = sccs.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        let cycles = g.cyclic_sccs();
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles[0], vec!["a", "b", "c"]);
        assert_eq!(cycles[1], vec!["d"]);
        assert!(g.condensation_is_acyclic());
    }

    #[test]
    fn acyclic_graph_has_singleton_sccs_only() {
        let g = CallGraph::build(&ir());
        assert!(g.cyclic_sccs().is_empty());
        assert!(g.condensation_is_acyclic());
        assert_eq!(g.sccs().len(), 5);
    }
}
