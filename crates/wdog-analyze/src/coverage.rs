//! Coverage-gap matrix: vulnerable-op × checker coverage.
//!
//! The paper argues watchdogs should mimic *every* vulnerable operation a
//! long-running region performs; the chaos campaigns (PR 5) showed where
//! the shipped checkers fall short empirically. This pass enumerates the
//! same gaps statically: reachability from each long-running region over
//! the [`crate::callgraph`] to its vulnerable ops (per
//! [`wdog_gen::VulnerabilityRules`]), crossed against the reduction-
//! generated [`wdog_gen::WatchdogPlan`].
//!
//! Each vulnerable op gets a status:
//!
//! * **covered** — the region's own generated checker mimics an op of the
//!   same (kind, resource-family);
//! * **weak** — only a *different* region's checker mimics it (global
//!   similarity dedup moved the probe, so a fault here is blamed on the
//!   wrong component), or the probe is a send with no matching receive
//!   (it can verify the link accepts traffic, not that peers respond);
//! * **uncovered** — no generated checker mimics it at all.
//!
//! The matrix also scores each region's **stuck coverage** — can any
//! checker report the region itself wedged? Today the answer is always
//! *uncovered*: `MimicChecker::check` returns `NotReady` (not a
//! failure) when a region stops publishing context, so a stuck task
//! silences its own watchdog. That is precisely the kvs
//! background-task-stuck blind spot chaos found, and the matrix
//! cross-references such chaos-confirmed [`BlindSpot`]s so CI can assert
//! the static and empirical views agree.
//!
//! All iteration is over sorted structures; the emitted JSON is
//! byte-identical across runs (an acceptance criterion — the artifact is
//! drift-diffed in CI).

use serde::{Deserialize, Serialize};

use wdog_gen::ir::ProgramIr;
use wdog_gen::patterns::resource_family;
use wdog_gen::plan::WatchdogPlan;
use wdog_gen::regions::find_regions;
use wdog_gen::{OpKind, VulnerabilityRules};

use crate::callgraph::{CallGraph, CallGraphSummary};

/// How well one vulnerable op (or liveness dimension) is guarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CoverageStatus {
    /// Mimicked by the region's own checker.
    Covered,
    /// Guarded only indirectly (cross-region probe, or send-only).
    Weak,
    /// No checker mimics it.
    Uncovered,
}

impl CoverageStatus {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            CoverageStatus::Covered => "covered",
            CoverageStatus::Weak => "weak",
            CoverageStatus::Uncovered => "uncovered",
        }
    }
}

/// One vulnerable op's row in the matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCoverage {
    /// `function#op`.
    pub op_id: String,
    /// Enclosing function.
    pub function: String,
    /// Op kind label (`disk-write`, `net-send`, ...).
    pub kind: String,
    /// Resource the op touches, if named.
    pub resource: Option<String>,
    /// Resource family used for matching.
    pub family: Option<String>,
    /// Coverage verdict.
    pub status: CoverageStatus,
    /// Checker that provides the (possibly weak) coverage.
    pub checker: Option<String>,
    /// Why the status is what it is, when not obvious.
    pub note: Option<String>,
}

/// One long-running region's slice of the matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionCoverage {
    /// Region entry function.
    pub entry: String,
    /// The region's own generated checker, if reduction kept any ops.
    pub checker: Option<String>,
    /// Vulnerable ops reachable from the entry, sorted by (function, op).
    pub ops: Vec<OpCoverage>,
    /// Can any checker report this region's task itself stuck?
    pub stuck_coverage: CoverageStatus,
    /// Why `stuck_coverage` is what it is.
    pub stuck_note: String,
}

/// A chaos-confirmed miss, cross-referenced against the static matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlindSpot {
    /// Reproducer id (corpus file stem).
    pub id: String,
    /// Fault label(s) the schedule injects, e.g. `task-stuck`.
    pub fault: String,
    /// The exact component and operation ids the schedule's faults are
    /// blamed on.
    pub blames: Vec<String>,
    /// True when the matrix flags the same gap statically.
    #[serde(default)]
    pub statically_flagged: bool,
    /// The matrix rows/dimensions that flag it.
    #[serde(default)]
    pub evidence: Vec<String>,
}

/// One entry in the ranked gap list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedGap {
    /// 1-based rank, most severe first.
    pub rank: usize,
    /// Region entry.
    pub region: String,
    /// `function#op`, or `<region liveness>` for the stuck dimension.
    pub op_id: String,
    /// Kind label.
    pub kind: String,
    /// The non-covered status.
    pub status: CoverageStatus,
}

/// Aggregate counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageTotals {
    /// Vulnerable ops across all regions.
    pub ops: usize,
    /// Rows fully covered.
    pub covered: usize,
    /// Rows weakly covered.
    pub weak: usize,
    /// Rows uncovered.
    pub uncovered: usize,
}

/// The full coverage-gap matrix for one program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageMatrix {
    /// Program name.
    pub program: String,
    /// Shape of the graph the reachability ran over.
    pub callgraph: CallGraphSummary,
    /// Per-region rows, sorted by entry.
    pub regions: Vec<RegionCoverage>,
    /// Non-covered rows, most severe first.
    pub uncovered_ranked: Vec<RankedGap>,
    /// Chaos-confirmed misses cross-referenced against the rows.
    pub blind_spots: Vec<BlindSpot>,
    /// Aggregate counts.
    pub totals: CoverageTotals,
}

/// Match key for "does some planned op mimic this one": kind label plus
/// resource family — the same similarity granularity reduction dedups on.
fn match_key(kind: &OpKind, resource: Option<&str>) -> (String, Option<String>) {
    (
        kind.label().to_owned(),
        resource.map(|r| resource_family(r).to_owned()),
    )
}

const STUCK_NOTE: &str = "no liveness probe: mimic checkers return NotReady (not Fail) \
     when a region stops publishing context, so a stuck task silences its own watchdog";

/// Builds the coverage matrix for `ir` against its generated `plan`,
/// cross-referencing `blind_spots` (chaos-confirmed misses; pass `&[]`
/// when no corpus exists).
pub fn coverage_matrix(
    ir: &ProgramIr,
    plan: &WatchdogPlan,
    blind_spots: &[BlindSpot],
) -> CoverageMatrix {
    let graph = CallGraph::build(ir);
    let rules = VulnerabilityRules::all();
    let regions = find_regions(ir);

    let mut region_rows: Vec<RegionCoverage> = Vec::new();
    for region in &regions {
        let own = plan.checker_for(&region.entry);
        let mut ops = Vec::new();
        for fname in &region.functions {
            let Some(f) = ir.function(fname) else {
                continue;
            };
            for op in &f.ops {
                if !rules.is_vulnerable(op) {
                    continue;
                }
                let key = match_key(&op.kind, op.resource.as_deref());
                let own_hit = own.is_some_and(|c| {
                    c.ops
                        .iter()
                        .any(|p| match_key(&p.kind, p.resource.as_deref()) == key)
                });
                let cross_hit = plan
                    .checkers
                    .iter()
                    .filter(|c| Some(c.context_key.as_str()) != Some(region.entry.as_str()))
                    .find(|c| {
                        c.ops
                            .iter()
                            .any(|p| match_key(&p.kind, p.resource.as_deref()) == key)
                    });

                let (mut status, checker, mut note) = if own_hit {
                    (
                        CoverageStatus::Covered,
                        own.map(|c| c.name.clone()),
                        None::<String>,
                    )
                } else if let Some(c) = cross_hit {
                    (
                        CoverageStatus::Weak,
                        Some(c.name.clone()),
                        Some(format!(
                            "cross-region: similarity dedup kept the probe in {}, so a fault \
                             here is blamed on component {}",
                            c.context_key, c.component
                        )),
                    )
                } else {
                    (CoverageStatus::Uncovered, None, None)
                };

                // A send probe with no matching receive only proves the
                // link accepts traffic — degrade to weak.
                if status == CoverageStatus::Covered && op.kind == OpKind::NetSend {
                    let recv_key = ("net-recv".to_owned(), key.1.clone());
                    let has_recv = plan.checkers.iter().any(|c| {
                        c.ops
                            .iter()
                            .any(|p| match_key(&p.kind, p.resource.as_deref()) == recv_key)
                    });
                    if !has_recv {
                        status = CoverageStatus::Weak;
                        note = Some(
                            "send-only: no net-recv probe on this family verifies the peer \
                             responds"
                                .to_owned(),
                        );
                    }
                }

                ops.push(OpCoverage {
                    op_id: op.id_in(fname).to_string(),
                    function: fname.clone(),
                    kind: op.kind.label().to_owned(),
                    resource: op.resource.clone(),
                    family: key.1.clone(),
                    status,
                    checker,
                    note,
                });
            }
        }
        ops.sort_by(|a, b| a.op_id.cmp(&b.op_id));
        region_rows.push(RegionCoverage {
            entry: region.entry.clone(),
            checker: own.map(|c| c.name.clone()),
            ops,
            stuck_coverage: CoverageStatus::Uncovered,
            stuck_note: STUCK_NOTE.to_owned(),
        });
    }

    // Ranked gaps: uncovered before weak, liveness pseudo-rows first
    // within a severity (a wedged region mutes every probe it feeds).
    let mut gaps: Vec<(CoverageStatus, u8, String, String, String)> = Vec::new();
    for r in &region_rows {
        if r.stuck_coverage != CoverageStatus::Covered {
            gaps.push((
                r.stuck_coverage,
                0,
                r.entry.clone(),
                format!("<{} liveness>", r.entry),
                "task-stuck".to_owned(),
            ));
        }
        for op in &r.ops {
            if op.status != CoverageStatus::Covered {
                gaps.push((
                    op.status,
                    1,
                    r.entry.clone(),
                    op.op_id.clone(),
                    op.kind.clone(),
                ));
            }
        }
    }
    gaps.sort_by(|a, b| {
        (std::cmp::Reverse(a.0), a.1, &a.2, &a.3).cmp(&(std::cmp::Reverse(b.0), b.1, &b.2, &b.3))
    });
    let uncovered_ranked = gaps
        .into_iter()
        .enumerate()
        .map(|(i, (status, _, region, op_id, kind))| RankedGap {
            rank: i + 1,
            region,
            op_id,
            kind,
            status,
        })
        .collect();

    let blind_spots = blind_spots
        .iter()
        .map(|b| cross_reference(b, &ir.name, &region_rows))
        .collect();

    let all_ops: Vec<&OpCoverage> = region_rows.iter().flat_map(|r| r.ops.iter()).collect();
    let count = |s: CoverageStatus| all_ops.iter().filter(|o| o.status == s).count();
    let totals = CoverageTotals {
        ops: all_ops.len(),
        covered: count(CoverageStatus::Covered),
        weak: count(CoverageStatus::Weak),
        uncovered: count(CoverageStatus::Uncovered),
    };

    CoverageMatrix {
        program: ir.name.clone(),
        callgraph: graph.summary(&ir.name),
        regions: region_rows,
        uncovered_ranked,
        blind_spots,
        totals,
    }
}

/// Finds the matrix rows that statically flag one chaos-confirmed miss.
fn cross_reference(spot: &BlindSpot, program: &str, regions: &[RegionCoverage]) -> BlindSpot {
    // Regions the faults are blamed on: `<program>.<entry>` is one of the
    // blamed ids. When none is, every region is a candidate.
    let named: Vec<&RegionCoverage> = regions
        .iter()
        .filter(|r| spot.blames.contains(&format!("{program}.{}", r.entry)))
        .collect();
    let candidates: Vec<&RegionCoverage> = if named.is_empty() {
        regions.iter().collect()
    } else {
        named
    };

    let fault = spot.fault.as_str();
    let stuck_like = ["task", "stuck", "pause", "busy"]
        .iter()
        .any(|w| fault.contains(w));
    let wants_prefix = if fault.contains("net") {
        Some("net-")
    } else if fault.contains("disk") {
        Some("disk-")
    } else {
        None
    };

    let mut evidence = Vec::new();
    for r in &candidates {
        if stuck_like && r.stuck_coverage != CoverageStatus::Covered {
            evidence.push(format!(
                "{}: stuck_coverage={}",
                r.entry,
                r.stuck_coverage.label()
            ));
        }
        for op in &r.ops {
            if op.status == CoverageStatus::Covered {
                continue;
            }
            let kind_matches = match wants_prefix {
                Some(p) => op.kind.starts_with(p),
                // Without a kind hint, only non-covered rows of *named*
                // regions count as evidence.
                None => {
                    !stuck_like && !candidates.is_empty() && !named_is_all(regions, &candidates)
                }
            };
            if kind_matches {
                evidence.push(format!("{}: {} {}", r.entry, op.op_id, op.status.label()));
            }
        }
    }
    evidence.sort();
    evidence.dedup();

    BlindSpot {
        id: spot.id.clone(),
        fault: spot.fault.clone(),
        blames: spot.blames.clone(),
        statically_flagged: !evidence.is_empty(),
        evidence,
    }
}

/// True when the candidate set fell back to "all regions".
fn named_is_all(regions: &[RegionCoverage], candidates: &[&RegionCoverage]) -> bool {
    candidates.len() == regions.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_gen::ir::{OpKind, ProgramBuilder};
    use wdog_gen::{generate_plan, ReductionConfig};

    fn ir() -> ProgramIr {
        ProgramBuilder::new("p")
            .function("writer_loop", |f| {
                f.long_running()
                    .op("wal_append", OpKind::DiskWrite, |o| o.resource("wal/log"))
                    .op("fmt", OpKind::Compute, |o| o)
            })
            .function("shadow_loop", |f| {
                // Identical (disk-write, wal/log) key as writer_loop:
                // global similarity dedup keeps only one probe — and
                // shadow_loop sorts first, so it wins.
                f.long_running()
                    .op("wal_mirror", OpKind::DiskWrite, |o| o.resource("wal/log"))
                    .op("orphan_read", OpKind::DiskRead, |o| o.resource("idx/"))
            })
            .function("sender_loop", |f| {
                f.long_running()
                    .op("ping", OpKind::NetSend, |o| o.resource("peer"))
            })
            .build()
    }

    fn matrix(spots: &[BlindSpot]) -> CoverageMatrix {
        let ir = ir();
        let plan = generate_plan(&ir, &ReductionConfig::default());
        coverage_matrix(&ir, &plan, spots)
    }

    fn row<'a>(m: &'a CoverageMatrix, entry: &str, op: &str) -> &'a OpCoverage {
        m.regions
            .iter()
            .find(|r| r.entry == entry)
            .unwrap()
            .ops
            .iter()
            .find(|o| o.op_id.ends_with(op))
            .unwrap()
    }

    #[test]
    fn own_checker_covers_matching_family() {
        let m = matrix(&[]);
        let r = row(&m, "shadow_loop", "#wal_mirror");
        assert_eq!(r.status, CoverageStatus::Covered);
        assert_eq!(r.checker.as_deref(), Some("shadow_loop_checker"));
        let idx = row(&m, "shadow_loop", "#orphan_read");
        assert_eq!(idx.status, CoverageStatus::Covered);
    }

    #[test]
    fn cross_region_dedup_is_weak() {
        let m = matrix(&[]);
        // Global dedup dropped writer_loop's only vulnerable op, so it
        // has no checker of its own — the row is weak, blamed on
        // shadow_loop's probe.
        let r = row(&m, "writer_loop", "#wal_append");
        assert_eq!(r.status, CoverageStatus::Weak);
        assert_eq!(r.checker.as_deref(), Some("shadow_loop_checker"));
        assert!(r.note.as_deref().unwrap().contains("cross-region"));
        let region = m.regions.iter().find(|r| r.entry == "writer_loop").unwrap();
        assert_eq!(region.checker, None);
    }

    #[test]
    fn op_missing_from_the_plan_is_uncovered() {
        // Simulate a stale self-description: the plan was generated from
        // an IR that never mentions the sender region, while the
        // (extracted) matrix IR has it.
        let stale = ProgramBuilder::new("p")
            .function("writer_loop", |f| {
                f.long_running()
                    .op("wal_append", OpKind::DiskWrite, |o| o.resource("wal/log"))
            })
            .build();
        let plan = generate_plan(&stale, &ReductionConfig::default());
        let m = coverage_matrix(&ir(), &plan, &[]);
        let r = row(&m, "sender_loop", "#ping");
        assert_eq!(r.status, CoverageStatus::Uncovered);
        assert!(m
            .uncovered_ranked
            .iter()
            .any(|g| g.op_id == "sender_loop#ping" && g.status == CoverageStatus::Uncovered));
    }

    #[test]
    fn send_without_recv_is_weak() {
        let m = matrix(&[]);
        let r = row(&m, "sender_loop", "#ping");
        assert_eq!(r.status, CoverageStatus::Weak);
        assert!(r.note.as_deref().unwrap().contains("send-only"));
    }

    #[test]
    fn every_region_lacks_stuck_coverage() {
        let m = matrix(&[]);
        assert!(m
            .regions
            .iter()
            .all(|r| r.stuck_coverage == CoverageStatus::Uncovered));
        // Liveness pseudo-rows appear in the ranked gaps, before weak rows.
        assert!(m
            .uncovered_ranked
            .iter()
            .any(|g| g.op_id.contains("liveness")));
        assert_eq!(m.uncovered_ranked[0].status, CoverageStatus::Uncovered);
    }

    #[test]
    fn task_stuck_blind_spot_is_flagged_via_liveness() {
        let m = matrix(&[BlindSpot {
            id: "chaos-1-000".into(),
            fault: "task-stuck".into(),
            blames: vec!["p.writer_loop".into()],
            statically_flagged: false,
            evidence: vec![],
        }]);
        let b = &m.blind_spots[0];
        assert!(b.statically_flagged, "{b:?}");
        assert!(b.evidence.iter().any(|e| e.contains("writer_loop")));
    }

    #[test]
    fn net_block_blind_spot_is_flagged_via_weak_net_rows() {
        let m = matrix(&[BlindSpot {
            id: "chaos-2-000".into(),
            fault: "net-block".into(),
            blames: vec!["p.link".into()],
            statically_flagged: false,
            evidence: vec![],
        }]);
        let b = &m.blind_spots[0];
        assert!(b.statically_flagged, "{b:?}");
        assert!(b.evidence.iter().any(|e| e.contains("#ping")));
    }

    #[test]
    fn matrix_is_deterministic() {
        let a = serde_json::to_string(&matrix(&[])).unwrap();
        let b = serde_json::to_string(&matrix(&[])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn totals_add_up() {
        let m = matrix(&[]);
        assert_eq!(
            m.totals.ops,
            m.totals.covered + m.totals.weak + m.totals.uncovered
        );
        assert!(m.totals.ops >= 4);
    }
}
