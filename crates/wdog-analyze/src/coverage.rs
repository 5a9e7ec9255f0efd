//! Coverage-gap matrix: vulnerable-op × checker coverage, and the one
//! static comparison of a target's description with its source.
//!
//! The paper argues watchdogs should mimic *every* vulnerable operation a
//! long-running region performs; the chaos campaigns showed where the
//! shipped checkers fall short empirically. This pass enumerates the same
//! gaps statically: reachability from each long-running region of the
//! extracted IR over the [`crate::callgraph`] to its vulnerable ops (per
//! [`wdog_gen::vulnerable::classify`]), crossed against the
//! [`wdog_gen::WatchdogPlan`] generated from the hand-written description.
//!
//! Each vulnerable source op gets a status:
//!
//! * **covered** — the region's own generated checker mimics an op of the
//!   same (kind, resource-family);
//! * **weak** — only a *different* region's checker mimics it (global
//!   similarity dedup moved the probe, so a fault here is blamed on the
//!   wrong component), or the probe is a send with no matching receive
//!   (it can verify the link accepts traffic, not that peers respond);
//! * **uncovered** — no generated checker mimics it at all.
//!
//! The other direction is checked region by region too: every op of a
//! region's planned checker records the same-(kind, family) source op of
//! the same region it matched, and every planned hook records whether
//! source fires its context key with each field it publishes.
//! [`CoverageMatrix::violations`] turns the matrix into the `wdog-lint`
//! gate: an uncovered source op, a planned op with no match in its
//! region's source, a region only one side has, or a hook source never
//! fires. Exceptions live in source, as `// wdog:` directives.
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
//! byte-identical across runs (the archive is byte-compared in CI).

use serde::{Deserialize, Serialize};

use wdog_gen::patterns::resource_family;
use wdog_gen::plan::WatchdogPlan;
use wdog_gen::regions::{find_regions, Region};
use wdog_gen::vulnerable::is_vulnerable;
use wdog_gen::OpKind;

use crate::callgraph::{CallGraph, CallGraphSummary};
use crate::extract::ExtractedProgram;

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

/// One op of a region's planned checker, matched against the region's
/// source.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DescribedOp {
    /// `function#op` in the description.
    pub op_id: String,
    /// The first (by op id) source op of the same region with the same
    /// (kind, resource family); `None` fails the gate.
    pub matched: Option<String>,
}

/// One planned hook, checked against the hook keys source fires.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HookCoverage {
    /// `function#before_op` in the description.
    pub hook: String,
    /// Fields the hook publishes that no source firing of its context key
    /// does (all of them when source never fires the key); non-empty
    /// fails the gate.
    pub missing: Vec<String>,
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
    /// The ops of the region's own checker, in checker order, each with
    /// the source op it matched.
    pub described: Vec<DescribedOp>,
    /// The plan's hooks into this region's context key, in plan order.
    pub hooks: Vec<HookCoverage>,
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
    /// Per-region rows of the extracted IR, sorted by entry.
    pub regions: Vec<RegionCoverage>,
    /// Described long-running entries with no source region.
    pub not_in_source: Vec<String>,
    /// Source long-running entries the description does not model.
    pub not_described: Vec<String>,
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

/// Builds the coverage matrix for the `extracted` program against the
/// `plan` generated from its description, cross-referencing
/// `blind_spots` (chaos-confirmed misses; pass `&[]` when no corpus
/// exists).
pub fn coverage_matrix(
    extracted: &ExtractedProgram,
    plan: &WatchdogPlan,
    blind_spots: &[BlindSpot],
) -> CoverageMatrix {
    let ir = &extracted.ir;
    let graph = CallGraph::build(ir);
    let regions = find_regions(ir);
    let planned_key = |p: &wdog_gen::plan::PlannedOp| match_key(&p.kind, p.resource.as_deref());

    let mut region_rows: Vec<RegionCoverage> = Vec::new();
    for region in &regions {
        let own = plan.checker_for(&region.entry);
        let mut ops = Vec::new();
        for fname in &region.functions {
            let Some(f) = ir.function(fname) else {
                continue;
            };
            for op in &f.ops {
                if !is_vulnerable(op) {
                    continue;
                }
                let key = match_key(&op.kind, op.resource.as_deref());
                let own_hit = own.is_some_and(|c| c.ops.iter().any(|p| planned_key(p) == key));
                let cross_hit = plan
                    .checkers
                    .iter()
                    .filter(|c| Some(c.context_key.as_str()) != Some(region.entry.as_str()))
                    .find(|c| c.ops.iter().any(|p| planned_key(p) == key));
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
                    let has_recv = plan
                        .checkers
                        .iter()
                        .any(|c| c.ops.iter().any(|p| planned_key(p) == recv_key));
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
        let described = own
            .map(|c| c.ops.as_slice())
            .unwrap_or_default()
            .iter()
            .map(|p| {
                let key = planned_key(p);
                DescribedOp {
                    op_id: p.op_id.to_string(),
                    matched: ops
                        .iter()
                        .find(|o| o.kind == key.0 && o.family == key.1)
                        .map(|o| o.op_id.clone()),
                }
            })
            .collect();
        let fired = extracted.regions_fired.get(&region.entry);
        let hooks = plan
            .hooks
            .iter()
            .filter(|h| h.context_key == region.entry)
            .map(|h| HookCoverage {
                hook: format!("{}#{}", h.function, h.before_op),
                missing: h
                    .publishes
                    .iter()
                    .map(|a| a.name.clone())
                    .filter(|n| !fired.is_some_and(|f| f.contains(n)))
                    .collect(),
            })
            .collect();
        region_rows.push(RegionCoverage {
            entry: region.entry.clone(),
            checker: own.map(|c| c.name.clone()),
            ops,
            described,
            hooks,
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

    // Entries of the regions in `a` that `b` lacks.
    let only = |a: &[Region], b: &[Region]| -> Vec<String> {
        a.iter()
            .filter(|r| !b.iter().any(|o| o.entry == r.entry))
            .map(|r| r.entry.clone())
            .collect()
    };

    CoverageMatrix {
        program: ir.name.clone(),
        callgraph: graph.summary(&ir.name),
        regions: region_rows,
        not_in_source: only(&plan.reduced.regions, &regions),
        not_described: only(&regions, &plan.reduced.regions),
        uncovered_ranked,
        blind_spots,
        totals,
    }
}

impl CoverageMatrix {
    /// What fails `wdog-lint`, one line per broken condition instance:
    /// a region only one side has, a source op no checker mimics, a
    /// planned op with no same-(kind, family) op in its region's source,
    /// and a planned hook source never fires with all its fields. Empty
    /// when description and source agree.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .not_in_source
            .iter()
            .map(|e| format!("described region `{e}` has no source region"))
            .chain(
                self.not_described
                    .iter()
                    .map(|e| format!("source region `{e}` is not described")),
            )
            .collect();
        for r in &self.regions {
            let region = &r.entry;
            for op in r
                .ops
                .iter()
                .filter(|o| o.status == CoverageStatus::Uncovered)
            {
                out.push(format!(
                    "{region}: source op {} ({}) is mimicked by no checker",
                    op.op_id, op.kind
                ));
            }
            for op in r.described.iter().filter(|o| o.matched.is_none()) {
                out.push(format!(
                    "{region}: described op {} has no same-kind, same-resource op in the \
                     region's source",
                    op.op_id
                ));
            }
            for h in r.hooks.iter().filter(|h| !h.missing.is_empty()) {
                out.push(format!(
                    "{region}: hook {} publishes {} that no source firing of `{region}` does",
                    h.hook,
                    h.missing.join(", ")
                ));
            }
        }
        out
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
    use crate::extract::extract_model;
    use crate::model::{CrateModel, SourceFile};
    use std::collections::BTreeSet;
    use wdog_gen::ir::{OpKind, ProgramBuilder, ProgramIr};
    use wdog_gen::{generate_plan, ArgType, ReductionConfig};

    /// `ir` as an extraction with no sites and no hook firings.
    fn program(ir: ProgramIr) -> ExtractedProgram {
        ExtractedProgram {
            ir,
            sites: Default::default(),
            regions_fired: Default::default(),
            notes: Vec::new(),
        }
    }

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
        coverage_matrix(&program(ir), &plan, spots)
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
        let m = coverage_matrix(&program(ir()), &plan, &[]);
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

    const SRC: &str = r#"
pub fn start(s: Shared) {
    t.spawn(move || wal_loop(s)).unwrap();
}

// wdog: resource wal/
pub fn wal_loop(s: Shared) {
    let hook = s.hooks.site("wal_loop");
    loop {
        hook.fire(|| vec![("payload".into(), CtxValue::Bytes(b.clone()))]);
        s.disk.append("wal/log", &frame);
        s.disk.fsync("wal/log");
    }
}
"#;

    fn extracted() -> ExtractedProgram {
        extract_model(
            "demo",
            CrateModel::build(vec![SourceFile::parse("src/wal.rs", SRC, false)]),
        )
    }

    /// The `wal_loop` description, with the sync op and `extra` ops.
    fn described(with_sync: bool, extra: &[(&str, OpKind, &str)]) -> ProgramIr {
        ProgramBuilder::new("demo")
            .function("wal_loop", |f| {
                let mut f = f.long_running().op("wal_append", OpKind::DiskWrite, |o| {
                    o.resource("wal/").in_loop().arg("payload", ArgType::Bytes)
                });
                if with_sync {
                    f = f.op("wal_sync", OpKind::DiskSync, |o| o.resource("wal/"));
                }
                for (name, kind, resource) in extra {
                    f = f.op(*name, kind.clone(), |o| o.resource(*resource));
                }
                f
            })
            .build()
    }

    fn gate(ex: &ExtractedProgram, ir: &ProgramIr) -> CoverageMatrix {
        coverage_matrix(ex, &generate_plan(ir, &ReductionConfig::default()), &[])
    }

    #[test]
    fn agreement_passes_and_records_each_match() {
        let m = gate(&extracted(), &described(true, &[]));
        assert_eq!(m.violations(), Vec::<String>::new());
        let r = &m.regions[0];
        let matched: Vec<(&str, Option<&str>)> = r
            .described
            .iter()
            .map(|d| (d.op_id.as_str(), d.matched.as_deref()))
            .collect();
        assert_eq!(
            matched,
            [
                ("wal_loop#wal_append", Some("wal_loop#append")),
                ("wal_loop#wal_sync", Some("wal_loop#fsync")),
            ]
        );
        assert_eq!(r.hooks.len(), 1);
        assert!(r.hooks[0].missing.is_empty());
    }

    #[test]
    fn a_source_op_the_description_lacks_is_uncovered() {
        let v = gate(&extracted(), &described(false, &[])).violations();
        assert_eq!(
            v,
            ["wal_loop: source op wal_loop#fsync (disk-sync) is mimicked by no checker"]
        );
    }

    #[test]
    fn a_described_op_is_matched_in_its_own_region_only() {
        // `replica` sends exist in source — but in another region.
        let src = format!(
            "{SRC}\npub fn go(s: Shared) {{ t.spawn(move || repl_loop(s)).unwrap(); }}\n\
             pub fn repl_loop(s: Shared) {{ loop {{ s.net.send(a, \"replica\", m); }} }}\n"
        );
        let ex = extract_model(
            "demo",
            CrateModel::build(vec![SourceFile::parse("src/wal.rs", &src, false)]),
        );
        let mut ir = described(true, &[("repl_send", OpKind::NetSend, "replica")]);
        let repl = ProgramBuilder::new("demo")
            .function("repl_loop", |f| f.long_running().compute("tick"))
            .build();
        ir.functions.extend(repl.functions);
        assert_eq!(
            gate(&ex, &ir).violations(),
            [
                "wal_loop: described op wal_loop#repl_send has no same-kind, same-resource op \
              in the region's source"
            ]
        );
    }

    #[test]
    fn regions_only_one_side_has_fail_both_ways() {
        // The described region has no vulnerable op (no checker, no hooks),
        // so only the pairing condition can flag it.
        let ir = ProgramBuilder::new("demo")
            .function("flusher_loop", |f| f.long_running().compute("tick"))
            .build();
        let m = gate(&program(ProgramBuilder::new("demo").build()), &ir);
        assert_eq!(m.not_in_source, ["flusher_loop"]);
        assert_eq!(
            m.violations(),
            ["described region `flusher_loop` has no source region"]
        );
        let m = gate(&extracted(), &described(true, &[]));
        assert!(m.not_described.is_empty());
        let v = gate(&extracted(), &ProgramBuilder::new("demo").build()).violations();
        assert!(
            v.contains(&"source region `wal_loop` is not described".to_owned()),
            "{v:?}"
        );
    }

    #[test]
    fn a_hook_field_source_never_publishes_fails() {
        const FAIL: &str = "wal_loop: hook wal_loop#wal_append publishes payload that no source \
                            firing of `wal_loop` does";
        let mut ex = extracted();
        ex.regions_fired.insert("wal_loop".into(), BTreeSet::new());
        assert_eq!(gate(&ex, &described(true, &[])).violations(), [FAIL]);
        // A key source never fires misses every field.
        ex.regions_fired.clear();
        assert_eq!(gate(&ex, &described(true, &[])).violations(), [FAIL]);
    }
}
