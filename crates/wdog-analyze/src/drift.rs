//! Drift comparison: extracted IR vs self-description vs planned hooks.
//!
//! Matching is **key-level and global across paired regions**: every
//! vulnerable op boils down to a similarity key `(vulnerability class,
//! op-kind label, resource family)` — the same key the reducer's
//! similar-op dedup collapses on. Two IRs that agree on the key set
//! produce watchdogs with identical checking power, regardless of how
//! many syntactic sites map onto each key or how ops are attributed to
//! shared helper functions. Leftover keys become directional findings:
//!
//! * extracted-only → [`DriftKind::MissingFromDescription`] (the source
//!   does something vulnerable the description is silent about), pointing
//!   at the concrete source site;
//! * described-only → [`DriftKind::DescribedNotInSource`] (the
//!   description claims an op that no longer exists).
//!
//! Regions pair by entry name; unpaired regions get region-level
//! findings. Finally every planned
//! [`HookPoint`](wdog_gen::plan::HookPoint) is checked against the hook
//! keys and context fields the source actually fires
//! ([`DriftKind::UnhookedPlanPoint`]).

use std::collections::BTreeMap;

use wdog_gen::drift::{DriftFinding, DriftKind, DriftReport};
use wdog_gen::ir::ProgramIr;
use wdog_gen::regions::find_regions;
use wdog_gen::resource_family;
use wdog_gen::vulnerable::VulnerabilityRules;
use wdog_gen::WatchdogPlan;

use crate::extract::ExtractedProgram;

/// A similarity key plus where it came from (region + representative op).
#[derive(Debug, Clone)]
struct KeyedOp {
    region: String,
    op_id: String,
    detail: String,
}

/// Similarity key: `(class label, kind label, resource family)`.
type Key = (String, String, String);

fn vulnerable_keys(
    ir: &ProgramIr,
    entries: &[String],
    rules: &VulnerabilityRules,
) -> BTreeMap<Key, KeyedOp> {
    let mut keys: BTreeMap<Key, KeyedOp> = BTreeMap::new();
    let regions = find_regions(ir);
    let mut seen_fns: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for region in regions.iter().filter(|r| entries.contains(&r.entry)) {
        for fn_name in &region.functions {
            // Shared helpers contribute their keys once, from the first
            // region (sorted) — mirroring the reducer's global pass.
            if !seen_fns.insert(fn_name) {
                continue;
            }
            let Some(f) = ir.function(fn_name) else {
                continue;
            };
            for op in &f.ops {
                let Some(class) = rules.classify(op) else {
                    continue;
                };
                let family = op
                    .resource
                    .as_deref()
                    .map(|r| resource_family(r).to_owned())
                    .unwrap_or_default();
                let key = (
                    class.label().to_owned(),
                    op.kind.label().to_owned(),
                    family.clone(),
                );
                keys.entry(key).or_insert_with(|| KeyedOp {
                    region: region.entry.clone(),
                    op_id: op.id_in(fn_name).to_string(),
                    detail: format!(
                        "{} {} on `{}`",
                        class.label(),
                        op.kind.label(),
                        if family.is_empty() { "<none>" } else { &family }
                    ),
                });
            }
        }
    }
    keys
}

/// Compares the three artifacts into a [`DriftReport`].
///
/// * `described` — the target's hand-written `describe_ir()`;
/// * `plan` — the watchdog plan generated **from the description**;
/// * `extracted` — what `wdog-analyze` recovered from source;
/// * `rules` — the vulnerability selection in force for this target.
pub fn compare(
    described: &ProgramIr,
    plan: &WatchdogPlan,
    extracted: &ExtractedProgram,
    rules: &VulnerabilityRules,
) -> DriftReport {
    let mut findings = Vec::new();
    let mut info: Vec<String> = extracted.notes.clone();

    let described_entries: Vec<String> = described
        .functions
        .values()
        .filter(|f| f.long_running && !f.init_only)
        .map(|f| f.name.clone())
        .collect();
    let extracted_entries: Vec<String> = extracted
        .ir
        .functions
        .values()
        .filter(|f| f.long_running)
        .map(|f| f.name.clone())
        .collect();

    let paired: Vec<String> = described_entries
        .iter()
        .filter(|e| extracted_entries.contains(e))
        .cloned()
        .collect();
    for entry in described_entries.iter().filter(|e| !paired.contains(e)) {
        findings.push(DriftFinding {
            kind: DriftKind::RegionNotInSource,
            region: entry.clone(),
            subject: entry.clone(),
            detail: format!(
                "described long-running region `{entry}` has no matching \
                 spawn entry or hook key in source"
            ),
            source: None,
            allowed: None,
        });
    }
    for entry in extracted_entries.iter().filter(|e| !paired.contains(e)) {
        findings.push(DriftFinding {
            kind: DriftKind::RegionNotDescribed,
            region: entry.clone(),
            subject: entry.clone(),
            detail: format!(
                "source spawns long-running region `{entry}` that \
                 describe_ir() does not model"
            ),
            source: None,
            allowed: None,
        });
    }

    let described_keys = vulnerable_keys(described, &paired, rules);
    let extracted_keys = vulnerable_keys(&extracted.ir, &paired, rules);

    let matched_ops = described_keys
        .keys()
        .filter(|k| extracted_keys.contains_key(*k))
        .count();
    for (key, at) in &extracted_keys {
        if !described_keys.contains_key(key) {
            findings.push(DriftFinding {
                kind: DriftKind::MissingFromDescription,
                region: at.region.clone(),
                subject: at.op_id.clone(),
                detail: format!("source performs {} — not in describe_ir()", at.detail),
                source: extracted.sites.get(&at.op_id).cloned(),
                allowed: None,
            });
        }
    }
    for (key, at) in &described_keys {
        if !extracted_keys.contains_key(key) {
            findings.push(DriftFinding {
                kind: DriftKind::DescribedNotInSource,
                region: at.region.clone(),
                subject: at.op_id.clone(),
                detail: format!(
                    "describe_ir() claims {} — no matching source site",
                    at.detail
                ),
                source: None,
                allowed: None,
            });
        }
    }

    // Hook confirmation: each planned hook must have a runtime firing for
    // its context key that publishes every planned field. Hooks in
    // unpaired regions are already covered by the region finding.
    let mut matched_hooks = 0usize;
    for hook in &plan.hooks {
        if !paired.contains(&hook.context_key) {
            continue;
        }
        let subject = format!("{}#{}", hook.function, hook.before_op);
        match extracted.regions_fired.get(&hook.context_key) {
            None => findings.push(DriftFinding {
                kind: DriftKind::UnhookedPlanPoint,
                region: hook.context_key.clone(),
                subject,
                detail: format!(
                    "plan hooks context key `{}` but no source site fires it",
                    hook.context_key
                ),
                source: None,
                allowed: None,
            }),
            Some(fields) => {
                let missing: Vec<&str> = hook
                    .publishes
                    .iter()
                    .map(|a| a.name.as_str())
                    .filter(|n| !fields.contains(*n))
                    .collect();
                if missing.is_empty() {
                    matched_hooks += 1;
                } else {
                    findings.push(DriftFinding {
                        kind: DriftKind::UnhookedPlanPoint,
                        region: hook.context_key.clone(),
                        subject,
                        detail: format!(
                            "hook fires `{}` but never publishes field(s) {}",
                            hook.context_key,
                            missing.join(", ")
                        ),
                        source: None,
                        allowed: None,
                    });
                }
            }
        }
    }
    if plan.hooks.is_empty() {
        info.push("plan has no hook points to confirm".to_owned());
    }

    findings.sort_by(|a, b| (a.kind, &a.region, &a.subject).cmp(&(b.kind, &b.region, &b.subject)));
    DriftReport {
        program: described.name.clone(),
        matched_ops,
        matched_hooks,
        findings,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_model;
    use crate::model::{CrateModel, SourceFile};
    use std::collections::BTreeSet;
    use wdog_gen::ir::ProgramBuilder;
    use wdog_gen::{generate_plan, ArgType};

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

    fn described(with_sync: bool) -> wdog_gen::ProgramIr {
        let mut b = ProgramBuilder::new("demo");
        b = b.function("wal_loop", |f| {
            let f = f
                .long_running()
                .op("wal_append", wdog_gen::OpKind::DiskWrite, |o| {
                    o.resource("wal/").in_loop().arg("payload", ArgType::Bytes)
                });
            if with_sync {
                f.op("wal_sync", wdog_gen::OpKind::DiskSync, |o| {
                    o.resource("wal/")
                })
            } else {
                f
            }
        });
        b.build()
    }

    #[test]
    fn agreement_is_clean() {
        let ir = described(true);
        let plan = generate_plan(&ir, &wdog_gen::ReductionConfig::default());
        let report = compare(&ir, &plan, &extracted(), &VulnerabilityRules::default());
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.matched_ops, 2);
        assert_eq!(report.matched_hooks, 1);
    }

    #[test]
    fn deleted_description_op_is_missing_from_description() {
        let ir = described(false);
        let plan = generate_plan(&ir, &wdog_gen::ReductionConfig::default());
        let report = compare(&ir, &plan, &extracted(), &VulnerabilityRules::default());
        let denied = report.denied();
        assert_eq!(denied.len(), 1, "{denied:?}");
        assert_eq!(denied[0].kind, DriftKind::MissingFromDescription);
        let src = denied[0].source.as_ref().expect("source site");
        assert_eq!(src.file, "src/wal.rs");
        assert!(denied[0].detail.contains("disk-sync"));
    }

    #[test]
    fn phantom_described_op_is_described_not_in_source() {
        let ir = {
            let b = ProgramBuilder::new("demo").function("wal_loop", |f| {
                f.long_running()
                    .op("wal_append", wdog_gen::OpKind::DiskWrite, |o| {
                        o.resource("wal/").in_loop().arg("payload", ArgType::Bytes)
                    })
                    .op("wal_sync", wdog_gen::OpKind::DiskSync, |o| {
                        o.resource("wal/")
                    })
                    .op("repl_send", wdog_gen::OpKind::NetSend, |o| {
                        o.resource("replica")
                    })
            });
            b.build()
        };
        let plan = generate_plan(&ir, &wdog_gen::ReductionConfig::default());
        let report = compare(&ir, &plan, &extracted(), &VulnerabilityRules::default());
        let denied = report.denied();
        assert_eq!(denied.len(), 1, "{denied:?}");
        assert_eq!(denied[0].kind, DriftKind::DescribedNotInSource);
        assert!(denied[0].subject.contains("repl_send"));
    }

    #[test]
    fn unpaired_regions_are_reported_both_ways() {
        let ir = ProgramBuilder::new("demo")
            .function("flusher_loop", |f| {
                f.long_running()
                    .op("x", wdog_gen::OpKind::DiskSync, |o| o.resource("sst/"))
            })
            .build();
        let plan = generate_plan(&ir, &wdog_gen::ReductionConfig::default());
        let report = compare(&ir, &plan, &extracted(), &VulnerabilityRules::default());
        let kinds: Vec<DriftKind> = report.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&DriftKind::RegionNotInSource));
        assert!(kinds.contains(&DriftKind::RegionNotDescribed));
        // No op-level noise from unpaired regions.
        assert!(!kinds.contains(&DriftKind::MissingFromDescription));
        assert!(!kinds.contains(&DriftKind::DescribedNotInSource));
    }

    #[test]
    fn unfired_hook_field_is_unhooked_plan_point() {
        let mut ex = extracted();
        // Pretend the source never publishes `payload`.
        ex.regions_fired.insert("wal_loop".into(), BTreeSet::new());
        let ir = described(true);
        let plan = generate_plan(&ir, &wdog_gen::ReductionConfig::default());
        let report = compare(&ir, &plan, &ex, &VulnerabilityRules::default());
        let denied = report.denied();
        assert!(denied
            .iter()
            .any(|f| f.kind == DriftKind::UnhookedPlanPoint && f.detail.contains("payload")));
    }
}
