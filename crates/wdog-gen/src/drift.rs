//! Drift findings: the vocabulary of the `wdog-lint` gate.
//!
//! The lint compares three artifacts that must agree for a target's
//! watchdog to be trustworthy:
//!
//! 1. the IR **extracted from source** by `wdog-analyze`;
//! 2. the hand-written `describe_ir()` **self-description** in the
//!    target's `wd.rs`;
//! 3. the **runtime hook registration** implied by the generated plan.
//!
//! Each disagreement becomes a [`DriftFinding`]. A target may ship an
//! [`AllowEntry`] list for findings that are understood and deliberate
//! (every entry carries a human-readable reason); everything else makes
//! `wdog-lint` exit 1. The comparison itself lives in `wdog-analyze::drift`;
//! these types sit here so target crates can export allowlists without
//! depending on the analyzer.

use serde::{Deserialize, Serialize};

/// What kind of disagreement a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DriftKind {
    /// A vulnerable op exists in source but not in `describe_ir()` (a).
    MissingFromDescription,
    /// A described op has no matching source site (b).
    DescribedNotInSource,
    /// A planned `HookPoint` has no runtime hook firing its context (c).
    UnhookedPlanPoint,
    /// A long-running region exists in source but not in the description.
    RegionNotDescribed,
    /// A described region has no source entry point.
    RegionNotInSource,
}

impl DriftKind {
    /// Stable kebab-case label, used in rendered reports and allowlists.
    pub fn label(self) -> &'static str {
        match self {
            DriftKind::MissingFromDescription => "missing-from-description",
            DriftKind::DescribedNotInSource => "described-not-in-source",
            DriftKind::UnhookedPlanPoint => "unhooked-plan-point",
            DriftKind::RegionNotDescribed => "region-not-described",
            DriftKind::RegionNotInSource => "region-not-in-source",
        }
    }
}

/// A source location: the workspace-relative file. The op id next to it
/// (`function#op`) names the site within the file, so moving a line
/// moves no serialized byte.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SourceRef {
    /// Workspace-relative file path.
    pub file: String,
}

impl std::fmt::Display for SourceRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.file)
    }
}

/// One disagreement between source, description, and hooks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftFinding {
    /// The disagreement class.
    pub kind: DriftKind,
    /// The long-running region (context key) the finding belongs to.
    pub region: String,
    /// What drifted: an op id (`function#op`), hook id, or region name.
    pub subject: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Source site, when the finding points at real code.
    pub source: Option<SourceRef>,
    /// Set to the allowlist reason if an [`AllowEntry`] matched.
    pub allowed: Option<String>,
}

/// A deliberate, documented exception to the drift gate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllowEntry {
    /// Finding kind this entry may absorb.
    pub kind: DriftKind,
    /// Region name to match, or `*` for any.
    pub region: String,
    /// Substring of the finding subject, or `*` for any.
    pub subject: String,
    /// Why the drift is acceptable — rendered next to the finding.
    pub reason: String,
}

impl AllowEntry {
    /// Builds an entry; `region`/`subject` accept `*` wildcards.
    pub fn new(
        kind: DriftKind,
        region: impl Into<String>,
        subject: impl Into<String>,
        reason: impl Into<String>,
    ) -> Self {
        Self {
            kind,
            region: region.into(),
            subject: subject.into(),
            reason: reason.into(),
        }
    }

    /// Returns `true` if this entry absorbs `finding`.
    pub fn matches(&self, finding: &DriftFinding) -> bool {
        self.kind == finding.kind
            && (self.region == "*" || self.region == finding.region)
            && (self.subject == "*" || finding.subject.contains(&self.subject))
    }
}

/// The full lint result for one target program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Target program name.
    pub program: String,
    /// Ops that matched between source and description.
    pub matched_ops: usize,
    /// Plan hook points confirmed against runtime firings.
    pub matched_hooks: usize,
    /// All findings, allowed or not.
    pub findings: Vec<DriftFinding>,
    /// Non-gating diagnostics (e.g. fuzzy matches worth a look).
    pub info: Vec<String>,
}

impl DriftReport {
    /// Marks findings absorbed by `allowlist` with their reasons.
    pub fn apply_allowlist(&mut self, allowlist: &[AllowEntry]) {
        for finding in &mut self.findings {
            if finding.allowed.is_none() {
                if let Some(entry) = allowlist.iter().find(|e| e.matches(finding)) {
                    finding.allowed = Some(entry.reason.clone());
                }
            }
        }
    }

    /// Findings not absorbed by any allowlist entry — these gate CI.
    pub fn denied(&self) -> Vec<&DriftFinding> {
        self.findings
            .iter()
            .filter(|f| f.allowed.is_none())
            .collect()
    }

    /// Returns `true` if nothing gates (allowed findings may remain).
    pub fn is_clean(&self) -> bool {
        self.denied().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: DriftKind, region: &str, subject: &str) -> DriftFinding {
        DriftFinding {
            kind,
            region: region.into(),
            subject: subject.into(),
            detail: String::new(),
            source: None,
            allowed: None,
        }
    }

    #[test]
    fn allow_entries_match_on_kind_region_and_subject() {
        let entry = AllowEntry::new(
            DriftKind::RegionNotDescribed,
            "responder_loop",
            "*",
            "liveness responder is probe-checked, not mimicked",
        );
        assert!(entry.matches(&finding(
            DriftKind::RegionNotDescribed,
            "responder_loop",
            "responder_loop"
        )));
        assert!(!entry.matches(&finding(
            DriftKind::MissingFromDescription,
            "responder_loop",
            "x"
        )));
        assert!(!entry.matches(&finding(
            DriftKind::RegionNotDescribed,
            "broadcast_loop",
            "broadcast_loop"
        )));
    }

    #[test]
    fn subject_matching_is_substring() {
        let entry = AllowEntry::new(DriftKind::DescribedNotInSource, "*", "probe_", "probes");
        assert!(entry.matches(&finding(
            DriftKind::DescribedNotInSource,
            "r",
            "loop#probe_key"
        )));
        assert!(!entry.matches(&finding(DriftKind::DescribedNotInSource, "r", "loop#other")));
    }

    #[test]
    fn report_gates_on_denied_findings_only() {
        let mut report = DriftReport {
            program: "kvs".into(),
            matched_ops: 3,
            matched_hooks: 2,
            findings: vec![
                finding(DriftKind::RegionNotDescribed, "responder_loop", "responder"),
                finding(DriftKind::MissingFromDescription, "wal_loop", "wal#lock"),
            ],
            info: Vec::new(),
        };
        assert!(!report.is_clean());
        report.apply_allowlist(&[AllowEntry::new(
            DriftKind::RegionNotDescribed,
            "*",
            "*",
            "reason",
        )]);
        assert_eq!(report.denied().len(), 1);
        assert_eq!(report.denied()[0].kind, DriftKind::MissingFromDescription);
        report.apply_allowlist(&[AllowEntry::new(
            DriftKind::MissingFromDescription,
            "wal_loop",
            "wal#lock",
            "r2",
        )]);
        assert!(report.is_clean());
    }

    #[test]
    fn reports_serialize_to_json() {
        let report = DriftReport {
            program: "kvs".into(),
            matched_ops: 1,
            matched_hooks: 0,
            findings: vec![DriftFinding {
                kind: DriftKind::UnhookedPlanPoint,
                region: "wal_loop".into(),
                subject: "wal_loop#append".into(),
                detail: "no runtime hook".into(),
                source: Some(SourceRef {
                    file: "crates/kvs/src/listener.rs".into(),
                }),
                allowed: None,
            }],
            info: Vec::new(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: DriftReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
