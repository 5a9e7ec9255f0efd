//! Incident records: one blamed component's trip through the recovery
//! ladder, with full MTTR accounting.

use serde::{Deserialize, Serialize};

/// The terminal state an incident reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryOutcome {
    /// A mitigation was applied and the blaming check passed again.
    VerifiedRecovered,
    /// The component's workload was shed; the process runs without it.
    Degraded,
}

impl RecoveryOutcome {
    /// Short stable label used in campaign artifacts.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryOutcome::VerifiedRecovered => "verified-recovered",
            RecoveryOutcome::Degraded => "degraded",
        }
    }
}

/// One closed incident: opened when the coordinator took the first blaming
/// report, closed when the ladder reached a terminal state.
///
/// MTTR is defined as `closed_at_ms - opened_at_ms` and is recorded for
/// *every* outcome — a degraded component still has a finite
/// time-to-terminal, which is what a campaign must bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Blamed component.
    pub component: String,
    /// Checker that filed the opening report.
    pub checker: String,
    /// Failure class label of the opening report (`stuck`/`error`/...).
    pub kind: String,
    /// Watchdog clock time at which the opening report was filed (its
    /// `at_ms`).
    pub reported_at_ms: u64,
    /// Coordinator clock time when the worker took the opening report:
    /// later than `reported_at_ms` when the report waited behind another
    /// component's ladder.
    pub opened_at_ms: u64,
    /// Coordinator clock time when the terminal state was reached.
    pub closed_at_ms: u64,
    /// Mean-time-to-repair for this incident: `closed - opened`.
    pub mttr_ms: u64,
    /// Reports coalesced into this incident (including the opener).
    pub reports: u64,
    /// Wait-and-recheck attempts spent.
    pub retries: u32,
    /// Component restarts attempted.
    pub restarts: u32,
    /// Verification re-checks dispatched.
    pub verifications: u32,
    /// Whether the final verification re-check passed.
    pub verified: bool,
    /// Terminal state.
    pub outcome: RecoveryOutcome,
    /// Whether the flap circuit breaker pinned this component.
    pub pinned: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(
            RecoveryOutcome::VerifiedRecovered.label(),
            "verified-recovered"
        );
        assert_eq!(RecoveryOutcome::Degraded.label(), "degraded");
    }

    #[test]
    fn incident_serializes_roundtrip() {
        let i = Incident {
            component: "kvs.compaction".into(),
            checker: "kvs.compact_once_checker".into(),
            kind: "stuck".into(),
            reported_at_ms: 90,
            opened_at_ms: 100,
            closed_at_ms: 350,
            mttr_ms: 250,
            reports: 3,
            retries: 1,
            restarts: 1,
            verifications: 2,
            verified: true,
            outcome: RecoveryOutcome::VerifiedRecovered,
            pinned: false,
        };
        let json = serde_json::to_string(&i).unwrap();
        let back: Incident = serde_json::from_str(&json).unwrap();
        assert_eq!(back, i);
    }
}
