//! Failure reports: what a watchdog detection looks like.
//!
//! The paper's core argument for intrinsic detectors is *localization*: a
//! report should "pinpoint the problematic code region along with the payload
//! for diagnosing and reproducing production failures" (§1). A
//! [`FailureReport`] therefore carries a [`FaultLocation`] naming the
//! component, function, and — when known — the specific operation, plus the
//! captured context payload at the time of the check.

use serde::{Deserialize, Serialize};

use wdog_base::ids::{CheckerId, ComponentId, OpId};

/// The class of a detected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// A liveness violation: the checked operation never completed
    /// (deadlock, blocked I/O, infinite loop).
    Stuck,
    /// The operation completed but took far longer than its baseline
    /// (fail-slow hardware, limplock).
    Slow,
    /// The operation returned an explicit error.
    Error,
    /// Data failed an integrity check (checksum mismatch, bad state).
    Corruption,
    /// A semantic assertion over program state failed.
    AssertViolation,
    /// The checker itself panicked while executing — treated as a detection
    /// because mimic checkers share the fate of the code they copy.
    CheckerPanic,
}

impl FailureKind {
    /// Returns `true` for liveness-class failures (§2, Table 1).
    pub fn is_liveness(self) -> bool {
        matches!(self, FailureKind::Stuck | FailureKind::Slow)
    }

    /// Classifies a substrate error into a failure kind: timeouts and
    /// disconnect-while-waiting ([`BaseError::is_liveness`]) map to
    /// [`FailureKind::Stuck`], integrity errors to
    /// [`FailureKind::Corruption`], everything else to
    /// [`FailureKind::Error`].
    ///
    /// [`BaseError::is_liveness`]: wdog_base::error::BaseError::is_liveness
    pub fn from_error(e: &wdog_base::error::BaseError) -> Self {
        if e.is_liveness() {
            FailureKind::Stuck
        } else if matches!(e, wdog_base::error::BaseError::Corruption(_)) {
            FailureKind::Corruption
        } else {
            FailureKind::Error
        }
    }

    /// Returns a short stable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Stuck => "stuck",
            FailureKind::Slow => "slow",
            FailureKind::Error => "error",
            FailureKind::Corruption => "corruption",
            FailureKind::AssertViolation => "assert",
            FailureKind::CheckerPanic => "panic",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a failure was observed, at up to operation granularity.
///
/// The paper's realistic pinpointing goal (§3.3) is "a location in the
/// ballpark of the root cause, e.g., several instructions away in the same
/// function, or at the caller of the faulting function" — component and
/// function are always present, the operation when the checker knows it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultLocation {
    /// The monitored component, e.g. `kvs.flusher`.
    pub component: ComponentId,
    /// The function in the ballpark of the fault, e.g. `flush_memtable`.
    pub function: String,
    /// The specific operation, when known, e.g. `wal::append#disk_write`.
    pub operation: Option<OpId>,
}

impl FaultLocation {
    /// Creates a location with component and function only.
    pub fn new(component: impl Into<ComponentId>, function: impl Into<String>) -> Self {
        Self {
            component: component.into(),
            function: function.into(),
            operation: None,
        }
    }

    /// Adds the operation-level pinpoint.
    pub fn with_op(mut self, op: impl Into<OpId>) -> Self {
        self.operation = Some(op.into());
        self
    }
}

impl std::fmt::Display for FaultLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.component, self.function)?;
        if let Some(op) = &self.operation {
            write!(f, " [{op}]")?;
        }
        Ok(())
    }
}

/// A complete failure detection emitted by the watchdog driver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureReport {
    /// The checker that fired.
    pub checker: CheckerId,
    /// The failure class.
    pub kind: FailureKind,
    /// Pinpointed location.
    pub location: FaultLocation,
    /// Human-readable detail (error text, assertion message).
    pub detail: String,
    /// Captured context payload at check time: `(field, rendered value)`.
    pub payload: Vec<(String, String)>,
    /// How long the failing operation ran before the verdict, if measured.
    pub observed_latency_ms: Option<u64>,
    /// Watchdog-clock timestamp of the detection, in milliseconds.
    pub at_ms: u64,
}

impl FailureReport {
    /// Renders a one-line summary suitable for logs.
    pub fn summary(&self) -> String {
        let lat = self
            .observed_latency_ms
            .map(|l| format!(" after {l} ms"))
            .unwrap_or_default();
        format!(
            "[{}] {} at {}{}: {}",
            self.checker, self.kind, self.location, lat, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FailureReport {
        FailureReport {
            checker: CheckerId::new("kvs.flusher.mimic"),
            kind: FailureKind::Stuck,
            location: FaultLocation::new("kvs.flusher", "flush_memtable")
                .with_op("wal::append#disk_write"),
            detail: "operation did not complete".into(),
            payload: vec![("path".into(), "wal/0".into())],
            observed_latency_ms: Some(7000),
            at_ms: 12_000,
        }
    }

    #[test]
    fn liveness_kinds() {
        assert!(FailureKind::Stuck.is_liveness());
        assert!(FailureKind::Slow.is_liveness());
        assert!(!FailureKind::Error.is_liveness());
        assert!(!FailureKind::Corruption.is_liveness());
    }

    #[test]
    fn errors_map_to_kinds_by_one_rule() {
        use wdog_base::error::BaseError;
        let cases = [
            (
                BaseError::Timeout {
                    what: "recv".into(),
                    after_ms: 5,
                },
                FailureKind::Stuck,
            ),
            (BaseError::Disconnected("peer".into()), FailureKind::Stuck),
            (BaseError::Corruption("crc".into()), FailureKind::Corruption),
            (BaseError::Io("eio".into()), FailureKind::Error),
        ];
        for (e, kind) in cases {
            assert_eq!(FailureKind::from_error(&e), kind, "{e}");
        }
    }

    #[test]
    fn display_formats() {
        let loc = FaultLocation::new("kvs.flusher", "flush").with_op("disk#w");
        assert_eq!(loc.to_string(), "kvs.flusher::flush [disk#w]");
    }

    #[test]
    fn summary_mentions_everything_important() {
        let s = sample().summary();
        assert!(s.contains("kvs.flusher.mimic"));
        assert!(s.contains("stuck"));
        assert!(s.contains("flush_memtable"));
        assert!(s.contains("7000 ms"));
    }

    #[test]
    fn report_serializes_roundtrip() {
        let r = sample();
        let json = serde_json::to_string(&r).unwrap();
        let back: FailureReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
