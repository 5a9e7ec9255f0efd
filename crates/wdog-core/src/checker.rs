//! The checker abstraction: one tailored inspection of the main program.
//!
//! Each checker "stores a sequence of specific instructions tailored to
//! inspect a certain part of the main program ... for expected behavior"
//! (paper §3.1). Checkers are executed by the
//! [`WatchdogDriver`](crate::driver::WatchdogDriver) on dedicated executor
//! threads so that a checker which hangs — *sharing the fate* of a hung main
//! program (§3.3) — is itself detected by the driver rather than wedging the
//! watchdog.
//!
//! A checker returns [`CheckStatus::NotReady`] when its context has not been
//! published yet; the driver counts but does not report these, implementing
//! the paper's "the watchdog driver will ensure that a checker's context is
//! ready before executing it".

use std::sync::Arc;

use parking_lot::Mutex;

use wdog_base::ids::{CheckerId, ComponentId};

use crate::report::{FailureKind, FaultLocation};

/// The verdict-relevant part of a failure, produced inside a checker.
///
/// The driver wraps this into a full
/// [`FailureReport`](crate::report::FailureReport) by adding the checker id
/// and timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// Failure class.
    pub kind: FailureKind,
    /// Pinpointed location.
    pub location: FaultLocation,
    /// Human-readable detail.
    pub detail: String,
    /// Context payload captured at check time.
    pub payload: Vec<(String, String)>,
    /// Latency of the failing operation, if measured.
    pub observed_latency_ms: Option<u64>,
}

impl CheckFailure {
    /// Creates a failure with empty payload and no latency.
    pub fn new(kind: FailureKind, location: FaultLocation, detail: impl Into<String>) -> Self {
        Self {
            kind,
            location,
            detail: detail.into(),
            payload: Vec::new(),
            observed_latency_ms: None,
        }
    }

    /// Attaches a captured payload.
    pub fn with_payload(mut self, payload: Vec<(String, String)>) -> Self {
        self.payload = payload;
        self
    }

    /// Attaches the observed latency.
    pub fn with_latency_ms(mut self, ms: u64) -> Self {
        self.observed_latency_ms = Some(ms);
        self
    }
}

/// Result of one checker execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckStatus {
    /// The inspected part of the program behaved as expected.
    Pass,
    /// The checker's context has not been published yet; skipped silently.
    NotReady,
    /// A failure was detected.
    Fail(CheckFailure),
}

impl CheckStatus {
    /// Returns `true` for [`CheckStatus::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckStatus::Pass)
    }

    /// Returns `true` for [`CheckStatus::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, CheckStatus::Fail(_))
    }
}

/// A live pinpointing channel between a running checker and the driver.
///
/// A checker records the operation it is *about to* execute via
/// [`ExecutionProbe::enter`]. If the checker then hangs, the driver's timeout
/// path reads the probe and reports the exact blocked operation — this is how
/// experiment E4 pinpoints the blocked function call during the
/// ZOOKEEPER-2201 gray failure while the checker thread is still stuck.
#[derive(Clone, Default)]
pub struct ExecutionProbe {
    current: Arc<Mutex<Option<FaultLocation>>>,
}

impl ExecutionProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the operation about to be executed.
    pub fn enter(&self, location: FaultLocation) {
        *self.current.lock() = Some(location);
    }

    /// Clears the record after the operation completes.
    pub fn exit(&self) {
        *self.current.lock() = None;
    }

    /// Returns the operation the checker is currently inside, if any.
    pub fn current(&self) -> Option<FaultLocation> {
        self.current.lock().clone()
    }
}

impl std::fmt::Debug for ExecutionProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionProbe")
            .field("current", &self.current())
            .finish()
    }
}

/// One runtime checking procedure managed by the watchdog driver.
pub trait Checker: Send {
    /// Stable identifier, unique within a driver.
    fn id(&self) -> CheckerId;

    /// The component of the main program this checker inspects.
    fn component(&self) -> ComponentId;

    /// Receives the probe before the first execution; default ignores it.
    fn attach_probe(&mut self, probe: ExecutionProbe) {
        let _ = probe;
    }

    /// Executes one inspection.
    fn check(&mut self) -> CheckStatus;
}

/// A [`Checker`] built from a closure, for simple ad-hoc checks.
///
/// # Examples
///
/// ```
/// use wdog_core::checker::{Checker, CheckStatus, FnChecker};
///
/// let mut remaining = 3u32;
/// let mut c = FnChecker::new("count", "demo", move || {
///     remaining = remaining.saturating_sub(1);
///     CheckStatus::Pass
/// });
/// assert!(c.check().is_pass());
/// ```
pub struct FnChecker<F> {
    id: CheckerId,
    component: ComponentId,
    f: F,
}

impl<F> FnChecker<F>
where
    F: FnMut() -> CheckStatus + Send,
{
    /// Creates a closure checker.
    pub fn new(id: impl Into<CheckerId>, component: impl Into<ComponentId>, f: F) -> Self {
        Self {
            id: id.into(),
            component: component.into(),
            f,
        }
    }
}

impl<F> Checker for FnChecker<F>
where
    F: FnMut() -> CheckStatus + Send,
{
    fn id(&self) -> CheckerId {
        self.id.clone()
    }

    fn component(&self) -> ComponentId {
        self.component.clone()
    }

    fn check(&mut self) -> CheckStatus {
        (self.f)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_checker_runs_closure() {
        let mut calls = 0u32;
        let mut c = FnChecker::new("c", "comp", move || {
            calls += 1;
            if calls < 2 {
                CheckStatus::NotReady
            } else {
                CheckStatus::Pass
            }
        });
        assert_eq!(c.check(), CheckStatus::NotReady);
        assert!(c.check().is_pass());
        assert_eq!(c.id(), CheckerId::new("c"));
        assert_eq!(c.component(), ComponentId::new("comp"));
    }

    #[test]
    fn probe_roundtrip() {
        let p = ExecutionProbe::new();
        assert!(p.current().is_none());
        p.enter(FaultLocation::new("kvs.wal", "append"));
        assert_eq!(p.current().unwrap().function, "append");
        p.exit();
        assert!(p.current().is_none());
    }

    #[test]
    fn probe_clones_share_state() {
        let p = ExecutionProbe::new();
        let p2 = p.clone();
        p.enter(FaultLocation::new("a", "f"));
        assert!(p2.current().is_some());
    }

    #[test]
    fn failure_builder_chains() {
        let f = CheckFailure::new(FailureKind::Error, FaultLocation::new("c", "f"), "boom")
            .with_payload(vec![("k".into(), "v".into())])
            .with_latency_ms(12);
        assert_eq!(f.observed_latency_ms, Some(12));
        assert_eq!(f.payload.len(), 1);
        assert!(CheckStatus::Fail(f).is_fail());
    }
}
