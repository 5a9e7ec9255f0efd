//! Actions the driver applies when a checker detects a failure.
//!
//! The paper's driver "catches failure signatures from checkers, aborts or
//! restarts their executions and applies an action to the main program
//! accordingly" (§3.1), and §5.2 argues precise localization enables *cheap
//! recovery* — replacing corrupted objects or restarting one component
//! instead of the whole process. The actions here log and call back; the
//! component-scoped repairs are `wdog-recover`'s, driven through the
//! [`Restartable`] and [`Degradable`] handles defined here.

use std::sync::Arc;

use parking_lot::Mutex;

use wdog_base::ids::ComponentId;
use wdog_telemetry::{Counter, TelemetryRegistry};

use crate::report::FailureReport;

/// A response to a failure report.
pub trait Action: Send + Sync {
    /// Invoked by the driver for every failure report, in registration order.
    fn on_failure(&self, report: &FailureReport);
}

/// Default retained-report capacity for [`LogAction`].
pub const DEFAULT_LOG_CAP: usize = 4096;

/// Registry counter name for [`LogAction`] ring evictions.
pub const LOG_EVICTIONS_METRIC: &str = "log_reports_evicted_total";

/// Collects reports into a shared, inspectable log.
///
/// The log is a **ring buffer**: at most `capacity` reports are retained,
/// and a failure storm evicts the oldest entries rather than growing without
/// bound (the watchdog must not OOM the process it guards). Evictions are
/// counted into the telemetry registry (metric [`LOG_EVICTIONS_METRIC`])
/// when the log was built with [`LogAction::telemetered`], and are folded
/// into `DriverStats::log_evictions` for the driver's own log either way.
pub struct LogAction {
    reports: Mutex<std::collections::VecDeque<FailureReport>>,
    capacity: usize,
    evictions: Counter,
}

impl Default for LogAction {
    fn default() -> Self {
        Self {
            reports: Mutex::new(std::collections::VecDeque::new()),
            capacity: DEFAULT_LOG_CAP,
            evictions: Counter::new(),
        }
    }
}

impl LogAction {
    /// Creates an empty shared log with the default capacity.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Creates an empty shared log retaining at most `capacity` reports.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity: capacity.max(1),
            ..Self::default()
        })
    }

    /// Creates a shared log whose eviction count reports through `registry`
    /// as [`LOG_EVICTIONS_METRIC`].
    pub fn telemetered(capacity: usize, registry: &TelemetryRegistry) -> Arc<Self> {
        Arc::new(Self {
            reports: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
            evictions: registry.counter(LOG_EVICTIONS_METRIC, ""),
        })
    }

    /// Returns a copy of all retained reports, oldest first.
    pub fn reports(&self) -> Vec<FailureReport> {
        self.reports.lock().iter().cloned().collect()
    }

    /// Returns the number of retained reports.
    pub fn len(&self) -> usize {
        self.reports.lock().len()
    }

    /// Returns `true` if no report is retained.
    pub fn is_empty(&self) -> bool {
        self.reports.lock().is_empty()
    }

    /// Removes and returns all retained reports, oldest first.
    pub fn drain(&self) -> Vec<FailureReport> {
        self.reports.lock().drain(..).collect()
    }

    /// Eviction count, exposed to the driver for `DriverStats` folding.
    /// External consumers read it from the telemetry snapshot instead.
    pub(crate) fn eviction_count(&self) -> u64 {
        self.evictions.get()
    }
}

impl Action for LogAction {
    fn on_failure(&self, report: &FailureReport) {
        let mut reports = self.reports.lock();
        if reports.len() >= self.capacity {
            reports.pop_front();
            self.evictions.inc();
        }
        reports.push_back(report.clone());
    }
}

/// Invokes an arbitrary callback for each report.
pub struct CallbackAction<F> {
    f: F,
}

impl<F> CallbackAction<F>
where
    F: Fn(&FailureReport) + Send + Sync,
{
    /// Wraps a callback as an action.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<F> Action for CallbackAction<F>
where
    F: Fn(&FailureReport) + Send + Sync,
{
    fn on_failure(&self, report: &FailureReport) {
        (self.f)(report)
    }
}

/// A component that supports targeted recovery (§5.2 "cheap recovery").
pub trait Restartable: Send + Sync {
    /// Restarts (or otherwise repairs) the named component.
    fn restart(&self, component: &ComponentId);
}

/// A component whose workload can be shed when recovery fails.
///
/// Degrading is the rung between restart and escalation on the recovery
/// ladder: the component stops doing (and accepting) its work so the rest of
/// the process keeps running without it — e.g. compaction pauses, a
/// replication link goes silent — instead of a chronically failing component
/// flapping forever or forcing a whole-process restart.
pub trait Degradable: Send + Sync {
    /// Sheds the named component's workload, leaving it parked.
    fn degrade(&self, component: &ComponentId);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{FailureKind, FaultLocation};
    use std::sync::atomic::{AtomicU64, Ordering};
    use wdog_base::ids::CheckerId;

    fn report(component: &str) -> FailureReport {
        FailureReport {
            checker: CheckerId::new("c"),
            kind: FailureKind::Error,
            location: FaultLocation::new(component, "f"),
            detail: "d".into(),
            payload: vec![],
            observed_latency_ms: None,
            at_ms: 0,
        }
    }

    #[test]
    fn log_action_collects_and_drains() {
        let log = LogAction::new();
        log.on_failure(&report("a"));
        log.on_failure(&report("b"));
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn log_action_ring_evicts_oldest_and_counts_drops() {
        let registry = TelemetryRegistry::new();
        let log = LogAction::telemetered(3, &registry);
        for i in 0..5 {
            log.on_failure(&report(&format!("c{i}")));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(registry.counter(LOG_EVICTIONS_METRIC, "").get(), 2);
        let kept: Vec<String> = log
            .reports()
            .iter()
            .map(|r| r.location.component.to_string())
            .collect();
        assert_eq!(kept, vec!["c2", "c3", "c4"]);
        // Draining resets the retained set but not the eviction count.
        assert_eq!(log.drain().len(), 3);
        assert!(log.is_empty());
        assert_eq!(registry.counter(LOG_EVICTIONS_METRIC, "").get(), 2);
        assert_eq!(log.eviction_count(), 2);
    }

    #[test]
    fn callback_action_invokes() {
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        let a = CallbackAction::new(move |_r| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        a.on_failure(&report("x"));
        a.on_failure(&report("x"));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn degradable_receives_component() {
        struct Shedder(Mutex<Vec<ComponentId>>);
        impl Degradable for Shedder {
            fn degrade(&self, c: &ComponentId) {
                self.0.lock().push(c.clone());
            }
        }
        let s = Shedder(Mutex::new(vec![]));
        s.degrade(&ComponentId::new("kvs.compaction"));
        assert_eq!(s.0.lock()[0], ComponentId::new("kvs.compaction"));
    }
}
