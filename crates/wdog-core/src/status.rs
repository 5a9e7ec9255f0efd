//! The watchdog's definitive health assessment.
//!
//! Unlike a heartbeat detector's binary alive/dead verdict, a watchdog is
//! "tasked to monitor overall software health and give a definitive
//! assessment as to whether the software is still functioning properly"
//! (paper §2). The [`HealthBoard`] aggregates failure reports into a
//! per-component verdict with time decay: a component is [`Failing`] while
//! hard failures are fresh, [`Degraded`] while only slowness is fresh, and
//! recovers to [`Healthy`] once reports age out of the window.
//!
//! [`Failing`]: ComponentHealth::Failing
//! [`Degraded`]: ComponentHealth::Degraded
//! [`Healthy`]: ComponentHealth::Healthy

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use wdog_base::clock::SharedClock;
use wdog_base::ids::ComponentId;

use crate::report::{FailureKind, FailureReport};

/// The health verdict for one component (or the whole process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ComponentHealth {
    /// No fresh failure evidence.
    Healthy,
    /// Fresh slowness evidence only.
    Degraded,
    /// Fresh hard-failure evidence (stuck, error, corruption, assert, panic).
    Failing,
}

impl std::fmt::Display for ComponentHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ComponentHealth::Healthy => "healthy",
            ComponentHealth::Degraded => "degraded",
            ComponentHealth::Failing => "failing",
        })
    }
}

#[derive(Debug, Clone)]
struct Evidence {
    kind: FailureKind,
    at: Duration,
}

/// Aggregates failure reports into per-component health with time decay.
pub struct HealthBoard {
    clock: SharedClock,
    window: Duration,
    evidence: RwLock<HashMap<ComponentId, Vec<Evidence>>>,
}

impl HealthBoard {
    /// Creates a board where evidence stays relevant for `window`.
    pub fn new(clock: SharedClock, window: Duration) -> Arc<Self> {
        Arc::new(Self {
            clock,
            window,
            evidence: RwLock::new(HashMap::new()),
        })
    }

    /// Records a failure report as evidence.
    pub fn record(&self, report: &FailureReport) {
        let now = self.clock.now();
        let mut map = self.evidence.write();
        let v = map.entry(report.location.component.clone()).or_default();
        v.push(Evidence {
            kind: report.kind,
            at: now,
        });
        // Trim anything already out of the window to bound memory.
        let window = self.window;
        v.retain(|e| now.saturating_sub(e.at) <= window);
    }

    /// Returns the verdict for one component.
    pub fn component(&self, c: &ComponentId) -> ComponentHealth {
        let now = self.clock.now();
        let map = self.evidence.read();
        let Some(v) = map.get(c) else {
            return ComponentHealth::Healthy;
        };
        let mut verdict = ComponentHealth::Healthy;
        for e in v {
            if now.saturating_sub(e.at) > self.window {
                continue;
            }
            let level = match e.kind {
                FailureKind::Slow => ComponentHealth::Degraded,
                _ => ComponentHealth::Failing,
            };
            verdict = verdict.max(level);
        }
        verdict
    }

    /// Returns the worst verdict across all components.
    pub fn overall(&self) -> ComponentHealth {
        let components: Vec<ComponentId> = self.evidence.read().keys().cloned().collect();
        components
            .iter()
            .map(|c| self.component(c))
            .max()
            .unwrap_or(ComponentHealth::Healthy)
    }

    /// Returns every component with a non-healthy verdict, sorted by name.
    pub fn problems(&self) -> Vec<(ComponentId, ComponentHealth)> {
        let components: Vec<ComponentId> = self.evidence.read().keys().cloned().collect();
        let mut v: Vec<(ComponentId, ComponentHealth)> = components
            .into_iter()
            .filter_map(|c| {
                let h = self.component(&c);
                (h != ComponentHealth::Healthy).then_some((c, h))
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

impl std::fmt::Debug for HealthBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthBoard")
            .field("overall", &self.overall())
            .field("problems", &self.problems())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FaultLocation;
    use simio::SimClock;
    use wdog_base::ids::CheckerId;

    fn report(component: &str, kind: FailureKind) -> FailureReport {
        FailureReport {
            checker: CheckerId::new("c"),
            kind,
            location: FaultLocation::new(component, "f"),
            detail: String::new(),
            payload: vec![],
            observed_latency_ms: None,
            at_ms: 0,
        }
    }

    #[test]
    fn empty_board_is_healthy() {
        let board = HealthBoard::new(SimClock::shared(), Duration::from_secs(10));
        assert_eq!(board.overall(), ComponentHealth::Healthy);
        assert_eq!(
            board.component(&ComponentId::new("x")),
            ComponentHealth::Healthy
        );
        assert!(board.problems().is_empty());
    }

    #[test]
    fn hard_failure_marks_failing() {
        let board = HealthBoard::new(SimClock::shared(), Duration::from_secs(10));
        board.record(&report("kvs.wal", FailureKind::Stuck));
        assert_eq!(
            board.component(&ComponentId::new("kvs.wal")),
            ComponentHealth::Failing
        );
        assert_eq!(board.overall(), ComponentHealth::Failing);
    }

    #[test]
    fn slow_only_marks_degraded() {
        let board = HealthBoard::new(SimClock::shared(), Duration::from_secs(10));
        board.record(&report("kvs.disk", FailureKind::Slow));
        assert_eq!(
            board.component(&ComponentId::new("kvs.disk")),
            ComponentHealth::Degraded
        );
    }

    #[test]
    fn evidence_decays_after_window() {
        let clock = SimClock::shared();
        let board = HealthBoard::new(clock.clone(), Duration::from_secs(10));
        board.record(&report("a", FailureKind::Error));
        clock.sleep(Duration::from_secs(11));
        assert_eq!(
            board.component(&ComponentId::new("a")),
            ComponentHealth::Healthy
        );
        assert_eq!(board.overall(), ComponentHealth::Healthy);
    }

    #[test]
    fn components_are_independent() {
        let board = HealthBoard::new(SimClock::shared(), Duration::from_secs(10));
        board.record(&report("a", FailureKind::Slow));
        board.record(&report("b", FailureKind::Corruption));
        assert_eq!(
            board.component(&ComponentId::new("a")),
            ComponentHealth::Degraded
        );
        assert_eq!(
            board.component(&ComponentId::new("b")),
            ComponentHealth::Failing
        );
        let problems = board.problems();
        assert_eq!(problems.len(), 2);
        assert_eq!(problems[0].0, ComponentId::new("a"));
    }

    #[test]
    fn failing_dominates_degraded_for_same_component() {
        let board = HealthBoard::new(SimClock::shared(), Duration::from_secs(10));
        board.record(&report("a", FailureKind::Slow));
        board.record(&report("a", FailureKind::Stuck));
        assert_eq!(
            board.component(&ComponentId::new("a")),
            ComponentHealth::Failing
        );
    }
}
