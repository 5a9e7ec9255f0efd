//! Panorama-style observers: requesters as evidence sources.
//!
//! Panorama "converts any requester of a monitored process into a logical
//! observer and captures error evidence in the request paths" (§1). Here,
//! workload clients report the outcome of each real request to an
//! [`ObserverHub`]; the hub suspects the target when the recent error rate
//! crosses a threshold. As the paper notes, the observers "cannot identify
//! why the failure occurs or isolate which part of the failing process is
//! problematic" — the verdict carries only the observed symptom.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use wdog_base::clock::SharedClock;

use crate::api::{Detector, Verdict};

#[derive(Debug, Clone)]
struct Evidence {
    ok: bool,
    at: Duration,
}

struct HubInner {
    window: Duration,
    min_samples: usize,
    error_threshold: f64,
    evidence: Mutex<VecDeque<Evidence>>,
    clock: SharedClock,
}

/// Aggregates request outcomes reported by real requesters.
#[derive(Clone)]
pub struct ObserverHub {
    inner: Arc<HubInner>,
}

impl ObserverHub {
    /// Creates a hub judging over `window`; suspicion requires at least
    /// `min_samples` observations and an error rate above
    /// `error_threshold`.
    pub fn new(
        clock: SharedClock,
        window: Duration,
        min_samples: usize,
        error_threshold: f64,
    ) -> Self {
        Self {
            inner: Arc::new(HubInner {
                window,
                min_samples: min_samples.max(1),
                error_threshold,
                evidence: Mutex::new(VecDeque::new()),
                clock,
            }),
        }
    }

    /// A requester reports one request outcome.
    pub fn report(&self, ok: bool) {
        let now = self.inner.clock.now();
        let mut ev = self.inner.evidence.lock();
        ev.push_back(Evidence { ok, at: now });
        let window = self.inner.window;
        while ev
            .front()
            .is_some_and(|e| now.saturating_sub(e.at) > window)
        {
            ev.pop_front();
        }
    }

    /// Returns `(observations, errors)` within the window.
    pub fn counts(&self) -> (usize, usize) {
        let now = self.inner.clock.now();
        let ev = self.inner.evidence.lock();
        let fresh: Vec<&Evidence> = ev
            .iter()
            .filter(|e| now.saturating_sub(e.at) <= self.inner.window)
            .collect();
        let errors = fresh.iter().filter(|e| !e.ok).count();
        (fresh.len(), errors)
    }
}

impl Detector for ObserverHub {
    fn name(&self) -> &str {
        "observer"
    }

    fn verdict(&self) -> Verdict {
        let (n, errors) = self.counts();
        if n < self.inner.min_samples {
            return Verdict::Healthy;
        }
        let rate = errors as f64 / n as f64;
        if rate > self.inner.error_threshold {
            Verdict::Suspected {
                reason: format!("{errors}/{n} recent requests failed"),
            }
        } else {
            Verdict::Healthy
        }
    }
}

impl std::fmt::Debug for ObserverHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, e) = self.counts();
        f.debug_struct("ObserverHub")
            .field("observations", &n)
            .field("errors", &e)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::SimClock;

    fn hub(clock: SharedClock) -> ObserverHub {
        ObserverHub::new(clock, Duration::from_secs(10), 5, 0.5)
    }

    #[test]
    fn too_few_samples_stay_healthy() {
        let clock = SimClock::shared();
        let h = hub(clock);
        for _ in 0..3 {
            h.report(false);
        }
        assert_eq!(h.verdict(), Verdict::Healthy);
    }

    #[test]
    fn high_error_rate_is_suspected() {
        let clock = SimClock::shared();
        let h = hub(clock);
        for _ in 0..4 {
            h.report(false);
        }
        for _ in 0..2 {
            h.report(true);
        }
        assert!(h.verdict().is_suspected());
    }

    #[test]
    fn healthy_traffic_is_healthy() {
        let clock = SimClock::shared();
        let h = hub(clock);
        for i in 0..20 {
            h.report(i % 10 != 0); // 10% errors, below the 50% threshold.
        }
        assert_eq!(h.verdict(), Verdict::Healthy);
    }

    #[test]
    fn evidence_ages_out_of_window() {
        let clock = SimClock::shared();
        let h = hub(Arc::clone(&clock));
        for _ in 0..10 {
            h.report(false);
        }
        assert!(h.verdict().is_suspected());
        clock.sleep(Duration::from_secs(11));
        assert_eq!(h.counts().0, 0);
        assert_eq!(h.verdict(), Verdict::Healthy);
    }

    #[test]
    fn clones_share_evidence() {
        let clock = SimClock::shared();
        let h = hub(clock);
        let h2 = h.clone();
        for _ in 0..6 {
            h.report(false);
        }
        assert!(h2.verdict().is_suspected());
    }
}
