//! The shared watchdog options type: one tuning surface plus a [`Families`]
//! toggle set. Targets express their tuned defaults through
//! [`WatchdogTarget::default_options`](crate::WatchdogTarget).

use std::sync::Arc;
use std::time::Duration;

use wdog_checkers::InferredSpec;
use wdog_core::{Action, TraceRecorder};

/// Which checker families the assembled watchdog includes.
///
/// What counts as a family member is the target's call: generated mimics are
/// always `mimics`; hand-written checkers that exercise a resource or the
/// public API (kvs's API probes, miniblock's disk checkers) are `probes`;
/// health-indicator monitors (queue depths, memory watermarks) are
/// `signals`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Families {
    /// Include generated mimic checkers.
    pub mimics: bool,
    /// Include probe checkers.
    pub probes: bool,
    /// Include signal checkers.
    pub signals: bool,
    /// Include trace-inferred checkers (only effective when
    /// [`WdOptions::inferred`] carries mined specs).
    pub inferred: bool,
}

impl Families {
    /// Every family enabled.
    pub fn all() -> Self {
        Self {
            mimics: true,
            probes: true,
            signals: true,
            inferred: true,
        }
    }

    /// Exactly one family enabled, by name
    /// (`mimic`/`probe`/`signal`/`inferred`).
    pub fn only(family: &str) -> Self {
        Self {
            mimics: family == "mimic",
            probes: family == "probe",
            signals: family == "signal",
            inferred: family == "inferred",
        }
    }
}

impl Default for Families {
    fn default() -> Self {
        Self::all()
    }
}

/// Tunables for an assembled watchdog, shared by every target.
#[derive(Clone)]
pub struct WdOptions {
    /// Checking round interval.
    pub interval: Duration,
    /// Per-checker execution timeout (the stuck-detection threshold).
    pub checker_timeout: Duration,
    /// Latency above which mimicked I/O and communication ops report
    /// `Slow`. Lock/compute ops are exempt (waiting on a held lock is
    /// contention, not slowness).
    pub slow_threshold: Duration,
    /// Latency above which a successful *probe* (full API round trip)
    /// reports `Slow`; separate from the mimic threshold because a probe
    /// includes queueing delay that is normal under load.
    pub probe_slow_threshold: Duration,
    /// Maximum tolerated context age.
    pub max_context_age: Option<Duration>,
    /// Memory watermark for the signal checker, in bytes.
    pub memory_watermark: u64,
    /// Queue-depth threshold for the signal checkers.
    pub queue_threshold: usize,
    /// Which checker families to include.
    pub families: Families,
    /// When set, checker executors spawn in a seed-derived permutation of
    /// registration order. Reports must be identical for every value —
    /// determinism tests sweep this to prove verdicts don't depend on
    /// spawn order.
    pub spawn_order_seed: Option<u64>,
    /// Actions invoked for every failure report, threaded into the
    /// assembled driver at build time. This is how a recovery coordinator
    /// (or any custom reaction) rides along now that drivers are sealed at
    /// [`DriverBuilder::build`](wdog_core::DriverBuilder::build) — there is
    /// no post-hoc `add_action`.
    pub actions: Vec<Arc<dyn Action>>,
    /// Mined invariant specs to register as inferred checkers (when the
    /// `inferred` family is enabled). Default campaigns carry none; the
    /// `wdog-infer` pipeline and its tests inject a mined corpus here.
    pub inferred: Vec<InferredSpec>,
    /// When set, the target's hooks and mimic checkers journal publishes
    /// and op executions into this recorder — the `wdog-infer` record mode.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for WdOptions {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            checker_timeout: Duration::from_secs(2),
            slow_threshold: Duration::from_millis(300),
            probe_slow_threshold: Duration::from_millis(500),
            max_context_age: None,
            memory_watermark: 64 << 20,
            queue_threshold: 512,
            families: Families::all(),
            spawn_order_seed: None,
            actions: Vec::new(),
            inferred: Vec::new(),
            trace: None,
        }
    }
}

impl std::fmt::Debug for WdOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WdOptions")
            .field("interval", &self.interval)
            .field("checker_timeout", &self.checker_timeout)
            .field("slow_threshold", &self.slow_threshold)
            .field("probe_slow_threshold", &self.probe_slow_threshold)
            .field("max_context_age", &self.max_context_age)
            .field("memory_watermark", &self.memory_watermark)
            .field("queue_threshold", &self.queue_threshold)
            .field("families", &self.families)
            .field("spawn_order_seed", &self.spawn_order_seed)
            .field("actions", &self.actions.len())
            .field("inferred", &self.inferred.len())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_only_selects_one() {
        assert_eq!(
            Families::only("mimic"),
            Families {
                mimics: true,
                probes: false,
                signals: false,
                inferred: false
            }
        );
        assert_eq!(
            Families::only("signal"),
            Families {
                mimics: false,
                probes: false,
                signals: true,
                inferred: false
            }
        );
        assert_eq!(
            Families::only("inferred"),
            Families {
                mimics: false,
                probes: false,
                signals: false,
                inferred: true
            }
        );
        assert_eq!(Families::default(), Families::all());
    }

    #[test]
    fn default_options_enable_everything() {
        let o = WdOptions::default();
        assert!(o.families.mimics && o.families.probes && o.families.signals);
        assert!(o.checker_timeout > o.interval);
    }
}
