//! The metrics registry.
//!
//! Registration (name → handle lookup) takes the registry's one mutex;
//! recording through a returned handle is lock-free atomics. Long-lived call
//! sites resolve their handles once and cache them, so the maps are off
//! every hot path.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{AtomicHistogram, Counter};
use crate::snapshot::{CounterEntry, HistogramEntry, TelemetrySnapshot};

/// Metric identity: a stable metric name plus one optional label value
/// (checker id, hook-site key, component, ...). Empty label means unlabeled.
type MetricKey = (String, String);

/// Classifies a checker id into its generation family by the id
/// conventions every family follows: `<t>.probe.<name>` for API probes,
/// `<t>.signal.<name>` for resource signals, `<t>.inferred.<kind>.<key>`
/// for trace-mined invariant checkers, and everything else is a
/// structural mimic. The chaos campaign uses it to set load-coupled signal
/// reports apart from its deterministic scoring.
pub fn checker_family(checker: &str) -> &'static str {
    if checker.contains(".inferred.") {
        "inferred"
    } else if checker.contains(".signal.") {
        "signal"
    } else if checker.contains(".probe.") {
        "probe"
    } else {
        "mimic"
    }
}

/// A named store of counters and histograms.
///
/// One registry serves one chaos campaign: [`crate::ChaosMetrics`] records
/// into it, and a [`TelemetrySnapshot`] exports everything at once.
///
/// # Examples
///
/// ```
/// use wdog_telemetry::TelemetryRegistry;
///
/// let reg = TelemetryRegistry::shared();
/// let detections = reg.counter("chaos_signal_reports_total", "kvs.signal.repl_queue");
/// detections.inc();
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters[0].value, 1);
/// ```
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    histograms: Mutex<BTreeMap<MetricKey, AtomicHistogram>>,
}

impl TelemetryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry behind an `Arc`, the shape every consumer wants.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Returns (creating on first use) the counter `name{label}`.
    pub fn counter(&self, name: &str, label: &str) -> Counter {
        self.counters
            .lock()
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// Returns (creating on first use) the histogram `name{label}`.
    pub fn histogram(&self, name: &str, label: &str) -> AtomicHistogram {
        self.histograms
            .lock()
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// Exports everything as a serializable snapshot ordered by
    /// `(name, label)`.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|((name, label), c)| CounterEntry {
                name: name.clone(),
                label: label.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|((name, label), h)| HistogramEntry {
                name: name.clone(),
                label: label.clone(),
                summary: h.summarize(),
            })
            .collect();
        TelemetrySnapshot {
            counters,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_key() {
        let reg = TelemetryRegistry::new();
        let a = reg.counter("x_total", "lbl");
        let b = reg.counter("x_total", "lbl");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x_total", "lbl").get(), 2);
        // Different label → different cell.
        assert_eq!(reg.counter("x_total", "other").get(), 0);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let reg = TelemetryRegistry::new();
        reg.counter("b_total", "").inc();
        reg.counter("a_total", "z").inc();
        reg.counter("a_total", "a").inc();
        let snap = reg.snapshot();
        let keys: Vec<_> = snap
            .counters
            .iter()
            .map(|c| format!("{}|{}", c.name, c.label))
            .collect();
        assert_eq!(keys, vec!["a_total|a", "a_total|z", "b_total|"]);
    }
}
