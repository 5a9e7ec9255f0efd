//! Serializable export of a registry's state.

use serde::{Deserialize, Serialize};

use crate::metrics::HistogramSummary;

/// One exported counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name (`hook_fires_total`, ...).
    pub name: String,
    /// Label value; empty when unlabeled.
    pub label: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One exported histogram with its percentile summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name (`checker_wall_ms`, ...).
    pub name: String,
    /// Label value; empty when unlabeled.
    pub label: String,
    /// Count / mean / min / max / p50 / p95 / p99.
    pub summary: HistogramSummary,
}

/// Point-in-time export of everything a [`crate::TelemetryRegistry`] holds.
///
/// Entries are sorted by `(name, label)` so snapshots diff cleanly and the
/// JSON artifacts under `results/` are stable across runs with identical
/// behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// All counters, sorted by `(name, label)`.
    pub counters: Vec<CounterEntry>,
    /// All histograms, sorted by `(name, label)`.
    pub histograms: Vec<HistogramEntry>,
}

impl TelemetrySnapshot {
    /// Looks up a counter value by name and label.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map(|c| c.value)
    }

    /// Looks up a histogram summary by name and label.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
            .map(|h| &h.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryRegistry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = TelemetryRegistry::new();
        reg.counter("hook_fires_total", "kvs.wal_append").add(7);
        reg.histogram("checker_wall_ms", "kvs.wal_mimic").record(12);
        reg.snapshot()
    }

    #[test]
    fn snapshot_serializes_roundtrip() {
        let snap = sample_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn lookup_helpers_find_entries() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("hook_fires_total", "kvs.wal_append"), Some(7));
        assert_eq!(
            snap.histogram("checker_wall_ms", "kvs.wal_mimic")
                .unwrap()
                .count,
            1
        );
        assert_eq!(snap.counter("no_such", ""), None);
    }
}
