//! Serializable export of a registry's state, plus a Prometheus-style text
//! rendering for scrape-shaped consumers.

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

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Counters become single samples; each histogram becomes seven
    /// samples, `_{count,mean,min,max,p50,p95,p99}` — quantiles are what
    /// the campaigns consume, and log₂ buckets don't map onto Prometheus'
    /// cumulative `le` buckets without lying about bounds.
    pub fn to_prometheus(&self) -> String {
        fn sample(out: &mut String, name: &str, label: &str, value: impl std::fmt::Display) {
            if label.is_empty() {
                out.push_str(&format!("wdog_{name} {value}\n"));
            } else {
                let esc = label.replace('\\', "\\\\").replace('"', "\\\"");
                out.push_str(&format!("wdog_{name}{{id=\"{esc}\"}} {value}\n"));
            }
        }
        let mut out = String::new();
        for c in &self.counters {
            sample(&mut out, &c.name, &c.label, c.value);
        }
        for h in &self.histograms {
            let s = &h.summary;
            sample(&mut out, &format!("{}_count", h.name), &h.label, s.count);
            sample(&mut out, &format!("{}_mean", h.name), &h.label, s.mean);
            sample(&mut out, &format!("{}_min", h.name), &h.label, s.min);
            sample(&mut out, &format!("{}_max", h.name), &h.label, s.max);
            sample(&mut out, &format!("{}_p50", h.name), &h.label, s.p50);
            sample(&mut out, &format!("{}_p95", h.name), &h.label, s.p95);
            sample(&mut out, &format!("{}_p99", h.name), &h.label, s.p99);
        }
        out
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
        reg.observe_report("kvs.wal_mimic", "stuck");
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

    #[test]
    fn prometheus_rendering_has_expected_lines() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("wdog_hook_fires_total{id=\"kvs.wal_append\"} 7"));
        assert!(text.contains("wdog_checker_wall_ms_p99{id=\"kvs.wal_mimic\"}"));
        assert!(text.contains("wdog_reports_by_kind_total{id=\"stuck\"} 1"));
        assert!(text.contains("wdog_reports_by_checker_total{id=\"kvs.wal_mimic\"} 1"));
        // Every line is name{labels} value.
        for line in text.lines() {
            assert!(line.starts_with("wdog_"), "bad line: {line}");
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn prometheus_escapes_label_quotes() {
        let reg = TelemetryRegistry::new();
        reg.counter("x_total", "a\"b").inc();
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("wdog_x_total{id=\"a\\\"b\"} 1"));
    }
}
