//! The lock-sharded metrics registry.
//!
//! Registration (name → handle lookup) takes one sharded mutex; recording
//! through a returned handle is lock-free atomics. Long-lived call sites are
//! expected to resolve their handles once and cache them, so the sharded
//! maps are off every hot path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flight::{FlightRecorder, DEFAULT_FLIGHT_CAP};
use crate::metrics::{AtomicHistogram, Counter, Gauge};
use crate::snapshot::{CounterEntry, GaugeEntry, HistogramEntry, TelemetrySnapshot};

/// Number of registration shards. Power of two so the hash masks cheaply.
const SHARDS: usize = 16;

/// Metric identity: a stable metric name plus one optional label value
/// (checker id, hook-site key, component, ...). Empty label means unlabeled.
type MetricKey = (String, String);

fn shard_of(name: &str, label: &str) -> usize {
    // FNV-1a over both key parts; cheap and stable.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes().chain([0u8]).chain(label.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) & (SHARDS - 1)
}

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<MetricKey, Counter>>,
    gauges: Mutex<HashMap<MetricKey, Gauge>>,
    histograms: Mutex<HashMap<MetricKey, AtomicHistogram>>,
}

/// Counter of failure reports per checker.
pub const REPORTS_BY_CHECKER: &str = "reports_by_checker_total";
/// Counter of failure reports per failure kind.
pub const REPORTS_BY_KIND: &str = "reports_by_kind_total";
/// Counter of failure reports per checker family (see [`checker_family`]).
pub const REPORTS_BY_FAMILY: &str = "reports_by_family_total";

/// Classifies a checker id into its generation family by the id
/// conventions every family follows: `<t>.probe.<name>` for API probes,
/// `<t>.signal.<name>` for resource signals, `<t>.inferred.<kind>.<key>`
/// for trace-mined invariant checkers, and everything else is a
/// structural mimic. Campaign dashboards use the per-family report
/// counters to attribute detections to the family that earned them.
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

/// The telemetry plane's root object.
///
/// One registry serves a whole process (or campaign): the driver, hooks,
/// actions, and recovery coordinator all register metrics into it, and a
/// [`TelemetrySnapshot`] exports everything at once.
///
/// # Examples
///
/// ```
/// use wdog_telemetry::TelemetryRegistry;
///
/// let reg = TelemetryRegistry::shared();
/// let fires = reg.counter("hook_fires_total", "kvs.wal_append");
/// fires.inc();
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters[0].value, 1);
/// ```
pub struct TelemetryRegistry {
    enabled: AtomicBool,
    shards: Vec<Shard>,
    flight: FlightRecorder,
}

impl TelemetryRegistry {
    /// Creates an enabled registry with the default flight-recorder depth.
    pub fn new() -> Self {
        Self::with_flight_capacity(DEFAULT_FLIGHT_CAP)
    }

    /// Creates an enabled registry retaining `cap` flight events.
    pub fn with_flight_capacity(cap: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            flight: FlightRecorder::with_capacity(cap),
        }
    }

    /// Creates a registry behind an `Arc`, the shape every consumer wants.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Enables or disables event-stream recording (flight recorder and
    /// report observation). Metric handles already handed out keep working;
    /// the flag gates the registry-side streams only.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Returns whether event-stream recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Returns (creating on first use) the counter `name{label}`.
    pub fn counter(&self, name: &str, label: &str) -> Counter {
        let shard = &self.shards[shard_of(name, label)];
        let mut map = shard.counters.lock();
        map.entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// Returns (creating on first use) the gauge `name{label}`.
    pub fn gauge(&self, name: &str, label: &str) -> Gauge {
        let shard = &self.shards[shard_of(name, label)];
        let mut map = shard.gauges.lock();
        map.entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// Returns (creating on first use) the histogram `name{label}`.
    pub fn histogram(&self, name: &str, label: &str) -> AtomicHistogram {
        let shard = &self.shards[shard_of(name, label)];
        let mut map = shard.histograms.lock();
        map.entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// Records a flight-recorder event (no-op while disabled).
    pub fn flight(&self, at_ms: u64, kind: &str, detail: &str) {
        if self.is_enabled() {
            self.flight.record(at_ms, kind, detail);
        }
    }

    /// Returns the retained flight events, oldest first.
    pub fn flight_events(&self) -> Vec<crate::flight::FlightEvent> {
        self.flight.events()
    }

    /// Observes one emitted failure report (driver calls this per report):
    /// bumps the per-checker / per-kind / per-family report counters.
    /// No-op while disabled.
    pub fn observe_report(&self, checker: &str, kind: &str) {
        if !self.is_enabled() {
            return;
        }
        self.counter(REPORTS_BY_CHECKER, checker).inc();
        self.counter(REPORTS_BY_KIND, kind).inc();
        self.counter(REPORTS_BY_FAMILY, checker_family(checker))
            .inc();
    }

    /// Exports everything as a serializable, deterministically ordered
    /// snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            for ((name, label), c) in shard.counters.lock().iter() {
                counters.push(CounterEntry {
                    name: name.clone(),
                    label: label.clone(),
                    value: c.get(),
                });
            }
            for ((name, label), g) in shard.gauges.lock().iter() {
                gauges.push(GaugeEntry {
                    name: name.clone(),
                    label: label.clone(),
                    value: g.get(),
                });
            }
            for ((name, label), h) in shard.histograms.lock().iter() {
                histograms.push(HistogramEntry {
                    name: name.clone(),
                    label: label.clone(),
                    summary: h.summarize(),
                });
            }
        }
        counters.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        gauges.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        histograms.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        TelemetrySnapshot {
            enabled: self.is_enabled(),
            counters,
            gauges,
            histograms,
            flight: self.flight.events(),
            flight_dropped: self.flight.dropped(),
        }
    }
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("enabled", &self.is_enabled())
            .field("flight", &self.flight)
            .finish()
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
    fn observe_report_feeds_counters() {
        let reg = TelemetryRegistry::new();
        reg.observe_report("kvs.wal_mimic", "stuck");
        reg.observe_report("kvs.wal_mimic", "stuck");
        reg.observe_report("kvs.probe.get", "error");
        assert_eq!(reg.counter(REPORTS_BY_CHECKER, "kvs.wal_mimic").get(), 2);
        assert_eq!(reg.counter(REPORTS_BY_KIND, "stuck").get(), 2);
        assert_eq!(reg.counter(REPORTS_BY_FAMILY, "mimic").get(), 2);
        assert_eq!(reg.counter(REPORTS_BY_FAMILY, "probe").get(), 1);
    }

    #[test]
    fn disabled_registry_ignores_event_streams() {
        let reg = TelemetryRegistry::new();
        reg.set_enabled(false);
        reg.observe_report("c", "error");
        reg.flight(10, "report", "c");
        assert!(reg.flight_events().is_empty());
        assert_eq!(reg.counter(REPORTS_BY_CHECKER, "c").get(), 0);
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
