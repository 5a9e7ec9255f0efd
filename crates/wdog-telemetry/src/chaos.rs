//! Chaos-campaign metric families.
//!
//! The chaos fuzzer (`harness::chaos`) scores randomized fault schedules
//! for detection accuracy in its `ChaosReport`; this module holds what the
//! report deliberately leaves out — measured values, not verdicts:
//!
//! | family | kind | label |
//! |---|---|---|
//! | `chaos_detection_ms` | histogram | fault-kind label (`disk-stuck`, …) |
//! | `chaos_signal_reports_total` | counter | signal-checker id |
//! | `sim_io_{disk,net}_{calls,faults}_total` | counter | op kind / direction |
//!
//! Every value is read off the simulated substrate's clock and ledger, so a
//! campaign's snapshot is a pure function of `(target, seed, schedules)`.

use std::sync::Arc;

use crate::registry::TelemetryRegistry;

/// Histogram family: onset→first-matching-report latency, labelled by
/// fault-kind label.
pub const CHAOS_DETECTION_MS: &str = "chaos_detection_ms";
/// Counter family: reports from load-coupled signal checkers, labelled
/// by checker id. Signal checkers watch real resource levels (queue
/// depth, memory), so whether one trips during a schedule depends on
/// machine load at sample time — the campaign measures them here
/// instead of scoring them into the deterministic canonical report.
pub const CHAOS_SIGNAL_REPORTS: &str = "chaos_signal_reports_total";
/// Counter family: simulated-disk operations that entered the fault gate,
/// labelled by op kind (`read`/`write`/`sync`/`meta`).
pub const SIM_IO_DISK_CALLS: &str = "sim_io_disk_calls_total";
/// Counter family: simulated-disk operations an armed fault acted on,
/// labelled by op kind.
pub const SIM_IO_DISK_FAULTS: &str = "sim_io_disk_faults_total";
/// Counter family: simulated-network operations that entered the fault
/// gate, labelled by direction (`send`/`recv`).
pub const SIM_IO_NET_CALLS: &str = "sim_io_net_calls_total";
/// Counter family: simulated-network operations an armed fault acted on,
/// labelled by direction.
pub const SIM_IO_NET_FAULTS: &str = "sim_io_net_faults_total";

/// The chaos metric families, recorded into one registry.
#[derive(Clone)]
pub struct ChaosMetrics {
    registry: Arc<TelemetryRegistry>,
}

impl ChaosMetrics {
    /// Records the chaos families into `registry`.
    pub fn new(registry: Arc<TelemetryRegistry>) -> Self {
        Self { registry }
    }

    /// The backing registry, for snapshots.
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }

    /// Records one onset→first-matching-report latency.
    pub fn detection_latency(&self, fault_label: &str, ms: u64) {
        self.registry
            .histogram(CHAOS_DETECTION_MS, fault_label)
            .record(ms);
    }

    /// Counts one report from a load-coupled signal checker (excluded
    /// from canonical scoring; see [`CHAOS_SIGNAL_REPORTS`]).
    pub fn signal_report(&self, checker: &str) {
        self.registry.counter(CHAOS_SIGNAL_REPORTS, checker).inc();
    }

    /// Accumulates one simulated-disk per-op stats row (turso-style
    /// `nr_*_calls` / `nr_*_faults` table) into the `sim_io_disk_*`
    /// families.
    pub fn sim_io_disk(&self, op: &str, calls: u64, faults: u64) {
        self.registry.counter(SIM_IO_DISK_CALLS, op).add(calls);
        self.registry.counter(SIM_IO_DISK_FAULTS, op).add(faults);
    }

    /// Accumulates one simulated-network per-direction stats row into the
    /// `sim_io_net_*` families.
    pub fn sim_io_net(&self, op: &str, calls: u64, faults: u64) {
        self.registry.counter(SIM_IO_NET_CALLS, op).add(calls);
        self.registry.counter(SIM_IO_NET_FAULTS, op).add(faults);
    }
}

impl std::fmt::Debug for ChaosMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosMetrics").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_land_in_the_snapshot() {
        let m = ChaosMetrics::new(TelemetryRegistry::shared());
        m.detection_latency("disk-stuck", 420);
        m.signal_report("kvs.signal.repl_queue");
        m.sim_io_disk("read", 120, 3);
        m.sim_io_disk("read", 30, 1);
        m.sim_io_net("send", 55, 0);
        let snap = m.registry().snapshot();
        assert_eq!(
            snap.counter(CHAOS_SIGNAL_REPORTS, "kvs.signal.repl_queue"),
            Some(1)
        );
        let h = snap.histogram(CHAOS_DETECTION_MS, "disk-stuck").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(snap.counter(SIM_IO_DISK_CALLS, "read"), Some(150));
        assert_eq!(snap.counter(SIM_IO_DISK_FAULTS, "read"), Some(4));
        assert_eq!(snap.counter(SIM_IO_NET_CALLS, "send"), Some(55));
        assert_eq!(snap.counter(SIM_IO_NET_FAULTS, "send"), Some(0));
    }
}
