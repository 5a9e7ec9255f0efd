//! Telemetry plane for the watchdog runtime.
//!
//! The paper's claims are quantitative — watchdogs must detect gray
//! failures quickly (§3.2's ZooKeeper-2201 hang) while hooks and checkers
//! stay near-free (§3.3) — so the runtime continuously measures itself:
//!
//! - **Metrics registry** ([`TelemetryRegistry`]): one mutexed map per
//!   metric type for registration, lock-free recording. [`Counter`]s and
//!   log₂-bucketed [`AtomicHistogram`]s with p50/p95/p99 summaries.
//! - **Snapshot** ([`TelemetrySnapshot`]): `{ counters, histograms }` as
//!   one serializable artifact (JSON under `results/telemetry*.json`) plus
//!   a Prometheus-style text rendering.
//! - **Chaos sidecar** ([`ChaosMetrics`]): the per-schedule detection
//!   counters and latency histogram of a chaos campaign.
//!
//! The crate is a leaf: it depends only on `wdog-base` and the shims, so
//! `wdog-core` can thread a registry through the driver, hooks, and
//! actions without a cycle. Consumers key metrics by plain strings
//! (checker id, hook-site key, component) for the same reason. Telemetry
//! off is `Option<Arc<TelemetryRegistry>> = None` at the attach point.
//!
//! Cost model: resolving a handle takes the registry mutex; recording
//! through a resolved handle is a few relaxed atomics. Anything hot must
//! resolve once and cache the handle — `HookSite` in `wdog-core` does
//! exactly this, keeping the telemetry-off hook path at a single branch.

pub mod chaos;
mod metrics;
mod registry;
mod snapshot;

pub use chaos::ChaosMetrics;
pub use metrics::{AtomicHistogram, Counter, HistogramSummary};
pub use registry::{
    checker_family, TelemetryRegistry, REPORTS_BY_CHECKER, REPORTS_BY_FAMILY, REPORTS_BY_KIND,
};
pub use snapshot::{CounterEntry, HistogramEntry, TelemetrySnapshot};
