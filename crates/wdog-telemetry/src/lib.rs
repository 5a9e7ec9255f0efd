//! The chaos campaign's measurement store.
//!
//! A chaos campaign scores fault schedules into a deterministic report of
//! verdicts; what it *measures* — detection latency per fault kind, reports
//! from load-coupled signal checkers, the simulated substrate's per-op I/O
//! ledger — lands here instead:
//!
//! - **Metrics registry** ([`TelemetryRegistry`]): one mutexed map per
//!   metric type for registration, lock-free recording. [`Counter`]s and
//!   log₂-bucketed [`AtomicHistogram`]s with p50/p95/p99 summaries.
//! - **Snapshot** ([`TelemetrySnapshot`]): `{ counters, histograms }` as
//!   one serializable artifact (`results/chaos/chaos_<target>_telemetry.json`).
//! - **Chaos families** ([`ChaosMetrics`]): the names the campaign records
//!   under.
//!
//! The watchdog runtime itself records nothing here: each fact it keeps
//! lives once, in a typed record — the driver's report log and
//! `DriverStats`, the recovery coordinator's incidents, a context slot's
//! version, the trace recorder's journal.
//!
//! The crate is a leaf: it depends only on `wdog-base` and the shims.
//! Cost model: resolving a handle takes the registry mutex; recording
//! through a resolved handle is a few relaxed atomics.

pub mod chaos;
mod metrics;
mod registry;
mod snapshot;

pub use chaos::ChaosMetrics;
pub use metrics::{AtomicHistogram, Counter, HistogramSummary};
pub use registry::{checker_family, TelemetryRegistry};
pub use snapshot::{CounterEntry, HistogramEntry, TelemetrySnapshot};
