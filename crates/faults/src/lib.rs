//! Gray-failure fault injection for the simulated substrates.
//!
//! The paper motivates watchdogs with failure classes that extrinsic
//! detectors miss: partial disk failures (IRON file systems), limplock,
//! fail-slow hardware, state corruption, silently stuck background tasks,
//! and runtime pauses. This crate turns those classes into a uniform,
//! deterministic injection surface:
//!
//! - [`spec::FaultKind`] — the taxonomy, each variant mapping to a concrete
//!   substrate or cooperative fault;
//! - [`toggle::ToggleSet`] — named cooperative flags target systems poll to
//!   simulate code-level faults (a compaction thread that wedges, an indexer
//!   that starts corrupting state);
//! - [`injector::Injector`] — binds fault specs to live substrate handles
//!   and arms/clears them;
//! - [`catalog`] — the named scenario list experiments E1/E2 iterate over,
//!   each with the failure class a detector is expected to report;
//! - [`schedule`] — seeded composition of randomized multi-fault schedules
//!   (with benign near-misses and delta-debugging shrink steps) for chaos
//!   campaigns.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod catalog;
pub mod injector;
pub mod schedule;
pub mod spec;
pub mod toggle;

pub use catalog::{gray_failure_catalog, Cooperative, ExpectedDetection, Scenario, TargetProfile};
pub use injector::{ArmedFault, Injector};
pub use schedule::{
    compose_schedule, ComposeOptions, FaultSchedule, ScheduleEvent, ScheduledFault,
};
pub use spec::{FaultKind, FaultSpec};
pub use toggle::ToggleSet;
