//! The supported public surface, re-exported flat.
//!
//! Targets, the harness, and downstream users should import from here
//! (`use wdog_core::prelude::*;`) instead of deep module paths — the
//! prelude is the API contract this crate maintains, and an API-surface
//! golden test (`tests/api_surface.rs`) snapshots every identifier exported
//! below so accidental drift fails CI instead of rippling through callers.
//!
//! Recovery types live downstream in `wdog-recover` (it depends on this
//! crate, so they cannot be re-exported here without a cycle); use
//! `wdog_recover::prelude` alongside this one.

pub use crate::action::{Action, CallbackAction, Degradable, LogAction, Restartable};
pub use crate::checker::{CheckFailure, CheckStatus, Checker, ExecutionProbe, FnChecker};
pub use crate::context::{
    ContextReader, ContextSlot, ContextSnapshot, ContextTable, CtxValue, PublishGuard,
};
pub use crate::driver::{DriverBuilder, DriverStats, WatchdogConfig, WatchdogDriver};
pub use crate::hooks::{FireGuard, HookSite, Hooks};
pub use crate::policy::SchedulePolicy;
pub use crate::report::{FailureKind, FailureReport, FaultLocation};
pub use crate::status::{ComponentHealth, HealthBoard};
pub use crate::trace::{TraceEvent, TraceEventKind, TraceRecorder};

pub use wdog_base::clock::{Clock, RealClock, SharedClock};
pub use wdog_base::error::{BaseError, BaseResult};
pub use wdog_base::ids::{CheckerId, ComponentId};

pub use wdog_telemetry::{
    AtomicHistogram, Counter, HistogramSummary, TelemetryRegistry, TelemetrySnapshot,
};
