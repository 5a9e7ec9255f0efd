//! The intrinsic software watchdog abstraction from *Comprehensive and
//! Efficient Runtime Checking in System Software through Watchdogs*
//! (HotOS '19).
//!
//! A **watchdog** is an extension embedded in the main program that monitors
//! the program's own health from inside its address space (paper §3.1). It is
//! *intrinsic* (unlike heartbeat-style crash failure detectors, which are
//! extrinsic) and runs *concurrently* with the normal execution (unlike error
//! handlers, which run in place). The pieces map one-to-one onto the paper:
//!
//! - [`checker::Checker`] — a sequence of instructions tailored to inspect
//!   one part of the main program;
//! - [`driver::WatchdogDriver`] — manages checker scheduling and execution,
//!   catches failure signatures (including a checker that itself hangs or
//!   panics — *fate sharing*, §3.3), and applies [`action::Action`]s;
//! - [`context::ContextTable`] — per-checker **contexts** holding the payload
//!   and arguments a checker needs, synchronized **one-way** from the main
//!   program through [`hooks::HookSite`]s so checkers never report failures
//!   that do not exist in the main program (§3.1, "state synchronization");
//! - [`report::FailureReport`] — what a detection looks like: the failure
//!   kind plus a pinpointed [`report::FaultLocation`] and the captured
//!   payload, precise enough to expedite diagnosis and reproduction (§1);
//! - [`status::HealthBoard`] — the definitive, per-component assessment of
//!   whether the software is still functioning (§2, Table 1).
//!
//! The "strong isolation" of §3.2 is not a module of its own: contexts are
//! replicated on read ([`context::ContextSlot::snapshot`] hands checkers a
//! deep copy), and each target's op table redirects checker I/O to
//! `__wd_probe` paths beside the real data.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod action;
pub mod checker;
pub mod context;
pub mod driver;
pub mod hooks;
pub mod policy;
pub mod prelude;
pub mod report;
pub mod status;
pub mod trace;

pub use action::{Action, CallbackAction, LogAction};
pub use checker::{CheckStatus, Checker, ExecutionProbe, FnChecker};
pub use context::{
    ContextReader, ContextSlot, ContextSnapshot, ContextTable, CtxValue, PublishGuard,
};
pub use driver::{DriverBuilder, DriverStats, WatchdogConfig, WatchdogDriver};
pub use hooks::{FireGuard, HookSite, Hooks};
pub use policy::SchedulePolicy;
pub use report::{FailureKind, FailureReport, FaultLocation};
pub use status::{ComponentHealth, HealthBoard};
pub use trace::{TraceEvent, TraceEventKind, TraceRecorder};
