//! Closed-loop recovery for watchdog detections.
//!
//! The paper's driver does not stop at detection: it "applies an action to
//! the main program accordingly" (§3.1), and §5.2 argues that *pinpointed*
//! detection is what makes recovery cheap — restart one component or replace
//! one corrupted object instead of bouncing the whole process. This crate is
//! that missing half. A [`RecoveryCoordinator`] consumes
//! [`FailureReport`](wdog_core::report::FailureReport)s as a driver
//! [`Action`](wdog_core::action::Action) and walks each blamed component up
//! a policy ladder:
//!
//! 1. **Retry** — wait out a transient with bounded, deterministic-jitter
//!    exponential backoff;
//! 2. **Restart** — component-scoped restart through
//!    [`Restartable`](wdog_core::action::Restartable);
//! 3. **Degrade** — when neither helped, shed the component's workload
//!    through [`Degradable`](wdog_core::action::Degradable) so the rest of
//!    the process keeps running; the incident closes
//!    [`Degraded`](RecoveryOutcome::Degraded).
//!
//! Recovery is **verified**, and the ladder *parks on* the verification
//! instead of sleeping and then polling: an incident launches a fresh
//! verifier for the blamed component (via the target's [`RecoverySurface`]) when
//! it opens and keeps at most one in flight; every back-off, settle and
//! verify timeout is a bounded wait on that verifier's verdict. Only a pass
//! from the target's own verifier marks the component recovered — at the
//! instant it lands — and a fail from a verifier launched before a
//! mitigation says nothing about that mitigation. Chronically flapping
//! components trip a circuit breaker and are pinned in degraded mode. Each
//! incident records full MTTR accounting — opened at first blame, closed at
//! its terminal state — so campaigns can report time-to-repair per failure
//! class.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod coordinator;
pub mod incident;
pub mod policy;
pub mod prelude;

pub use coordinator::{RecoveryCoordinator, RecoverySurface, VerifierFactory};
pub use incident::{Incident, RecoveryOutcome};
pub use policy::{BackoffPolicy, RecoveryPolicy};
