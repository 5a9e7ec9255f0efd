//! The three watchdog checker families from the paper's Table 2.
//!
//! | Type   | Level     | Completeness | Accuracy | Pinpoint |
//! |--------|-----------|--------------|----------|----------|
//! | Probe  | API       | weak         | perfect  | no       |
//! | Signal | Resource  | modest       | weak     | partial  |
//! | Mimic  | Operation | strong       | strong   | yes      |
//!
//! - [`probe_checker`] acts like a special client: it invokes the
//!   software's public API with pre-supplied input and checks the contract.
//!   Any error it reports is a true violation (perfect accuracy), but it can
//!   only see what the API surface shows (weak completeness, no pinpoint).
//!   It is the one home of the probe rule (an `Err` becomes a failure of
//!   kind `FailureKind::from_error` at the API); recovery verifiers use it
//!   too.
//! - [`signal`] checkers watch health indicators — memory, queue depth,
//!   disk space, scheduling delay — like the Linux watchdog daemon.
//!   Good at environment/resource faults; prone to false alarms under
//!   legitimately heavy load (weak accuracy).
//!
//! Probe and signal checkers are constructor functions returning a
//! `wdog_core::FnChecker`: the families differ in what they inspect, not
//! in how a check becomes a verdict.
//! - [`mimic::MimicChecker`] selects important operations from the main
//!   program, imitates them with state synchronized through contexts, and
//!   detects errors at operation granularity. This is the checker family
//!   AutoWatchdog (`wdog-gen`) generates.
//!
//! Experiment E2 (`harness table2`) measures all three columns empirically.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod inferred;
pub mod mimic;
pub mod probe;
pub mod signal;

pub use inferred::{InferredChecker, InferredPredicate, InferredSpec};
pub use mimic::{MimicChecker, MimicOp, OpBody};
pub use probe::probe_checker;
