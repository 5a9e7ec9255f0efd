//! Simulated I/O substrates with deterministic fault-injection hooks.
//!
//! The paper's watchdogs exist to catch *gray failures*: partial disk
//! failures, fail-slow hardware, blocked network links, state corruption.
//! Reproducing those on real hardware is neither deterministic nor portable,
//! so the target systems in this workspace run on simulated substrates that
//! expose the same operational surface (read/write/fsync, send/recv) plus
//! explicit fault hooks:
//!
//! - [`disk::SimDisk`] — an in-memory disk with latency models, capacity
//!   accounting, and injectable stuck/slow/error/corrupt-write faults.
//! - [`net::SimNet`] — a message-passing network with per-link latency and
//!   injectable block/drop/slow faults.
//! - [`resource::ResourceMonitor`] — simulated memory, load, and queue
//!   accounting that signal-type checkers can observe.
//! - [`latency::LatencyModel`] — seeded exponential latency sampling.
//! - [`vclock::SimClock`] — the discrete-event clock campaigns and tests use.
//!
//! Faults injected here hit the *exact code paths* the paper's fault classes
//! name (a write system call, a blocking send inside a critical section), so
//! detectors observe the same behaviour they would in production: operations
//! hang, slow down, fail, or silently corrupt data.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod disk;
pub mod latency;
pub mod net;
pub mod resource;
pub mod vclock;

pub use disk::{DiskFault, DiskOpKind, SimDisk};
pub use latency::LatencyModel;
pub use net::{Mailbox, Message, NetFault, SimNet};
pub use resource::{ResourceMonitor, StallPoint};
pub use vclock::SimClock;
