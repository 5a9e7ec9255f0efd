//! Extrinsic failure-detector baselines (paper §1–2 and Table 1).
//!
//! These are the detectors the paper argues are *insufficient* for gray
//! failures, implemented faithfully so experiments E1 and E4 can measure
//! the gap:
//!
//! - [`heartbeat::HeartbeatDetector`] — the classic crash failure detector:
//!   a process is healthy as long as it "does something periodically based
//!   on the contract with the external detector". Catches fail-stop,
//!   nothing finer.
//! - [`probe_client::ExternalProbe`] — an application spy / `mod_watchdog`
//!   style client issuing end-to-end requests from outside the process.
//! - [`observer::ObserverHub`] — Panorama-style: real requesters report the
//!   outcome of their own requests as evidence; the hub aggregates error
//!   rates per component. Enhances detection but "cannot identify why the
//!   failure occurs or isolate which part of the failing process is
//!   problematic".
//!
//! All three expose the uniform [`api::Detector`] interface so campaign
//! runners can poll them interchangeably.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod api;
pub mod heartbeat;
pub mod observer;
pub mod probe_client;

pub use api::{Detector, Verdict};
pub use heartbeat::HeartbeatDetector;
pub use observer::ObserverHub;
pub use probe_client::ExternalProbe;
