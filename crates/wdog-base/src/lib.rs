//! Shared substrate-free utilities for the `watchdogs` workspace.
//!
//! This crate hosts the small pieces every other crate needs but that carry no
//! watchdog- or simulation-specific policy of their own:
//!
//! - [`clock`]: a [`Clock`] abstraction with a real wall-clock
//!   implementation; the deterministic clock lives in `simio`.
//! - [`ids`]: cheap, copyable identifiers used across crates.
//! - [`error`]: the workspace-wide error vocabulary.
//! - [`rng`]: deterministic, seedable random number helpers.
//! - [`isolation`]: the checker scope and the probe-tag guard every
//!   mutation of the watched program passes.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod checksum;
pub mod clock;
pub mod error;
pub mod ids;
pub mod isolation;
pub mod join;
pub mod queue;
pub mod rng;
pub mod sync;

pub use checksum::{crc32, verify as verify_crc32};
pub use clock::{
    spawn_on, ActorCtl, ActorGuard, ActorToken, Clock, CondvarWaiter, RealClock, SharedClock,
    Waiter,
};
pub use error::{BaseError, BaseResult};
pub use ids::{CheckerId, ComponentId, OpId};
pub use join::{join_all_timeout, join_timeout};
pub use queue::ClockedQueue;
pub use sync::{ClockedMutex, ClockedMutexGuard};
