//! The supported public surface of the recovery plane, re-exported flat.
//!
//! Use alongside `wdog_core::prelude` (this crate depends on wdog-core, so
//! its types cannot live in that prelude without a cycle):
//!
//! ```ignore
//! use wdog_core::prelude::*;
//! use wdog_recover::prelude::*;
//! ```

pub use crate::coordinator::{
    RecoveryCoordinator, RecoveryCoordinatorBuilder, RecoverySurface, VerifierFactory,
};
pub use crate::incident::{Incident, RecoveryOutcome};
pub use crate::policy::{BackoffPolicy, RecoveryPolicy};
