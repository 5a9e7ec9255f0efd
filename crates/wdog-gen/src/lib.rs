//! AutoWatchdog: automatic generation of mimic-type watchdogs through
//! **program logic reduction** (paper §4).
//!
//! Given a program *P*, the goal is a watchdog *W* that detects gray
//! failures in *P* without imposing on *P*'s execution. Full program slices
//! would be heavyweight and poor at pinpointing; instead *W* is a *reduced
//! but representative* version of *P*, built on two insights (§4.1):
//!
//! 1. most code need not be checked at runtime because its correctness is
//!    logically deterministic — that belongs in unit tests;
//! 2. *W* only needs to catch errors, not recreate business logic — one
//!    `write()` suffices to check a loop of many.
//!
//! The pipeline, mirroring the paper step for step:
//!
//! | Paper step | Module |
//! |---|---|
//! | extract code regions that may be executed continuously | [`regions`] |
//! | retain operations vulnerable in production (I/O, sync, resource, communication; plus annotations) | [`vulnerable`] |
//! | remove similar vulnerable operations; global reduction along call chains | [`reduce`] |
//! | analyze the context required; generate the checkers | [`plan`] |
//! | enhance with runtime checks; package checkers into the driver | [`interp`] |
//!
//! The front end is the [`ir`]: the `wdog-analyze` crate extracts it from
//! each target's Rust source using the shared [`patterns`] rule table (the
//! stand-in for Soot-style bytecode analysis, see `DESIGN.md` §2), and each
//! target's `describe_ir()` returns that committed extraction. Tests build
//! IRs by hand with [`ir::ProgramBuilder`]. Everything downstream of the IR
//! is the paper's algorithm, and the generated checkers execute *real*
//! system operations through an [`interp::OpTable`].
//!
//! [`pretty`] renders Figure 2/3-style before/after listings.

pub mod interp;
pub mod ir;
pub mod patterns;
pub mod plan;
pub mod pretty;
pub mod reduce;
pub mod regions;
pub mod vulnerable;

pub use interp::OpTable;
pub use ir::{Function, OpKind, Operation, ProgramBuilder, ProgramIr};
pub use patterns::{classify_callee, kind_for_label, resource_family, CalleeRule, CALLEE_RULES};
pub use plan::{generate_plan, GeneratedChecker, WatchdogPlan};
pub use reduce::{
    reduce_program, ReducedFunction, ReducedProgram, ReductionConfig, ReductionStats,
};
pub use regions::{find_regions, Region};
pub use vulnerable::{is_vulnerable, VulnClass};
