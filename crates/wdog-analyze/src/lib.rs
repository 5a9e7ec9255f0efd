//! wdog-analyze: static extraction of AutoWatchdog IR from Rust source.
//!
//! The paper's AutoWatchdog front end analyzes the target program itself
//! (Soot over Java bytecode) to find continuously-executed regions and
//! vulnerable operations. This crate does the same over Rust source:
//!
//! * [`extract`] parses each target crate's Rust source with a minimal
//!   hand-rolled [`lexer`] (the workspace builds offline; no `syn`),
//!   discovers spawn-rooted long-running regions, classifies call sites
//!   with the shared [`wdog_gen::patterns`] rule table, and emits a
//!   [`wdog_gen::ProgramIr`], hook firings included.
//!   The extraction is committed as `tests/snapshots/<target>.json`, and
//!   each target's `describe_ir()` returns its `ir`; what the source
//!   alone cannot say is a `// wdog:` directive in it;
//! * [`locks`] and [`safety`] are `wdog-lint`'s two gates over the same
//!   source: lock-order cycles in the extracted IR (locks that each reach
//!   the other in the lock graph) and probe bodies that mutate shared
//!   state.
//!
//! Which checker covers which vulnerable op is not analyzed here: it is
//! the reducer's decision, recorded by [`wdog_gen::reduce`].
//!
//! The extractor is deliberately conservative (see `DESIGN.md` §2 for
//! the soundness limits): no macro expansion, no trait-object
//! resolution — ambiguous calls are skipped, and `// wdog:` annotations
//! cover the places where that matters.

pub mod extract;
pub mod lexer;
pub mod locks;
pub mod model;
pub mod safety;

pub use extract::{
    extract_model, extract_target, target_named, workspace_root, ExtractedProgram, TargetConfig,
    TARGETS,
};
pub use locks::{analyze_locks, LockOrderReport};
pub use model::{CrateModel, SourceFile};
pub use safety::{analyze_safety_model, SafetyClass, SafetyReport};
