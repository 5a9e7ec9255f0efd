//! Runs the E6 design-choice ablations.
//!
//! ```text
//! ablations [--out DIR]
//! ```

fn main() {
    harness::single_table(
        "ablations",
        harness::ablations::run,
        harness::ablations::render,
        (harness::ablations::shape_violations, ""),
    );
}
