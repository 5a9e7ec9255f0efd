//! Regenerates Figures 2-3 (experiment E3b): program logic reduction.
//!
//! ```text
//! reduction [--out DIR]
//! ```

fn main() {
    harness::single_table(
        "reduction",
        || Ok(harness::reduction::run()),
        harness::reduction::render,
        (harness::reduction::shape_violations, ""),
    );
}
