//! Regenerates the paper's Table 1 (experiment E1).
//!
//! ```text
//! table1 [--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]
//! ```
//!
//! `--target` selects which system(s) to campaign against; the paper-shape
//! check applies to the kvs matrix, the target the catalogue's
//! expectations were calibrated on.

fn main() {
    harness::table_campaign(
        "table1",
        harness::table1::run,
        harness::table1::render,
        (
            harness::table1::shape_violations,
            " (matches the paper's Table 1 expectations)",
        ),
    );
}
