//! Regenerates the paper's Table 2 (experiment E2).
//!
//! ```text
//! table2 [--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]
//! ```
//!
//! `--target` selects which system(s) to campaign against; the paper-shape
//! check applies to the kvs run, whose checker families span all three
//! types.

fn main() {
    harness::table_campaign(
        "table2",
        |target, opts| harness::table2::run(target, opts, 3),
        harness::table2::render,
        (
            harness::table2::shape_violations,
            " (matches the paper's Table 2 expectations)",
        ),
    );
}
