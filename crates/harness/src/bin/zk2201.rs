//! Reproduces the paper's §4.2 preliminary result (experiment E4).
//!
//! ```text
//! zk2201 [--out DIR]
//! ```

fn main() {
    harness::single_table(
        "zk2201",
        harness::zk2201::run,
        harness::zk2201::render,
        (
            harness::zk2201::shape_violations,
            " (every seed: heartbeat green, writes hung, with_locked_data#lock blamed within interval + timeout)",
        ),
    );
}
