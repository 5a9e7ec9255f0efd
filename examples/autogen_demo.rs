//! AutoWatchdog in action: program logic reduction, Figures 2 and 3.
//!
//! Run with: `cargo run --example autogen_demo`
//!
//! Prints the minizk snapshot region annotated with what reduction keeps
//! and drops (the paper's Figure 2), the generated checker (Figure 3), and
//! the checker inventory for two target systems, all generated from the IR
//! each target extracts from its own source.

use watchdogs::gen::plan::generate_plan;
use watchdogs::gen::pretty::{render_checker, render_region, render_summary};
use watchdogs::gen::reduce::ReductionConfig;

fn main() {
    let config = ReductionConfig::default();

    let zk_ir = watchdogs::minizk::wd::describe_ir();
    let zk_plan = generate_plan(&zk_ir, &config);

    println!("=== Figure 2 analog: reducing minizk's snapshot sync region ===\n");
    println!("{}", render_region(&zk_ir, &zk_plan, "snapshot_sync_loop"));

    println!("=== Figure 3 analog: the generated checker ===\n");
    if let Some(checker) = zk_plan.checker_for("snapshot_sync_loop") {
        println!("{}", render_checker(checker));
    }

    println!("=== Generation summary: minizk ===\n");
    println!("{}", render_summary(&zk_plan));

    let kvs_ir = watchdogs::kvs::wd::describe_ir();
    let kvs_plan = generate_plan(&kvs_ir, &config);
    println!("=== Generation summary: kvs ===\n");
    println!("{}", render_summary(&kvs_plan));

    println!("=== Ablation: reduction disabled ===\n");
    let no_dedup = ReductionConfig { dedup: false };
    let fat_plan = generate_plan(&kvs_ir, &no_dedup);
    println!(
        "kvs with dedup:    {} ops retained across {} checkers",
        kvs_plan.reduced.stats.ops_retained,
        kvs_plan.checkers.len()
    );
    println!(
        "kvs without dedup: {} ops retained across {} checkers",
        fat_plan.reduced.stats.ops_retained,
        fat_plan.checkers.len()
    );
}
