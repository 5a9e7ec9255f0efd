//! `wdog-lint` — the static gate over each target's source.
//!
//! ```text
//! wdog-lint [--target {kvs|minizk|miniblock|all}] [--out DIR]
//! ```
//!
//! Extracts each target's IR from its Rust source (`wdog-analyze`), runs
//! the lock-order pass over it, and archives deterministic JSON under
//! `<out>/analysis/`.
//!
//! The run exits 1 on any lock-order cycle. CI also compares the archived
//! reports byte for byte.

use harness::cli::{CampaignCli, EXIT_GATE, EXIT_USAGE};
use harness::lint::{run_analysis, select_lint_targets, AnalysisBundle};
use wdog_analyze::extract::read_sources;

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--out DIR]";

fn render_analysis(b: &AnalysisBundle) {
    println!("== {} analysis ==", b.target);
    println!(
        "   locks: {} ordered pairs, {} cycle(s){}",
        b.locks.edges.len(),
        b.locks.cycles.len(),
        if b.locks.cycles.is_empty() {
            String::new()
        } else {
            format!(
                " — POTENTIAL DEADLOCK: {}",
                b.locks
                    .cycles
                    .iter()
                    .map(|c| c.resources.join(" -> "))
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        }
    );
}

fn main() {
    let cli = CampaignCli::parse("wdog-lint", USAGE, &["--target", "--out"]);
    let name = cli.target("all");
    let out = cli.out_dir();
    let analysis = out.join("analysis");
    let Some(targets) = select_lint_targets(&name) else {
        eprintln!("unknown target {name:?}; expected kvs, minizk, miniblock, or all");
        std::process::exit(EXIT_USAGE);
    };

    let mut deadlock_cycles = 0usize;

    for target in &targets {
        let sources = read_sources(target).unwrap_or_else(|e| {
            eprintln!("error: cannot analyze {}: {e}", target.name);
            std::process::exit(EXIT_USAGE);
        });
        let bundle = run_analysis(target, &sources);
        render_analysis(&bundle);
        deadlock_cycles += bundle.locks.cycles.len();

        let t = &bundle.target;
        harness::write_json_under(&analysis, &format!("locks_{t}"), &bundle.locks);
    }

    if deadlock_cycles > 0 {
        eprintln!("\nwdog-lint: {deadlock_cycles} lock-order cycle(s); failing");
        std::process::exit(EXIT_GATE);
    }
}
