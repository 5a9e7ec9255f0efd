//! `wdog-lint` — the static gates over each target's source.
//!
//! ```text
//! wdog-lint [--target {kvs|minizk|miniblock|all}] [--out DIR]
//! ```
//!
//! Extracts each target's IR from its Rust source (`wdog-analyze`) and
//! runs the two gated passes per target — lock order over the IR, probe
//! safety over the source — then archives deterministic JSON under
//! `<out>/analysis/`.
//!
//! The run exits 1 on any probe body classified `shared-mutation` (the
//! paper's isolation requirement, mechanized) or any lock-order cycle. CI
//! also compares the archived reports byte for byte.

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
    let count = |class: wdog_analyze::SafetyClass| {
        b.safety.probes.iter().filter(|p| p.class == class).count()
    };
    println!(
        "   safety: {} probes ({} read-only, {} replica-write, {} SHARED-MUTATION)",
        b.safety.probes.len(),
        count(wdog_analyze::SafetyClass::ReadOnly),
        count(wdog_analyze::SafetyClass::ReplicaWrite),
        count(wdog_analyze::SafetyClass::SharedMutation),
    );
    for v in b.safety.violations() {
        println!("     !! shared-mutation probe {} ({})", v.id, v.file);
    }
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

    let mut unsafe_probes = 0usize;
    let mut deadlock_cycles = 0usize;

    for target in &targets {
        let sources = read_sources(target).unwrap_or_else(|e| {
            eprintln!("error: cannot analyze {}: {e}", target.name);
            std::process::exit(EXIT_USAGE);
        });
        let bundle = run_analysis(target, &sources);
        render_analysis(&bundle);
        unsafe_probes += bundle.safety.violations().len();
        deadlock_cycles += bundle.locks.cycles.len();

        let t = &bundle.target;
        harness::write_json_under(&analysis, &format!("locks_{t}"), &bundle.locks);
        harness::write_json_under(&analysis, &format!("safety_{t}"), &bundle.safety);
    }

    let failures = [
        (unsafe_probes, "shared-mutation probe(s)"),
        (deadlock_cycles, "lock-order cycle(s)"),
    ];
    let mut failed = false;
    for (count, what) in failures {
        if count > 0 {
            eprintln!("\nwdog-lint: {count} {what}; failing");
            failed = true;
        }
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
}
