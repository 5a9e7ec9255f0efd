//! `wdog-lint` — the hook/IR drift gate plus the deep-analysis gates.
//!
//! ```text
//! wdog-lint [--target {kvs|minizk|miniblock|all}] [--out DIR]
//! ```
//!
//! Extracts each target's IR from its Rust source (`wdog-analyze`),
//! diffs it against the hand-written `describe_ir()` self-description
//! and the generated hook plan, renders the findings, and archives them
//! as `<out>/drift-<target>.json`. The deep static passes then run per
//! target — lock order, probe safety, and the coverage matrix, whose blind
//! spots are the missed reproducers under `tests/chaos_corpus` — and
//! archive deterministic JSON under `<out>/analysis/`.
//!
//! The run exits 1 on any drift finding the target's allowlist does not
//! absorb, any probe body classified `shared-mutation` (the paper's
//! isolation requirement, mechanized), or any lock-order cycle. Coverage
//! regressions show as a diff against the archived matrices, which CI
//! compares byte for byte.

use std::path::Path;

use harness::cli::{CampaignCli, EXIT_GATE, EXIT_USAGE};
use harness::lint::{
    load_blind_spots, run_analysis, run_lint, select_lint_targets, AnalysisBundle,
};
use wdog_gen::pretty::render_drift;

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--out DIR]";

fn write_artifact(dir: &Path, name: &str, value: &impl serde::Serialize) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match serde_json::to_string_pretty(value) {
        Ok(mut json) => {
            json.push('\n');
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[analysis artifact written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

fn render_analysis(b: &AnalysisBundle) {
    println!(
        "== {} analysis: {} fns, {} call edges, {} roots ==",
        b.target,
        b.callgraph.functions,
        b.callgraph.edges,
        b.callgraph.roots.len()
    );
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
        println!(
            "     !! shared-mutation probe {} ({}:{})",
            v.id, v.file, v.line
        );
    }
    let t = &b.coverage.totals;
    println!(
        "   coverage: {} vulnerable ops — {} covered, {} weak, {} uncovered; {} region(s) without stuck coverage",
        t.ops,
        t.covered,
        t.weak,
        t.uncovered,
        b.coverage
            .regions
            .iter()
            .filter(|r| r.stuck_coverage != wdog_analyze::CoverageStatus::Covered)
            .count()
    );
    for gap in b.coverage.uncovered_ranked.iter().take(5) {
        println!(
            "     #{} [{}] {} ({}, {})",
            gap.rank,
            gap.status.label(),
            gap.op_id,
            gap.region,
            gap.kind
        );
    }
    for spot in &b.coverage.blind_spots {
        println!(
            "   blind spot {} ({}): statically {} ({} evidence row(s))",
            spot.id,
            spot.fault,
            if spot.statically_flagged {
                "FLAGGED"
            } else {
                "not flagged"
            },
            spot.evidence.len()
        );
    }
}

fn main() {
    let cli = CampaignCli::parse("wdog-lint", USAGE, &[]);
    let name = cli.target("all");
    let out = cli.out_dir();
    let analysis = out.join("analysis");
    let Some(targets) = select_lint_targets(&name) else {
        eprintln!("unknown target {name:?}; expected kvs, minizk, miniblock, or all");
        std::process::exit(EXIT_USAGE);
    };

    let mut denied_drift = 0usize;
    let mut unsafe_probes = 0usize;
    let mut deadlock_cycles = 0usize;
    let mut reports = Vec::new();

    for target in &targets {
        match run_lint(target) {
            Ok(report) => {
                println!("{}", render_drift(&report));
                denied_drift += report.denied().len();
                reports.push(report);
            }
            Err(e) => {
                eprintln!("error: cannot analyze {}: {e}", target.name);
                std::process::exit(EXIT_USAGE);
            }
        }

        let corpus = Path::new("tests/chaos_corpus");
        let bundle = match load_blind_spots(corpus, target.name)
            .and_then(|spots| run_analysis(target, &spots))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: analysis passes failed for {}: {e}", target.name);
                std::process::exit(EXIT_USAGE);
            }
        };
        render_analysis(&bundle);
        unsafe_probes += bundle.safety.violations().len();
        deadlock_cycles += bundle.locks.cycles.len();

        let t = &bundle.target;
        write_artifact(&analysis, &format!("coverage_{t}.json"), &bundle.coverage);
        write_artifact(&analysis, &format!("locks_{t}.json"), &bundle.locks);
        write_artifact(&analysis, &format!("safety_{t}.json"), &bundle.safety);
    }
    harness::write_json_under(&out, &harness::result_name("drift", &name), &reports);

    let failures = [
        (denied_drift, "undocumented drift finding(s)"),
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
