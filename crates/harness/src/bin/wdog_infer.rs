//! Trace-driven checker inference: record → mine → emit → score.
//!
//! ```text
//! wdog-infer [--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]
//!            [--runs N] [--record-ms N] [--max-rescore N]
//!            [--require-invariants N] [--require-flips N]
//! wdog-infer --target all --require-invariants 10 --require-flips 1
//! ```
//!
//! Records `--runs` benign executions of each target on the sim clock
//! with a trace recorder armed, mines value-level invariants from the
//! journals, lowers them into `inferred`-family checker specs, and — when
//! `<out>/chaos/chaos_<target>.json` exists — replays that campaign's
//! missed schedules with the inferred checkers registered, ledgering
//! every fault verdict that flips to detected.
//!
//! Artifacts land under `<out>/inferred/inferred_<target>.json` and are
//! byte-identical across runs of the same target + seed: recording is
//! virtual-time deterministic and everything downstream is a pure
//! function of the journals. CI runs the pipeline twice and `cmp`s.
//!
//! `--require-invariants N` gates on mined invariants per target;
//! `--require-flips N` gates on previously-missed fault verdicts that the
//! inferred checkers now detect. A recording whose trace recorder dropped
//! events always fails the run (the artifact's `dropped_events` header
//! field says how many) and leaves `<out>/inferred.err` behind: a corpus
//! mined from truncated journals must not pass for a clean one.

use std::time::Duration;

use harness::cli::{CampaignCli, EXIT_GATE};
use harness::infer::{self, InferOptions};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR] [--runs N] \
     [--record-ms N] [--max-rescore N] [--require-invariants N] [--require-flips N]";

fn main() {
    let cli = CampaignCli::parse(
        "wdog-infer",
        USAGE,
        &[
            "--runs",
            "--record-ms",
            "--max-rescore",
            "--require-invariants",
            "--require-flips",
        ],
        &[],
    );
    let require_invariants: u64 = cli.parsed("--require-invariants", 0);
    let require_flips: u64 = cli.parsed("--require-flips", 0);
    let out = cli.out_dir();
    let opts = InferOptions {
        seed: cli.seed(),
        runs: cli.parsed("--runs", 3),
        record_for: Duration::from_millis(cli.parsed("--record-ms", 10_000)),
        max_rescore: cli.parsed("--max-rescore", 40),
        chaos_dir: out.join("chaos"),
        ..InferOptions::default()
    };

    let mut failed = false;
    let mut truncated = Vec::new();
    for target in cli.targets("kvs") {
        let artifact = match infer::run_pipeline(target.as_ref(), &opts) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("wdog-infer [{}] failed: {e}", target.name());
                failed = true;
                continue;
            }
        };
        println!("{}", infer::render(&artifact));
        harness::write_json_under(
            &out.join("inferred"),
            &format!("inferred_{}", target.name()),
            &artifact,
        );

        if artifact.dropped_events > 0 {
            truncated.push(format!(
                "wdog-infer [{}]: trace recorder dropped {} events; corpus mined from truncated journals",
                target.name(),
                artifact.dropped_events
            ));
        }
        let mined = artifact.inference.mined.invariants.len() as u64;
        if mined < require_invariants {
            eprintln!(
                "wdog-infer [{}]: {mined} invariants mined < required {require_invariants}",
                target.name()
            );
            failed = true;
        }
        let flips = artifact
            .score
            .as_ref()
            .map(|s| s.flips.len() as u64)
            .unwrap_or(0);
        if flips < require_flips {
            eprintln!(
                "wdog-infer [{}]: {flips} missed->detected flips < required {require_flips}",
                target.name()
            );
            failed = true;
        }
    }
    if !truncated.is_empty() {
        let text = truncated.join("\n");
        eprintln!("{text}");
        harness::write_err_sidecar_under(&out, "inferred", &text);
        failed = true;
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
    harness::clear_err_sidecar_under(&out, "inferred");
}
