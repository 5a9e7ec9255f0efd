//! Trace-driven checker inference: record → mine → emit → score.
//!
//! ```text
//! wdog-infer [--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]
//! ```
//!
//! Records three 10-second benign executions of each target on the sim
//! clock with a trace recorder armed, mines value-level invariants from the
//! journals, lowers them into `inferred`-family checker specs, and — when
//! `<out>/chaos/chaos_<target>.json` exists — replays up to 40 of that
//! campaign's missed schedules (`harness::infer`'s `MAX_RESCORE`) with the
//! inferred checkers registered, ledgering every fault verdict that flips
//! to detected. A missing archive skips scoring; one that cannot be read
//! or parsed fails the run.
//!
//! Artifacts land under `<out>/inferred/inferred_<target>.json` and are
//! byte-identical across runs of the same target + seed: recording is
//! virtual-time deterministic and everything downstream is a pure
//! function of the journals. CI runs the pipeline twice and `cmp`s both
//! against the archive.
//!
//! A recording whose trace recorder dropped an event fails that target's
//! run like any other error: nothing is written for it and the bin exits 1,
//! since a corpus mined from truncated journals must not pass for a clean
//! one.

use harness::cli::{CampaignCli, EXIT_GATE};
use harness::infer::{self, InferOptions};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]";

fn main() {
    let cli = CampaignCli::parse("wdog-infer", USAGE, &["--target", "--seed", "--out"]);
    let out = cli.out_dir();
    let opts = InferOptions {
        seed: cli.seed(),
        chaos_dir: out.join("chaos"),
        ..InferOptions::default()
    };

    let mut failed = false;
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
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
    harness::clear_err_sidecar_under(&out, "inferred");
}
