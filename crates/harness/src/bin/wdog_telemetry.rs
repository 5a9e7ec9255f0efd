//! Exports the watchdog runtime's telemetry plane for one campaign run.
//!
//! ```text
//! wdog-telemetry [--target {kvs|minizk|miniblock|all}] [--out DIR]
//!                [--scenarios id,id,...]
//!                [--require-detections N]
//! ```
//!
//! Replays the target's gray-failure catalogue with a telemetry registry
//! threaded through driver, hooks, and recovery plumbing, then writes
//! `results/telemetry_<target>.json` (the full [`TelemetrySnapshot`] —
//! per-checker latency histograms, per-site hook fire counters, measured
//! injection→report detection latencies, flight-recorder tail) plus a
//! Prometheus-style `.prom` rendering.
//!
//! `--require-detections N` exits nonzero unless at least N end-to-end
//! detection latencies were measured (summed over targets) — the CI smoke
//! gate.
//!
//! [`TelemetrySnapshot`]: wdog_telemetry::TelemetrySnapshot

use harness::cli::{CampaignCli, EXIT_GATE};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--out DIR] \
     [--scenarios id,id,...] [--require-detections N]";

fn main() {
    let cli = CampaignCli::parse(
        "wdog-telemetry",
        USAGE,
        &["--scenarios", "--require-detections"],
        &[],
    );
    let scenarios = cli.list("--scenarios");
    let require_detections: u64 = cli.parsed("--require-detections", 0);
    let out = cli.out_dir();

    let opts = harness::telemetry::campaign_options();
    let mut detections_total = 0u64;
    let mut failed = false;
    for target in cli.targets("kvs") {
        match harness::telemetry::run_campaign(target.as_ref(), scenarios.as_deref(), &opts) {
            Ok(snap) => {
                println!("{}", harness::telemetry::render(target.name(), &snap));
                let violations = harness::telemetry::validate_snapshot(&snap);
                if violations.is_empty() {
                    println!("schema check: OK");
                } else {
                    println!("schema check: VIOLATIONS");
                    for v in violations {
                        println!("  - {v}");
                    }
                    failed = true;
                }
                detections_total += snap.detections.len() as u64;
                harness::telemetry::write_snapshot_under(
                    &out,
                    &format!("telemetry_{}", target.name()),
                    &snap,
                );
            }
            Err(e) => {
                eprintln!("wdog-telemetry [{}] failed: {e}", target.name());
                failed = true;
            }
        }
    }
    if detections_total < require_detections {
        eprintln!(
            "wdog-telemetry: {detections_total} measured detections < required {require_detections}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
}
