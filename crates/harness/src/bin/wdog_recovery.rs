//! Replays the gray-failure catalogue through the closed recovery loop
//! (§5.2) and reports per-scenario MTTR, attempts, and dispositions.
//!
//! ```text
//! wdog-recovery [--target {kvs|minizk|miniblock|all}] [--out DIR]
//! ```
//!
//! Every scenario runs on the discrete-event virtual clock (deterministic,
//! load-independent, milliseconds of wall time), so `<out>/recovery*.json`
//! is byte-identical across runs; CI compares it with the archive. The run
//! exits nonzero when the coordinator is not idle at the close of every
//! scenario.

use harness::cli::{CampaignCli, EXIT_GATE};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--out DIR]";

fn main() {
    let cli = CampaignCli::parse("wdog-recovery", USAGE, &["--target", "--out"]);
    let out = cli.out_dir();

    let mut failed = false;
    for target in cli.targets("kvs") {
        let registry = wdog_telemetry::TelemetryRegistry::shared();
        let mut opts = harness::recovery::RecoveryOptions::default();
        opts.wd.telemetry = Some(std::sync::Arc::clone(&registry));
        match harness::recovery::run(target.as_ref(), None, &opts) {
            Ok(campaign) => {
                println!("{}", harness::recovery::render(&campaign));
                if campaign.idle_total != campaign.scenarios.len() as u64 {
                    eprintln!(
                        "wdog-recovery [{}]: coordinator not idle on every scenario",
                        campaign.target
                    );
                    failed = true;
                }
                harness::write_json_under(
                    &out,
                    &harness::result_name("recovery", &campaign.target),
                    &campaign,
                );
                harness::telemetry::write_snapshot_under(
                    &out,
                    &format!("telemetry_recovery_{}", campaign.target),
                    &registry.snapshot(),
                );
            }
            Err(e) => {
                eprintln!("wdog-recovery [{}] failed: {e}", target.name());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
    harness::clear_err_sidecar_under(&out, "recovery");
}
