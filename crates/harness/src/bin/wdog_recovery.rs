//! Replays the gray-failure catalogue through the closed recovery loop
//! (§5.2) and reports per-scenario MTTR, attempts, and dispositions.
//!
//! ```text
//! wdog-recovery [--target {kvs|minizk|miniblock|all}] [--out DIR]
//!               [--scenarios id,id,...] [--require-verified N]
//! ```
//!
//! Every scenario runs on the discrete-event virtual clock (deterministic,
//! load-independent, milliseconds of wall time). `--scenarios` filters the
//! catalogue by id; `--require-verified N` exits nonzero unless at least N
//! scenarios (summed over targets) ended verified-recovered — the CI smoke
//! gate.

use harness::cli::{CampaignCli, EXIT_GATE};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--out DIR] \
     [--scenarios id,id,...] [--require-verified N]";

fn main() {
    let cli = CampaignCli::parse(
        "wdog-recovery",
        USAGE,
        &["--scenarios", "--require-verified"],
        &[],
    );
    let scenarios = cli.list("--scenarios");
    let require_verified: u64 = cli.parsed("--require-verified", 0);
    let out = cli.out_dir();

    let mut verified_total = 0;
    let mut failed = false;
    for target in cli.targets("kvs") {
        let registry = wdog_telemetry::TelemetryRegistry::shared();
        let mut opts = harness::recovery::RecoveryOptions::default();
        opts.wd.telemetry = Some(std::sync::Arc::clone(&registry));
        match harness::recovery::run(target.as_ref(), scenarios.as_deref(), &opts) {
            Ok(campaign) => {
                println!("{}", harness::recovery::render(&campaign));
                verified_total += campaign.verified_total;
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
    if verified_total < require_verified {
        eprintln!(
            "wdog-recovery: {verified_total} verified recoveries < required {require_verified}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
    harness::clear_err_sidecar_under(&out, "recovery");
}
