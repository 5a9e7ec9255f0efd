//! Regenerates the paper's Table 1 (experiment E1).
//!
//! ```text
//! table1 [--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]
//! ```
//!
//! `--target` selects which system(s) to campaign against; the paper-shape
//! check applies to the kvs matrix, the target the catalogue's
//! expectations were calibrated on.

use harness::cli::{CampaignCli, EXIT_GATE};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]";

fn main() {
    let cli = CampaignCli::parse("table1", USAGE, &[], &[]);
    let out = cli.out_dir();
    let mut failed = false;
    for target in cli.targets("kvs") {
        let registry = wdog_telemetry::TelemetryRegistry::shared();
        let mut opts = harness::scenario::RunnerOptions {
            seed: cli.seed(),
            ..Default::default()
        };
        opts.wd.telemetry = Some(std::sync::Arc::clone(&registry));
        match harness::table1::run(target.as_ref(), &opts) {
            Ok(result) => {
                println!("{}", harness::table1::render(&result));
                if result.target == "kvs" {
                    let violations = harness::table1::shape_violations(&result);
                    if violations.is_empty() {
                        println!("shape check: OK (matches the paper's Table 1 expectations)");
                    } else {
                        println!("shape check: VIOLATIONS");
                        for v in violations {
                            println!("  - {v}");
                        }
                    }
                }
                harness::write_json_under(
                    &out,
                    &harness::result_name("table1", &result.target),
                    &result,
                );
                harness::telemetry::write_snapshot_under(
                    &out,
                    &format!("telemetry_table1_{}", result.target),
                    &registry.snapshot(),
                );
            }
            Err(e) => {
                eprintln!("table1 [{}] failed: {e}", target.name());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
    harness::clear_err_sidecar_under(&out, "table1");
}
