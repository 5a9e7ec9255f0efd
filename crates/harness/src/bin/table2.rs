//! Regenerates the paper's Table 2 (experiment E2).
//!
//! ```text
//! table2 [--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]
//! ```
//!
//! `--target` selects which system(s) to campaign against; the paper-shape
//! check applies to the kvs run, whose checker families span all three
//! types.

use harness::cli::{CampaignCli, EXIT_GATE};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]";

fn main() {
    let cli = CampaignCli::parse("table2", USAGE, &[], &[]);
    let out = cli.out_dir();
    let mut failed = false;
    for target in cli.targets("kvs") {
        let registry = wdog_telemetry::TelemetryRegistry::shared();
        let mut opts = harness::scenario::RunnerOptions {
            seed: cli.seed(),
            ..Default::default()
        };
        opts.wd.telemetry = Some(std::sync::Arc::clone(&registry));
        match harness::table2::run(target.as_ref(), &opts, 3) {
            Ok(result) => {
                println!("{}", harness::table2::render(&result));
                if result.target == "kvs" {
                    let violations = harness::table2::shape_violations(&result);
                    if violations.is_empty() {
                        println!("shape check: OK (matches the paper's Table 2 expectations)");
                    } else {
                        println!("shape check: VIOLATIONS");
                        for v in violations {
                            println!("  - {v}");
                        }
                    }
                }
                harness::write_json_under(
                    &out,
                    &harness::result_name("table2", &result.target),
                    &result,
                );
                harness::telemetry::write_snapshot_under(
                    &out,
                    &format!("telemetry_table2_{}", result.target),
                    &registry.snapshot(),
                );
            }
            Err(e) => {
                eprintln!("table2 [{}] failed: {e}", target.name());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
    harness::clear_err_sidecar_under(&out, "table2");
}
