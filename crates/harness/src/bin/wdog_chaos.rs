//! Randomized fault-schedule fuzzing of the watchdog's checkers.
//!
//! ```text
//! wdog-chaos [--target {kvs|minizk|miniblock|all}] [--out DIR]
//!            [--seed N] [--schedules N] [--max-wall-ms N]
//!            [--replay FILE]
//! wdog-chaos --schedules 1000 --target all
//! wdog-chaos --replay results/chaos/chaos-42-038.kvs.missed.json
//! ```
//!
//! Every schedule replays on a discrete-event virtual clock: warmup,
//! horizon, and the 400 ms grace after it pass in virtual time, so
//! thousands of schedules cost seconds of wall clock and the canonical
//! report is byte-identical across runs by construction — no retry loops,
//! no agreement protocols.
//! `--max-wall-ms N` makes the per-target campaign wall time a hard gate
//! (CI pins the sweep under the old real-clock smoke budget).
//!
//! Campaign mode composes `--schedules` seeded multi-fault schedules from
//! the target's catalogue, replays each against a live testbed, scores
//! every fault (detected / missed / wrong-component; benign near-miss
//! schedules must stay clean), and shrinks the first two failing schedules
//! (at most 24 re-runs each) to minimal reproducers. Artifacts land under
//! `results/chaos/`:
//!
//! - `chaos_<target>.json` — the full deterministic [`ChaosReport`]
//!   (byte-identical across runs of the same target+seed);
//! - `chaos_<target>_telemetry.json` — the measurement sidecar: virtual
//!   detection latencies, signal-checker reports and the substrate's I/O
//!   ledger, a pure function of target, seed and schedules like the report;
//! - `<schedule-id>.<target>.<verdict>.json` — one replayable
//!   [`Reproducer`] per failing schedule, or an `exemplar` reproducer
//!   when the campaign was clean.
//!
//! A benign near-miss schedule that fires a checker exits nonzero.
//! `--replay FILE` reruns an archived reproducer and exits nonzero unless
//! the fresh verdict matches the recorded one.
//!
//! [`ChaosReport`]: harness::chaos::ChaosReport
//! [`Reproducer`]: harness::chaos::Reproducer

use harness::chaos::{self, ChaosOptions, ChaosReport, Reproducer};
use harness::cli::{CampaignCli, EXIT_GATE, EXIT_USAGE};
use wdog_telemetry::{ChaosMetrics, TelemetryRegistry};

const USAGE: &str = "[--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR] [--schedules N] \
     [--max-wall-ms N] [--replay FILE]";

fn replay_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("wdog-chaos: cannot read {path}: {e}");
            return EXIT_USAGE;
        }
    };
    let rep: Reproducer = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wdog-chaos: {path} is not a reproducer: {e}");
            return EXIT_USAGE;
        }
    };
    let targets = match harness::select_targets(&rep.target) {
        Some(t) => t,
        None => {
            eprintln!(
                "wdog-chaos: reproducer names unknown target {:?}",
                rep.target
            );
            return EXIT_USAGE;
        }
    };
    match chaos::replay(targets[0].as_ref(), &rep, &ChaosOptions::default()) {
        Ok((outcome, matches)) => {
            println!(
                "replayed {} against {}: verdict {:?} (recorded {:?})",
                rep.schedule.id, rep.target, outcome.verdict, rep.verdict
            );
            for v in &outcome.verdicts {
                println!("  {}: {}", v.fault, v.verdict);
            }
            if matches {
                println!("replay reproduces the recorded verdict");
                0
            } else {
                eprintln!("wdog-chaos: replay verdict diverged from the archive");
                EXIT_GATE
            }
        }
        Err(e) => {
            eprintln!("wdog-chaos: replay failed: {e}");
            EXIT_GATE
        }
    }
}

fn main() {
    let cli = CampaignCli::parse(
        "wdog-chaos",
        USAGE,
        &[
            "--target",
            "--seed",
            "--out",
            "--schedules",
            "--max-wall-ms",
            "--replay",
        ],
    );
    let seed = cli.seed();
    let schedules: u64 = cli.parsed("--schedules", 20);
    let max_wall_ms: Option<u64> = cli.parsed_opt("--max-wall-ms");
    let chaos_dir = cli.out_dir().join("chaos");

    if let Some(path) = cli.value("--replay") {
        std::process::exit(replay_file(path));
    }

    let mut failed = false;
    for target in cli.targets("kvs") {
        let metrics = ChaosMetrics::new(TelemetryRegistry::shared());
        let opts = ChaosOptions {
            seed,
            schedules,
            metrics: Some(metrics.clone()),
            ..ChaosOptions::default()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the campaign's wall-clock budget is measured outside the virtual run"
        )]
        let campaign_start = std::time::Instant::now();
        let report: ChaosReport = match chaos::run_campaign(target.as_ref(), &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wdog-chaos [{}] failed: {e}", target.name());
                failed = true;
                continue;
            }
        };
        let wall_ms = campaign_start.elapsed().as_millis() as u64;
        println!("{}", chaos::render(&report));
        println!(
            "[{}: {} schedules in {wall_ms} ms wall]",
            target.name(),
            report.summary.schedules,
        );
        if let Some(budget) = max_wall_ms {
            if wall_ms > budget {
                eprintln!(
                    "wdog-chaos [{}]: campaign took {wall_ms} ms wall > budget {budget} ms",
                    target.name()
                );
                failed = true;
            }
        }
        harness::write_json_under(&chaos_dir, &format!("chaos_{}", target.name()), &report);

        // Reproducer archive: each shrunk failing schedule, or an
        // exemplar of the first outcome when the campaign was clean.
        if report.reproducers.is_empty() {
            if let Some(ex) = chaos::exemplar_reproducer(&report) {
                harness::write_json_under(
                    &chaos_dir,
                    &format!("{}.{}.{}", ex.schedule.id, ex.target, ex.kind),
                    &ex,
                );
            }
        }
        for rep in &report.reproducers {
            harness::write_json_under(
                &chaos_dir,
                &format!("{}.{}.{}", rep.schedule.id, rep.target, rep.kind),
                rep,
            );
        }

        // Measurement sidecar: what the run measured rather than scored,
        // deliberately outside the canonical report.
        let snap = metrics.registry().snapshot();
        harness::write_json_under(
            &chaos_dir,
            &format!("chaos_{}_telemetry", target.name()),
            &snap,
        );

        if report.summary.false_positives > 0 {
            eprintln!(
                "wdog-chaos [{}]: {} benign schedule(s) fired a checker",
                target.name(),
                report.summary.false_positives
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(EXIT_GATE);
    }
}
