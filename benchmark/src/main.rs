//! `wdog-bench`: the repo's benchmark. See README.md in this directory.
//!
//! One run of one workload is a sim-clock phase (detection quality and
//! simulator speed on the workload's target) followed by a request phase
//! (armed-vs-disarmed request cost on fresh instances). With `--trace 1` the
//! same phases run shorter with the span buffer on, followed by the layer
//! probes. It measures from outside only: nothing under `crates/` was given
//! a probe, a switch or an environment variable for it.

mod affinity;
mod layers;
mod metrics;
mod request;
mod sim;
mod spans;
mod stats;
mod testbed;
mod tickets;

use std::time::{Duration, Instant};

use metrics::{Metric, Report, END_TO_END, PER_LAYER};
use request::{Mix, Phase};
use sim::SimTarget;
use spans::Spans;
use testbed::{Kind, Res};

/// One workload: a request mix on one system, plus the sim-clock campaigns
/// that go with it.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The request phase.
    pub mix: Mix,
    /// The chaos schedules of the sim phase.
    pub sim: Vec<SimTarget>,
    /// Recovery campaigns per target in the sim phase.
    pub recovery_campaigns: u64,
}

/// Chaos schedules per target in a sim phase (twice as many on miniblock
/// alone, whose schedules replay in a third of the time).
const SCHEDULES: u64 = 40;
/// Key-space size of the kvs workloads.
const KEYS: usize = 4096;

fn sim_target(kind: Kind, first: u64, count: u64) -> SimTarget {
    SimTarget { kind, first, count }
}

/// Client threads: two, and never more than the machine has CPUs. Asked
/// before the process pins itself, or the answer would always be one.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The four workloads. A block lasts 1.3 s here (0.8 s on minizk, which has
/// the least time left for requests): long enough for checking rounds (every
/// 500 ms on kvs, 200 ms on miniblock) to fall inside the measured stretch,
/// short enough for five to eight pairs in a run. minizk checks every 2 s, so
/// its blocks see the round dispatched at `driver.start()` and little else.
pub fn workloads() -> Vec<Workload> {
    let clients = clients();
    vec![
        Workload {
            name: "kvs-write",
            mix: Mix {
                kind: Kind::Kvs,
                keys: KEYS,
                write_fraction: 0.9,
                fill: false,
                per_client: 45_000,
                clients,
            },
            sim: vec![sim_target(Kind::Kvs, 0, SCHEDULES)],
            recovery_campaigns: 4,
        },
        Workload {
            name: "kvs-read",
            mix: Mix {
                kind: Kind::Kvs,
                keys: KEYS,
                write_fraction: 0.0,
                fill: true,
                per_client: 60_000,
                clients,
            },
            // The same target as kvs-write: replay the next forty schedules.
            sim: vec![sim_target(Kind::Kvs, SCHEDULES, SCHEDULES)],
            recovery_campaigns: 4,
        },
        Workload {
            name: "miniblock-rw",
            mix: Mix {
                kind: Kind::Miniblock,
                keys: KEYS,
                write_fraction: 0.5,
                fill: false,
                per_client: 8_000,
                clients,
            },
            sim: vec![sim_target(Kind::Miniblock, 0, 2 * SCHEDULES)],
            recovery_campaigns: 4,
        },
        Workload {
            name: "gray-sim",
            mix: Mix {
                kind: Kind::Minizk,
                keys: 256,
                write_fraction: 1.0,
                fill: false,
                per_client: 3_500,
                clients,
            },
            sim: vec![
                sim_target(Kind::Kvs, 0, SCHEDULES),
                sim_target(Kind::Minizk, 0, SCHEDULES),
                sim_target(Kind::Miniblock, 0, SCHEDULES),
            ],
            // Three targets' scenarios pool, so two campaigns each suffice.
            recovery_campaigns: 2,
        },
    ]
}

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
}

const USAGE: &str =
    "usage: wdog-bench [--workload {kvs-write|kvs-read|miniblock-rw|gray-sim|all}] \
[--seed N] [--seconds N] [--trace [0|1]] [--check]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 24,
        trace: false,
        check: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?.clone(),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` sets it.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The untraced run: every end-to-end metric of one workload.
fn run_end_to_end(w: &Workload, seed: u64, seconds: u64) -> Res<(Report, Phase)> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut spans = Spans::new(false);
    let sim = sim::run(&w.sim, w.recovery_campaigns, seed, &mut spans)?;
    let opts = w.mix.kind.target().default_options();
    let phase = Phase::run(&w.mix, &opts, seed, deadline, 3, &mut spans)?;

    let mut r = Report::default();
    let pairs = phase.pairs.len() as u64;
    let setups: Vec<f64> = phase.blocks().map(|b| b.setup_s).collect();
    r.put("setup_s", stats::median(&setups), 2 * pairs);
    r.put("armed_ratio", phase.armed_ratio(), pairs);
    r.put("armed_p90_ratio", phase.latency_ratio(0.9), pairs);
    r.put("detected_frac", sim.detected_frac(), sim.harmful_faults());
    r.put(
        "right_component_frac",
        sim.right_component_frac(),
        sim.harmful_faults(),
    );
    r.put("benign_clean_frac", sim.benign_clean_frac(), sim.benign);
    let detections: u64 = sim.detect_vms.values().map(|(_, n)| n).sum();
    r.put("detect_mean_vms", sim.detect_mean_vms(), detections);
    r.put("recovered_frac", sim.recovered_frac(), sim.scenarios);
    r.put("mttr_mean_vms", sim.mttr_mean_vms(), sim.recovered());

    let (attempted, failed) = phase.totals();
    r.attempted = attempted + sim.calls;
    r.failed = failed + sim.failed;
    r.errors.extend(sim.first_error.clone());
    r.errors
        .extend(phase.blocks().filter_map(|b| b.first_error.clone()).take(1));

    let detected: u64 = sim.detected.values().map(|(d, _)| d).sum();
    r.notes.push(format!(
        "sim: {detected}/{} faults detected, {} wrong-component, {}/{} benign schedules clean, \
         {}/{} scenarios verified-recovered",
        sim.harmful_faults(),
        sim.wrong_component,
        sim.clean,
        sim.benign,
        sim.recovered(),
        sim.scenarios
    ));
    let strata: Vec<String> = sim
        .detect_vms
        .iter()
        .map(|((t, kind), (ms, n))| format!("{t}/{kind} {ms:.0} ({n})"))
        .collect();
    r.notes.push(format!(
        "sim: detection vms by stratum: {}",
        strata.join(", ")
    ));
    let strata: Vec<String> = sim
        .mttr_vms
        .iter()
        .map(|((t, scenario), runs)| {
            format!("{t}/{scenario} {:.0} ({})", stats::median(runs), runs.len())
        })
        .collect();
    r.notes
        .push(format!("sim: mttr vms by stratum: {}", strata.join(", ")));
    for (target, ms) in &sim.schedule_wall_ms {
        r.notes
            .push(format!("sim: {target} median schedule wall {ms:.1} ms"));
    }
    let rounds: u64 = phase.armed().map(|b| b.rounds).sum();
    let false_reports: u64 = phase.armed().map(|b| b.false_reports).sum();
    let mut checkers: Vec<&str> = phase
        .armed()
        .flat_map(|b| b.false_report_checkers.iter().map(String::as_str))
        .collect();
    checkers.sort_unstable();
    checkers.dedup();
    r.notes.push(format!(
        "requests: {pairs} pairs of {} x {} requests, failed_frac {} ({failed}/{attempted}); \
         fault-free armed blocks raised {false_reports} reports in {rounds} rounds {checkers:?}",
        w.mix.clients,
        w.mix.per_client,
        stats::failed_frac(failed, attempted),
    ));
    r.notes.push(format!(
        "absolute, ungated (see target.* with --trace 1): armed {:.0} req/s, disarmed {:.0} req/s, \
         armed p90 {:.1} us, disarmed p90 {:.1} us, schedule wall {:.1} ms",
        phase.armed_median(|b| b.rps),
        phase.disarmed_median(|b| b.rps),
        phase.armed_median(|b| b.latency_us(0.9)),
        phase.disarmed_median(|b| b.latency_us(0.9)),
        sim.schedule_wall_ms(),
    ));
    // Latency beyond p90 is reported, not gated: the highest percentile named
    // is the highest with ten samples beyond it.
    let samples = phase.armed().map(|b| b.latencies.len()).min().unwrap_or(0);
    if let Some(top) = stats::top_quantile(samples, &[0.5, 0.9, 0.99, 0.999]) {
        r.notes.push(format!(
            "armed latency: p50 {:.1} us, p{} {:.1} us (median over blocks of {samples} samples)",
            phase.armed_median(|b| b.latency_us(0.5)),
            top * 100.0,
            phase.armed_median(|b| b.latency_us(top)),
        ));
    }
    Ok((r, phase))
}

fn print_report(w: &Workload, seed: u64, report: &Report, expected: &[Metric]) -> bool {
    println!("== {} (seed {seed}) ==", w.name);
    let line = match report.json_line(expected) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("wdog-bench: {}: {e}", w.name);
            return false;
        }
    };
    for (r, m) in report.matched(expected).into_iter().flatten() {
        println!(
            "{:<40} {:>16.4} {:<6} {:<6} n={}",
            r.name,
            r.value,
            m.unit,
            m.better.as_str(),
            r.samples
        );
    }
    for n in &report.notes {
        println!("  {n}");
    }
    for e in &report.errors {
        println!("  FAILED CHECK: {e}");
    }
    println!("{line}");
    report.correct()
}

fn host_facts() -> String {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "host: {} cpus, load average at start {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        load.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// `--check`: the suite twice, same seed; every end-to-end metric of the
/// second set must be within its bound of the first, and the sim-clock ones
/// must equal it.
fn check(selected: &[&Workload], seed: u64, seconds: u64) -> Res<bool> {
    let mut ok = true;
    for w in selected {
        let (a, pa) = run_end_to_end(w, seed, seconds)?;
        let (b, pb) = run_end_to_end(w, seed, seconds)?;
        println!("== check {} (seed {seed}) ==", w.name);
        ok &= a.correct() && b.correct();
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (x, y) = (
                a.get(m.name).unwrap_or(f64::NAN),
                b.get(m.name).unwrap_or(f64::NAN),
            );
            let worse = metrics::worsening(m.better, x, y).abs();
            let exact = metrics::EXACT_ON_ONE_SEED.contains(&m.name);
            let pass = if exact { x == y } else { worse <= bound };
            ok &= pass;
            println!(
                "{:<24} {:>14.4} {:>14.4} {:<6} differ {:>6.2}% bound {:>5.1}% {}",
                m.name,
                x,
                y,
                m.unit,
                worse * 100.0,
                bound * 100.0,
                match (pass, exact) {
                    (true, true) => "exact",
                    (true, false) => "ok",
                    (false, true) => "NOT EXACT",
                    (false, false) => "OUT OF BOUND",
                }
            );
        }
        for (set, phase) in [("first", &pa), ("second", &pb)] {
            let setup: Vec<f64> = phase.blocks().map(|b| b.setup_s).collect();
            let ratio: Vec<f64> = phase.pairs.iter().map(|(a, d)| a.rps / d.rps).collect();
            let p90: Vec<f64> = phase
                .pairs
                .iter()
                .map(|(a, d)| a.latency_us(0.9) / d.latency_us(0.9))
                .collect();
            for (what, v) in [
                ("setup_s", &setup),
                ("armed_ratio", &ratio),
                ("armed_p90_ratio", &p90),
            ] {
                let (q1, q3) = stats::quartiles(v);
                println!(
                    "  {set:<6} {what:<14} over {} blocks: median {:.4} quartiles {:.4} .. {:.4}",
                    v.len(),
                    stats::median(v),
                    q1,
                    q3
                );
            }
        }
    }
    Ok(ok)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let all = workloads();
    let selected: Vec<&Workload> = all
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    }
    println!("{}", host_facts());
    // Everything measured runs on one CPU; see README.md, "One CPU".
    let floating = affinity::pin_to_one_cpu();
    if floating.is_none() {
        println!("could not pin to one CPU: timings will float with the scheduler");
    }

    let outcome: Res<bool> = if args.check {
        check(&selected, args.seed, args.seconds)
    } else {
        selected.iter().try_fold(true, |ok, w| {
            let (report, expected) = if args.trace {
                (
                    layers::run_traced(w, args.seed, args.seconds, floating)?,
                    PER_LAYER,
                )
            } else {
                (run_end_to_end(w, args.seed, args.seconds)?.0, END_TO_END)
            };
            Ok(print_report(w, args.seed, &report, expected) && ok)
        })
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("wdog-bench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct NameWhy {
        name: String,
        why: String,
    }

    #[derive(serde::Deserialize)]
    struct EndToEndEntry {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(serde::Deserialize)]
    struct PerLayerEntry {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkFile {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<NameWhy>,
        end_to_end: Vec<EndToEndEntry>,
        per_layer: Vec<PerLayerEntry>,
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.len() <= 64 * 1024);
        let file: BenchmarkFile = serde_json::from_str(&text).unwrap();

        assert_eq!(file.paths, ["benchmark"]);
        assert!(file.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert!((1..=60).contains(&file.run_seconds));
        let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert!(file
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));

        let listed: Vec<(&str, &str, &str, f64)> = file
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), m.bound))
            .collect();
        let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), m.bound.unwrap()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(&str, &str, &str)> = file
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(listed, ours);
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "kvs-read",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kvs-read", 9, 5, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--check"]).unwrap().check);
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.workload.as_str(), d.seed, d.trace, d.check),
            ("all", 42, false, false)
        );
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
