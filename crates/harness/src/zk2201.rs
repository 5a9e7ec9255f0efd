//! Experiment E4 — the §4.2 preliminary result: ZOOKEEPER-2201.
//!
//! One configuration of the shared scenario runner. minizk's
//! `replication-link-wedged` wedges the leader → follower-0 link, and the
//! runner's auxiliary kick starts a sync to that follower at the same
//! instant: the sync blocks inside the write critical section and every
//! write hangs. Each seed runs on a fresh `SimClock` with the paper-comparable
//! 2 s checker interval and 3 s checker timeout, so the result is a pure
//! function of the seeds and latencies are virtual milliseconds. The paper's
//! configuration detected the fault "in around seven seconds".

use std::ops::Range;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use faults::Scenario;
use minizk::target::ZkTarget;
use wdog_base::error::BaseResult;
use wdog_target::{WatchdogTarget, WdOptions};

use crate::fmt::Table;
use crate::scenario::{run_scenario, RunnerOptions, ScenarioResult};
use crate::table1::cell;

/// E4 result: the configuration and one scenario run per seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Zk2201Result {
    /// Checker interval used, in milliseconds.
    pub checker_interval_ms: u64,
    /// Checker timeout used, in milliseconds.
    pub checker_timeout_ms: u64,
    /// `runs[i]` ran with seed `i`.
    pub runs: Vec<ScenarioResult>,
}

/// minizk's `replication-link-wedged`, expected to blame the operations of
/// the blocked `serialize_node` rather than the writes waiting on its lock.
pub fn scenario() -> Scenario {
    let mut s = ZkTarget
        .catalog()
        .into_iter()
        .find(|s| s.id == "replication-link-wedged")
        .expect("minizk catalogue scenario");
    s.expected.blames =
        faults::catalog::ids(&["serialize_node#node_lock", "serialize_node#write_record"]);
    s
}

/// Runs E4 over seeds 0–9 (2 s interval, 3 s checker timeout, 12 s window).
pub fn run() -> BaseResult<Zk2201Result> {
    run_seeds(0..10)
}

fn run_seeds(seeds: Range<u64>) -> BaseResult<Zk2201Result> {
    let base = RunnerOptions::default();
    let opts = RunnerOptions {
        wd: WdOptions {
            interval: Duration::from_secs(2),
            checker_timeout: Duration::from_secs(3),
            ..base.wd.clone()
        },
        observe: Duration::from_secs(12),
        ..base
    };
    let scenario = scenario();
    let runs = seeds
        .map(|seed| {
            eprintln!("[zk2201] seed {seed} ...");
            run_scenario(
                &ZkTarget,
                Some(&scenario),
                &RunnerOptions {
                    seed,
                    ..opts.clone()
                },
            )
        })
        .collect::<BaseResult<_>>()?;
    Ok(Zk2201Result {
        checker_interval_ms: opts.wd.interval.as_millis() as u64,
        checker_timeout_ms: opts.wd.checker_timeout.as_millis() as u64,
        runs,
    })
}

/// Renders one row per seed, the latency spread and one captured context.
pub fn render(result: &Zk2201Result) -> String {
    let mut t = Table::new(&["seed", "watchdog", "blamed", "heartbeat", "probe"]);
    let mut latencies = Vec::new();
    for (seed, run) in result.runs.iter().enumerate() {
        let wd = run.outcome("watchdog");
        latencies.extend(wd.and_then(|o| o.latency_ms));
        t.row_owned(vec![
            seed.to_string(),
            cell(run, "watchdog"),
            wd.and_then(|o| o.blamed.clone())
                .unwrap_or_else(|| "-".into()),
            cell(run, "heartbeat"),
            cell(run, "probe"),
        ]);
    }
    let mut out = format!(
        "E4 / §4.2 — ZOOKEEPER-2201 reproduction, {} seeds in virtual time\n\
         (checker interval {} ms, checker timeout {} ms; the paper reports ~7 s detection\n\
         with heartbeats and the admin command green throughout)\n\n",
        result.runs.len(),
        result.checker_interval_ms,
        result.checker_timeout_ms
    );
    out.push_str(&t.render());
    latencies.sort_unstable();
    if let (Some(min), Some(max)) = (latencies.first(), latencies.last()) {
        let n = latencies.len();
        let median = (latencies[(n - 1) / 2] + latencies[n / 2]) / 2;
        out.push_str(&format!(
            "\nwatchdog latency: min {min} ms, median {median} ms, max {max} ms\n"
        ));
    }
    if let Some(wd) = result.runs.first().and_then(|r| r.outcome("watchdog")) {
        let context: Vec<String> = wd.payload.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(
            "captured context (seed 0): {}\n",
            context.join(", ")
        ));
    }
    out
}

/// Shape checks for E4, on every seed. Returns violations.
pub fn shape_violations(result: &Zk2201Result) -> Vec<String> {
    let bound = result.checker_interval_ms + result.checker_timeout_ms;
    let mut v = Vec::new();
    if result.runs.is_empty() {
        v.push("no runs".into());
    }
    for (seed, run) in result.runs.iter().enumerate() {
        let detected = |d: &str| run.outcome(d).is_some_and(|o| o.detected);
        if detected("heartbeat") {
            v.push(format!(
                "seed {seed}: heartbeat suspected the leader — it should stay green"
            ));
        }
        if !detected("probe") {
            v.push(format!(
                "seed {seed}: the probe's writes never hung — the failure was not induced"
            ));
        }
        let Some(wd) = run.outcome("watchdog").filter(|o| o.detected) else {
            v.push(format!("seed {seed}: watchdog never detected the hang"));
            continue;
        };
        let ms = wd.latency_ms.unwrap_or(u64::MAX);
        if ms > bound {
            v.push(format!(
                "seed {seed}: detection took {ms} ms, beyond interval + checker timeout ({bound} ms)"
            ));
        }
        let blamed = wd.blamed.as_deref().unwrap_or("-");
        if wd.correct_blame != Some(true) || !blamed.contains("serialize_node") {
            v.push(format!(
                "seed {seed}: blamed {blamed}, not the blocked serialize_node"
            ));
        }
        if wd.payload.is_empty() {
            v.push(format!("seed {seed}: no context captured with the blame"));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_reproduce_the_gray_failure_identically() {
        let first = run_seeds(0..2).unwrap();
        assert_eq!(shape_violations(&first), Vec::<String>::new());
        let again = run_seeds(0..2).unwrap();
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }
}
