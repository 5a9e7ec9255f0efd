//! The Table 1/2 and E4 scorer: one catalogue scenario (or none, for a
//! `control` run) as a one-fault schedule, armed at the end of the warmup
//! and observed for `observe`.
//!
//! [`run_scenario`] hands the schedule to the one campaign run
//! ([`session::run`]) with the extrinsic baselines and minizk's auxiliary
//! kick attached, then scores what each detector said in the trace:
//! detected or not, how fast, with what failure class, at what localization
//! granularity, and whether the blame landed in the right place. Everything
//! target-specific comes through the [`WatchdogTarget`] /
//! [`TargetInstance`](wdog_target::TargetInstance) traits, so `kvs`,
//! `minizk`, and `miniblock` all campaign through this one code path.
//!
//! Every run is on a fresh [`SimClock`], so a result — latencies included,
//! in virtual milliseconds — is a pure function of `(target, scenario,
//! seed)`.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use faults::schedule::{FaultSchedule, ScheduledFault};
use faults::Scenario;
use simio::SimClock;
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;
use wdog_core::prelude::*;
use wdog_target::{WatchdogTarget, WdOptions, WorkloadProfile};

use crate::session::{self, RunSpec};

/// What one detector said about one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DetectorOutcome {
    /// Detector name (`heartbeat`, `probe`, `observer`, `error-handler`,
    /// `watchdog`, or a checker-family name).
    pub detector: String,
    /// Whether the detector reported the failure within the window.
    pub detected: bool,
    /// Milliseconds from injection to first report.
    pub latency_ms: Option<u64>,
    /// Failure class of the first report (watchdog only).
    pub class: Option<String>,
    /// Localization granularity: `operation`, `function`, `resource`,
    /// `api`, or `process`.
    pub granularity: String,
    /// Rendered location of the first report.
    pub blamed: Option<String>,
    /// Whether the blame matched the scenario's expectation.
    pub correct_blame: Option<bool>,
    /// First report's human detail.
    pub detail: String,
    /// Captured context of the blamed report (watchdog only).
    #[serde(default)]
    pub payload: Vec<(String, String)>,
}

/// The full record of one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario id, or `control` for fault-free runs.
    pub scenario: String,
    /// Expected failure class (empty for control runs).
    pub expected_class: String,
    /// Per-detector outcomes.
    pub outcomes: Vec<DetectorOutcome>,
    /// Workload totals over the run.
    pub workload_ok: u64,
    /// Workload failures over the run.
    pub workload_failed: u64,
}

impl ScenarioResult {
    /// Looks up one detector's outcome.
    pub fn outcome(&self, detector: &str) -> Option<&DetectorOutcome> {
        self.outcomes.iter().find(|o| o.detector == detector)
    }
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Watchdog checker configuration (families, interval, timeouts).
    /// The default is campaign tuning for the simulated testbeds, not any
    /// target's production defaults: short rounds so detection latency is
    /// measurable inside the observation window.
    pub wd: WdOptions,
    /// Also run the extrinsic baselines (heartbeat, probe, observer) and
    /// the error-handler signal.
    pub extrinsic: bool,
    /// Steady-state period before injection.
    pub warmup: Duration,
    /// Observation window after injection.
    pub observe: Duration,
    /// Workload shape.
    pub workload: WorkloadProfile,
    /// Base seed.
    pub seed: u64,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            wd: WdOptions {
                interval: Duration::from_millis(200),
                checker_timeout: Duration::from_millis(800),
                // Mimicked I/O at simulated-SSD latencies: tens of
                // milliseconds means the volume is orders of magnitude off.
                slow_threshold: Duration::from_millis(10),
                memory_watermark: 2 << 20,
                ..WdOptions::default()
            },
            extrinsic: true,
            warmup: Duration::from_millis(800),
            observe: Duration::from_secs(5),
            workload: WorkloadProfile {
                period: Duration::from_millis(5),
                ..WorkloadProfile::default()
            },
            seed: 42,
        }
    }
}

/// Classifies a report location into a granularity label.
pub fn granularity_of(loc: &FaultLocation) -> &'static str {
    if loc.operation.is_some() {
        "operation"
    } else if loc.function.starts_with("indicator:") {
        "resource"
    } else if loc.component.as_str().ends_with(".api") {
        "api"
    } else {
        "function"
    }
}

/// Whether `report` blames a fault whose correct blames are `ids`: the
/// report's component or operation equals one of them. This is the one
/// blame rule every campaign scores by.
pub fn blames(report: &FailureReport, ids: &[String]) -> bool {
    let loc = &report.location;
    ids.iter().any(|id| {
        id == loc.component.as_str() || loc.operation.as_ref().is_some_and(|op| id == op.as_str())
    })
}

/// Runs one scenario (or a fault-free control run when `scenario` is
/// `None`) against `target` and scores every detector.
pub fn run_scenario(
    target: &dyn WatchdogTarget,
    scenario: Option<&Scenario>,
    opts: &RunnerOptions,
) -> BaseResult<ScenarioResult> {
    let label = scenario.map_or("control", |s| &s.id).to_owned();
    let seed = derive_seed(opts.seed, &label);
    // The default warmup is a whole number of checking rounds; the seeded
    // phase keeps the injection from always landing on a round boundary,
    // where every detection would read 0 ms.
    let phase = derive_seed(seed, "phase") % (opts.wd.interval.as_nanos() as u64).max(1);
    let schedule = FaultSchedule {
        id: label.clone(),
        seed,
        benign: false,
        horizon: opts.observe,
        faults: Vec::from_iter(scenario.map(|s| ScheduledFault::at_start(s, None))),
    };
    let spec = RunSpec {
        wd: opts.wd.clone(),
        workload: opts.workload.clone(),
        warmup: opts.warmup + Duration::from_nanos(phase),
        extrinsic: opts.extrinsic,
        // Auxiliary paths (minizk's follower sync) start at the injection
        // instant, so a fault on their link strikes them mid-flight.
        kicks: vec![Duration::ZERO],
        ..RunSpec::default()
    };
    let trace = session::run(target, SimClock::shared(), &schedule, &spec)?;
    let injected_at = trace.run_start;
    let since = |at: Duration| at.saturating_sub(injected_at).as_millis() as u64;

    let mut outcomes: Vec<DetectorOutcome> = trace
        .extrinsic
        .iter()
        .map(|(name, first)| DetectorOutcome {
            detector: name.clone(),
            detected: first.is_some(),
            latency_ms: first.as_ref().map(|(at, _)| since(*at)),
            granularity: "process".into(),
            detail: first.as_ref().map(|(_, r)| r.clone()).unwrap_or_default(),
            ..DetectorOutcome::default()
        })
        .collect();
    if opts.extrinsic {
        let handled = trace.errors_handled.map(since);
        outcomes.push(DetectorOutcome {
            detector: "error-handler".into(),
            detected: handled.is_some(),
            latency_ms: handled,
            class: Some("error".into()),
            granularity: "function".into(),
            detail: handled
                .map_or("", |_| "explicit error caught in place")
                .into(),
            ..DetectorOutcome::default()
        });
    }

    // Watchdog scoring: the first report after injection gives the
    // detection latency and class; localization is judged over *all*
    // reports in the window (operators see every report, so the most
    // precise, correctly-blamed one is what diagnosis would use).
    let injected_at_ms = injected_at.as_millis() as u64;
    let in_window: Vec<_> = trace
        .reports
        .iter()
        .filter(|r| r.at_ms >= injected_at_ms || scenario.is_none())
        .collect();
    let wd_outcome = match in_window.first().copied().filter(|_| !trace.crashed) {
        Some(r) => {
            let expected = scenario.map(|s| s.expected.blames.as_slice());
            let right = |r: &FailureReport| expected.is_some_and(|ids| blames(r, ids));
            // Best granularity achieved across the window; among equally
            // precise reports, one that blames the scenario's ids.
            let rank = |g: &str| match g {
                "operation" => 3,
                "function" => 2,
                "resource" => 1,
                _ => 0,
            };
            let best = in_window
                .iter()
                .max_by_key(|r| (rank(granularity_of(&r.location)), right(r)))
                .copied()
                .unwrap_or(r);
            DetectorOutcome {
                detector: "watchdog".into(),
                detected: true,
                latency_ms: Some(r.at_ms.saturating_sub(injected_at_ms)),
                class: Some(r.kind.label().to_owned()),
                granularity: granularity_of(&best.location).to_owned(),
                correct_blame: expected.map(|_| in_window.iter().any(|r| right(r))),
                blamed: Some(best.location.to_string()),
                detail: r.detail.clone(),
                payload: best.payload.clone(),
            }
        }
        None => DetectorOutcome {
            detector: "watchdog".into(),
            granularity: "none".into(),
            detail: if trace.crashed {
                "process crashed; intrinsic watchdog died with it".into()
            } else {
                String::new()
            },
            ..DetectorOutcome::default()
        },
    };
    outcomes.push(wd_outcome);

    let (workload_ok, workload_failed) = trace.workload;
    Ok(ScenarioResult {
        scenario: label,
        expected_class: scenario
            .map(|s| s.expected.failure_class.clone())
            .unwrap_or_default(),
        outcomes,
        workload_ok,
        workload_failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs::target::KvsTarget;
    use miniblock::target::DnTarget;
    use minizk::target::ZkTarget;

    fn quick_opts() -> RunnerOptions {
        RunnerOptions {
            warmup: Duration::from_millis(300),
            observe: Duration::from_millis(700),
            ..RunnerOptions::default()
        }
    }

    fn control_run_is_clean(target: &dyn WatchdogTarget) {
        let result = run_scenario(target, None, &quick_opts()).unwrap();
        assert_eq!(result.scenario, "control");
        assert!(
            result.workload_ok > 0,
            "{}: workload never succeeded",
            target.name()
        );
        let wd = result.outcome("watchdog").unwrap();
        assert!(
            !wd.detected,
            "{}: false alarm on control run: {:?}",
            target.name(),
            wd
        );
    }

    #[test]
    fn control_runs_are_clean_for_every_target() {
        control_run_is_clean(&KvsTarget);
        control_run_is_clean(&ZkTarget);
        control_run_is_clean(&DnTarget);
    }

    /// The runner's sync kick makes minizk's wedged link ZOOKEEPER-2201 at
    /// campaign tuning too: writes hang behind the blocked sync, heartbeats
    /// stay green, and the blame lands on the sync, not on its waiters.
    #[test]
    fn minizk_replication_link_wedged_is_zookeeper_2201() {
        let scenario = crate::zk2201::scenario();
        let result = run_scenario(&ZkTarget, Some(&scenario), &RunnerOptions::default()).unwrap();
        let detected = |d: &str| result.outcome(d).unwrap().detected;
        assert!(!detected("heartbeat"), "{result:?}");
        assert!(detected("probe"), "writes never hung: {result:?}");
        assert!(detected("watchdog"), "{result:?}");
        let blamed = result.outcome("watchdog").unwrap().blamed.clone();
        assert_eq!(blamed.as_deref(), Some(crate::zk2201::BLAMED));
    }

    #[test]
    fn crash_scenario_fells_watchdog_but_not_heartbeat() {
        let target = KvsTarget;
        let scenario = target
            .catalog()
            .into_iter()
            .find(|s| s.id == "process-crash")
            .unwrap();
        let opts = RunnerOptions {
            observe: Duration::from_secs(2),
            ..quick_opts()
        };
        let result = run_scenario(&target, Some(&scenario), &opts).unwrap();
        let hb = result.outcome("heartbeat").unwrap();
        assert!(hb.detected, "heartbeat must catch the crash");
        let wd = result.outcome("watchdog").unwrap();
        assert!(
            !wd.detected,
            "the in-process watchdog dies with the process"
        );
    }
}
