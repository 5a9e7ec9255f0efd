//! The shared scenario runner behind experiments E1, E2 and E4.
//!
//! One run = a booted [`WatchdogTarget`] testbed + steady workload + a
//! detector set + (optionally) one injected fault from the target's
//! catalogue. The runner is fully generic: everything target-specific
//! (testbed wiring, watchdog assembly, fault surfaces, the workload mix,
//! the API probe) comes through the [`WatchdogTarget`]/[`TargetInstance`]
//! traits, so `kvs`, `minizk`, and `miniblock` all campaign through this
//! one code path. The runner samples every detector through the
//! observation window and scores what each one said: detected or not, how
//! fast, with what failure class, at what localization granularity, and
//! whether the blame landed in the right place.
//!
//! Every run is on a fresh [`SimClock`] with the extrinsic detectors as
//! clock actors beside the target's own threads, so a result — latencies
//! included, in virtual milliseconds — is a pure function of `(target,
//! scenario, seed)`.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use detectors::{Detector, ExternalProbe, HeartbeatDetector, ObserverHub};
use faults::Scenario;
use simio::SimClock;
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;
use wdog_core::prelude::*;
use wdog_target::{WatchdogTarget, WdOptions, WorkloadObserver, WorkloadProfile};

use crate::session::Session;

/// What one detector said about one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Runs one scenario (or a fault-free control run when `scenario` is
/// `None`) against `target` and scores every detector.
pub fn run_scenario(
    target: &dyn WatchdogTarget,
    scenario: Option<&Scenario>,
    opts: &RunnerOptions,
) -> BaseResult<ScenarioResult> {
    let label = scenario
        .map(|s| s.id.clone())
        .unwrap_or_else(|| "control".into());
    let seed = derive_seed(opts.seed, &label);
    // Declared before the session so that an early `?` drops it after: the
    // detectors' joining `Drop` needs the harness actor retired first.
    let mut extrinsics: Vec<Box<dyn Detector>> = Vec::new();
    let mut session = Session::boot(target, seed, SimClock::shared(), "scenario-main")?;
    let clock = Arc::clone(session.clock());

    // Steady workload feeding the observer hub; the intrinsic watchdog.
    let hub = ObserverHub::new(Arc::clone(&clock), Duration::from_secs(2), 8, 0.5);
    let observer: Option<WorkloadObserver> = opts.extrinsic.then(|| {
        let hub = hub.clone();
        Arc::new(move |ok: bool| hub.report(ok)) as WorkloadObserver
    });
    session.arm(&opts.wd, &opts.workload, observer)?;

    // Extrinsic baselines.
    if opts.extrinsic {
        extrinsics.push(Box::new(HeartbeatDetector::start(
            Arc::clone(&clock),
            Duration::from_millis(50),
            Duration::from_millis(300),
            session.inst().liveness_probe(),
        )));
        extrinsics.push(Box::new(ExternalProbe::start(
            Arc::clone(&clock),
            Duration::from_millis(100),
            2,
            session.inst().api_probe(),
        )));
        extrinsics.push(Box::new(hub.clone()));
    }

    // The default warmup is a whole number of checking rounds; the seeded
    // phase keeps the injection from always landing on a round boundary,
    // where every detection would read 0 ms.
    let phase = derive_seed(seed, "phase") % (opts.wd.interval.as_nanos() as u64).max(1);
    clock.sleep(opts.warmup + Duration::from_nanos(phase));
    let errors_handled_before = session.inst().errors_handled();

    // Inject.
    if let Some(s) = scenario {
        session.injector().inject(&s.kind)?;
    }
    let injected_at = clock.now();
    // Auxiliary paths (minizk's follower sync) start at the injection
    // instant, so a fault on their link strikes them mid-flight.
    session.inst().exercise_auxiliary();
    if let (Some(t), Some(s)) = (&opts.wd.telemetry, scenario) {
        t.flight(injected_at.as_millis() as u64, "inject", &s.id);
    }

    // Observe.
    let mut extrinsic_first: Vec<Option<(u64, String)>> = vec![None; extrinsics.len()];
    let mut handler_first: Option<u64> = None;
    session.sleep_until(injected_at + opts.observe, || {
        let now_ms = clock.now().saturating_sub(injected_at).as_millis() as u64;
        for (i, d) in extrinsics.iter().enumerate() {
            if extrinsic_first[i].is_none() {
                if let detectors::Verdict::Suspected { reason } = d.verdict() {
                    extrinsic_first[i] = Some((now_ms, reason));
                }
            }
        }
        if handler_first.is_none() && session.inst().errors_handled() > errors_handled_before {
            handler_first = Some(now_ms);
        }
        false
    });

    // Teardown; `stop` clears every fault surface so wedged threads drain.
    let reports = session.stop();
    for d in &mut extrinsics {
        d.stop();
    }

    // Score.
    let crash_run = session.crashed();
    let mut outcomes = Vec::new();
    for (i, d) in extrinsics.iter().enumerate() {
        let first = &extrinsic_first[i];
        outcomes.push(DetectorOutcome {
            detector: d.name().to_owned(),
            detected: first.is_some(),
            latency_ms: first.as_ref().map(|(ms, _)| *ms),
            class: None,
            granularity: "process".into(),
            blamed: None,
            correct_blame: None,
            detail: first.as_ref().map(|(_, r)| r.clone()).unwrap_or_default(),
            payload: Vec::new(),
        });
    }
    if opts.extrinsic {
        outcomes.push(DetectorOutcome {
            detector: "error-handler".into(),
            detected: handler_first.is_some(),
            latency_ms: handler_first,
            class: Some("error".into()),
            granularity: "function".into(),
            blamed: None,
            correct_blame: None,
            detail: if handler_first.is_some() {
                "explicit error caught in place".into()
            } else {
                String::new()
            },
            payload: Vec::new(),
        });
    }

    // Watchdog scoring: the first report after injection gives the
    // detection latency and class; localization is judged over *all*
    // reports in the window (operators see every report, so the most
    // precise, correctly-blamed one is what diagnosis would use).
    let injected_at_ms = injected_at.as_millis() as u64;
    let in_window: Vec<_> = reports
        .iter()
        .filter(|r| r.at_ms >= injected_at_ms || scenario.is_none())
        .collect();
    let wd_outcome = match in_window.first().copied().filter(|_| !crash_run) {
        Some(r) => {
            let hint = scenario.map(|s| s.expected.component_hint.as_str());
            let blames =
                |r: &FailureReport| hint.is_some_and(|h| r.location.to_string().contains(h));
            // Best granularity achieved across the window; among equally
            // precise reports, one that blames the expected component.
            let rank = |g: &str| match g {
                "operation" => 3,
                "function" => 2,
                "resource" => 1,
                _ => 0,
            };
            let best = in_window
                .iter()
                .max_by_key(|r| (rank(granularity_of(&r.location)), blames(r)))
                .copied()
                .unwrap_or(r);
            DetectorOutcome {
                detector: "watchdog".into(),
                detected: true,
                latency_ms: Some(r.at_ms.saturating_sub(injected_at_ms)),
                class: Some(r.kind.label().to_owned()),
                granularity: granularity_of(&best.location).to_owned(),
                correct_blame: hint.map(|_| in_window.iter().any(|r| blames(r))),
                blamed: Some(best.location.to_string()),
                detail: r.detail.clone(),
                payload: best.payload.clone(),
            }
        }
        None => DetectorOutcome {
            detector: "watchdog".into(),
            detected: false,
            latency_ms: None,
            class: None,
            granularity: "none".into(),
            blamed: None,
            correct_blame: None,
            detail: if crash_run {
                "process crashed; intrinsic watchdog died with it".into()
            } else {
                String::new()
            },
            payload: Vec::new(),
        },
    };
    outcomes.push(wd_outcome);

    let (workload_ok, workload_failed) = session.inst().workload_counters();
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
        assert!(
            blamed
                .as_deref()
                .is_some_and(|b| b.contains("serialize_node")),
            "blamed {blamed:?}"
        );
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
