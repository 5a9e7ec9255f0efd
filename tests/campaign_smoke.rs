//! Smoke tests for the experiment harness: one representative scenario per
//! experiment family, with the paper-shape assertions that the full runs
//! (`cargo run -p harness --bin ...`) check at scale — and the property the
//! `cmp` gates on those runs rest on: a scenario run is a pure function of
//! `(target, scenario, seed)`, latencies included.

use std::time::Duration;

use proptest::prelude::*;

use harness::scenario::{run_scenario, RunnerOptions};
use kvs::target::KvsTarget;
use kvs::wd::{Families, WdOptions};
use wdog_target::WatchdogTarget;

fn quick_opts() -> RunnerOptions {
    RunnerOptions {
        wd: WdOptions {
            interval: Duration::from_millis(100),
            checker_timeout: Duration::from_millis(500),
            slow_threshold: Duration::from_millis(250),
            memory_watermark: 2 << 20,
            ..WdOptions::default()
        },
        warmup: Duration::from_millis(500),
        observe: Duration::from_secs(4),
        ..RunnerOptions::default()
    }
}

fn scenario(id: &str) -> faults::Scenario {
    KvsTarget
        .catalog()
        .into_iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("unknown scenario {id}"))
}

fn run_json(id: &str, opts: &RunnerOptions) -> String {
    let result = run_scenario(&KvsTarget, Some(&scenario(id)), opts).unwrap();
    serde_json::to_string_pretty(&result).unwrap()
}

/// `process-crash` is the row where heartbeat, probe and observer all fire;
/// `partial-disk-stuck` the one only the watchdog sees.
#[test]
fn same_seed_scenario_runs_are_byte_identical_first_attempt() {
    let opts = RunnerOptions::default();
    for id in ["process-crash", "partial-disk-stuck"] {
        assert_eq!(run_json(id, &opts), run_json(id, &opts), "{id} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// As for chaos reports: a scored outcome is a fact about the fault, not
    /// about the order the checker executors were spawned in.
    #[test]
    fn outcome_is_invariant_under_executor_spawn_order(spawn_seed in any::<u64>()) {
        let mut opts = RunnerOptions::default();
        let baseline = run_json("partial-disk-stuck", &opts);
        opts.wd.spawn_order_seed = Some(spawn_seed);
        prop_assert_eq!(baseline, run_json("partial-disk-stuck", &opts));
    }
}

#[test]
fn gray_disk_fault_watchdog_detects_heartbeat_does_not() {
    let result = run_scenario(
        &KvsTarget,
        Some(&scenario("partial-disk-stuck")),
        &quick_opts(),
    )
    .unwrap();
    let wd = result.outcome("watchdog").unwrap();
    assert!(wd.detected, "watchdog missed the stuck WAL: {result:#?}");
    assert_eq!(wd.class.as_deref(), Some("stuck"));
    assert_eq!(wd.granularity, "operation");
    assert_eq!(wd.correct_blame, Some(true), "blamed {:?}", wd.blamed);
    let hb = result.outcome("heartbeat").unwrap();
    assert!(!hb.detected, "heartbeat detected a gray failure");
}

#[test]
fn crash_heartbeat_detects_watchdog_dies_with_process() {
    let result = run_scenario(&KvsTarget, Some(&scenario("process-crash")), &quick_opts()).unwrap();
    let hb = result.outcome("heartbeat").unwrap();
    assert!(hb.detected, "heartbeat missed the crash");
    let wd = result.outcome("watchdog").unwrap();
    assert!(!wd.detected, "a dead process's watchdog cannot report");
}

#[test]
fn explicit_disk_errors_reach_the_error_handler() {
    let result = run_scenario(&KvsTarget, Some(&scenario("disk-error")), &quick_opts()).unwrap();
    let handler = result.outcome("error-handler").unwrap();
    assert!(handler.detected, "in-place handler saw no explicit error");
    let wd = result.outcome("watchdog").unwrap();
    assert!(wd.detected, "watchdog missed the disk errors");
}

#[test]
fn control_run_produces_no_watchdog_report() {
    let result = run_scenario(&KvsTarget, None, &quick_opts()).unwrap();
    let wd = result.outcome("watchdog").unwrap();
    assert!(
        !wd.detected,
        "false alarm on fault-free run: {:?}",
        wd.blamed
    );
    assert!(result.workload_ok > 50, "workload barely ran");
}

#[test]
fn mimic_only_family_detects_the_stuck_task_probe_only_does_not() {
    let base = quick_opts();
    let stuck = scenario("background-task-stuck");

    let mimic_opts = RunnerOptions {
        wd: WdOptions {
            families: Families::only("mimic"),
            ..base.wd.clone()
        },
        extrinsic: false,
        observe: Duration::from_secs(5),
        ..base.clone()
    };
    let result = run_scenario(&KvsTarget, Some(&stuck), &mimic_opts).unwrap();
    assert!(
        result.outcome("watchdog").unwrap().detected,
        "mimic family missed the stuck compaction"
    );

    let probe_opts = RunnerOptions {
        wd: WdOptions {
            families: Families::only("probe"),
            ..base.wd.clone()
        },
        extrinsic: false,
        ..base
    };
    let result = run_scenario(&KvsTarget, Some(&stuck), &probe_opts).unwrap();
    assert!(
        !result.outcome("watchdog").unwrap().detected,
        "probe family should not see a stuck background task"
    );
}

#[test]
fn context_ablation_reproduces_the_spurious_report() {
    let ablation = harness::ablations::run_context_ablation().unwrap();
    assert_eq!(ablation.synced_false_alarms, 0);
    assert!(ablation.unsynced_false_alarms >= 1);
}

/// E6c runs in virtual time: the three means are a pure function of the
/// seed, and checks on the request path cost it their full duration.
#[test]
fn placement_ablation_reproduces_in_virtual_time() {
    let a = harness::ablations::run_placement_ablation().unwrap();
    let b = harness::ablations::run_placement_ablation().unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.inplace_us > a.concurrent_us, "{a:?}");
}

#[test]
fn reduction_experiment_shape_holds() {
    let result = harness::reduction::run();
    let violations = harness::reduction::shape_violations(&result);
    assert!(violations.is_empty(), "{violations:?}");
}
