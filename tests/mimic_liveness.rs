//! Generated mimic checkers actually run, and run on live payloads.
//!
//! A mimic that only ever returns `NotReady`, or that replays a payload on
//! which the mimicked operation cannot fail, is coverage on paper only.
//! Both sessions below run on the sim clock, so they are exact.

use std::sync::Arc;
use std::time::Duration;

use faults::spec::FaultKind;
use harness::scenario::RunnerOptions;
use harness::session::Session;
use simio::SimClock;
use wdog_core::trace::{TraceEventKind, TraceRecorder};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::ReductionConfig;
use wdog_target::{Families, WatchdogTarget, WdOptions, WorkloadProfile};

/// Generated mimics that never leave `NotReady` on a fault-free run, and
/// why. An entry that starts passing fails the test below: delete it.
const NEVER_READY: &[(&str, &str)] = &[
    (
        "minizk.snapshot_sync_loop_checker",
        "its context is published only while a follower syncs a snapshot, \
         which a steady single-ensemble workload never triggers",
    ),
    (
        "miniblock.heartbeat_loop_checker",
        "heartbeat_loop has no hook site, and global dedup kept \
         heartbeat_loop#send and dropped report_loop#send, so miniblock's \
         one net-send mimic never gets a context",
    ),
];

/// Per generated mimic, how many of its ops ran and succeeded — read off
/// the trace its executions journal under the checker's context key.
fn passing_ops_per_mimic(target: &dyn WatchdogTarget) -> Vec<(String, u64)> {
    let runner = RunnerOptions::default();
    let clock = SimClock::shared();
    let recorder = TraceRecorder::new(clock.clone());
    let wd = WdOptions {
        families: Families::only("mimic"),
        trace: Some(Arc::clone(&recorder)),
        ..runner.wd
    };
    let mut session = Session::boot(target, 42, clock, "test-main").unwrap();
    session.arm(&wd, &runner.workload, None).unwrap();
    session.clock().sleep(Duration::from_secs(3));
    let reports = session.finish();
    assert!(reports.is_empty(), "fault-free run reported {reports:?}");
    assert_eq!(recorder.dropped(), 0, "the trace overflowed");
    let events = recorder.drain();
    let plan = generate_plan(&target.describe_ir(), &ReductionConfig::default());
    plan.checkers
        .iter()
        .map(|c| {
            let ok = events
                .iter()
                .filter(|e| e.key == c.context_key)
                .filter(|e| matches!(e.kind, TraceEventKind::Op { ok: true, .. }))
                .count();
            (format!("{}.{}", plan.program, c.name), ok as u64)
        })
        .collect()
}

#[test]
fn every_generated_mimic_passes_at_least_once_on_a_fault_free_run() {
    let targets: [&dyn WatchdogTarget; 3] = [
        &kvs::target::KvsTarget,
        &minizk::target::ZkTarget,
        &miniblock::target::DnTarget,
    ];
    for target in targets {
        let passes = passing_ops_per_mimic(target);
        assert!(!passes.is_empty(), "{}: no mimic generated", target.name());
        for (id, n) in passes {
            match NEVER_READY.iter().find(|(known, _)| *known == id) {
                None => assert!(n > 0, "{id} never passed in 3 s of fault-free rounds"),
                Some((_, why)) => assert_eq!(n, 0, "{id} runs now; it was excused because {why}"),
            }
        }
    }
}

/// The listener publishes a request's value for the `index_put` mimic to
/// replay. Reads carry none; if they published an empty one, the mimic
/// would put and read back `""`, which index corruption cannot alter, and
/// a read-mostly server would hide the fault from its only index checker.
#[test]
fn kvs_index_corruption_under_reads_is_reported_in_the_first_round_after_onset() {
    let runner = RunnerOptions::default();
    let reads_only = WorkloadProfile {
        write_fraction: 0.0,
        ..runner.workload.clone()
    };
    let mut session =
        Session::boot(&kvs::target::KvsTarget, 42, SimClock::shared(), "test-main").unwrap();
    session.arm(&runner.wd, &reads_only, None).unwrap();
    let clock = Arc::clone(session.clock());
    // Mid-round, so "the first round after onset" is unambiguous.
    clock.sleep(Duration::from_secs(1) + runner.wd.interval / 2);
    let onset_ms = clock.now_millis();
    session
        .injector()
        .inject(&FaultKind::LogicCorruption {
            toggle: "kvs.indexer.corrupt".into(),
        })
        .unwrap();
    clock.sleep(runner.wd.interval * 2);
    let reports = session.finish();
    let first = reports
        .iter()
        .find(|r| r.checker.as_str() == "kvs.listener_loop_checker")
        .unwrap_or_else(|| panic!("the index mimic stayed green: {reports:?}"));
    let round_ms = runner.wd.interval.as_millis() as u64;
    assert!(
        first.at_ms > onset_ms && first.at_ms <= onset_ms + round_ms,
        "onset {onset_ms} ms, first report {} ms, round {round_ms} ms",
        first.at_ms
    );
}
