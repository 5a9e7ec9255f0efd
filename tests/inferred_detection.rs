//! End-to-end proof that inference buys detection (ISSUE 10 satellite):
//! for every target, a known value-level bug that the structural mimics
//! miss is caught once the trace-mined checkers register beside them.
//!
//! Each test runs the full pipeline live — record benign executions on
//! the sim substrate, mine, emit — with the production `InferOptions`
//! seed, so the specs exercised here are the ones archived under
//! `results/inferred/`. Then:
//!
//! * **kvs** replays the committed reproducer `chaos-42-038` (a
//!   `background-task-stuck` wedge of the compaction loop shrunk from the
//!   seed-42 campaign): `missed` with mimics alone, `detected` via the
//!   inferred compaction staleness/range envelope.
//! * **miniblock** replays `chaos-42-004` (a `replication-link-wedged`
//!   fault): the report loop keeps running, so no mimic fires, but its
//!   published block counter stops moving — the inferred staleness/delta
//!   checkers on `report_loop` flag it.
//! * **minizk** has no archived schedule an inferred checker flips (every
//!   miss is txn-log bit rot, invisible at the value level), so the bug is
//!   seeded directly: a znode whose payload is far larger than anything
//!   the recorded tests ever synced. A follower snapshot sync ships it,
//!   `snapshot_sync_loop` publishes the oversized `node_data`, and only
//!   the inferred length bound objects — to the mimics the sync is
//!   structurally healthy.

use std::path::Path;
use std::time::Duration;

use harness::chaos::{replay, ChaosOptions, Reproducer, DETECTED, MISSED};
use harness::infer::{record_journals, InferOptions};
use wdog_checkers::InferredSpec;
use wdog_core::report::FailureKind;
use wdog_infer::{infer, MinerConfig};
use wdog_target::WatchdogTarget;

/// Runs the live record → mine → emit pipeline with production options.
fn live_specs(target: &dyn WatchdogTarget) -> Vec<InferredSpec> {
    let opts = InferOptions::default();
    let journals = record_journals(target, &opts).expect("recording boots");
    infer(target.name(), &journals, &MinerConfig::default()).specs
}

fn corpus_reproducer(name: &str) -> Reproducer {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/chaos_corpus")
        .join(name);
    serde_json::from_str(&std::fs::read_to_string(&path).expect("fixture exists"))
        .expect("fixture parses")
}

/// Replays `fixture` twice — mimics alone, then mimics + `specs` — and
/// asserts the verdict flips from `missed` to `detected` with at least
/// one inferred checker named on the flipped fault.
fn assert_replay_flips(target: &dyn WatchdogTarget, fixture: &str, specs: Vec<InferredSpec>) {
    let rep = corpus_reproducer(fixture);
    let opts = ChaosOptions::default();

    let (mimic_only, matches) = replay(target, &rep, &opts).unwrap();
    assert!(matches, "fixture no longer replays to its recorded verdict");
    assert_eq!(mimic_only.verdict, MISSED, "mimics alone should miss");

    let mut with_inferred = opts;
    with_inferred.wd.inferred = specs;
    let (flipped, _) = replay(target, &rep, &with_inferred).unwrap();
    assert_eq!(
        flipped.verdict, DETECTED,
        "inferred checkers did not flip {fixture} to detected"
    );
    let inferred_hits: Vec<&str> = flipped
        .verdicts
        .iter()
        .flat_map(|v| v.checkers.iter())
        .filter(|c| c.contains(".inferred."))
        .map(String::as_str)
        .collect();
    assert!(
        !inferred_hits.is_empty(),
        "{fixture} flipped without an inferred checker being credited"
    );
}

#[test]
fn kvs_compaction_wedge_is_caught_only_with_inferred_checkers() {
    let target = kvs::target::KvsTarget;
    let specs = live_specs(&target);
    assert!(
        specs
            .iter()
            .any(|s| s.id == "kvs.inferred.staleness.compaction_loop"),
        "live pipeline lost the compaction staleness invariant"
    );
    assert_replay_flips(&target, "chaos-42-038.kvs.missed.json", specs);
}

#[test]
fn miniblock_wedged_replication_is_caught_only_with_inferred_checkers() {
    let target = miniblock::target::DnTarget;
    let specs = live_specs(&target);
    assert!(
        specs
            .iter()
            .any(|s| s.id == "miniblock.inferred.staleness.report_loop"),
        "live pipeline lost the report-loop staleness invariant"
    );
    assert_replay_flips(&target, "chaos-42-004.miniblock.missed.json", specs);
}

#[test]
fn minizk_oversized_snapshot_payload_is_caught_only_with_inferred_checkers() {
    let target = minizk::target::ZkTarget;
    let specs = live_specs(&target);
    let bound = specs
        .iter()
        .find_map(|s| match (&s.id, &s.predicate) {
            (id, wdog_checkers::InferredPredicate::LenBound { max_len, .. })
                if id == "minizk.inferred.len.snapshot_sync_loop.node_data" =>
            {
                Some(*max_len)
            }
            _ => None,
        })
        .expect("live pipeline lost the node_data length bound");

    // The seeded value bug: a payload no recorded execution ever shipped.
    let payload = vec![b'x'; (bound as usize) * 4];

    let run = |inferred: Vec<InferredSpec>| {
        let cluster = minizk::quorum::Cluster::for_tests();
        let mut opts = minizk::wd::default_zk_options();
        opts.interval = Duration::from_millis(100);
        opts.checker_timeout = Duration::from_millis(800);
        opts.inferred = inferred;
        let (mut driver, _) = minizk::wd::build_watchdog(&cluster, &opts).unwrap();

        // Publish the write-pipeline contexts first so the order
        // invariants' prerequisites are satisfied, then seed the bug and
        // ship it to follower 0 through a snapshot sync.
        cluster.create("/bug", b"ok").unwrap();
        for i in 0..4 {
            cluster
                .set_data("/bug", format!("v{i}").as_bytes())
                .unwrap();
        }
        driver.start().unwrap();
        cluster.set_data("/bug", &payload).unwrap();
        cluster.sync_follower(0).join().unwrap().unwrap();

        // Give the driver a few polling rounds to read the synced context.
        // The write path's own inferred bound (txn_payload) typically
        // fires first; keep polling until the snapshot-path checker has
        // had a round at the synced node_data too.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let value_reports = loop {
            let hits: Vec<_> = driver
                .log()
                .reports()
                .into_iter()
                .filter(|r| r.kind == FailureKind::AssertViolation)
                .collect();
            let synced_seen = hits.iter().any(|r| {
                r.checker
                    .as_str()
                    .contains(".inferred.len.snapshot_sync_loop.")
            });
            if synced_seen || std::time::Instant::now() > deadline {
                break hits;
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        driver.stop();
        cluster.crash();
        value_reports
    };

    let mimic_only = run(Vec::new());
    assert!(
        mimic_only.is_empty(),
        "mimics should not see the oversized payload, got {mimic_only:?}"
    );

    let with_inferred = run(specs);
    assert!(
        with_inferred
            .iter()
            .any(|r| r.checker.as_str() == "minizk.inferred.len.snapshot_sync_loop.node_data"),
        "inferred length bound did not flag the oversized snapshot payload: {with_inferred:?}"
    );
}
