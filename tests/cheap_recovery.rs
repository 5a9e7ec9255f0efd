//! §5.2 "cheap recovery": the watchdog's localization drives targeted
//! repair — replacing corrupted files — instead of a full process restart.
//!
//! Both tests run on the discrete-event `SimClock`, so every wait is
//! virtual.

use std::sync::Arc;
use std::time::Duration;

use kvs::{KvsConfig, KvsServer};
use simio::SimClock;
use wdog_base::clock::ActorGuard;
use wdog_core::prelude::*;
use wdog_recover::{RecoveryCoordinator, RecoveryOutcome, RecoveryPolicy};
use wdog_target::SimSubstrate;

const MS: fn(u64) -> Duration = Duration::from_millis;

/// A durable server on a fresh sim clock, the test thread adopted first.
fn boot(config: KvsConfig) -> (Arc<KvsServer>, SharedClock, ActorGuard) {
    let clock = SimClock::shared();
    let main = clock.actor("test-main").adopt();
    let disk = SimSubstrate::boot(1, &clock).disk;
    let server = KvsServer::start(config, Arc::clone(&clock), disk, None).unwrap();
    (Arc::new(server), clock, main)
}

/// Sleeps in 10 ms steps until `done`, for at most 5 virtual seconds.
fn wait_until(clock: &SharedClock, done: impl Fn() -> bool) {
    for _ in 0..500 {
        if done() {
            return;
        }
        clock.sleep(MS(10));
    }
}

#[test]
fn corruption_detection_triggers_partition_rebuild_and_service_survives() {
    let (server, clock, main) = boot(KvsConfig {
        flush_interval: MS(20),
        compaction_interval: MS(20),
        compaction_trigger: 3,
        ..KvsConfig::default()
    });
    let client = server.client();
    for i in 0..40 {
        client
            .set(&format!("key-{i}"), &format!("val-{i}"))
            .unwrap();
    }
    wait_until(&clock, || server.sstable_count() > 0);
    assert!(server.sstable_count() > 0, "nothing flushed");

    // The indexer starts corrupting entries, and the index mimic blames the
    // request path: the archived `state-corruption` row's report.
    server.toggles().set("kvs.indexer.corrupt", true);
    let coordinator = RecoveryCoordinator::builder(
        Arc::clone(&clock),
        kvs::recover::recovery_map(&server).surface(),
    )
    .default_policy(RecoveryPolicy::fast())
    .start();
    coordinator.on_failure(&FailureReport {
        checker: CheckerId::new("kvs.listener_loop_checker"),
        kind: FailureKind::Corruption,
        location: FaultLocation::new("kvs.listener_loop", "handle_request"),
        detail: "index put/get mismatch".into(),
        payload: vec![],
        observed_latency_ms: None,
        at_ms: clock.now_millis(),
    });
    assert!(coordinator.wait_idle(Duration::from_secs(5)));

    let incidents = coordinator.incidents();
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].outcome, RecoveryOutcome::VerifiedRecovered);
    assert_eq!(incidents[0].restarts, 1, "one request-path restart");
    // Repaired by replacing the partitions, not by restarting anything
    // else: every background loop is on its first generation and the
    // process kept serving.
    let sup = server.supervision();
    assert_eq!(sup.index_rebuilds, 1);
    assert_eq!(
        (
            sup.flusher_restarts,
            sup.compaction_restarts,
            sup.replication_restarts
        ),
        (0, 0, 0)
    );
    assert!(server.is_running());
    server.validate_partitions().unwrap();
    for i in 0..40 {
        assert_eq!(
            client.get(&format!("key-{i}")).unwrap(),
            Some(format!("val-{i}"))
        );
    }

    coordinator.request_stop();
    server.crash();
    main.retire();
    coordinator.stop();
}

#[test]
fn rebuild_partitions_collapses_tables_and_preserves_data() {
    let (server, clock, main) = boot(KvsConfig {
        flush_interval: MS(10),
        compaction_interval: Duration::from_secs(60), // keep tables around
        compaction_trigger: 100,
        ..KvsConfig::default()
    });
    let client = server.client();
    for round in 0..5 {
        for i in 0..10 {
            client.set(&format!("k{round}-{i}"), "v").unwrap();
        }
        clock.sleep(MS(40));
    }
    wait_until(&clock, || server.sstable_count() >= 2);
    let before = server.sstable_count();
    assert!(before >= 2, "need multiple tables, have {before}");
    let replaced = server.rebuild_partitions().unwrap();
    assert_eq!(replaced, before);
    assert_eq!(server.sstable_count(), 1);
    server.validate_partitions().unwrap();
    for round in 0..5 {
        for i in 0..10 {
            assert_eq!(
                client.get(&format!("k{round}-{i}")).unwrap(),
                Some("v".into())
            );
        }
    }
    server.crash();
    main.retire();
}
