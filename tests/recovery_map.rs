//! Each target's recovery map holds exactly the components its checkers
//! blame, and each id resolves to the handles pinned here. Every id a
//! scenario expects a correct report to blame is one a report can carry.
//!
//! Ids are exact, so a renamed checker component fails this test instead of
//! silently losing its restart, shed and verifier, and a renamed op or
//! component fails it instead of silently turning detections into misses.
//! The components and plans are read off the watchdog as every campaign
//! assembles it: at the target's `default_options()` and at
//! `RunnerOptions::default().wd`.
//!
//! Each distinct verifier also runs once on the fault-free instance, inside
//! the isolation scope the coordinator gives it, and must pass: a verifier
//! that writes, sends or stores anything untagged panics there instead.

use std::collections::{BTreeMap, BTreeSet};

use faults::FaultKind;
use harness::scenario::RunnerOptions;
use wdog_base::clock::RealClock;
use wdog_base::ids::ComponentId;
use wdog_base::isolation;
use wdog_gen::regions::find_regions;
use wdog_target::WatchdogTarget;

/// `(id, restart, shed, verifier)`; `None` is no handle.
type Row = (
    &'static str,
    Option<&'static str>,
    Option<&'static str>,
    &'static str,
);

type Rows = BTreeMap<String, (Option<&'static str>, Option<&'static str>, &'static str)>;

fn assert_map(target: &dyn WatchdogTarget, golden: &[Row]) {
    let mut inst = target
        .start_on(1, RealClock::shared())
        .expect("testbed boots");
    let mut blamed = BTreeSet::new();
    for opts in [target.default_options(), RunnerOptions::default().wd] {
        let (driver, _plan) = inst.build_watchdog(&opts).expect("watchdog assembles");
        blamed.extend(
            driver
                .checker_components()
                .iter()
                .map(|c| c.as_str().to_owned()),
        );
    }
    let map = inst.recovery_map();
    let rows: Rows = map
        .ids()
        .map(|id| {
            let h = map.get(id).expect("listed id resolves");
            let name = |h: &Option<wdog_target::Handle>| h.as_ref().map(|h| h.name);
            (
                id.as_str().to_owned(),
                (name(&h.restart), name(&h.shed), h.verifier.id),
            )
        })
        .collect();
    let surface = map.surface();
    let mut verified = BTreeSet::new();
    for (id, &(_, _, verifier)) in &rows {
        if !verified.insert(verifier) {
            continue;
        }
        let mut check =
            (surface.verifier)(&ComponentId::new(id.as_str())).expect("a mapped id has a verifier");
        let status = {
            let _isolated = isolation::scope();
            check.check()
        };
        assert!(
            status.is_pass(),
            "{}: {verifier} fails on a fault-free instance: {status:?}",
            target.name()
        );
    }
    drop(surface);
    inst.teardown();

    let mapped: BTreeSet<String> = rows.keys().cloned().collect();
    assert_eq!(
        mapped,
        blamed,
        "{}: the map must hold exactly the checkers' components",
        target.name()
    );
    let golden: Rows = golden
        .iter()
        .map(|&(id, restart, shed, verifier)| (id.to_owned(), (restart, shed, verifier)))
        .collect();
    assert_eq!(rows, golden, "{}: handles moved", target.name());
}

#[test]
fn kvs_map_holds_the_ten_blamed_components() {
    let flusher = (Some("flusher"), Some("flusher"), "kvs.verify.flusher");
    let replication = (
        Some("replication"),
        Some("replication"),
        "kvs.verify.replication",
    );
    let api = (Some("request path"), None, "kvs.verify.api");
    assert_map(
        &kvs::target::KvsTarget,
        &[
            (
                "kvs.compaction_loop",
                Some("compaction"),
                Some("compaction"),
                "kvs.verify.compaction",
            ),
            ("kvs.flusher_loop", flusher.0, flusher.1, flusher.2),
            ("kvs.flusher", flusher.0, flusher.1, flusher.2),
            // WAL blame restarts and sheds the flusher.
            ("kvs.wal_loop", flusher.0, flusher.1, flusher.2),
            (
                "kvs.replication_loop",
                replication.0,
                replication.1,
                replication.2,
            ),
            (
                "kvs.replication",
                replication.0,
                replication.1,
                replication.2,
            ),
            ("kvs.listener_loop", api.0, api.1, api.2),
            ("kvs.listener", api.0, api.1, api.2),
            ("kvs.api", api.0, api.1, api.2),
            ("kvs", Some("request path"), None, "kvs.verify.process"),
        ],
    );
}

#[test]
fn minizk_map_holds_the_six_blamed_components() {
    let broadcast = (Some("broadcast"), Some("broadcast"), "minizk.verify.link");
    assert_map(
        &minizk::target::ZkTarget,
        &[
            (
                "minizk.broadcast_loop",
                broadcast.0,
                broadcast.1,
                broadcast.2,
            ),
            ("minizk.quorum", broadcast.0, broadcast.1, broadcast.2),
            (
                "minizk.snapshot_sync_loop",
                None,
                None,
                "minizk.verify.link",
            ),
            (
                "minizk.request_processor_loop",
                None,
                None,
                "minizk.verify.txnlog",
            ),
            ("minizk.processors", None, None, "minizk.verify.txnlog"),
            ("minizk.api", None, None, "minizk.verify.process"),
        ],
    );
}

#[test]
fn miniblock_map_holds_the_four_blamed_components() {
    assert_map(
        &miniblock::target::DnTarget,
        &[
            (
                "miniblock.scanner_loop",
                Some("scanner"),
                Some("scanner"),
                "miniblock.verify.volume",
            ),
            // The NameNode link, not the volume a `"block"` substring picked.
            (
                "miniblock.heartbeat_loop",
                Some("heartbeat"),
                Some("heartbeat"),
                "miniblock.verify.link",
            ),
            (
                "miniblock.ingest_loop",
                None,
                None,
                "miniblock.verify.volume",
            ),
            ("dn.volumes", None, None, "miniblock.verify.volume"),
        ],
    );
}

/// A scenario blames only ids some report carries: a recovery-map
/// component, an op of the plan the mimics run, or the `<target>.<region>`
/// component of an inferred checker. A whole-process fault blames exactly
/// the recovery map.
#[test]
fn every_scenario_blames_ids_a_report_carries() {
    let targets: [&dyn WatchdogTarget; 3] = [
        &kvs::target::KvsTarget,
        &minizk::target::ZkTarget,
        &miniblock::target::DnTarget,
    ];
    for target in targets {
        let mut inst = target
            .start_on(1, RealClock::shared())
            .expect("testbed boots");
        let mapped: Vec<String> = inst
            .recovery_map()
            .ids()
            .map(|id| id.as_str().to_owned())
            .collect();
        let mut known: BTreeSet<String> = mapped.iter().cloned().collect();
        for opts in [target.default_options(), RunnerOptions::default().wd] {
            let (_driver, plan) = inst.build_watchdog(&opts).expect("watchdog assembles");
            let ops = plan.checkers.iter().flat_map(|c| &c.ops);
            known.extend(ops.map(|o| o.op_id.as_str().to_owned()));
        }
        inst.teardown();
        let regions = find_regions(&target.describe_ir());
        known.extend(
            regions
                .iter()
                .map(|r| format!("{}.{}", target.name(), r.entry)),
        );

        let mut scenarios = target.catalog();
        if target.name() == "minizk" {
            scenarios.push(harness::zk2201::scenario());
        }
        for s in &scenarios {
            let who = format!("{} {}", target.name(), s.id);
            assert!(!s.expected.blames.is_empty(), "{who} blames nothing");
            for id in &s.expected.blames {
                assert!(
                    known.contains(id),
                    "{who} blames {id}, which no report carries"
                );
            }
            if matches!(
                s.kind,
                FaultKind::ProcessCrash | FaultKind::RuntimePause { .. }
            ) {
                assert_eq!(s.expected.blames, mapped, "{who}: process blames");
            }
        }
    }
}
