//! Each target's recovery map holds exactly the components its checkers
//! blame, and each id resolves to the handles pinned here.
//!
//! Ids are exact, so a renamed checker component fails this test instead of
//! silently losing its restart, shed and verifier. The components are read
//! off the watchdog as every campaign assembles it: at the target's
//! `default_options()` and at `RunnerOptions::default().wd`.

use std::collections::{BTreeMap, BTreeSet};

use harness::scenario::RunnerOptions;
use wdog_base::clock::RealClock;
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
