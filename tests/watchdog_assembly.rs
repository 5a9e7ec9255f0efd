//! The watched-testbed lifecycle is stated once.
//!
//! Two pins: what each target's `build_watchdog` registers, in order (the
//! executor spawn order feeds sim determinism, so a reshuffle is a
//! behaviour change even when every checker is still there), and where the
//! assembly, the campaign protocol, the substrate boot and the workload are
//! allowed to live (campaigns run on the sim clock only). Assembling at
//! all also proves the target's op table implements every planned op:
//! `instantiate` refuses a plan with an unbound one.

use wdog_base::clock::RealClock;
use wdog_checkers::{InferredPredicate, InferredSpec};
use wdog_target::{Families, WatchdogTarget, WdOptions};

fn inferred(target: &str, kind: &str) -> InferredSpec {
    InferredSpec {
        id: format!("{target}.inferred.{kind}.golden"),
        component: format!("{target}.golden"),
        key: "golden".into(),
        support: 1,
        predicate: InferredPredicate::Staleness {
            max_gap_us: 60_000_000,
        },
    }
}

fn checker_ids(target: &dyn WatchdogTarget) -> Vec<String> {
    let mut inst = target
        .start_on(1, RealClock::shared())
        .expect("testbed boots");
    let opts = WdOptions {
        families: Families::all(),
        inferred: vec![
            inferred(target.name(), "first"),
            inferred(target.name(), "second"),
        ],
        ..target.default_options()
    };
    let (driver, _plan) = inst.build_watchdog(&opts).expect("watchdog assembles");
    let ids = driver
        .checker_ids()
        .iter()
        .map(|id| id.as_str().to_owned())
        .collect();
    inst.teardown();
    ids
}

#[test]
fn kvs_registers_mimics_probes_signals_inferred() {
    assert_eq!(
        checker_ids(&kvs::target::KvsTarget),
        [
            "kvs.compaction_loop_checker",
            "kvs.flusher_loop_checker",
            "kvs.listener_loop_checker",
            "kvs.replication_loop_checker",
            "kvs.wal_loop_checker",
            "kvs.probe.set_get",
            "kvs.probe.del",
            "kvs.probe.append",
            "kvs.signal.memory",
            "kvs.signal.request_queue",
            "kvs.signal.wal_queue",
            "kvs.signal.sleep_drift",
            "kvs.signal.disk_space",
            "kvs.signal.repl_queue",
            "kvs.inferred.first.golden",
            "kvs.inferred.second.golden",
        ]
    );
}

#[test]
fn minizk_registers_mimics_inferred_probes_signals() {
    assert_eq!(
        checker_ids(&minizk::target::ZkTarget),
        [
            "minizk.broadcast_loop_checker",
            "minizk.request_processor_loop_checker",
            "minizk.snapshot_sync_loop_checker",
            "minizk.inferred.first.golden",
            "minizk.inferred.second.golden",
            "minizk.probe.write",
            "minizk.signal.pipeline",
            "minizk.signal.broadcast",
        ]
    );
}

#[test]
fn miniblock_registers_mimics_inferred_probes() {
    assert_eq!(
        checker_ids(&miniblock::target::DnTarget),
        [
            "miniblock.heartbeat_loop_checker",
            "miniblock.ingest_loop_checker",
            "miniblock.scanner_loop_checker",
            "miniblock.inferred.first.golden",
            "miniblock.inferred.second.golden",
            "dn.disk_checker.legacy",
            "dn.disk_checker.enhanced",
        ]
    );
}

#[test]
fn the_driver_prefix_is_assembled_in_wdog_target_only() {
    for target in ["kvs", "minizk", "miniblock"] {
        let rel = format!("crates/{target}/src/wd.rs");
        let text = std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")))
            .expect("target sources are readable");
        assert!(
            !text.contains("WatchdogDriver::builder"),
            "{rel} assembles its own driver; call wdog_target::watchdog_builder"
        );
    }
}

#[test]
fn the_campaign_protocol_lives_in_session_rs_only() {
    let root = format!("{}/crates/harness/src", env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for dir in [root.clone(), format!("{root}/bin")] {
        for entry in std::fs::read_dir(&dir).expect("harness sources are readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() || path.ends_with("session.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source is readable");
            for needle in [".adopt()", ".retire()"] {
                if text.contains(needle) {
                    offenders.push(format!("{}: {needle}", path.display()));
                }
            }
        }
    }
    // The three scorers hand a schedule to `session::run`: none of them
    // boots, injects or paces an observation loop of its own.
    for scorer in ["scenario.rs", "chaos.rs", "recovery.rs"] {
        let text = std::fs::read_to_string(format!("{root}/{scorer}"))
            .expect("scorer sources are readable");
        let non_test = text.split("#[cfg(test)]").next().unwrap_or_default();
        for needle in ["Session::boot", ".inject(", "sleep_until"] {
            if non_test.contains(needle) {
                offenders.push(format!("{scorer}: {needle}"));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "campaign protocol spelled outside harness::session: {offenders:#?}"
    );
}

#[test]
fn campaigns_run_on_the_sim_clock_only() {
    let root = format!("{}/crates/harness/src", env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for dir in [root.clone(), format!("{root}/bin")] {
        for entry in std::fs::read_dir(&dir).expect("harness sources are readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let non_test = text.split("#[cfg(test)]").next().unwrap_or_default();
            if non_test.contains("RealClock") {
                offenders.push(path.display().to_string());
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "campaign code that can run on the real clock: {offenders:#?}"
    );
}

#[test]
fn targets_leave_the_substrate_and_the_workload_to_the_harness() {
    for target in ["kvs", "minizk", "miniblock"] {
        let rel = format!("crates/{target}/src/target.rs");
        let text = std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")))
            .expect("target sources are readable");
        let non_test = text.split("#[cfg(test)]").next().unwrap_or_default();
        for needle in ["SimNet::new", "SimDisk::new", "WorkloadHandle"] {
            assert!(
                !text.contains(needle),
                "{rel} names {needle}; boot through wdog_target::SimSubstrate and let \
                 harness::session own the workload"
            );
        }
        assert!(
            !non_test.contains("spawn_workload_on"),
            "{rel} spawns its own workload; harness::session spawns it"
        );
    }
}
