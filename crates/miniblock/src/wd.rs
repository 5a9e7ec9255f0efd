//! Watchdog integration for miniblock's DataNode.
//!
//! Mirrors `kvs::wd`: the IR extracted from this crate's source, the op
//! table binding each resource to a `wdog_target::templates` probe template
//! (`blocks/` is a CRC-framed file set with one probe block per volume,
//! validated like a real block; the NameNode link carries tagged frames),
//! and the assembled watchdog with both generations of the hand-written
//! disk checker.

use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::{BaseError, BaseResult};
use wdog_base::isolation::PROBE_FRAME;

use wdog_core::prelude::*;

use wdog_gen::interp::OpTable;
use wdog_gen::ir::{Extraction, ProgramIr};
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::reduce::ReductionConfig;
use wdog_target::templates::{framed_files, link, Peers};

use crate::datanode::DataNode;
use crate::namenode::NAMENODE_ADDR;

/// Tunables for the assembled DataNode watchdog — the shared options type;
/// miniblock's historical tuning lives in [`default_dn_options`]. The
/// hand-written disk checkers (legacy + enhanced) are the `probes` family.
pub use wdog_target::{Families, WdOptions};

/// miniblock's tuned defaults: DataNode-scale intervals (a block store
/// reacts in hundreds of milliseconds, not seconds).
pub fn default_dn_options() -> WdOptions {
    WdOptions {
        interval: Duration::from_millis(200),
        checker_timeout: Duration::from_millis(800),
        slow_threshold: Duration::from_millis(200),
        probe_slow_threshold: Duration::from_millis(200),
        ..WdOptions::default()
    }
}

/// The DataNode IR: the `ir` of `tests/snapshots/miniblock.json`, the
/// extraction of this crate's source that
/// `extraction_matches_committed_snapshots` keeps byte-equal to what
/// `wdog-analyze` reads from it today.
pub fn describe_ir() -> ProgramIr {
    let json = include_str!("../../../tests/snapshots/miniblock.json");
    serde_json::from_str::<Extraction>(json)
        .expect("miniblock extraction parses")
        .ir
}

/// Builds the op table binding the DataNode's vulnerable IR ops to real,
/// isolated implementations: one probe template per resource.
pub fn op_table(dn: &DataNode) -> OpTable {
    let s = Arc::clone(dn.shared());
    let mut table = OpTable::new();
    // The HADOOP-13738 check as a *generated* operation: a checksummed probe
    // block on *every* volume, as the real ingest path round-robins across
    // them, so any single wedged or rotting volume is hit within one round.
    let (validator, live) = (Arc::clone(&s), Arc::clone(&s));
    table.bind(
        "blocks/",
        framed_files(
            s.store.disk(),
            s.store
                .volumes()
                .iter()
                .map(|volume| format!("blocks/{volume}/__wd_probe"))
                .collect(),
            move |_, path| validator.store.validate_path(path),
            // The block the scanner last touched, which may have been
            // deleted since the hook fired.
            move |snap| match snap.get("block_path").and_then(|v| v.as_str()) {
                Some(path) => match live.store.validate_path(path) {
                    Err(BaseError::NotFound(_)) => Ok(()),
                    other => other,
                },
                None => Ok(()),
            },
        ),
    );
    // Probe frames on the real NameNode link; the NameNode ignores
    // undecodable frames.
    table.bind(
        "bb-namenode",
        link(
            Some(s.net.clone()),
            Peers::Pairs(vec![(s.id.clone(), NAMENODE_ADDR.to_owned())]),
            |_| PROBE_FRAME.to_vec(),
        ),
    );
    table
}

/// Assembles the DataNode watchdog: generated mimics plus the two
/// generations of the hand-written disk checker.
pub fn build_watchdog(
    dn: &DataNode,
    opts: &WdOptions,
) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
    let clock: SharedClock = Arc::clone(&dn.shared().clock);
    let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
    let mut builder =
        wdog_target::watchdog_builder(opts, &clock, &dn.hooks(), &plan, &op_table(dn))?
            .checkers(wdog_target::inferred_checkers(opts, &dn.context().reader()));
    if opts.families.probes {
        let store = Arc::new(crate::block::BlockStore::new(
            Arc::clone(dn.store().disk()),
            dn.store().volumes().len(),
        ));
        builder = builder
            .checker(Box::new(crate::disk_checker::LegacyDiskChecker::new(
                Arc::clone(&store),
            )))
            .checker(Box::new(crate::disk_checker::EnhancedDiskChecker::new(
                store,
                clock,
                opts.slow_threshold,
            )));
    }
    Ok((builder.build()?, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datanode::DataNodeConfig;
    use crate::namenode::NameNode;
    use simio::disk::SimDisk;
    use simio::net::SimNet;
    use wdog_base::clock::RealClock;

    #[test]
    fn the_heartbeat_and_report_sends_dedupe_to_one() {
        let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
        // Both sends target the NameNode; global reduction keeps one.
        let total_sends: usize = plan
            .checkers
            .iter()
            .flat_map(|c| &c.ops)
            .filter(|o| matches!(o.kind, wdog_gen::OpKind::NetSend))
            .count();
        assert_eq!(total_sends, 1, "{plan:#?}");
    }

    #[test]
    fn trace_arming_journals_ingest_publishes() {
        let net = SimNet::for_tests();
        let dn = DataNode::start(
            DataNodeConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            net,
        )
        .unwrap();
        let recorder = wdog_core::TraceRecorder::new(RealClock::shared());
        let opts = WdOptions {
            trace: Some(std::sync::Arc::clone(&recorder)),
            ..default_dn_options()
        };
        let (_driver, _) = build_watchdog(&dn, &opts).unwrap();
        assert!(dn.hooks().trace_attached());
        let start = std::time::Instant::now();
        while recorder.is_empty() && start.elapsed() < Duration::from_secs(5) {
            dn.write_block(b"traced").unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = recorder.drain();
        assert!(
            events.iter().any(|e| e.key == "ingest_loop"),
            "ingest publishes not journaled: {events:?}"
        );
    }

    #[test]
    fn watchdog_runs_clean_on_healthy_datanode() {
        let net = SimNet::for_tests();
        let _nn = NameNode::start(net.clone(), RealClock::shared(), Duration::from_secs(1));
        let dn = DataNode::start(
            DataNodeConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            net,
        )
        .unwrap();
        let (mut driver, _) = build_watchdog(
            &dn,
            &WdOptions {
                interval: Duration::from_millis(50),
                ..default_dn_options()
            },
        )
        .unwrap();
        driver.start().unwrap();
        for i in 0..30 {
            dn.write_block(format!("block-{i}").as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        let start = std::time::Instant::now();
        while driver.stats().passes < 10 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        driver.stop();
        assert!(
            driver.log().is_empty(),
            "false alarms: {:#?}",
            driver.log().reports()
        );
    }

    #[test]
    fn generated_watchdog_catches_partial_volume_failure() {
        let net = SimNet::for_tests();
        let dn = DataNode::start(
            DataNodeConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            net,
        )
        .unwrap();
        let (mut driver, _) = build_watchdog(
            &dn,
            &WdOptions {
                interval: Duration::from_millis(50),
                checker_timeout: Duration::from_millis(400),
                families: Families::only("mimic"), // generated mimics only
                ..default_dn_options()
            },
        )
        .unwrap();
        driver.start().unwrap();
        // Publish contexts, then wedge one volume's data path. Real ingest
        // would block on vol1 too; the watchdog detects without it.
        dn.write_block(b"warmup").unwrap();
        dn.store().disk().inject(simio::disk::FaultRule::scoped(
            "blocks/vol1/",
            vec![
                simio::disk::DiskOpKind::Write,
                simio::disk::DiskOpKind::Sync,
                simio::disk::DiskOpKind::Read,
            ],
            simio::disk::DiskFault::Stuck,
        ));
        let start = std::time::Instant::now();
        let mut detected = false;
        while start.elapsed() < Duration::from_secs(8) && !detected {
            detected = !driver.log().is_empty();
            std::thread::sleep(Duration::from_millis(20));
        }
        dn.store().disk().clear_all();
        assert!(detected, "partial volume failure not detected");
        let report = &driver.log().reports()[0];
        assert_eq!(report.kind, FailureKind::Stuck);
        driver.stop();
    }
}
