//! Watchdog integration for minizk.
//!
//! Mirrors `kvs::wd`: the IR extracted from this crate's source (whose
//! snapshot region is the paper's Figure 2 call chain), the op table
//! binding each resource to a `wdog_target::templates` probe template over
//! real cluster state (the txn log is an append log, `write_lock` and
//! `znode` are labelled locks, `followers` and `sync-target` are links),
//! and the assembled watchdog. The operations that detect ZOOKEEPER-2201
//! are:
//!
//! - `final_apply#tree_write_lock` — try-locks the tree's real
//!   write-serialization lock: wedged sync ⇒ timeout ⇒ `Stuck`;
//! - `with_locked_data#lock` then `serialize_snapshot#write_record` — the
//!   lock of the node in `node_path`, which the snapshot writes under, then
//!   a tagged probe frame on the *same* leader→follower link (the
//!   `sync_target` field) the sync is using: wedged sync ⇒ the
//!   checker itself hangs ⇒ the driver's timeout path reports `Stuck`
//!   pinpointed at `with_locked_data#lock`, with the node path that was
//!   being serialized as concrete context — the paper's §4.2 result.

use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_base::isolation::PROBE_FRAME;

use wdog_checkers::probe_checker;
use wdog_checkers::signal::queue_depth;
use wdog_core::prelude::*;

use wdog_gen::interp::OpTable;
use wdog_gen::ir::{Extraction, ProgramIr};
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::reduce::ReductionConfig;
use wdog_target::templates::{append_log, labelled_lock, link, Peers};

use crate::quorum::{Cluster, LEADER_ADDR};

/// Probe file on the txn-log volume.
pub const TXNLOG_PROBE_PATH: &str = "txnlog/__wd_probe";

/// Tunables for the assembled minizk watchdog — the shared options type;
/// minizk's historical tuning lives in [`default_zk_options`].
pub use wdog_target::{Families, WdOptions};

/// minizk's tuned defaults: ZooKeeper-scale intervals (seconds, not
/// hundreds of milliseconds) and a context-age cap so snapshot contexts go
/// stale after a completed sync (stale means "do not probe").
pub fn default_zk_options() -> WdOptions {
    WdOptions {
        interval: Duration::from_secs(2),
        checker_timeout: Duration::from_secs(3),
        slow_threshold: Duration::from_millis(500),
        probe_slow_threshold: Duration::from_millis(500),
        max_context_age: Some(Duration::from_secs(30)),
        ..WdOptions::default()
    }
}

/// minizk's IR: the `ir` of `tests/snapshots/minizk.json`, the extraction
/// of this crate's source that `extraction_matches_committed_snapshots`
/// keeps byte-equal to what `wdog-analyze` reads from it today. Its
/// `snapshot_sync_loop` region is Figure 2: `serialize_snapshot` writes
/// each record inside the node lock `with_locked_data` takes.
pub fn describe_ir() -> ProgramIr {
    let json = include_str!("../../../tests/snapshots/minizk.json");
    serde_json::from_str::<Extraction>(json)
        .expect("minizk extraction parses")
        .ir
}

/// Builds the op table binding minizk's vulnerable IR ops to real cluster
/// operations: one probe template per resource.
pub fn op_table(cluster: &Cluster) -> OpTable {
    let s = Arc::clone(cluster.shared());
    let mut table = OpTable::new();
    table.bind("txnlog/", append_log(&s.disk, TXNLOG_PROBE_PATH));
    // The 2201 detector: the tree's write-serialization lock, which a
    // wedged snapshot sync holds.
    let tree = Arc::clone(&s.tree);
    table.bind(
        "write_lock",
        labelled_lock("tree write-serialization lock", None, move |_, wait| {
            tree.write_lock.try_lock_for(wait).is_some()
        }),
    );
    // The lock of the node being serialized; a node gone since the hook
    // fired leaves nothing to probe.
    let tree = Arc::clone(&s.tree);
    table.bind(
        "znode",
        labelled_lock("znode lock", Some("node_path"), move |path, wait| {
            tree.get_node(path)
                .is_none_or(|node| node.try_with_locked_data(wait, |_| ()).is_some())
        }),
    );
    table.bind(
        "followers",
        link(
            Some(s.net.clone()),
            Peers::Pairs(
                s.follower_addrs
                    .iter()
                    .map(|f| (LEADER_ADDR.to_owned(), f.clone()))
                    .collect(),
            ),
            |_| PROBE_FRAME.to_vec(),
        ),
    );
    // The live sync link: if it is wedged this send blocks — by design —
    // and the driver's timeout path reports the checker stuck at exactly
    // this operation.
    table.bind(
        "sync-target",
        link(
            Some(s.net.clone()),
            Peers::Field(LEADER_ADDR.to_owned(), "sync_target"),
            |_| PROBE_FRAME.to_vec(),
        ),
    );
    table
}

/// Assembles the minizk watchdog: generated mimics plus (optionally) the
/// probe and signal families.
pub fn build_watchdog(
    cluster: &Cluster,
    opts: &WdOptions,
) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
    let clock: SharedClock = Arc::clone(&cluster.shared().clock);
    let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
    let mut builder =
        wdog_target::watchdog_builder(opts, &clock, &cluster.hooks(), &plan, &op_table(cluster))?
            .checkers(wdog_target::inferred_checkers(
                opts,
                &cluster.context().reader(),
            ));

    if opts.families.probes {
        // Probe checker: a read of the root node on the tree's read path.
        let tree = cluster.tree();
        builder = builder.checker(Box::new(probe_checker(
            "minizk.probe.write",
            "minizk.api",
            "set_data",
            Arc::clone(&clock),
            Some(opts.probe_slow_threshold),
            move || -> BaseResult<()> {
                // A write through the pipeline from inside the process
                // risks self-deadlock during the 2201 hang, so the probe
                // only reads `/`, which takes no write-serialization
                // lock and stays live through that hang.
                tree.get_data("/").map(|_| ())
            },
        )));
    }

    if opts.families.signals {
        // Signal checkers: pipeline and broadcast backlogs.
        builder = builder.checker(Box::new(queue_depth(
            "minizk.signal.pipeline",
            "minizk.processors",
            cluster.monitor(),
            "pipeline",
            opts.queue_threshold,
        )));
        builder = builder.checker(Box::new(queue_depth(
            "minizk.signal.broadcast",
            "minizk.quorum",
            cluster.monitor(),
            "broadcast",
            opts.queue_threshold,
        )));
    }

    Ok((builder.build()?, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::disk::SimDisk;
    use simio::net::SimNet;
    use wdog_base::clock::RealClock;

    #[test]
    fn figure2_chain_reduces_to_lock_and_write_record() {
        let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
        let snap = plan.checker_for("snapshot_sync_loop").expect("checker");
        let ids: Vec<&str> = snap.ops.iter().map(|o| o.op_id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["with_locked_data#lock", "serialize_snapshot#write_record"],
            "reduction must retain exactly the Figure 3 operations"
        );
        // The hook in the walk publishes the node being written into the
        // region context — Figure 2 line 28.
        assert_eq!(
            snap.required_fields,
            ["node_data", "node_path", "sync_target"]
        );
    }

    #[test]
    fn trace_arming_journals_request_processor_publishes() {
        let cluster = Cluster::for_tests();
        let clock: SharedClock = Arc::clone(&cluster.shared().clock);
        let recorder = TraceRecorder::new(clock);
        let opts = WdOptions {
            trace: Some(Arc::clone(&recorder)),
            ..default_zk_options()
        };
        let (_driver, _) = build_watchdog(&cluster, &opts).unwrap();
        assert!(cluster.hooks().trace_attached());
        cluster.create("/traced", b"x").unwrap();
        let start = std::time::Instant::now();
        while recorder.is_empty() && start.elapsed() < Duration::from_secs(5) {
            cluster.set_data("/traced", b"y").unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = recorder.drain();
        assert!(
            events.iter().any(|e| e.key == "request_processor_loop"),
            "request path publishes not journaled: {events:?}"
        );
    }

    #[test]
    fn watchdog_runs_clean_on_healthy_cluster() {
        let cluster = Cluster::start(
            crate::quorum::ClusterConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            SimNet::for_tests(),
        )
        .unwrap();
        cluster.create("/app", b"root").unwrap();
        for i in 0..5 {
            cluster.create(&format!("/app/n{i}"), b"x").unwrap();
        }
        let opts = WdOptions {
            interval: Duration::from_millis(50),
            ..default_zk_options()
        };
        let (mut driver, _) = build_watchdog(&cluster, &opts).unwrap();
        driver.start().unwrap();
        // Also complete a sync so the snapshot checker becomes ready.
        cluster.sync_follower(0).join().unwrap().unwrap();
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_secs(5) && driver.stats().passes < 10 {
            cluster.set_data("/app/n0", b"y").unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        driver.stop();
        assert!(
            driver.log().is_empty(),
            "false alarms on healthy cluster: {:#?}",
            driver.log().reports()
        );
    }
}
