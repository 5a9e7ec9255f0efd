//! Watchdog integration for minizk.
//!
//! Mirrors `kvs::wd`: the IR extracted from this crate's source (whose
//! snapshot region is the paper's Figure 2 call chain), the op table
//! executing real cluster operations, and the assembled watchdog. The
//! operations that detect ZOOKEEPER-2201 are:
//!
//! - `final_apply#tree_write_lock` — try-locks the tree's real
//!   write-serialization lock: wedged sync ⇒ timeout ⇒ `Stuck`;
//! - `with_locked_data#lock` then `serialize_snapshot#write_record` — the
//!   node lock the snapshot writes under, then a tagged probe frame on the
//!   *same* leader→follower link the sync is using: wedged sync ⇒ the
//!   checker itself hangs ⇒ the driver's timeout path reports `Stuck`
//!   pinpointed at `with_locked_data#lock`, with the node path that was
//!   being serialized as concrete context — the paper's §4.2 result.

use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::{BaseError, BaseResult};

use wdog_checkers::probe::ProbeChecker;
use wdog_checkers::signal::QueueDepthChecker;
use wdog_core::prelude::*;

use wdog_gen::interp::OpTable;
use wdog_gen::ir::{Extraction, ProgramIr};
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::reduce::ReductionConfig;

use crate::msg::ZkMsg;
use crate::quorum::{Cluster, LEADER_ADDR};

/// Probe file on the txn-log volume.
pub const TXNLOG_PROBE_PATH: &str = "txnlog/__wd_probe";
/// Probe files are reset once they grow past this.
const PROBE_FILE_CAP: usize = 64 * 1024;

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
/// operations.
pub fn op_table(cluster: &Cluster) -> OpTable {
    let shared = Arc::clone(cluster.shared());
    let mut table = OpTable::new();

    // sync_txn#append / fsync: probe file on the same volume.
    {
        let s = Arc::clone(&shared);
        table.register("sync_txn#append", move |snap| {
            let payload = snap
                .get("txn_payload")
                .and_then(|v| v.as_bytes())
                .unwrap_or(b"probe");
            if s.disk
                .len(TXNLOG_PROBE_PATH)
                .map(|l| l > PROBE_FILE_CAP)
                .unwrap_or(false)
            {
                s.disk.write_all(TXNLOG_PROBE_PATH, &[])?;
            }
            s.disk.append(TXNLOG_PROBE_PATH, payload)
        });
    }
    {
        let s = Arc::clone(&shared);
        table.register("sync_txn#fsync", move |_snap| {
            if !s.disk.exists(TXNLOG_PROBE_PATH) {
                s.disk.append(TXNLOG_PROBE_PATH, b"")?;
            }
            s.disk.fsync(TXNLOG_PROBE_PATH)
        });
    }

    // final_apply#tree_write_lock: the 2201 detector — try the real lock.
    // The snapshot holds the same lock (`serialize_snapshot#lock`, planned
    // only when dedup is off).
    for op_id in ["final_apply#tree_write_lock", "serialize_snapshot#lock"] {
        let s = Arc::clone(&shared);
        table.register(op_id, move |_snap| {
            match s.tree.write_lock.try_lock_for(Duration::from_millis(500)) {
                Some(_guard) => Ok(()),
                None => Err(BaseError::Timeout {
                    what: "tree write-serialization lock".into(),
                    after_ms: 500,
                }),
            }
        });
    }

    // broadcast_loop#send: probe every follower link.
    {
        let s = Arc::clone(&shared);
        table.register("broadcast_loop#send", move |_snap| {
            for f in &s.follower_addrs {
                s.net.send(LEADER_ADDR, f, ZkMsg::WdProbe.encode())?;
            }
            Ok(())
        });
    }

    // with_locked_data#lock: try the lock of the node being serialized.
    {
        let s = Arc::clone(&shared);
        table.register("with_locked_data#lock", move |snap| {
            let path = snap
                .get("node_path")
                .and_then(|v| v.as_str())
                .unwrap_or("/")
                .to_owned();
            let Some(node) = s.tree.get_node(&path) else {
                return Ok(()); // Node gone; nothing to probe.
            };
            match node.try_with_locked_data(Duration::from_millis(500), |_| ()) {
                Some(()) => Ok(()),
                None => Err(BaseError::Timeout {
                    what: format!("znode lock for {path}"),
                    after_ms: 500,
                }),
            }
        });
    }

    // serialize_snapshot#write_record: probe the live sync link. If the
    // link is wedged this call blocks — by design — and the driver's
    // timeout path reports the checker stuck at exactly this operation.
    {
        let s = Arc::clone(&shared);
        table.register("serialize_snapshot#write_record", move |snap| {
            let target = snap
                .get("sync_target")
                .and_then(|v| v.as_str())
                .map(str::to_owned);
            let Some(target) = target else {
                return Ok(()); // No sync in progress.
            };
            s.net.send(LEADER_ADDR, &target, ZkMsg::WdProbe.encode())
        });
    }

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
        builder = builder.checker(Box::new(
            ProbeChecker::new(
                "minizk.probe.write",
                "minizk.api",
                "set_data",
                Arc::clone(&clock),
                move || -> BaseResult<()> {
                    // A write through the pipeline from inside the process
                    // risks self-deadlock during the 2201 hang, so the probe
                    // only reads `/`, which takes no write-serialization
                    // lock and stays live through that hang.
                    tree.get_data("/").map(|_| ())
                },
            )
            .with_slow_threshold(opts.probe_slow_threshold)
            .with_timeout(opts.checker_timeout),
        ));
    }

    if opts.families.signals {
        // Signal checkers: pipeline and broadcast backlogs.
        builder = builder.checker(Box::new(QueueDepthChecker::new(
            "minizk.signal.pipeline",
            "minizk.processors",
            cluster.monitor(),
            "pipeline",
            opts.queue_threshold,
        )));
        builder = builder.checker(Box::new(QueueDepthChecker::new(
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
