//! Watchdog integration for kvs.
//!
//! This module is the glue AutoWatchdog needs around a target system:
//!
//! - [`describe_ir`] — the IR program logic reduction consumes: the
//!   committed extraction of this crate's own source (see `DESIGN.md`);
//! - [`op_table`] — binds each IR resource to a `wdog_target::templates`
//!   probe template executing *real* kvs operations under watchdog
//!   isolation: the WAL is an append log and the SSTables a CRC-framed file
//!   set, each probed through a file in the same volume as real data
//!   (`wal/__wd_probe`) so substrate faults strike it identically; the WAL
//!   and compaction locks are labelled locks try-locking the *same* mutex
//!   the real writer or compactor holds; the replica is a link carrying
//!   tagged frames that replicas skip. The index, which no template serves,
//!   binds one custom compute body, probing keys in the `__wd:` namespace;
//! - [`probe_checkers`] / [`signal_checkers`] — the hand-written Table 2
//!   complements to the generated mimic checkers;
//! - [`build_watchdog`] — one call assembling the full in-process watchdog;
//! - [`op_table_unsynced`] / [`publish_assumed_contexts`] — the E6 ablation
//!   reproducing §3.1's spurious-report example (checkers running with
//!   pre-supplied state instead of synchronized contexts).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::{BaseError, BaseResult};

use wdog_checkers::probe_checker;
use wdog_checkers::signal::{disk_space, memory_watermark, queue_depth, sleep_drift};
use wdog_core::prelude::*;

use wdog_gen::interp::{OpTable, ResourceImpl};
use wdog_gen::ir::{Extraction, OpKind, ProgramIr};
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::reduce::ReductionConfig;
use wdog_target::templates::{append_log, framed_files, labelled_lock, link, Peers};

use crate::replication::WD_PROBE_PREFIX;
use crate::server::KvsServer;
use crate::sstable::validate_sstable;

/// Probe file sharing the WAL volume (so WAL-scoped faults strike it).
pub const WAL_PROBE_PATH: &str = "wal/__wd_probe";
/// Probe file sharing the SSTable volume.
pub const SST_PROBE_PATH: &str = "sst/__wd_probe";
/// Probe keys live under this index namespace.
pub const KEY_PROBE_PREFIX: &str = "__wd:";

/// Tunables for the assembled kvs watchdog.
///
/// The shared [`wdog_target::WdOptions`] type's defaults are kvs's
/// historical tuning, so the re-export is an exact replacement for the old
/// per-target struct; family toggles moved into [`Families`].
pub use wdog_target::{Families, WdOptions};

/// kvs's IR: the `ir` of `tests/snapshots/kvs.json`, the extraction of
/// this crate's source that `extraction_matches_committed_snapshots`
/// keeps byte-equal to what `wdog-analyze` reads from it today.
pub fn describe_ir() -> ProgramIr {
    let json = include_str!("../../../tests/snapshots/kvs.json");
    serde_json::from_str::<Extraction>(json)
        .expect("kvs extraction parses")
        .ir
}

/// Builds the op table binding every vulnerable kvs IR op to a real,
/// isolated implementation: one probe template per resource, and a custom
/// body for the index.
pub fn op_table(server: &KvsServer) -> OpTable {
    let s = Arc::clone(server.shared());
    let mut table = OpTable::new();
    table.bind("wal/", append_log(&s.disk, WAL_PROBE_PATH));
    let live = Arc::clone(&s);
    table.bind(
        "sst/",
        framed_files(
            &s.disk,
            vec![SST_PROBE_PATH.into()],
            validate_sstable,
            // The paper's "checker that computes and validates the
            // checksum of each partition".
            move |_| live.partitions.validate_all(),
        ),
    );
    // The WAL and compaction locks are the ones a wedged writer or
    // compactor holds: fate sharing.
    let wal = Arc::clone(&s);
    table.bind(
        "wal",
        labelled_lock("wal lock acquisition", None, move |_, wait| {
            wal.wal.try_lock_for(wait).is_some()
        }),
    );
    let compaction = Arc::clone(&s);
    table.bind(
        "compaction_lock",
        labelled_lock("compaction lock acquisition", None, move |_, wait| {
            compaction.compaction_lock.try_lock_for(wait).is_some()
        }),
    );
    table.bind(
        "replica",
        link(
            s.net.clone(),
            Peers::Pairs(
                s.config
                    .replication
                    .iter()
                    .map(|r| (r.src_addr.clone(), r.dst_addr.clone()))
                    .collect(),
            ),
            |payload| [WD_PROBE_PREFIX, payload].concat(),
        ),
    );

    // The index is in-memory state no template serves: put, read back, compare.
    let counter = AtomicU64::new(0);
    table.bind(
        "index",
        vec![(
            OpKind::Compute,
            Arc::new(move |snap: &ContextSnapshot, _: &[String]| {
                let val = snap
                    .get("probe_val")
                    .and_then(|v| v.as_str())
                    .unwrap_or("probe-value");
                let n = counter.fetch_add(1, Ordering::Relaxed);
                let key = format!("{KEY_PROBE_PREFIX}put:{}", n % 8);
                s.index.put(&key, val);
                let got = s.index.get(&key);
                if got.as_deref() != Some(val) {
                    return Err(BaseError::Corruption(format!(
                        "index put/get mismatch: wrote {:?}, read {:?}",
                        val, got
                    )));
                }
                s.index.remove(&key);
                Ok(())
            }) as ResourceImpl,
        )],
    );

    table
}

/// The paper's probe checkers: special clients exercising the public API.
pub fn probe_checkers(server: &KvsServer, opts: &WdOptions) -> Vec<Box<dyn Checker>> {
    let clock: SharedClock = Arc::clone(&server.shared().clock);
    let mut v: Vec<Box<dyn Checker>> = Vec::new();

    // SET-then-GET with a pre-supplied key: perfect accuracy, API level.
    {
        let client = server.client();
        let n = AtomicU64::new(0);
        v.push(Box::new(probe_checker(
            "kvs.probe.set_get",
            "kvs.api",
            "set_get",
            Arc::clone(&clock),
            Some(opts.probe_slow_threshold),
            move || -> BaseResult<()> {
                let i = n.fetch_add(1, Ordering::Relaxed);
                let key = format!("{KEY_PROBE_PREFIX}probe:{}", i % 4);
                let val = format!("probe-{i}");
                client.set(&key, &val)?;
                let got = client.get(&key)?;
                if got.as_deref() != Some(val.as_str()) {
                    return Err(BaseError::Corruption(format!(
                        "probe read back {:?}, expected {:?}",
                        got, val
                    )));
                }
                Ok(())
            },
        )));
    }

    // DEL contract: delete then read must observe absence.
    {
        let client = server.client();
        v.push(Box::new(probe_checker(
            "kvs.probe.del",
            "kvs.api",
            "del",
            Arc::clone(&clock),
            Some(opts.probe_slow_threshold),
            move || -> BaseResult<()> {
                let key = format!("{KEY_PROBE_PREFIX}probe:del");
                client.set(&key, "x")?;
                client.del(&key)?;
                if client.get(&key)?.is_some() {
                    return Err(BaseError::Corruption(
                        "deleted probe key still readable".into(),
                    ));
                }
                Ok(())
            },
        )));
    }

    // APPEND contract.
    {
        let client = server.client();
        v.push(Box::new(probe_checker(
            "kvs.probe.append",
            "kvs.api",
            "append",
            clock,
            Some(opts.probe_slow_threshold),
            move || -> BaseResult<()> {
                let key = format!("{KEY_PROBE_PREFIX}probe:app");
                client.set(&key, "a")?;
                client.append(&key, "b")?;
                let got = client.get(&key)?;
                if got.as_deref() != Some("ab") {
                    return Err(BaseError::Corruption(format!(
                        "append probe read back {:?}",
                        got
                    )));
                }
                client.del(&key)?;
                Ok(())
            },
        )));
    }

    v
}

/// The paper's signal checkers: health-indicator monitors.
pub fn signal_checkers(server: &KvsServer, opts: &WdOptions) -> Vec<Box<dyn Checker>> {
    let monitor = server.monitor();
    let clock: SharedClock = Arc::clone(&server.shared().clock);
    let mut v: Vec<Box<dyn Checker>> = vec![
        Box::new(memory_watermark(
            "kvs.signal.memory",
            "kvs",
            monitor.clone(),
            opts.memory_watermark,
        )),
        Box::new(queue_depth(
            "kvs.signal.request_queue",
            "kvs.listener",
            monitor.clone(),
            "requests",
            opts.queue_threshold,
        )),
        Box::new(queue_depth(
            "kvs.signal.wal_queue",
            "kvs.flusher",
            monitor.clone(),
            "wal",
            opts.queue_threshold,
        )),
        Box::new(sleep_drift(
            "kvs.signal.sleep_drift",
            "kvs",
            Arc::clone(&clock),
            server.stall(),
            Duration::from_millis(10),
            Duration::from_millis(500),
        )),
        Box::new(disk_space(
            "kvs.signal.disk_space",
            "kvs",
            server.disk(),
            0.9,
        )),
    ];
    if server.config().replication.is_some() {
        v.push(Box::new(queue_depth(
            "kvs.signal.repl_queue",
            "kvs.replication",
            monitor,
            "replication",
            opts.queue_threshold,
        )));
    }
    v
}

/// Assembles the complete in-process watchdog for a running server.
///
/// Returns the driver (not yet started) and the generation plan, so callers
/// can inspect what AutoWatchdog produced before calling
/// [`WatchdogDriver::start`].
pub fn build_watchdog(
    server: &KvsServer,
    opts: &WdOptions,
) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
    let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
    let mut builder = wdog_target::watchdog_builder(
        opts,
        &server.shared().clock,
        &server.hooks(),
        &plan,
        &op_table(server),
    )?;
    if opts.families.probes {
        builder = builder.checkers(probe_checkers(server, opts));
    }
    if opts.families.signals {
        builder = builder.checkers(signal_checkers(server, opts));
    }
    builder = builder.checkers(wdog_target::inferred_checkers(
        opts,
        &server.context().reader(),
    ));
    Ok((builder.build()?, plan))
}

/// E6 ablation: an op table that trusts pre-supplied context instead of
/// live lookups (the sstable read op reads exactly the path in its context).
pub fn op_table_unsynced(server: &KvsServer) -> OpTable {
    let mut table = op_table(server);
    let shared = Arc::clone(server.shared());
    table.bind(
        "sst/",
        vec![(
            OpKind::DiskRead,
            Arc::new(move |snap: &ContextSnapshot, _: &[String]| {
                let path = snap
                    .get("sst_path")
                    .and_then(|v| v.as_str())
                    .unwrap_or("sst/00000000")
                    .to_owned();
                validate_sstable(&shared.disk, &path)
            }) as ResourceImpl,
        )],
    );
    table
}

/// E6 ablation: publish the *assumed* default contexts once, as a watchdog
/// without state synchronization would have been configured. On an
/// in-memory kvs this reproduces the paper's §3.1 spurious report: the disk
/// checker fires even though the main program never touches the disk.
pub fn publish_assumed_contexts(table: &Arc<ContextTable>) {
    table.publish(
        "listener_loop",
        vec![
            ("probe_key".into(), CtxValue::Str("assumed".into())),
            ("probe_val".into(), CtxValue::Str("assumed".into())),
        ],
    );
    table.publish(
        "wal_loop",
        vec![("payload".into(), CtxValue::Bytes(b"assumed".to_vec()))],
    );
    table.publish(
        "flusher_loop",
        vec![
            ("sst_payload".into(), CtxValue::Bytes(b"assumed".to_vec())),
            ("entry_count".into(), CtxValue::U64(0)),
        ],
    );
    table.publish(
        "compaction_loop",
        vec![
            ("sst_path".into(), CtxValue::Str("sst/00000000".into())),
            ("table_count".into(), CtxValue::U64(1)),
        ],
    );
    table.publish(
        "replication_loop",
        vec![("op_payload".into(), CtxValue::Bytes(b"assumed".to_vec()))],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KvsConfig;
    use simio::disk::SimDisk;
    use wdog_base::clock::RealClock;
    use wdog_gen::interp::{instantiate, InstantiateOptions};

    #[test]
    fn plan_generates_checker_per_active_region() {
        let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
        assert_eq!(plan.checkers.len(), 5, "{:#?}", plan.checkers);
    }

    #[test]
    fn build_watchdog_assembles_all_families() {
        let server = KvsServer::for_tests();
        let (driver, plan) = build_watchdog(&server, &WdOptions::default()).unwrap();
        let ids = driver.checker_ids();
        assert!(ids.len() >= plan.checkers.len() + 3 + 5);
        assert!(ids.iter().any(|i| i.as_str().contains("probe")));
        assert!(ids.iter().any(|i| i.as_str().contains("signal")));
        assert!(ids.iter().any(|i| i.as_str().contains("_checker")));
    }

    #[test]
    fn trace_arming_journals_publishes_and_inferred_family_registers() {
        use wdog_checkers::{InferredPredicate, InferredSpec};
        let server = KvsServer::for_tests();
        let clock: SharedClock = Arc::clone(&server.shared().clock);
        let recorder = TraceRecorder::new(clock);
        let opts = WdOptions {
            trace: Some(Arc::clone(&recorder)),
            inferred: vec![InferredSpec {
                id: "kvs.inferred.staleness.wal_loop".into(),
                component: "kvs.wal_loop".into(),
                key: "wal_loop".into(),
                support: 8,
                predicate: InferredPredicate::Staleness {
                    max_gap_us: 60_000_000,
                },
            }],
            ..WdOptions::default()
        };
        let (driver, _) = build_watchdog(&server, &opts).unwrap();
        assert!(
            driver
                .checker_ids()
                .iter()
                .any(|i| i.as_str() == "kvs.inferred.staleness.wal_loop"),
            "inferred spec not registered: {:?}",
            driver.checker_ids()
        );
        assert!(server.hooks().trace_attached());
        let client = server.client();
        let start = std::time::Instant::now();
        while recorder.is_empty() && start.elapsed() < Duration::from_secs(5) {
            client.set("traced", "v").unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = recorder.drain();
        assert!(!events.is_empty(), "no publishes journaled");
        assert!(events.iter().all(|e| !e.key.is_empty()));
    }

    #[test]
    fn watchdog_runs_clean_on_healthy_server() {
        let server = KvsServer::for_tests();
        let client = server.client();
        let opts = WdOptions {
            interval: Duration::from_millis(50),
            ..WdOptions::default()
        };
        let (mut driver, _) = build_watchdog(&server, &opts).unwrap();
        driver.start().unwrap();
        for i in 0..50 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_secs(5) && driver.stats().passes < 20 {
            std::thread::sleep(Duration::from_millis(10));
        }
        driver.stop();
        assert!(
            driver.log().is_empty(),
            "false alarms on healthy server: {:#?}",
            driver.log().reports()
        );
        assert!(driver.stats().passes >= 20);
    }

    #[test]
    fn unsynced_contexts_cause_spurious_report_on_in_memory_kvs() {
        // The paper's §3.1 example, as an executable test.
        let server = KvsServer::start(
            KvsConfig::in_memory(),
            RealClock::shared(),
            SimDisk::for_tests(),
            None,
        )
        .unwrap();
        let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
        let clock: SharedClock = RealClock::shared();

        // Properly synchronized: contexts never become ready, no reports.
        {
            let table = op_table(&server);
            let mut checkers = instantiate(
                &plan,
                &table,
                &server.context().reader(),
                &clock,
                &InstantiateOptions::default(),
            )
            .unwrap();
            for c in &mut checkers {
                assert_eq!(
                    c.check(),
                    CheckStatus::NotReady,
                    "synchronized checker ran without main-program state"
                );
            }
        }

        // Unsynced (assumed) contexts: the compaction checker validates a
        // snapshot file that was never created — a spurious failure.
        {
            let table = op_table_unsynced(&server);
            publish_assumed_contexts(&server.context());
            let mut checkers = instantiate(
                &plan,
                &table,
                &server.context().reader(),
                &clock,
                &InstantiateOptions::default(),
            )
            .unwrap();
            let spurious = checkers
                .iter_mut()
                .map(|c| c.check())
                .filter(|s| s.is_fail())
                .count();
            assert!(
                spurious >= 1,
                "expected at least one spurious report from assumed contexts"
            );
        }
    }
}
