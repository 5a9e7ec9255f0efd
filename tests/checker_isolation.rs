//! Checker isolation is enforced where mutations happen.
//!
//! Inside `wdog_base::isolation::scope()` — where the driver runs every
//! checker and the recovery coordinator every verifier — each choke point a
//! mutation of the watched program passes through refuses an untagged one
//! before it takes effect: the six `SimDisk` mutators, `SimNet::send`, the
//! kvs index and client, and minizk's write pipeline. Each test below fails
//! if its guard line (or the scope line of the runner it drives) is
//! deleted: the mutation would then land.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use kvs::index::MemIndex;
use kvs::server::KvsServer;
use miniblock::namenode::{NnMsg, NAMENODE_ADDR};
use miniblock::NameNode;
use minizk::quorum::Cluster;
use simio::{LatencyModel, SimClock, SimDisk, SimNet};
use wdog_base::clock::RealClock;
use wdog_base::error::BaseResult;
use wdog_base::isolation::{self, PROBE_FRAME};
use wdog_core::prelude::*;
use wdog_recover::{RecoveryCoordinator, RecoveryOutcome, RecoveryPolicy};
use wdog_target::{RecoveryMap, Verifier};

const MS: fn(u64) -> Duration = Duration::from_millis;

/// Runs `f` inside a checker scope; `Err` when the guard refused it.
fn scoped<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    catch_unwind(AssertUnwindSafe(|| {
        let _isolated = isolation::scope();
        f()
    }))
}

/// The miniblock heartbeat the static lint once let a verifier send: a
/// real `Heartbeat` frame on `dn1 → bb-namenode`. From a checker it must
/// never reach the NameNode, or a dead DataNode would look alive.
#[test]
fn a_checker_cannot_send_a_real_heartbeat() {
    let clock: SharedClock = Arc::new(SimClock::new());
    let main = clock.actor("test-main").adopt();
    let net = SimNet::new(LatencyModel::zero(), Arc::clone(&clock));
    let mut nn = NameNode::start(net.clone(), Arc::clone(&clock), Duration::from_secs(60));
    let heartbeat = || {
        let frame = NnMsg::Heartbeat {
            datanode: "dn1".into(),
        };
        net.send("dn1", NAMENODE_ADDR, frame.encode())
    };

    // Every assertion waits for the teardown: a panic while the NameNode
    // actor runs would join it with the test actor still adopted.
    let refused = scoped(heartbeat).is_err();
    let probe = scoped(|| net.send("dn1", NAMENODE_ADDR, PROBE_FRAME.into()));
    clock.sleep(MS(100));
    let alive_after_refusal = nn.datanode_alive("dn1");
    // Outside a scope the same frame is the DataNode's own heartbeat.
    let sent = heartbeat();
    clock.sleep(MS(100));
    let alive_after_heartbeat = nn.datanode_alive("dn1");
    nn.request_stop();
    main.retire();
    nn.stop();

    assert!(refused, "the heartbeat left the checker");
    assert!(
        matches!(probe, Ok(Ok(()))),
        "a probe frame passes: {probe:?}"
    );
    assert!(!alive_after_refusal, "the NameNode saw a heartbeat");
    sent.expect("the NameNode is registered");
    assert!(alive_after_heartbeat);
}

type DiskOp = fn(&SimDisk, &str) -> BaseResult<()>;

/// Each mutator on the existing file `p` (`create` and `rename` name a
/// second path beside it).
const DISK_MUTATORS: [(&str, DiskOp); 6] = [
    ("create", |d, p| d.create(&format!("{p}.new"))),
    ("append", |d, p| d.append(p, b"xy")),
    ("write_all", |d, p| d.write_all(p, b"xy")),
    ("fsync", |d, p| d.fsync(p)),
    ("remove", |d, p| d.remove(p)),
    ("rename", |d, p| d.rename(p, &format!("{p}.renamed"))),
];

/// A disk holding `path` = `abcde`, of which `abc` is synced.
fn prepared(path: &str) -> Arc<SimDisk> {
    let disk = SimDisk::for_tests();
    disk.append(path, b"abc").unwrap();
    disk.fsync(path).unwrap();
    disk.append(path, b"de").unwrap();
    disk
}

fn files(disk: &SimDisk) -> Vec<(String, usize)> {
    let paths = disk.list("");
    paths
        .into_iter()
        .map(|p| {
            let len = disk.len(&p).unwrap();
            (p, len)
        })
        .collect()
}

#[test]
fn each_disk_mutator_refuses_an_untagged_path_inside_a_scope() {
    // `rename` checks both names: either one untagged is refused.
    let renames: [(&str, DiskOp, &str); 2] = [
        (
            "rename to a tagged path",
            |d, p| d.rename(p, "data/__wd_g"),
            "data/f",
        ),
        (
            "rename to an untagged path",
            |d, p| d.rename(p, "data/f"),
            "data/__wd_f",
        ),
    ];
    let cases = DISK_MUTATORS
        .map(|(name, op)| (name, op, "data/f"))
        .into_iter()
        .chain(renames);
    for (name, op, path) in cases {
        let disk = prepared(path);
        let (stats, before) = (disk.op_stats(), files(&disk));
        assert!(
            scoped(|| op(&disk, path)).is_err(),
            "{name} mutated {path} inside a checker"
        );
        assert_eq!(disk.op_stats(), stats, "{name}: a refused op was counted");
        assert_eq!(files(&disk), before, "{name}: a refused op changed a file");
        // Only the synced prefix survives a crash: a refused op moved no
        // `synced_len`.
        disk.crash();
        assert_eq!(files(&disk), [(path.to_owned(), 3)], "{name}: synced_len");
    }
}

#[test]
fn disk_mutators_pass_on_a_tagged_path_or_outside_a_scope() {
    for (name, op) in DISK_MUTATORS {
        let disk = prepared("data/__wd_f");
        scoped(|| op(&disk, "data/__wd_f"))
            .unwrap_or_else(|_| panic!("{name} refused a tagged path"))
            .unwrap_or_else(|e| panic!("{name} on a tagged path: {e}"));
        let disk = prepared("data/f");
        op(&disk, "data/f").unwrap_or_else(|e| panic!("{name} outside a scope: {e}"));
    }
}

#[test]
fn kvs_index_and_client_take_only_tagged_keys_from_a_checker() {
    let index = MemIndex::for_tests();
    assert!(scoped(|| index.put("k", "v")).is_err());
    index.put("r", "v");
    assert!(scoped(|| index.append("r", "w")).is_err());
    assert!(scoped(|| index.remove("r")).is_err());
    assert_eq!(index.get("r").as_deref(), Some("v"));
    scoped(|| {
        index.put("__wd:k", "v");
        index.remove("__wd:k");
    })
    .expect("tagged keys pass");
    assert_eq!(index.get("k"), None);

    let server = KvsServer::for_tests();
    let client = server.client();
    assert!(scoped(|| client.set("k", "v")).is_err());
    scoped(|| client.set("__wd:k", "v"))
        .expect("a tagged key passes")
        .expect("the server is up");
    assert_eq!(client.get("k").unwrap(), None, "the refused set landed");
    assert_eq!(client.get("__wd:k").unwrap().as_deref(), Some("v"));
}

/// Through the driver, a refused mutation is one `CheckerPanic` report.
#[test]
fn a_checker_writing_an_untagged_key_is_reported_as_a_panic() {
    let clock: SharedClock = Arc::new(SimClock::new());
    let main = clock.actor("test-main").adopt();
    let index = MemIndex::for_tests();
    let written = index.clone();
    let mut driver = WatchdogDriver::builder()
        .config(WatchdogConfig {
            policy: SchedulePolicy::every(MS(100)),
            default_timeout: MS(500),
            health_window: Duration::from_secs(10),
            spawn_order_seed: None,
        })
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new("writer", "kvs.index", move || {
            written.put("k", "v");
            CheckStatus::Pass
        })))
        .build()
        .unwrap();
    driver.start().unwrap();
    clock.sleep(MS(50)); // One round, dispatched at t = 0.
    driver.request_stop();
    main.retire();
    driver.stop();

    let kinds: Vec<FailureKind> = driver.log().reports().iter().map(|r| r.kind).collect();
    assert_eq!(kinds, [FailureKind::CheckerPanic]);
    assert_eq!(index.get("k"), None, "the refused put landed");
}

#[test]
fn minizk_writes_from_a_checker_need_a_tagged_path() {
    let cluster = Cluster::for_tests();
    assert!(scoped(|| cluster.create("/x", b"v")).is_err());
    scoped(|| cluster.create("/__wd_recover", b"v"))
        .expect("a tagged znode passes")
        .expect("the pipeline is up");
    assert!(cluster.get_data("/x").is_err(), "the refused create landed");
    cluster.create("/x", b"v").expect("outside a scope");
}

/// The in-place round runs its checkers in the scope too (the refusal
/// reaches its caller: nothing catches a panic in place), and so does the
/// recovery coordinator's verifier: a refused verifier is a failed
/// verification, so the incident degrades instead of closing recovered.
#[test]
fn inline_rounds_and_recovery_verifiers_run_in_the_scope() {
    let index = MemIndex::for_tests();
    let written = index.clone();
    let mut driver = WatchdogDriver::builder()
        .checker(Box::new(FnChecker::new("writer", "kvs.index", move || {
            written.put("k", "v");
            CheckStatus::Pass
        })))
        .build()
        .unwrap();
    assert!(catch_unwind(AssertUnwindSafe(|| driver.run_inline_round())).is_err());
    assert_eq!(index.get("k"), None, "the inline round's put landed");

    let written = index.clone();
    let verifier = Verifier::new("writer.verify", move || {
        written.put("k", "v");
        Ok(())
    });
    let clock = RealClock::shared();
    let surface = RecoveryMap::new(Arc::clone(&clock))
        .with(&["kvs.index"], None, None, &verifier)
        .surface();
    let coordinator = RecoveryCoordinator::builder(clock, surface)
        .default_policy(RecoveryPolicy {
            max_retries: 0,
            max_restarts: 1,
            ..RecoveryPolicy::fast()
        })
        .start();
    coordinator.on_failure(&FailureReport {
        checker: CheckerId::new("kvs.index_checker"),
        kind: FailureKind::Error,
        location: FaultLocation::new("kvs.index", "f"),
        detail: "induced".into(),
        payload: vec![],
        observed_latency_ms: None,
        at_ms: 0,
    });
    assert!(coordinator.wait_idle(Duration::from_secs(10)));
    coordinator.stop();
    let incidents = coordinator.incidents();
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].outcome, RecoveryOutcome::Degraded);
    assert!(incidents[0].verifications >= 1);
    assert_eq!(index.get("k"), None, "the verifier's put landed");
}
