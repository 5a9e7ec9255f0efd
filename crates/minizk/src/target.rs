//! The [`WatchdogTarget`] implementation for minizk.
//!
//! minizk exposes the *substrate* fault surface: its txn log and snapshot
//! path live on a simulated disk and its leader→follower links on a
//! simulated network, but it has no cooperative fault toggles and no stall
//! point, so its profile has no cooperative section and its catalogue holds
//! the disk, network, and crash scenarios. All disk faults land on the
//! `txnlog/` volume and the replication scenarios wedge the leader→follower-0
//! link. The scenario runner starts a sync to that same follower at the
//! injection instant ([`TargetInstance::exercise_auxiliary`]), so
//! `replication-link-wedged` is ZOOKEEPER-2201 itself: the sync blocks
//! inside the write critical section and every write hangs (experiment E4,
//! `harness::zk2201`).

use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;

use faults::catalog::{gray_failure_catalog, ids, Scenario, TargetProfile};
use faults::injector::Injector;

use wdog_core::prelude::*;
use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::WatchdogPlan;

use wdog_target::{
    ApiProbe, CrashSignal, LivenessProbe, RecoveryMap, RequestFn, SimSubstrate, TargetInstance,
    WatchdogTarget, WdOptions, WorkloadProfile,
};

use crate::quorum::{follower_addr, Cluster, ClusterConfig, LEADER_ADDR};
use crate::wd::default_zk_options;

/// Node the external API probe round-trips through.
const PROBE_NODE: &str = "/__probe";

/// The minizk target: leader + followers on simulated disk + network.
#[derive(Debug, Default, Clone, Copy)]
pub struct ZkTarget;

/// Scenario locations mapped onto minizk's layout.
fn zk_profile() -> TargetProfile {
    let txnlog = ids(&["sync_txn#append", "sync_txn#fsync"]);
    TargetProfile {
        wal_prefix: "txnlog/".into(),
        sst_prefix: "txnlog/".into(),
        replica_src: LEADER_ADDR.into(),
        replica_dst: follower_addr(0),
        wal_blames: txnlog.clone(),
        sst_blames: txnlog,
        replication_blames: ids(&["minizk.broadcast_loop"]),
        process_blames: ids(&[
            "minizk.api",
            "minizk.broadcast_loop",
            "minizk.processors",
            "minizk.quorum",
            "minizk.request_processor_loop",
            "minizk.snapshot_sync_loop",
        ]),
        cooperative: None,
    }
}

impl WatchdogTarget for ZkTarget {
    fn name(&self) -> &'static str {
        "minizk"
    }

    fn describe_ir(&self) -> ProgramIr {
        crate::wd::describe_ir()
    }

    fn default_options(&self) -> WdOptions {
        default_zk_options()
    }

    fn catalog(&self) -> Vec<Scenario> {
        gray_failure_catalog(&zk_profile())
    }

    fn start_on(&self, seed: u64, clock: SharedClock) -> BaseResult<Box<dyn TargetInstance>> {
        let sim = SimSubstrate::boot(seed, &clock);
        let cluster = Arc::new(Cluster::start(
            ClusterConfig {
                client_timeout: Duration::from_millis(500),
                ..ClusterConfig::default()
            },
            clock,
            Arc::clone(&sim.disk),
            sim.net.clone(),
        )?);
        cluster.create(PROBE_NODE, b"probe")?;
        Ok(Box::new(ZkInstance { sim, cluster }))
    }
}

/// One booted minizk testbed.
pub struct ZkInstance {
    sim: SimSubstrate,
    cluster: Arc<Cluster>,
}

impl TargetInstance for ZkInstance {
    fn build_watchdog(&self, opts: &WdOptions) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
        crate::wd::build_watchdog(&self.cluster, opts)
    }

    fn substrate(&self) -> &SimSubstrate {
        &self.sim
    }

    fn injector(&self, on_crash: CrashSignal) -> Injector {
        let crash_cluster = Arc::clone(&self.cluster);
        self.sim.injector().with_crash_hook(Arc::new(move || {
            crash_cluster.crash();
            on_crash();
        }))
    }

    fn workload(&self, profile: &WorkloadProfile) -> RequestFn {
        // Pre-create the key space so the steady mix is pure
        // set_data/get_data (creates of existing paths would count as
        // spurious client failures).
        let _ = self.cluster.create("/wl", b"root");
        for k in 0..profile.keys.max(1) {
            let _ = self.cluster.create(&format!("/wl/n{k}"), b"initial");
        }
        let cluster = Arc::clone(&self.cluster);
        Arc::new(move |ticket| {
            let path = format!("/wl/n{}", ticket.key);
            if ticket.write {
                cluster
                    .set_data(&path, format!("v{}", ticket.value).as_bytes())
                    .map(|_| ())
            } else {
                cluster.get_data(&path).map(|_| ())
            }
        })
    }

    fn exercise_auxiliary(&self) {
        // Kick a follower snapshot sync: the one minizk path the steady
        // create/set/get workload never reaches. Fire-and-forget — the
        // sync runs on its own (sim-actor) thread, so a frozen-time caller
        // never deadlocks waiting on virtual latencies.
        drop(self.cluster.sync_follower(0));
    }

    fn api_probe(&self) -> ApiProbe {
        let cluster = Arc::clone(&self.cluster);
        Arc::new(move || {
            cluster.set_data(PROBE_NODE, b"x")?;
            cluster.get_data(PROBE_NODE).map(|_| ())
        })
    }

    fn liveness_probe(&self) -> LivenessProbe {
        let cluster = Arc::clone(&self.cluster);
        Arc::new(move || cluster.admin_ruok() == "imok")
    }

    fn errors_handled(&self) -> u64 {
        // minizk has no in-process error-absorption counter; the
        // error-handler baseline simply never fires here.
        0
    }

    fn request_stop(&self) {
        self.cluster.request_stop();
    }

    fn recovery_map(&self) -> RecoveryMap {
        crate::recover::recovery_map(&self.cluster)
    }

    fn teardown(&mut self) {
        // Flip the running flag so cluster threads exit; the final Arc drop
        // joins them (Cluster::drop → stop).
        self.cluster.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zk_catalog_is_substrate_only_with_minizk_blames() {
        let cat = ZkTarget.catalog();
        assert_eq!(cat.len(), 7);
        assert!(cat.iter().all(|s| !s.kind.label().starts_with("task")));
        assert!(cat
            .iter()
            .all(|s| s.expected.blames.iter().all(|id| !id.starts_with("kvs"))));
        let wedged = cat
            .iter()
            .find(|s| s.id == "replication-link-wedged")
            .unwrap();
        assert_eq!(
            wedged.kind,
            faults::spec::FaultKind::NetBlockSend {
                src: LEADER_ADDR.into(),
                dst: follower_addr(0),
            }
        );
    }

    #[test]
    fn booted_instance_probes_and_serves_workload() {
        let mut inst = ZkTarget.start_on(3, RealClock::shared()).unwrap();
        inst.api_probe()().unwrap();
        assert!(inst.liveness_probe()());
        let profile = WorkloadProfile {
            threads: 2,
            period: Duration::from_millis(2),
            keys: 16,
            ..WorkloadProfile::default()
        };
        let mut workload = wdog_target::spawn_workload_on(
            &RealClock::shared(),
            &profile,
            None,
            inst.workload(&profile),
        );
        std::thread::sleep(Duration::from_millis(200));
        workload.stop();
        let (ok, failed) = workload.counters();
        assert!(ok > 10, "workload too slow: ok={ok} failed={failed}");
        assert_eq!(failed, 0);
        inst.teardown();
    }
}
