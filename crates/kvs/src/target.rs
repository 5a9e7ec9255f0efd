//! The [`WatchdogTarget`] implementation for kvs — the reference target.
//!
//! kvs is the one system wired to the *full* fault surface: simulated disk
//! and network, a stall point for runtime pauses, cooperative toggles in
//! the compaction/indexer/listener paths, and a crash hook. Its catalogue
//! is therefore the entire shared gray-failure catalogue, and the default
//! [`TargetProfile`] already describes its layout.

use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;

use simio::disk::SimDisk;
use simio::net::SimNet;
use simio::LatencyModel;

use faults::catalog::{Scenario, TargetProfile};
use faults::injector::Injector;

use wdog_core::prelude::*;
use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::WatchdogPlan;

use wdog_target::{
    catalog_for, spawn_workload_on, ApiProbe, CrashSignal, FaultSurface, LivenessProbe,
    RecoverySurface, TargetInstance, WatchdogTarget, WdOptions, WorkloadHandle, WorkloadObserver,
    WorkloadProfile,
};

use crate::config::KvsConfig;
use crate::replication::Replica;
use crate::server::KvsServer;

/// The kvs target: replicated LSM store on simulated disk + network.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvsTarget;

impl WatchdogTarget for KvsTarget {
    fn name(&self) -> &'static str {
        "kvs"
    }

    fn describe_ir(&self) -> ProgramIr {
        crate::wd::describe_ir()
    }

    fn default_options(&self) -> WdOptions {
        WdOptions::default()
    }

    fn catalog(&self) -> Vec<Scenario> {
        catalog_for(&TargetProfile::default(), FaultSurface::FULL)
    }

    fn components(&self) -> Vec<String> {
        // Everything a kvs report can blame, beyond the catalogue's hints:
        // chaos pinpoint accounting treats blame on any of these as a
        // mislocated detection when no active fault implicates it.
        [
            "wal", "sst", "compact", "repl", "index", "memory", "api", "listener", "kvs",
        ]
        .map(str::to_owned)
        .to_vec()
    }

    fn start_on(&self, seed: u64, clock: SharedClock) -> BaseResult<Box<dyn TargetInstance>> {
        let net = SimNet::new(
            LatencyModel::new(30.0, derive_seed(seed, "net")),
            Arc::clone(&clock),
        );
        let disk = SimDisk::new(
            1 << 30,
            LatencyModel::new(20.0, derive_seed(seed, "disk")),
            Arc::clone(&clock),
        );
        let replica = Replica::spawn(net.clone(), "kvs-replica");
        let server = Arc::new(KvsServer::start(
            KvsConfig {
                client_timeout: Duration::from_millis(400),
                flush_interval: Duration::from_millis(30),
                compaction_interval: Duration::from_millis(30),
                compaction_trigger: 3,
                ..KvsConfig::replicated()
            },
            Arc::clone(&clock),
            Arc::clone(&disk),
            Some(net.clone()),
        )?);
        Ok(Box::new(KvsInstance {
            clock,
            net,
            disk,
            server,
            replica: Some(replica),
            workload: None,
        }))
    }
}

/// One booted kvs testbed.
pub struct KvsInstance {
    clock: SharedClock,
    net: SimNet,
    disk: Arc<SimDisk>,
    server: Arc<KvsServer>,
    replica: Option<Replica>,
    workload: Option<WorkloadHandle>,
}

impl TargetInstance for KvsInstance {
    fn build_watchdog(&self, opts: &WdOptions) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
        crate::wd::build_watchdog(&self.server, opts)
    }

    fn injector(&self, on_crash: CrashSignal) -> Injector {
        let crash_server = Arc::clone(&self.server);
        Injector::new()
            .with_disk(Arc::clone(&self.disk))
            .with_net(self.net.clone())
            .with_stall(self.server.stall())
            .with_toggles(self.server.toggles())
            .with_clock(Arc::clone(&self.clock))
            .with_crash_hook(Arc::new(move || {
                crash_server.crash();
                on_crash();
            }))
    }

    fn start_workload(&mut self, profile: &WorkloadProfile, observer: Option<WorkloadObserver>) {
        let client = self.server.client();
        self.workload = Some(spawn_workload_on(
            &self.clock,
            profile,
            observer,
            Arc::new(move |ticket| {
                let key = format!("wl-key-{}", ticket.key);
                if ticket.write {
                    match ticket.roll {
                        0 => client.del(&key),
                        1 | 2 => client.append(&key, "x"),
                        _ => client.set(&key, &format!("v{}", ticket.value)),
                    }
                } else {
                    client.get(&key).map(|_| ())
                }
            }),
        ));
    }

    fn workload_counters(&self) -> (u64, u64) {
        self.workload
            .as_ref()
            .map(|w| w.counters())
            .unwrap_or((0, 0))
    }

    fn stop_workload(&mut self) {
        if let Some(w) = &mut self.workload {
            w.stop();
        }
    }

    fn api_probe(&self) -> ApiProbe {
        let client = self.server.client();
        Arc::new(move || {
            let key = "__ext_probe";
            client.set(key, "x")?;
            client.get(key).map(|_| ())
        })
    }

    fn liveness_probe(&self) -> LivenessProbe {
        let server = Arc::clone(&self.server);
        Arc::new(move || server.is_running())
    }

    fn errors_handled(&self) -> u64 {
        self.server.stats().errors_handled
    }

    fn request_stop(&self) {
        if let Some(w) = &self.workload {
            w.request_stop();
        }
        if let Some(r) = &self.replica {
            r.request_stop();
        }
        self.server.crash();
    }

    fn recovery_surface(&self) -> Option<RecoverySurface> {
        Some(crate::recover::recovery_surface(&self.server))
    }

    fn io_stats(&self) -> Option<(simio::disk::DiskOpStats, simio::net::NetOpStats)> {
        Some((self.disk.op_stats(), self.net.op_stats()))
    }

    fn clear_faults(&self) {
        self.disk.clear_all();
        self.net.clear_all();
        self.server.toggles().clear_all();
        self.server.stall().set_stalled(false);
    }

    fn teardown(&mut self) {
        self.stop_workload();
        // Dropping the replica joins its receive thread; the server's own
        // threads stop when the last Arc drops with the instance.
        self.replica = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvs_catalog_is_the_full_catalogue() {
        let cat = KvsTarget.catalog();
        assert_eq!(cat.len(), 12);
    }

    #[test]
    fn booted_instance_serves_probe_and_liveness() {
        let mut inst = KvsTarget.start_on(1, RealClock::shared()).unwrap();
        let probe = inst.api_probe();
        probe().unwrap();
        assert!(inst.liveness_probe()());
        let (driver, plan) = inst.build_watchdog(&KvsTarget.default_options()).unwrap();
        assert!(!plan.checkers.is_empty());
        drop(driver);
        inst.teardown();
    }

    #[test]
    fn workload_runs_through_the_trait() {
        let mut inst = KvsTarget.start_on(2, RealClock::shared()).unwrap();
        inst.start_workload(
            &WorkloadProfile {
                threads: 2,
                period: Duration::from_millis(2),
                ..WorkloadProfile::default()
            },
            None,
        );
        std::thread::sleep(Duration::from_millis(200));
        inst.stop_workload();
        let (ok, _failed) = inst.workload_counters();
        assert!(ok > 10, "workload too slow: {ok}");
        inst.teardown();
    }
}
