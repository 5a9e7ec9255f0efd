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

use faults::catalog::{Scenario, TargetProfile};
use faults::injector::Injector;

use wdog_core::prelude::*;
use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::WatchdogPlan;

use wdog_target::{
    catalog_for, ApiProbe, CrashSignal, FaultSurface, LivenessProbe, RecoveryMap, RequestFn,
    SimSubstrate, TargetInstance, WatchdogTarget, WdOptions, WorkloadProfile,
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

    fn start_on(&self, seed: u64, clock: SharedClock) -> BaseResult<Box<dyn TargetInstance>> {
        let sim = SimSubstrate::boot(seed, &clock);
        let replica = Replica::spawn(sim.net.clone(), "kvs-replica");
        let server = Arc::new(KvsServer::start(
            KvsConfig {
                client_timeout: Duration::from_millis(400),
                flush_interval: Duration::from_millis(30),
                compaction_interval: Duration::from_millis(30),
                compaction_trigger: 3,
                ..KvsConfig::replicated()
            },
            clock,
            Arc::clone(&sim.disk),
            Some(sim.net.clone()),
        )?);
        Ok(Box::new(KvsInstance {
            sim,
            server,
            replica: Some(replica),
        }))
    }
}

/// One booted kvs testbed.
pub struct KvsInstance {
    sim: SimSubstrate,
    server: Arc<KvsServer>,
    replica: Option<Replica>,
}

impl TargetInstance for KvsInstance {
    fn build_watchdog(&self, opts: &WdOptions) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
        crate::wd::build_watchdog(&self.server, opts)
    }

    fn substrate(&self) -> &SimSubstrate {
        &self.sim
    }

    fn injector(&self, on_crash: CrashSignal) -> Injector {
        let crash_server = Arc::clone(&self.server);
        self.sim
            .injector()
            .with_stall(self.server.stall())
            .with_toggles(self.server.toggles())
            .with_crash_hook(Arc::new(move || {
                crash_server.crash();
                on_crash();
            }))
    }

    fn workload(&self, _profile: &WorkloadProfile) -> RequestFn {
        let client = self.server.client();
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
        })
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
        if let Some(r) = &self.replica {
            r.request_stop();
        }
        self.server.crash();
    }

    fn recovery_map(&self) -> RecoveryMap {
        crate::recover::recovery_map(&self.server)
    }

    fn teardown(&mut self) {
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
        let profile = WorkloadProfile {
            threads: 2,
            period: Duration::from_millis(2),
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
        let (ok, _failed) = workload.counters();
        assert!(ok > 10, "workload too slow: {ok}");
        inst.teardown();
    }
}
