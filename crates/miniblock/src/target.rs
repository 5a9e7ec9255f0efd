//! The [`WatchdogTarget`] implementation for miniblock.
//!
//! Like minizk, the DataNode exposes the *substrate* fault surface only:
//! its volumes live on a simulated disk and its NameNode link on a
//! simulated network, with no cooperative toggles or stall point. Disk
//! scenarios distinguish a *partial* failure (one volume, `blocks/vol1/`)
//! from store-wide ones (`blocks/`) — the HDFS single-bad-volume shape the
//! disk-checker evolution was built for.

use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;

use faults::catalog::{ids, Scenario, TargetProfile};
use faults::injector::Injector;

use wdog_core::prelude::*;
use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::WatchdogPlan;

use wdog_target::{
    catalog_for, ApiProbe, CrashSignal, FaultSurface, LivenessProbe, RecoveryMap, RequestFn,
    SimSubstrate, TargetInstance, WatchdogTarget, WdOptions, WorkloadProfile,
};

use crate::datanode::{DataNode, DataNodeConfig};
use crate::namenode::{NameNode, NAMENODE_ADDR};
use crate::wd::default_dn_options;

/// The miniblock target: one DataNode + NameNode on simulated substrates.
#[derive(Debug, Default, Clone, Copy)]
pub struct DnTarget;

/// Scenario locations mapped onto the DataNode's layout.
fn dn_profile() -> TargetProfile {
    // The mimicked block I/O, and the disk checker's volume sweep.
    let block = ids(&[
        "write_block#block_write",
        "scan_block#block_read",
        "dn.volumes",
    ]);
    TargetProfile {
        // "WAL" scenarios strike one volume (partial failure), the
        // "SSTable" scenarios the whole store.
        wal_prefix: "blocks/vol1/".into(),
        sst_prefix: "blocks/".into(),
        replica_src: "dn1".into(),
        replica_dst: NAMENODE_ADDR.into(),
        wal_blames: block.clone(),
        sst_blames: block,
        replication_blames: ids(&["miniblock.report_loop", "miniblock.heartbeat_loop"]),
        process_blames: ids(&[
            "dn.volumes",
            "miniblock.heartbeat_loop",
            "miniblock.ingest_loop",
            "miniblock.scanner_loop",
        ]),
        ..TargetProfile::default()
    }
}

impl WatchdogTarget for DnTarget {
    fn name(&self) -> &'static str {
        "miniblock"
    }

    fn describe_ir(&self) -> ProgramIr {
        crate::wd::describe_ir()
    }

    fn default_options(&self) -> WdOptions {
        default_dn_options()
    }

    fn catalog(&self) -> Vec<Scenario> {
        catalog_for(&dn_profile(), FaultSurface::SUBSTRATE)
    }

    fn start_on(&self, seed: u64, clock: SharedClock) -> BaseResult<Box<dyn TargetInstance>> {
        let sim = SimSubstrate::boot(seed, &clock);
        let namenode = NameNode::start(sim.net.clone(), Arc::clone(&clock), Duration::from_secs(1));
        let datanode = Arc::new(DataNode::start(
            DataNodeConfig::default(),
            clock,
            Arc::clone(&sim.disk),
            sim.net.clone(),
        )?);
        Ok(Box::new(DnInstance {
            sim,
            datanode,
            namenode: Some(namenode),
        }))
    }
}

/// One booted miniblock testbed.
pub struct DnInstance {
    sim: SimSubstrate,
    datanode: Arc<DataNode>,
    namenode: Option<NameNode>,
}

impl TargetInstance for DnInstance {
    fn build_watchdog(&self, opts: &WdOptions) -> BaseResult<(WatchdogDriver, WatchdogPlan)> {
        crate::wd::build_watchdog(&self.datanode, opts)
    }

    fn substrate(&self) -> &SimSubstrate {
        &self.sim
    }

    fn injector(&self, on_crash: CrashSignal) -> Injector {
        let crash_dn = Arc::clone(&self.datanode);
        self.sim.injector().with_crash_hook(Arc::new(move || {
            crash_dn.crash();
            on_crash();
        }))
    }

    fn workload(&self, _profile: &WorkloadProfile) -> RequestFn {
        // Block ids assigned by ingest, shared so readers pick real blocks.
        let written: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let dn = Arc::clone(&self.datanode);
        Arc::new(move |ticket| {
            if ticket.write || written.lock().unwrap().is_empty() {
                let data = format!("block-payload-{}", ticket.value);
                let id = dn.write_block(data.as_bytes())?;
                let mut ids = written.lock().unwrap();
                ids.push(id);
                // Bound the replay set so reads stay recent.
                if ids.len() > 512 {
                    ids.remove(0);
                }
                Ok(())
            } else {
                let ids = written.lock().unwrap();
                let id = ids[ticket.key % ids.len()];
                drop(ids);
                dn.read_block(id).map(|_| ())
            }
        })
    }

    fn api_probe(&self) -> ApiProbe {
        let dn = Arc::clone(&self.datanode);
        Arc::new(move || {
            let id = dn.write_block(b"__ext_probe")?;
            dn.read_block(id).map(|_| ())
        })
    }

    fn liveness_probe(&self) -> LivenessProbe {
        let dn = Arc::clone(&self.datanode);
        Arc::new(move || dn.is_running())
    }

    fn errors_handled(&self) -> u64 {
        // The scanner's in-place error handler is the DataNode's only
        // swallow-and-continue path.
        self.datanode.stats().scan_errors
    }

    fn recovery_map(&self) -> RecoveryMap {
        crate::recover::recovery_map(&self.datanode)
    }

    fn request_stop(&self) {
        self.datanode.crash();
        if let Some(nn) = &self.namenode {
            nn.request_stop();
        }
    }

    fn teardown(&mut self) {
        self.datanode.crash();
        if let Some(nn) = &mut self.namenode {
            nn.stop();
        }
        self.namenode = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dn_catalog_separates_partial_from_whole_store_faults() {
        let cat = DnTarget.catalog();
        assert_eq!(cat.len(), 7);
        let partial = cat.iter().find(|s| s.id == "partial-disk-stuck").unwrap();
        assert_eq!(
            partial.kind,
            faults::spec::FaultKind::DiskStuck {
                path_prefix: "blocks/vol1/".into()
            }
        );
        let slow = cat.iter().find(|s| s.id == "disk-fail-slow").unwrap();
        assert!(slow.expected.blames.iter().any(|id| id == "dn.volumes"));
    }

    #[test]
    fn booted_instance_probes_and_serves_workload() {
        let mut inst = DnTarget.start_on(4, RealClock::shared()).unwrap();
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
        // After teardown the API refuses requests — crash semantics.
        assert!(inst.api_probe()().is_err());
    }
}
