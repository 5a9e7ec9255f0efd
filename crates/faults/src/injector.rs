//! Binding fault specs to live substrate handles.

use std::sync::Arc;

use simio::disk::{DiskFault, DiskOpKind, FaultRule, SimDisk};
use simio::net::{LinkRule, NetFault, SimNet};
use simio::resource::StallPoint;

use wdog_base::clock::SharedClock;
use wdog_base::error::{BaseError, BaseResult};

use crate::spec::FaultKind;
use crate::toggle::ToggleSet;

/// A cleared-able handle to one armed fault.
#[derive(Debug)]
pub enum ArmedFault {
    /// Disk fault handle(s).
    Disk(Vec<simio::disk::FaultHandle>),
    /// Network fault handle(s).
    Net(Vec<simio::net::NetFaultHandle>),
    /// A set toggle, cleared by name.
    Toggle(String),
    /// The process stall gate.
    Stall,
    /// A crash; crashes are not clearable.
    Crash,
}

/// Arms and clears faults against one simulated process's substrates.
///
/// Built with whatever handles the experiment has; injecting a fault whose
/// substrate is missing returns [`BaseError::InvalidState`] so a campaign
/// never silently skips an injection.
#[derive(Clone, Default)]
pub struct Injector {
    disk: Option<Arc<SimDisk>>,
    net: Option<SimNet>,
    stall: Option<StallPoint>,
    toggles: Option<ToggleSet>,
    crash_hook: Option<Arc<dyn Fn() + Send + Sync>>,
    clock: Option<SharedClock>,
}

impl Injector {
    /// Creates an injector with no substrates bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the disk.
    pub fn with_disk(mut self, disk: Arc<SimDisk>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Binds the network.
    pub fn with_net(mut self, net: SimNet) -> Self {
        self.net = Some(net);
        self
    }

    /// Binds the process stall gate.
    pub fn with_stall(mut self, stall: StallPoint) -> Self {
        self.stall = Some(stall);
        self
    }

    /// Binds the cooperative toggle set.
    pub fn with_toggles(mut self, toggles: ToggleSet) -> Self {
        self.toggles = Some(toggles);
        self
    }

    /// Binds the crash hook invoked by [`FaultKind::ProcessCrash`].
    pub fn with_crash_hook(mut self, hook: Arc<dyn Fn() + Send + Sync>) -> Self {
        self.crash_hook = Some(hook);
        self
    }

    /// Binds the clock used for timed faults (pauses, schedules).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    fn disk(&self) -> BaseResult<&Arc<SimDisk>> {
        self.disk
            .as_ref()
            .ok_or_else(|| BaseError::InvalidState("injector has no disk bound".into()))
    }

    fn net(&self) -> BaseResult<&SimNet> {
        self.net
            .as_ref()
            .ok_or_else(|| BaseError::InvalidState("injector has no network bound".into()))
    }

    fn toggles(&self) -> BaseResult<&ToggleSet> {
        self.toggles
            .as_ref()
            .ok_or_else(|| BaseError::InvalidState("injector has no toggles bound".into()))
    }

    /// Arms one fault and returns its handle.
    pub fn inject(&self, kind: &FaultKind) -> BaseResult<ArmedFault> {
        match kind {
            FaultKind::ProcessCrash => {
                let hook = self.crash_hook.as_ref().ok_or_else(|| {
                    BaseError::InvalidState("injector has no crash hook bound".into())
                })?;
                hook();
                Ok(ArmedFault::Crash)
            }
            FaultKind::DiskStuck { path_prefix } => {
                let h = self.disk()?.inject(FaultRule::scoped(
                    path_prefix.clone(),
                    vec![DiskOpKind::Read, DiskOpKind::Write, DiskOpKind::Sync],
                    DiskFault::Stuck,
                ));
                Ok(ArmedFault::Disk(vec![h]))
            }
            FaultKind::DiskSlow {
                path_prefix,
                factor,
            } => {
                let h = self.disk()?.inject(FaultRule::scoped(
                    path_prefix.clone(),
                    vec![DiskOpKind::Read, DiskOpKind::Write, DiskOpKind::Sync],
                    DiskFault::Slow { factor: *factor },
                ));
                Ok(ArmedFault::Disk(vec![h]))
            }
            FaultKind::DiskError { path_prefix } => {
                let h = self.disk()?.inject(FaultRule::scoped(
                    path_prefix.clone(),
                    vec![DiskOpKind::Read, DiskOpKind::Write, DiskOpKind::Sync],
                    DiskFault::Error {
                        message: "injected i/o error".into(),
                    },
                ));
                Ok(ArmedFault::Disk(vec![h]))
            }
            FaultKind::DiskCorruptWrites { path_prefix } => {
                let h = self.disk()?.inject(FaultRule::scoped(
                    path_prefix.clone(),
                    vec![DiskOpKind::Write],
                    DiskFault::CorruptWrites,
                ));
                Ok(ArmedFault::Disk(vec![h]))
            }
            FaultKind::NetBlockSend { src, dst } => {
                let h = self.net()?.inject(LinkRule::link(
                    src.clone(),
                    dst.clone(),
                    NetFault::BlockSend,
                ));
                Ok(ArmedFault::Net(vec![h]))
            }
            FaultKind::NetDrop { src, dst } => {
                let h =
                    self.net()?
                        .inject(LinkRule::link(src.clone(), dst.clone(), NetFault::Drop));
                Ok(ArmedFault::Net(vec![h]))
            }
            FaultKind::NetSlow { src, dst, factor } => {
                let h = self.net()?.inject(LinkRule::link(
                    src.clone(),
                    dst.clone(),
                    NetFault::Slow { factor: *factor },
                ));
                Ok(ArmedFault::Net(vec![h]))
            }
            FaultKind::RuntimePause { millis } => {
                let stall = self.stall.as_ref().ok_or_else(|| {
                    BaseError::InvalidState("injector has no stall point bound".into())
                })?;
                stall.set_stalled(true);
                // Release after the pause on a helper thread, like a GC
                // cycle completing on its own.
                let stall2 = stall.clone();
                let clock = self.clock.clone().ok_or_else(|| {
                    BaseError::InvalidState("runtime pause needs a clock bound".into())
                })?;
                let millis = *millis;
                let spawn_clock = Arc::clone(&clock);
                wdog_base::clock::spawn_on(&spawn_clock, "fault-pause-release", move || {
                    clock.sleep(std::time::Duration::from_millis(millis));
                    stall2.set_stalled(false);
                });
                Ok(ArmedFault::Stall)
            }
            FaultKind::TaskStuck { toggle }
            | FaultKind::TaskBusyLoop { toggle }
            | FaultKind::LogicCorruption { toggle }
            | FaultKind::MemoryLeak { toggle } => {
                self.toggles()?.set(toggle, true);
                Ok(ArmedFault::Toggle(toggle.clone()))
            }
        }
    }

    /// Clears one armed fault (crashes cannot be cleared).
    pub fn clear(&self, armed: &ArmedFault) {
        match armed {
            ArmedFault::Disk(handles) => {
                if let Some(disk) = &self.disk {
                    for h in handles {
                        disk.clear(*h);
                    }
                }
            }
            ArmedFault::Net(handles) => {
                if let Some(net) = &self.net {
                    for h in handles {
                        net.clear(*h);
                    }
                }
            }
            ArmedFault::Toggle(name) => {
                if let Some(t) = &self.toggles {
                    t.set(name, false);
                }
            }
            ArmedFault::Stall => {
                if let Some(s) = &self.stall {
                    s.set_stalled(false);
                }
            }
            ArmedFault::Crash => {}
        }
    }

    /// Clears every fault armed on any bound surface, handle or not — disk,
    /// then network, then toggles, then the stall gate — so wedged threads
    /// can drain at teardown.
    pub fn clear_all(&self) {
        if let Some(disk) = &self.disk {
            disk.clear_all();
        }
        if let Some(net) = &self.net {
            net.clear_all();
        }
        if let Some(t) = &self.toggles {
            t.clear_all();
        }
        if let Some(s) = &self.stall {
            s.set_stalled(false);
        }
    }
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("disk", &self.disk.is_some())
            .field("net", &self.net.is_some())
            .field("stall", &self.stall.is_some())
            .field("toggles", &self.toggles.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use wdog_base::clock::RealClock;

    fn full_injector() -> (Injector, Arc<SimDisk>, SimNet, StallPoint, ToggleSet) {
        let disk = SimDisk::for_tests();
        let net = SimNet::for_tests();
        let stall = StallPoint::new();
        let toggles = ToggleSet::new();
        let inj = Injector::new()
            .with_disk(Arc::clone(&disk))
            .with_net(net.clone())
            .with_stall(stall.clone())
            .with_toggles(toggles.clone())
            .with_clock(RealClock::shared());
        (inj, disk, net, stall, toggles)
    }

    #[test]
    fn disk_error_inject_and_clear() {
        let (inj, disk, ..) = full_injector();
        let armed = inj
            .inject(&FaultKind::DiskError {
                path_prefix: "wal/".into(),
            })
            .unwrap();
        assert!(disk.append("wal/0", b"x").is_err());
        assert!(disk.append("data/0", b"x").is_ok());
        inj.clear(&armed);
        assert!(disk.append("wal/0", b"x").is_ok());
    }

    #[test]
    fn corrupt_writes_scoped() {
        let (inj, disk, ..) = full_injector();
        let armed = inj
            .inject(&FaultKind::DiskCorruptWrites {
                path_prefix: "sst/".into(),
            })
            .unwrap();
        disk.append("sst/1", b"AAAA").unwrap();
        assert_ne!(disk.read("sst/1").unwrap(), b"AAAA");
        inj.clear(&armed);
    }

    #[test]
    fn net_drop_inject_and_clear() {
        let (inj, _, net, ..) = full_injector();
        let mb = net.register("b");
        let armed = inj
            .inject(&FaultKind::NetDrop {
                src: "a".into(),
                dst: "b".into(),
            })
            .unwrap();
        net.send("a", "b", bytes::Bytes::from_static(b"x")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(20)).is_none());
        inj.clear(&armed);
        net.send("a", "b", bytes::Bytes::from_static(b"y")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(200)).is_some());
    }

    #[test]
    fn toggle_faults_set_and_clear_flags() {
        let (inj, _, _, _, toggles) = full_injector();
        let armed = inj
            .inject(&FaultKind::TaskStuck {
                toggle: "kvs.compaction.stuck".into(),
            })
            .unwrap();
        assert!(toggles.is_set("kvs.compaction.stuck"));
        inj.clear(&armed);
        assert!(!toggles.is_set("kvs.compaction.stuck"));
    }

    #[test]
    fn clear_all_restores_every_surface() {
        let (inj, disk, net, stall, toggles) = full_injector();
        let mb = net.register("b");
        for kind in [
            FaultKind::DiskError {
                path_prefix: "wal/".into(),
            },
            FaultKind::NetDrop {
                src: "a".into(),
                dst: "b".into(),
            },
            FaultKind::TaskStuck {
                toggle: "kvs.compaction.stuck".into(),
            },
            FaultKind::RuntimePause { millis: 60_000 },
        ] {
            inj.inject(&kind).unwrap();
        }
        assert!(disk.append("wal/0", b"x").is_err());
        net.send("a", "b", bytes::Bytes::from_static(b"x")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(20)).is_none());
        assert!(toggles.is_set("kvs.compaction.stuck"));
        assert!(stall.is_stalled());

        inj.clear_all();
        assert!(disk.append("wal/0", b"x").is_ok());
        net.send("a", "b", bytes::Bytes::from_static(b"y")).unwrap();
        assert!(mb.recv_timeout(Duration::from_millis(200)).is_some());
        assert!(!toggles.is_set("kvs.compaction.stuck"));
        assert!(!stall.is_stalled());
    }

    #[test]
    fn runtime_pause_self_releases() {
        let (inj, _, _, stall, _) = full_injector();
        inj.inject(&FaultKind::RuntimePause { millis: 50 }).unwrap();
        assert!(stall.is_stalled());
        std::thread::sleep(Duration::from_millis(200));
        assert!(!stall.is_stalled(), "pause did not release");
    }

    #[test]
    fn crash_invokes_hook() {
        let crashed = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&crashed);
        let inj = Injector::new().with_crash_hook(Arc::new(move || {
            c2.store(true, Ordering::Relaxed);
        }));
        inj.inject(&FaultKind::ProcessCrash).unwrap();
        assert!(crashed.load(Ordering::Relaxed));
    }

    #[test]
    fn missing_substrate_is_an_error() {
        let inj = Injector::new();
        assert!(matches!(
            inj.inject(&FaultKind::DiskStuck {
                path_prefix: String::new()
            }),
            Err(BaseError::InvalidState(_))
        ));
        assert!(inj.inject(&FaultKind::ProcessCrash).is_err());
    }
}
