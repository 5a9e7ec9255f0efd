//! The `WatchdogTarget` trait layer.
//!
//! Every instrumented system — the LSM store (`kvs`), the coordination
//! service (`minizk`), the block store (`miniblock`) — provides the same
//! ingredients to AutoWatchdog and to the experiment harness: an IR
//! self-description, real-operation implementations behind the generated
//! plan, hand-written probe/signal checkers, a fault-application surface,
//! and the request a steady workload issues. This crate names that contract
//! so the harness can run one generic campaign over `&dyn WatchdogTarget`
//! instead of one hand-rolled runner per system.
//!
//! The split is two-level:
//!
//! - [`WatchdogTarget`] is the *static* side: what the system is
//!   (name, IR, tuned options, fault catalogue) and how to boot one
//!   instance of it.
//! - [`TargetInstance`] is one *booted* testbed on its [`SimSubstrate`]:
//!   replicas spawned, ready to build a watchdog, take faults, and turn
//!   workload tickets into requests.
//!
//! What is not target-specific stays out of the contract: the campaign
//! harness spawns and joins the workload ([`spawn_workload_on`]) and clears
//! every fault ([`Injector::clear_all`]), and [`SimSubstrate`] boots the
//! seeded network and disk for all three targets.
//!
//! Each instance hands the recovery coordinator one [`RecoveryMap`]: the
//! exact id of every component a checker blames, with its restart, shed and
//! verify handles (— is none; an unmapped id fails closed):
//!
//! | target | ids | restart | shed | verifier |
//! |---|---|---|---|---|
//! | kvs | `kvs.compaction_loop` | compaction | compaction | compaction lock |
//! | kvs | `kvs.flusher_loop`, `kvs.flusher`, `kvs.wal_loop` | flusher | flusher | WAL probe |
//! | kvs | `kvs.replication_loop`, `kvs.replication` | replication | replication | link probe |
//! | kvs | `kvs.listener_loop`, `kvs.listener`, `kvs.api` | request path | — | API round trip |
//! | kvs | `kvs` | request path | — | process |
//! | minizk | `minizk.broadcast_loop`, `minizk.quorum` | broadcast | broadcast | link |
//! | minizk | `minizk.snapshot_sync_loop` | — | — | link |
//! | minizk | `minizk.request_processor_loop`, `minizk.processors` | — | — | txnlog |
//! | minizk | `minizk.api` | — | — | process |
//! | miniblock | `miniblock.scanner_loop` | scanner | scanner | volume |
//! | miniblock | `miniblock.heartbeat_loop` | heartbeat | heartbeat | link |
//! | miniblock | `miniblock.ingest_loop`, `dn.volumes` | — | — | volume |

#![cfg_attr(test, allow(clippy::disallowed_methods))]

use std::sync::Arc;
use std::time::Duration;

use simio::disk::SimDisk;
use simio::net::SimNet;
use simio::LatencyModel;
use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;
use wdog_telemetry::chaos::ChaosMetrics;

use wdog_core::prelude::*;
use wdog_gen::interp::{instantiate, InstantiateOptions, OpTable};
use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::WatchdogPlan;

use faults::catalog::{gray_failure_catalog, Scenario, TargetProfile};
use faults::injector::Injector;
use faults::spec::FaultKind;

pub mod options;
pub mod recovery;
pub mod supervise;
pub mod workload;

pub use options::{Families, WdOptions};
pub use recovery::{Handle, RecoveryMap, Verifier};
pub use supervise::Supervised;
pub use workload::{spawn_workload_on, RequestFn, WorkloadHandle, WorkloadProfile, WorkloadTicket};

/// Re-exported so targets and campaign runners share one recovery contract
/// without depending on `wdog-recover` directly.
pub use wdog_recover::{RecoverySurface, VerifierFactory};

/// Opens every target's `build_watchdog`: a [`DriverBuilder`] configured
/// from `opts` (schedule, timeout, spawn-order seed, actions), the trace
/// recorder attached to the target's `hooks`, and — when `opts.families.mimics`
/// — the generated mimic checkers instantiated from `plan` over `op_table`
/// against the hooks' context table.
///
/// The target adds its hand-written families and [`inferred_checkers`] in
/// its own order, then calls `build()`.
pub fn watchdog_builder(
    opts: &WdOptions,
    clock: &SharedClock,
    hooks: &Hooks,
    plan: &WatchdogPlan,
    op_table: &OpTable,
) -> BaseResult<DriverBuilder> {
    let mut builder = WatchdogDriver::builder()
        .config(WatchdogConfig {
            policy: SchedulePolicy::every(opts.interval),
            default_timeout: opts.checker_timeout,
            health_window: Duration::from_secs(30),
            spawn_order_seed: opts.spawn_order_seed,
        })
        .clock(Arc::clone(clock));
    if let Some(trace) = &opts.trace {
        hooks.attach_trace(Arc::clone(trace));
    }
    for action in &opts.actions {
        builder = builder.action(Arc::clone(action));
    }
    if opts.families.mimics {
        let mimics = instantiate(
            plan,
            op_table,
            &hooks.table().reader(),
            clock,
            &InstantiateOptions {
                timeout: Some(opts.checker_timeout),
                max_context_age: opts.max_context_age,
                slow_threshold: Some(opts.slow_threshold),
                trace: opts.trace.clone(),
            },
        )?;
        for c in mimics {
            builder = builder.checker(Box::new(c));
        }
    }
    Ok(builder)
}

/// Instantiates the inferred checker family from the mined specs riding in
/// `opts.inferred`.
///
/// Shared by every target's `build_watchdog`: specs carry their own identity
/// (id, blamed component, context key), so instantiation is uniform — the
/// target only contributes the context reader the checkers evaluate
/// against. Returns an empty vector when the family is disabled or no specs
/// were supplied (the default for every campaign that has not run
/// `wdog-infer`).
pub fn inferred_checkers(opts: &WdOptions, reader: &ContextReader) -> Vec<Box<dyn Checker>> {
    if !opts.families.inferred {
        return Vec::new();
    }
    opts.inferred
        .iter()
        .map(|spec| {
            Box::new(wdog_checkers::InferredChecker::new(
                spec.clone(),
                reader.clone(),
            )) as Box<dyn Checker>
        })
        .collect()
}

/// A full API round trip against the target, for the external-probe
/// baseline detector (matches `detectors::probe_client::ProbeFn`).
pub type ApiProbe = Arc<dyn Fn() -> BaseResult<()> + Send + Sync>;

/// A cheap is-the-process-alive check, for the heartbeat baseline detector
/// (matches `detectors::heartbeat::BeatFn`).
pub type LivenessProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// Receives each workload request outcome (`true` = success); campaign
/// runners wire this to the client-complaint baseline.
pub type WorkloadObserver = Arc<dyn Fn(bool) + Send + Sync>;

/// Invoked when a `ProcessCrash` fault fires so the instance can stop its
/// process-level activity.
pub type CrashSignal = Arc<dyn Fn() + Send + Sync>;

/// Which fault classes a target's testbed can physically apply.
///
/// Used to filter the shared gray-failure catalogue down to scenarios a
/// target can actually run: filtering is by *injectability* only —
/// whether a detector catches the fault stays an experimental outcome,
/// never a reason to drop a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSurface {
    /// Simulated-disk faults (stuck/slow/error/corrupt) can land.
    pub disk: bool,
    /// Simulated-network faults (block/drop/slow) can land.
    pub net: bool,
    /// The process stall point (runtime-pause analog) is wired.
    pub stall: bool,
    /// Cooperative fault toggles (task-stuck, busy-loop, logic-corruption,
    /// memory-leak) are polled by the target's code.
    pub toggles: bool,
    /// A crash hook stops the process.
    pub crash: bool,
}

impl FaultSurface {
    /// Everything wired — the `kvs` reference target.
    pub const FULL: Self = Self {
        disk: true,
        net: true,
        stall: true,
        toggles: true,
        crash: true,
    };

    /// Substrate faults plus crash only — targets without cooperative
    /// toggles or a stall point.
    pub const SUBSTRATE: Self = Self {
        disk: true,
        net: true,
        stall: false,
        toggles: false,
        crash: true,
    };

    /// Whether `kind` can be applied on this surface.
    pub fn supports(&self, kind: &FaultKind) -> bool {
        match kind {
            FaultKind::ProcessCrash => self.crash,
            FaultKind::DiskStuck { .. }
            | FaultKind::DiskSlow { .. }
            | FaultKind::DiskError { .. }
            | FaultKind::DiskCorruptWrites { .. } => self.disk,
            FaultKind::NetBlockSend { .. }
            | FaultKind::NetDrop { .. }
            | FaultKind::NetSlow { .. } => self.net,
            FaultKind::RuntimePause { .. } => self.stall,
            FaultKind::TaskStuck { .. }
            | FaultKind::TaskBusyLoop { .. }
            | FaultKind::LogicCorruption { .. }
            | FaultKind::MemoryLeak { .. } => self.toggles,
        }
    }
}

/// The shared gray-failure catalogue specialized to a target: scenario
/// locations come from `profile`, and scenarios whose fault class the
/// target's `surface` cannot apply are dropped.
pub fn catalog_for(profile: &TargetProfile, surface: FaultSurface) -> Vec<Scenario> {
    gray_failure_catalog(profile)
        .into_iter()
        .filter(|s| surface.supports(&s.kind))
        .collect()
}

/// The seeded simulated network and disk one testbed runs on, with the
/// clock that paces them.
#[derive(Clone)]
pub struct SimSubstrate {
    /// The clock every latency and background loop sleeps on.
    pub clock: SharedClock,
    /// The network, 30 µs mean latency.
    pub net: SimNet,
    /// A 1 GiB disk, 20 µs mean latency.
    pub disk: Arc<SimDisk>,
}

impl SimSubstrate {
    /// Boots the pair from `seed` on `clock`, the network first.
    pub fn boot(seed: u64, clock: &SharedClock) -> Self {
        let net = SimNet::new(
            LatencyModel::new(30.0, derive_seed(seed, "net")),
            Arc::clone(clock),
        );
        let disk = SimDisk::new(
            1 << 30,
            LatencyModel::new(20.0, derive_seed(seed, "disk")),
            Arc::clone(clock),
        );
        Self {
            clock: Arc::clone(clock),
            net,
            disk,
        }
    }

    /// An injector bound to the disk, the network and the clock; a target
    /// adds its crash hook and whatever cooperative surfaces it has.
    pub fn injector(&self) -> Injector {
        Injector::new()
            .with_disk(Arc::clone(&self.disk))
            .with_net(self.net.clone())
            .with_clock(Arc::clone(&self.clock))
    }

    /// Exports the substrate's per-op call/fault counters (turso-style
    /// `nr_*_calls` / `nr_*_faults`) as the `sim_io_*` families.
    pub fn export_io(&self, metrics: &ChaosMetrics) {
        for (op, s) in self.disk.op_stats().rows() {
            metrics.sim_io_disk(op, s.calls, s.faults);
        }
        for (op, s) in self.net.op_stats().rows() {
            metrics.sim_io_net(op, s.calls, s.faults);
        }
    }
}

/// A system that AutoWatchdog can instrument and the harness can campaign
/// against.
pub trait WatchdogTarget: Send + Sync {
    /// Stable short name (`kvs`, `minizk`, `miniblock`) used in table file
    /// names and `--target` selectors.
    fn name(&self) -> &'static str;

    /// The program self-description consumed by program logic reduction.
    fn describe_ir(&self) -> ProgramIr;

    /// The options tuned for this target's latency envelope — what the
    /// target's historical per-system options struct defaulted to.
    fn default_options(&self) -> WdOptions;

    /// The gray-failure scenarios this target can run, with locations
    /// (path prefixes, link addresses, toggles, blamed ids) mapped onto
    /// this target's layout.
    fn catalog(&self) -> Vec<Scenario>;

    /// Boots one isolated testbed instance seeded with `seed`, with every
    /// background loop, latency model, and substrate paced by `clock`.
    fn start_on(&self, seed: u64, clock: SharedClock) -> BaseResult<Box<dyn TargetInstance>>;
}

/// One booted testbed of a [`WatchdogTarget`].
pub trait TargetInstance: Send {
    /// Assembles the full in-process watchdog — generated plan reduced from
    /// the IR, instantiated over the real-op table, plus the hand-written
    /// families `opts.families` enables. The driver is not started.
    fn build_watchdog(&self, opts: &WdOptions) -> BaseResult<(WatchdogDriver, WatchdogPlan)>;

    /// The simulated network and disk the instance runs on.
    fn substrate(&self) -> &SimSubstrate;

    /// A fault injector wired to every surface this instance supports;
    /// `on_crash` fires when a `ProcessCrash` fault arms.
    fn injector(&self, on_crash: CrashSignal) -> Injector;

    /// The steady workload's request: turns one ticket drawn from `profile`
    /// into a call against the instance, after any setup the mix needs.
    fn workload(&self, profile: &WorkloadProfile) -> RequestFn;

    /// Fires auxiliary code paths the steady workload never reaches
    /// (follower snapshot syncs, scrub passes, ...), without blocking —
    /// work is kicked onto the instance's own threads. The scenario runner
    /// calls this at the injection instant, so faults strike those paths
    /// mid-flight; trace recording calls it mid-run so inferred invariants
    /// cover those loops too. The default has nothing to drive.
    fn exercise_auxiliary(&self) {}

    /// Raises every background loop's stop flag without joining anything.
    /// Under a simulated clock a harness calls this while virtual time is
    /// frozen so all loops observe the same stop instant; the blocking
    /// [`TargetInstance::teardown`] follows after the caller deregisters
    /// from the clock. The default does nothing.
    fn request_stop(&self) {}

    /// A full client round trip for the external-probe baseline.
    fn api_probe(&self) -> ApiProbe;

    /// A process-liveness check for the heartbeat baseline.
    fn liveness_probe(&self) -> LivenessProbe;

    /// How many errors the target's own error handling has absorbed —
    /// campaign scoring uses this to detect silently-masked faults.
    fn errors_handled(&self) -> u64;

    /// The instance's recovery map: every blameable component id with its
    /// restart, shed and verify handles. The closed-loop recovery
    /// coordinator drives its [`RecoveryMap::surface`].
    fn recovery_map(&self) -> RecoveryMap;

    /// Stops the system's own threads (replicas, pipelines, servers).
    /// Idempotent.
    fn teardown(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfaces_gate_fault_kinds() {
        assert!(FaultSurface::FULL.supports(&FaultKind::RuntimePause { millis: 1 }));
        assert!(!FaultSurface::SUBSTRATE.supports(&FaultKind::RuntimePause { millis: 1 }));
        assert!(!FaultSurface::SUBSTRATE.supports(&FaultKind::TaskStuck { toggle: "t".into() }));
        assert!(FaultSurface::SUBSTRATE.supports(&FaultKind::ProcessCrash));
        assert!(FaultSurface::SUBSTRATE.supports(&FaultKind::DiskStuck {
            path_prefix: String::new()
        }));
    }

    #[test]
    fn substrate_catalog_is_a_strict_subset() {
        let p = TargetProfile::default();
        let full = catalog_for(&p, FaultSurface::FULL);
        let sub = catalog_for(&p, FaultSurface::SUBSTRATE);
        assert_eq!(full.len(), gray_failure_catalog(&p).len());
        assert!(sub.len() < full.len());
        for s in &sub {
            assert!(full.iter().any(|f| f.id == s.id));
        }
        // The crash baseline must survive substrate filtering.
        assert!(sub.iter().any(|s| s.id == "process-crash"));
    }
}
