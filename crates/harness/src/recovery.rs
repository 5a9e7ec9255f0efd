//! The recovery campaign: detection → mitigation → verified-healthy,
//! closed-loop, for every catalogue scenario (the `wdog-recovery` bin).
//!
//! Where [`scenario`](crate::scenario) *scores detectors* and tears the
//! testbed down, this campaign attaches a [`RecoveryCoordinator`] to the
//! driver and measures what the paper's §5.2 promises: pinpointed blame
//! makes recovery cheap, so each scenario should end in a *terminal*
//! disposition — verified-recovered (a component-scoped mitigation passed
//! its re-check), degraded (the component was shed), or escalated — with a
//! finite time-to-terminal, never a wedged coordinator.
//!
//! Fault lifecycle per scenario class:
//!
//! - **Substrate faults** (disk, net) model environmental gray failures:
//!   the harness clears them after `fault_hold`, so the ladder's later
//!   rungs re-verify against a healed substrate (retry-until-verified).
//! - **Cooperative toggles** (task-stuck, busy-loop, corruption, leak)
//!   model *internal* state corruption: the harness never clears them —
//!   only the coordinator's component restart does, which is exactly the
//!   §5.2 claim under test.
//! - **Runtime pause** self-clears and **process crash** is fail-stop; an
//!   in-process coordinator can only shed or escalate those, and the
//!   campaign records that honestly.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use faults::spec::FaultKind;
use faults::Scenario;
use simio::SimClock;
use wdog_base::clock::{RealClock, SharedClock};
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;
use wdog_core::prelude::*;
use wdog_recover::{RecoveryCoordinator, RecoveryOutcome, RecoveryPolicy};
use wdog_target::{WatchdogTarget, WdOptions, WorkloadProfile};

use crate::fmt::Table;
use crate::scenario::RunnerOptions;
use crate::session::Session;

/// Recovery-campaign knobs.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Watchdog checker configuration.
    pub wd: WdOptions,
    /// Per-component recovery policy (applied to every component).
    pub policy: RecoveryPolicy,
    /// Steady-state period before injection.
    pub warmup: Duration,
    /// How long substrate faults stay armed before the harness clears
    /// them (cooperative toggles are never harness-cleared).
    pub fault_hold: Duration,
    /// Hard ceiling on waiting for the coordinator to go idle with at
    /// least one closed incident.
    pub max_wait: Duration,
    /// Workload shape.
    pub workload: WorkloadProfile,
    /// Base seed.
    pub seed: u64,
    /// Pinned `true`: every scenario runs on a fresh discrete-event
    /// `SimClock`, so the closed loop's every wait is a deterministic
    /// virtual instant. The field survives only because `benchmark/` names
    /// it in a struct literal; it is read once, in [`run_recovery_scenario`].
    pub sim: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        let runner = RunnerOptions::default();
        Self {
            wd: runner.wd,
            policy: RecoveryPolicy::fast(),
            warmup: Duration::from_millis(800),
            // Shorter than the ladder's tail so the later rungs verify
            // against a healed substrate.
            fault_hold: Duration::from_millis(600),
            max_wait: Duration::from_secs(12),
            workload: runner.workload,
            seed: 42,
            sim: true,
        }
    }
}

/// Terminal disposition of one scenario, aggregated over its incidents.
pub fn disposition_label(incidents: &[wdog_recover::Incident]) -> &'static str {
    if incidents
        .iter()
        .any(|i| i.outcome == RecoveryOutcome::VerifiedRecovered)
    {
        "verified-recovered"
    } else if incidents
        .iter()
        .any(|i| i.outcome == RecoveryOutcome::Degraded)
    {
        "degraded"
    } else if incidents
        .iter()
        .any(|i| i.outcome == RecoveryOutcome::Escalated)
    {
        "escalated"
    } else {
        "not-detected"
    }
}

/// One scenario's trip through the closed loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRecovery {
    /// Scenario id from the catalogue.
    pub scenario: String,
    /// Expected failure class from the catalogue.
    pub expected_class: String,
    /// `verified-recovered`, `degraded`, `escalated`, or `not-detected`.
    pub disposition: String,
    /// Incidents the coordinator closed during the run.
    pub incidents: u64,
    /// MTTR of the first verified-recovered incident, else of the first
    /// closed incident. `None` when nothing was detected.
    pub mttr_ms: Option<u64>,
    /// Retry rung attempts summed over incidents.
    pub retries: u64,
    /// Component restarts summed over incidents.
    pub restarts: u64,
    /// Verification re-checks summed over incidents.
    pub verifications: u64,
    /// Incidents that ended verified-recovered.
    pub verified: u64,
    /// Incidents that ended degraded.
    pub degraded: u64,
    /// Incidents that ended escalated.
    pub escalated: u64,
    /// Whether the flap breaker pinned any component.
    pub pinned: bool,
    /// Reports dropped at the coordinator inbox.
    pub dropped_reports: u64,
    /// Whether the coordinator was idle (no open incident, empty inbox)
    /// at scoring time — the never-stuck assertion.
    pub coordinator_idle: bool,
    /// Whether the process-crash hook fired during the run.
    pub crashed: bool,
}

/// The full campaign record for one target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryCampaign {
    /// Target name.
    pub target: String,
    /// Per-scenario records, in catalogue order.
    pub scenarios: Vec<ScenarioRecovery>,
    /// Scenarios that ended verified-recovered.
    pub verified_total: u64,
    /// Scenarios whose coordinator was idle at scoring time.
    pub idle_total: u64,
}

/// Whether the harness clears this fault after `fault_hold` (substrate
/// faults) or leaves it for the component restart (cooperative toggles)
/// or for nobody (self-clearing pause, fail-stop crash).
fn harness_clears(kind: &FaultKind) -> bool {
    matches!(
        kind,
        FaultKind::DiskStuck { .. }
            | FaultKind::DiskSlow { .. }
            | FaultKind::DiskError { .. }
            | FaultKind::DiskCorruptWrites { .. }
            | FaultKind::NetBlockSend { .. }
            | FaultKind::NetDrop { .. }
            | FaultKind::NetSlow { .. }
    )
}

/// Runs one scenario end to end through the closed loop.
pub fn run_recovery_scenario(
    target: &dyn WatchdogTarget,
    scenario: &Scenario,
    opts: &RecoveryOptions,
) -> BaseResult<ScenarioRecovery> {
    let seed = derive_seed(opts.seed, &scenario.id);
    let clock: SharedClock = if opts.sim {
        SimClock::shared()
    } else {
        RealClock::shared()
    };
    let mut session = Session::boot(target, seed, Arc::clone(&clock), "recovery-main")?;
    let surface = session.inst().recovery_surface();

    let mut coord_builder = RecoveryCoordinator::builder(Arc::clone(&clock), surface)
        .default_policy(opts.policy.clone())
        .seed(derive_seed(seed, "recovery"));
    if let Some(t) = &opts.wd.telemetry {
        coord_builder = coord_builder.telemetry(Arc::clone(t));
    }
    let coordinator = coord_builder.start();
    // The coordinator's idle wait is untimed, so under sim nothing but a
    // close ends it: it is sealed at the stop instant with everything else.
    session.at_stop({
        let coordinator = Arc::clone(&coordinator);
        move || coordinator.request_stop()
    });
    // Drivers are sealed at build: the coordinator rides in through the
    // options' action list instead of a post-hoc `add_action`.
    let mut wd_opts = opts.wd.clone();
    wd_opts
        .actions
        .push(Arc::clone(&coordinator) as Arc<dyn Action>);
    session.arm(&wd_opts, &opts.workload, None)?;
    clock.sleep(opts.warmup);

    // Inject, hold, and (for substrate faults) heal the substrate.
    let armed = session.injector().inject(&scenario.kind)?;
    clock.sleep(opts.fault_hold);
    if harness_clears(&scenario.kind) {
        session.injector().clear(&armed);
    }

    // Wait for terminal: at least one closed incident and an idle
    // coordinator, bounded by `max_wait`. Crash runs keep generating
    // reports until flap damping pins the blamed components, so idleness
    // (not silence) is the stop condition.
    session.sleep_until(clock.now() + opts.max_wait, || {
        !coordinator.incidents().is_empty() && coordinator.is_idle()
    });

    // Whatever is still armed goes with every other surface in `stop`. The
    // instance's own teardown is left to the session's drop, after the
    // coordinator's drain: a repair still in flight at `max_wait` must not
    // find the instance crashed under it.
    session.stop();
    let idle = coordinator.wait_idle(Duration::from_secs(2));
    coordinator.stop();

    let incidents = coordinator.incidents();
    let mttr_ms = incidents
        .iter()
        .find(|i| i.outcome == RecoveryOutcome::VerifiedRecovered)
        .or_else(|| incidents.first())
        .map(|i| i.mttr_ms);
    let record = ScenarioRecovery {
        scenario: scenario.id.clone(),
        expected_class: scenario.expected.failure_class.clone(),
        disposition: disposition_label(&incidents).to_owned(),
        incidents: incidents.len() as u64,
        mttr_ms,
        retries: incidents.iter().map(|i| u64::from(i.retries)).sum(),
        restarts: incidents.iter().map(|i| u64::from(i.restarts)).sum(),
        verifications: incidents.iter().map(|i| u64::from(i.verifications)).sum(),
        verified: incidents
            .iter()
            .filter(|i| i.outcome == RecoveryOutcome::VerifiedRecovered)
            .count() as u64,
        degraded: incidents
            .iter()
            .filter(|i| i.outcome == RecoveryOutcome::Degraded)
            .count() as u64,
        escalated: incidents
            .iter()
            .filter(|i| i.outcome == RecoveryOutcome::Escalated)
            .count() as u64,
        pinned: incidents.iter().any(|i| i.pinned) || !coordinator.pinned_components().is_empty(),
        dropped_reports: coordinator.dropped_reports(),
        coordinator_idle: idle,
        crashed: session.crashed(),
    };
    Ok(record)
}

/// Replays the full catalogue for one target through the closed loop.
pub fn run(
    target: &dyn WatchdogTarget,
    scenarios: Option<&[String]>,
    opts: &RecoveryOptions,
) -> BaseResult<RecoveryCampaign> {
    let mut records = Vec::new();
    for scenario in target.catalog() {
        if let Some(filter) = scenarios {
            if !filter.iter().any(|s| s == &scenario.id) {
                continue;
            }
        }
        records.push(run_recovery_scenario(target, &scenario, opts)?);
    }
    let verified_total = records.iter().filter(|r| r.verified > 0).count() as u64;
    let idle_total = records.iter().filter(|r| r.coordinator_idle).count() as u64;
    Ok(RecoveryCampaign {
        target: target.name().to_owned(),
        scenarios: records,
        verified_total,
        idle_total,
    })
}

/// Renders the campaign as an aligned table.
pub fn render(campaign: &RecoveryCampaign) -> String {
    let mut t = Table::new(&[
        "scenario",
        "disposition",
        "mttr_ms",
        "incidents",
        "retries",
        "restarts",
        "verifications",
        "idle",
    ]);
    for r in &campaign.scenarios {
        t.row_owned(vec![
            r.scenario.clone(),
            r.disposition.clone(),
            r.mttr_ms
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".into()),
            r.incidents.to_string(),
            r.retries.to_string(),
            r.restarts.to_string(),
            r.verifications.to_string(),
            if r.coordinator_idle { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!(
        "Recovery campaign [{}]: {} scenarios, {} verified-recovered, {} idle at close\n\n{}",
        campaign.target,
        campaign.scenarios.len(),
        campaign.verified_total,
        campaign.idle_total,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs::target::KvsTarget;

    fn quick_opts() -> RecoveryOptions {
        RecoveryOptions {
            warmup: Duration::from_millis(400),
            fault_hold: Duration::from_millis(400),
            max_wait: Duration::from_secs(8),
            ..RecoveryOptions::default()
        }
    }

    #[test]
    fn stuck_background_task_recovers_verified_without_process_restart() {
        let target = KvsTarget;
        let scenario = target
            .catalog()
            .into_iter()
            .find(|s| s.id == "background-task-stuck")
            .unwrap();
        // The archived configuration: the wedged compactor polls its stall
        // toggle every virtual ms, so whether the lock is free at the restart
        // instant or at the next ms is a matter of phase; here it is 0.
        let r = run_recovery_scenario(&target, &scenario, &RecoveryOptions::default()).unwrap();
        assert_eq!(
            r.disposition, "verified-recovered",
            "stuck compaction must recover via component restart: {r:?}"
        );
        assert!(r.restarts >= 1, "recovery must use a component restart");
        assert!(!r.crashed, "the process must never restart");
        assert!(r.coordinator_idle, "coordinator must end idle");
        // A `Stuck` report is a timeout the detector already waited out: no
        // back-off re-waits it, the restart at open frees the compaction
        // lock and the verifier launched after it passes at that instant.
        assert_eq!(r.mttr_ms, Some(0), "{r:?}");
        assert_eq!(r.retries, 0, "{r:?}");
        assert!(r.verifications <= 2, "{r:?}");
    }

    #[test]
    fn state_corruption_recovers_verified_without_process_restart() {
        let target = KvsTarget;
        let scenario = target
            .catalog()
            .into_iter()
            .find(|s| s.id == "state-corruption")
            .unwrap();
        let r = run_recovery_scenario(&target, &scenario, &quick_opts()).unwrap();
        assert_eq!(
            r.disposition, "verified-recovered",
            "corruption must recover via object replacement: {r:?}"
        );
        assert!(!r.crashed);
        assert!(r.coordinator_idle);
    }
}
