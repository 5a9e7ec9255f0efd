//! The recovery coordinator: consumes failure reports, walks the policy
//! ladder parked on the incident's verifier, and keeps the books.
//!
//! One verifier per incident is in flight at a time, launched when none is:
//! at open, at the end of a window whose verdict was a fail, right after a
//! restart. The ladder's waits (each back-off, the settle, the verify
//! timeout) are `pop_timeout`s on its one-slot verdict queue, so a pass
//! closes the incident at the instant it lands and a verifier still blocked
//! on the real resource is carried into the restart that frees it. A report
//! whose kind skips the retry rung (see `Worker::run_ladder`) is restarted
//! the instant its incident opens, and its first verifier is launched right
//! after the restart.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use wdog_base::clock::{SharedClock, Waiter};
use wdog_base::ids::ComponentId;
use wdog_base::queue::ClockedQueue;
use wdog_base::rng::derive_seed;

use wdog_core::prelude::*;

use crate::incident::{Incident, RecoveryOutcome};
use crate::policy::RecoveryPolicy;

/// Builds a fresh verification check for a blamed component: a
/// hand-written probe of the resource the blaming checker watched (a lock,
/// a volume, a link, the API), not a copy of that checker. Returns `None`
/// when the target has no verifier for the component (verification then
/// fails closed: the ladder keeps climbing).
pub type VerifierFactory = Arc<dyn Fn(&ComponentId) -> Option<Box<dyn Checker>> + Send + Sync>;

/// Everything a target exposes for component-scoped recovery: how to restart
/// a component, how to shed its workload, and how to re-check it afterwards.
#[derive(Clone)]
pub struct RecoverySurface {
    /// Component-scoped restart handle (§5.2 "cheap recovery").
    pub restart: Arc<dyn Restartable>,
    /// Workload-shedding handle for the degrade rung.
    pub degrade: Arc<dyn Degradable>,
    /// Builds verification re-checks per component.
    pub verifier: VerifierFactory,
}

/// Capacity of the report inbox; overflow increments a drop counter instead
/// of blocking the driver's action thread.
const INBOX_CAP: usize = 128;

/// Configures and starts a [`RecoveryCoordinator`].
pub struct RecoveryCoordinatorBuilder {
    clock: SharedClock,
    surface: RecoverySurface,
    default_policy: RecoveryPolicy,
    seed: u64,
}

impl RecoveryCoordinatorBuilder {
    /// Overrides the policy every component's incidents walk
    /// ([`RecoveryPolicy::fast`] until set).
    pub fn default_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Seeds the deterministic backoff jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spawns the coordinator worker and returns the shared handle.
    pub fn start(self) -> Arc<RecoveryCoordinator> {
        let inbox = ClockedQueue::bounded(&self.clock, INBOX_CAP);
        let shared = Arc::new(CoordShared {
            state: Mutex::new(CoordState::default()),
            dropped: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            idle: self.clock.waiter(),
        });
        let worker = Worker {
            inbox: inbox.clone(),
            clock: Arc::clone(&self.clock),
            surface: self.surface,
            policy: self.default_policy,
            seed: self.seed,
            shared: Arc::clone(&shared),
            backlog: VecDeque::new(),
            incident_seq: 0,
        };
        let clock = Arc::clone(&self.clock);
        let handle = wdog_base::clock::spawn_on(&clock, "wdog-recover", move || worker.run());
        Arc::new(RecoveryCoordinator {
            inbox,
            shared,
            clock,
            worker: Mutex::new(Some(handle)),
        })
    }
}

#[derive(Default)]
struct CoordState {
    incidents: Vec<Incident>,
    pinned: HashSet<ComponentId>,
    /// Per-component incident-open timestamps inside the flap window.
    flap: HashMap<ComponentId, Vec<u64>>,
}

struct CoordShared {
    state: Mutex<CoordState>,
    /// Inbox overflow.
    dropped: AtomicU64,
    /// Reports accepted by the inbox and not yet consumed by `handle` or
    /// `coalesce` — queued, backlogged, or in the worker's hands.
    outstanding: AtomicUsize,
    /// Notified when `outstanding` reaches zero.
    idle: Arc<dyn Waiter>,
}

impl CoordShared {
    /// Marks `n` reports consumed, waking `wait_idle` on the last one.
    fn consumed(&self, n: usize) {
        if n > 0 && self.outstanding.fetch_sub(n, Ordering::SeqCst) == n {
            self.idle.notify_all();
        }
    }
}

/// Closed-loop recovery driver (see crate docs for the ladder).
///
/// Registered with a [`WatchdogDriver`] as an [`Action`]; reports are handed
/// to a dedicated worker thread through a bounded inbox so recovery work
/// never blocks detection.
pub struct RecoveryCoordinator {
    inbox: ClockedQueue<FailureReport>,
    shared: Arc<CoordShared>,
    clock: SharedClock,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl RecoveryCoordinator {
    /// Starts configuring a coordinator for a target's recovery surface.
    pub fn builder(clock: SharedClock, surface: RecoverySurface) -> RecoveryCoordinatorBuilder {
        RecoveryCoordinatorBuilder {
            clock,
            surface,
            default_policy: RecoveryPolicy::fast(),
            seed: 0,
        }
    }

    /// Returns all closed incidents so far, in close order.
    pub fn incidents(&self) -> Vec<Incident> {
        self.shared.state.lock().incidents.clone()
    }

    /// Returns reports dropped because the inbox was full.
    pub fn dropped_reports(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Returns `true` when no report is queued or being processed.
    pub fn is_idle(&self) -> bool {
        self.shared.outstanding.load(Ordering::SeqCst) == 0
    }

    /// Parks until the coordinator is idle or `timeout` elapses, on the
    /// coordinator's clock so the wait is virtual under simulation.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = self.clock.now() + timeout;
        while !self.is_idle() {
            let left = deadline.saturating_sub(self.clock.now());
            if left.is_zero() {
                return false;
            }
            self.shared.idle.wait_timeout(left);
        }
        true
    }

    /// Requests shutdown without blocking: the inbox closes, so later
    /// reports are ignored and the worker exits once it has handled what is
    /// already queued. Under a simulated clock this seals the coordinator
    /// at the virtual instant of the call; the join is left to
    /// [`RecoveryCoordinator::stop`].
    pub fn request_stop(&self) {
        self.inbox.close();
    }

    /// Stops the worker after it finishes the reports already queued.
    pub fn stop(&self) {
        self.request_stop();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RecoveryCoordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Action for RecoveryCoordinator {
    fn on_failure(&self, report: &FailureReport) {
        if self.inbox.is_closed() {
            return;
        }
        // Raised before the push so the worker can never lower it first.
        self.shared.outstanding.fetch_add(1, Ordering::SeqCst);
        if self.inbox.push(report.clone()).is_err() {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            self.shared.consumed(1);
        }
    }
}

struct Worker {
    inbox: ClockedQueue<FailureReport>,
    clock: SharedClock,
    surface: RecoverySurface,
    policy: RecoveryPolicy,
    seed: u64,
    shared: Arc<CoordShared>,
    /// Reports for *other* components received while a ladder was running.
    backlog: VecDeque<FailureReport>,
    incident_seq: u64,
}

/// An incident's one verifier in flight (see [`Worker::look`]).
struct Flight {
    verdict: ClockedQueue<bool>,
    /// The incident's restart count at launch: a `Fail` that lands after a
    /// later restart is stale — it says nothing about that mitigation.
    restarts: u32,
}

impl Worker {
    fn run(mut self) {
        // Parked on the clock until a report arrives: an incident opens at
        // the instant the worker takes its first report — the instant it
        // was emitted unless it waited behind another incident's ladder.
        // `None` is the inbox closed by `request_stop` and drained.
        while let Some(report) = self.backlog.pop_front().or_else(|| self.inbox.pop()) {
            self.handle(report);
            self.shared.consumed(1);
        }
    }

    fn handle(&mut self, report: FailureReport) {
        let component = report.location.component.clone();
        if self.shared.state.lock().pinned.contains(&component) {
            return;
        }
        let policy = self.policy.clone();
        let opened_at_ms = self.clock.now_millis();
        let mut incident = Incident {
            component: component.to_string(),
            checker: report.checker.to_string(),
            kind: report.kind.label().to_string(),
            reported_at_ms: report.at_ms,
            opened_at_ms,
            closed_at_ms: opened_at_ms,
            mttr_ms: 0,
            reports: 1,
            retries: 0,
            restarts: 0,
            verifications: 0,
            verified: false,
            outcome: RecoveryOutcome::Escalated,
            pinned: false,
        };

        // Flap damping: a component whose incidents keep reopening inside
        // the window is not recovering — pin it degraded instead of cycling
        // restarts forever.
        let flapping = {
            let mut st = self.shared.state.lock();
            let window_ms = policy.flap_window.as_millis() as u64;
            let hist = st.flap.entry(component.clone()).or_default();
            hist.retain(|t| t.saturating_add(window_ms) >= opened_at_ms);
            hist.push(opened_at_ms);
            hist.len() as u32 >= policy.flap_threshold
        };
        incident.outcome = if flapping {
            self.surface.degrade.degrade(&component);
            self.shared.state.lock().pinned.insert(component);
            incident.pinned = true;
            RecoveryOutcome::Degraded
        } else {
            self.run_ladder(&report, &component, &policy, &mut incident)
        };
        self.close(incident);
    }

    /// Walks the ladder for one incident and returns its terminal state.
    /// [`RecoveryOutcome::VerifiedRecovered`] is returned only behind a
    /// [`Worker::look`] that saw the target's own verifier pass.
    fn run_ladder(
        &mut self,
        report: &FailureReport,
        component: &ComponentId,
        policy: &RecoveryPolicy,
        incident: &mut Incident,
    ) -> RecoveryOutcome {
        self.incident_seq += 1;
        let incident_seed = derive_seed(
            self.seed,
            &format!("{component}#{seq}", seq = self.incident_seq),
        );
        let mut flight = None;

        // Rung 1 — retry: wait out a transient, parked on the verifier
        // launched at open. Pointless for corrupted state or failed
        // assertions, which never heal by themselves, and for a `Stuck`
        // report: it is a timeout that has already elapsed (the driver's
        // hung-checker timeout, or a `BaseError::Timeout` inside the check),
        // so the back-offs could only re-wait what the detector waited.
        let skip_retry = matches!(
            report.kind,
            FailureKind::Stuck | FailureKind::Corruption | FailureKind::AssertViolation
        );
        if !skip_retry {
            for attempt in 0..policy.max_retries {
                incident.retries += 1;
                let window = policy.backoff.delay(attempt, incident_seed);
                if self.look(&mut flight, incident, component, policy, window) {
                    return RecoveryOutcome::VerifiedRecovered;
                }
            }
            // The last look before mitigating, at the end of the last
            // back-off. A verifier still blocked is not waited for: it is
            // carried into the restart, which is what should free it.
            if incident.retries > 0
                && flight.is_none()
                && self.look(&mut flight, incident, component, policy, Duration::ZERO)
            {
                return RecoveryOutcome::VerifiedRecovered;
            }
        }

        // Rung 2 — component-scoped restart (§5.2 cheap recovery): parked
        // through the settle window, then owed one answer in
        // `verify_timeout`.
        for _ in 0..policy.max_restarts {
            self.surface.restart.restart(component);
            incident.restarts += 1;
            if self.look(&mut flight, incident, component, policy, policy.settle)
                || self.look(&mut flight, incident, component, policy, Duration::ZERO)
            {
                return RecoveryOutcome::VerifiedRecovered;
            }
            // Wedged across a restart and a full verify timeout: abandoned
            // (its scratch thread exits whenever the check completes).
            flight = None;
        }

        // Rung 3 — degrade: shed the workload, keep the process.
        if policy.allow_degrade {
            self.surface.degrade.degrade(component);
            incident.reports += self.coalesce(component);
            return RecoveryOutcome::Degraded;
        }

        // Rung 4 — escalate: nothing helped and the policy forbids
        // degrading; the incident closes escalated, for an operator.
        RecoveryOutcome::Escalated
    }

    /// Absorbs queued reports blaming `component` into the open incident;
    /// reports for other components are kept for later handling.
    fn coalesce(&mut self, component: &ComponentId) -> u64 {
        let mut absorbed = 0;
        while let Some(r) = self.inbox.try_pop() {
            if &r.location.component == component {
                absorbed += 1;
            } else {
                self.backlog.push_back(r);
            }
        }
        self.shared.consumed(absorbed);
        absorbed as u64
    }

    /// Parks up to `window` on the incident's verifier, launching one when
    /// none is in flight; `true` only when a `Pass` lands, at that instant.
    /// A `Fail` sleeps out the window — unless it is stale, which is
    /// discarded for a fresh launch — and a verifier still blocked on the
    /// real resource stays in flight for the next look. A zero window still
    /// owes the verification an answer: it parks up to `verify_timeout`.
    fn look(
        &mut self,
        flight: &mut Option<Flight>,
        incident: &mut Incident,
        component: &ComponentId,
        policy: &RecoveryPolicy,
        window: Duration,
    ) -> bool {
        let deadline = self.clock.now() + window;
        let pass = loop {
            let Some(f) = flight.take().or_else(|| self.launch(component, incident)) else {
                break false; // No verifier to ask: fails closed.
            };
            let left = deadline.saturating_sub(self.clock.now());
            let wait = if window.is_zero() {
                policy.verify_timeout
            } else {
                left
            };
            let Some(pass) = f.verdict.pop_timeout(wait) else {
                *flight = Some(f);
                break false;
            };
            if pass || f.restarts == incident.restarts {
                break pass;
            }
        };
        let left = deadline.saturating_sub(self.clock.now());
        if !pass && !left.is_zero() {
            self.clock.sleep(left);
        }
        incident.reports += self.coalesce(component);
        pass
    }

    /// Dispatches a fresh verifier from the target's factory for `component` on
    /// a scratch thread that answers on a one-slot queue. The thread exits
    /// whenever the check completes, so abandoning a wedged verifier never
    /// wedges the coordinator — the executor-abandonment discipline the
    /// driver applies to checkers.
    fn launch(&self, component: &ComponentId, incident: &mut Incident) -> Option<Flight> {
        let mut checker = (self.surface.verifier)(component)?;
        incident.verifications += 1;
        let verdict = ClockedQueue::bounded(&self.clock, 1);
        let tx = verdict.clone();
        wdog_base::clock::spawn_on(&self.clock, "wdog-verify", move || {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| checker.check()));
            let _ = tx.push(matches!(outcome, Ok(s) if s.is_pass()));
        });
        Some(Flight {
            verdict,
            restarts: incident.restarts,
        })
    }

    fn close(&self, mut incident: Incident) {
        incident.closed_at_ms = self.clock.now_millis();
        incident.mttr_ms = incident.closed_at_ms.saturating_sub(incident.opened_at_ms);
        incident.verified = incident.outcome == RecoveryOutcome::VerifiedRecovered;
        self.shared.state.lock().incidents.push(incident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use wdog_base::clock::RealClock;
    use wdog_base::ids::CheckerId;

    /// Recovery surface harness: a shared "health" flag per component, a
    /// restart handle that can be told to heal on the Nth attempt, and a
    /// verifier that reads the flag.
    struct Fixture {
        healthy: Arc<AtomicBool>,
        restarts: Arc<AtomicU64>,
        degraded: Arc<Mutex<Vec<ComponentId>>>,
        /// Restart attempts needed before the component heals; u64::MAX
        /// means restarts never help.
        heal_after: Arc<AtomicU64>,
    }

    impl Fixture {
        fn new(initially_healthy: bool, heal_after: u64) -> Self {
            Self {
                healthy: Arc::new(AtomicBool::new(initially_healthy)),
                restarts: Arc::new(AtomicU64::new(0)),
                degraded: Arc::new(Mutex::new(Vec::new())),
                heal_after: Arc::new(AtomicU64::new(heal_after)),
            }
        }

        fn surface(&self) -> RecoverySurface {
            struct R {
                healthy: Arc<AtomicBool>,
                restarts: Arc<AtomicU64>,
                heal_after: Arc<AtomicU64>,
            }
            impl Restartable for R {
                fn restart(&self, _c: &ComponentId) {
                    let n = self.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                    if n >= self.heal_after.load(Ordering::Relaxed) {
                        self.healthy.store(true, Ordering::Relaxed);
                    }
                }
            }
            struct D(Arc<Mutex<Vec<ComponentId>>>);
            impl Degradable for D {
                fn degrade(&self, c: &ComponentId) {
                    self.0.lock().push(c.clone());
                }
            }
            let healthy = Arc::clone(&self.healthy);
            RecoverySurface {
                restart: Arc::new(R {
                    healthy: Arc::clone(&self.healthy),
                    restarts: Arc::clone(&self.restarts),
                    heal_after: Arc::clone(&self.heal_after),
                }),
                degrade: Arc::new(D(Arc::clone(&self.degraded))),
                verifier: Arc::new(move |c: &ComponentId| {
                    let h = Arc::clone(&healthy);
                    let comp = c.clone();
                    Some(Box::new(FnChecker::new("verify", comp.clone(), move || {
                        if h.load(Ordering::Relaxed) {
                            CheckStatus::Pass
                        } else {
                            CheckStatus::Fail(CheckFailure::new(
                                FailureKind::Error,
                                FaultLocation::new(comp.clone(), "verify"),
                                "still failing",
                            ))
                        }
                    })) as Box<dyn Checker>)
                }),
            }
        }
    }

    fn report(component: &str, kind: FailureKind) -> FailureReport {
        FailureReport {
            checker: CheckerId::new("t.checker"),
            kind,
            location: FaultLocation::new(component, "f"),
            detail: "d".into(),
            payload: vec![],
            observed_latency_ms: None,
            at_ms: 0,
        }
    }

    fn fast_coordinator(fx: &Fixture) -> Arc<RecoveryCoordinator> {
        RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(RecoveryPolicy::fast())
            .seed(42)
            .start()
    }

    #[test]
    fn transient_recovers_on_retry_without_restart() {
        // Component already healthy again when the incident opens: the
        // verifier launched at open passes and the retry rung closes without
        // touching the restart handle. (Until PR 20 this pinned
        // `mttr_ms >= 20`, the sleep *before* the first look; the ladder now
        // parks on the verifier, so a pass closes inside the first back-off.)
        let fx = Fixture::new(true, u64::MAX);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.flusher", FailureKind::Error));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1);
        let i = &incidents[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(i.verified);
        assert_eq!(i.retries, 1);
        assert_eq!(i.restarts, 0);
        assert!(i.mttr_ms < 20, "closed before the first back-off ended");
        assert_eq!(fx.restarts.load(Ordering::Relaxed), 0);
        c.stop();
    }

    #[test]
    fn transient_that_heals_inside_the_first_backoff_closes_at_its_end() {
        // Unhealthy at open, healed inside the first back-off (here: right
        // after the look at open has failed): the ladder sleeps out the
        // 20 ms back-off and the look at its end passes — the back-off is
        // still reflected in MTTR.
        let fx = Fixture::new(false, u64::MAX);
        let (inner, healthy) = (fx.surface().verifier, Arc::clone(&fx.healthy));
        let surface = RecoverySurface {
            verifier: Arc::new(move |c: &ComponentId| {
                let (mut check, healthy) = (inner(c)?, Arc::clone(&healthy));
                Some(Box::new(FnChecker::new("verify", c.clone(), move || {
                    let status = check.check();
                    healthy.store(true, Ordering::Relaxed);
                    status
                })) as Box<dyn Checker>)
            }),
            ..fx.surface()
        };
        let mut policy = RecoveryPolicy::fast();
        policy.backoff.jitter_frac = 0.0;
        let c = RecoveryCoordinator::builder(RealClock::shared(), surface)
            .default_policy(policy)
            .start();
        c.on_failure(&report("kvs.flusher", FailureKind::Error));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert_eq!((i.retries, i.restarts, i.verifications), (2, 0, 2));
        assert!((20..=25).contains(&i.mttr_ms), "mttr {} ms", i.mttr_ms);
        c.stop();
    }

    #[test]
    fn persistent_fault_recovers_via_restart() {
        let fx = Fixture::new(false, 1);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.compaction", FailureKind::Error));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(i.verified);
        assert_eq!(i.retries, 2, "retry rung exhausted first");
        assert_eq!(i.restarts, 1);
        assert_eq!(fx.restarts.load(Ordering::Relaxed), 1);
        assert!(fx.degraded.lock().is_empty());
        c.stop();
    }

    #[test]
    fn corruption_skips_straight_to_restart() {
        let fx = Fixture::new(false, 1);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.index", FailureKind::Corruption));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert_eq!(i.retries, 0, "corrupted state never heals by waiting");
        assert_eq!(i.restarts, 1);
        c.stop();
    }

    #[test]
    fn unrecoverable_component_degrades() {
        let fx = Fixture::new(false, u64::MAX);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.replication", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(10)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::Degraded);
        assert!(!i.verified);
        assert_eq!(i.restarts, 2, "restart budget exhausted");
        assert_eq!(
            fx.degraded.lock().as_slice(),
            &[ComponentId::new("kvs.replication")]
        );
        // MTTR is finite and recorded even for non-recovered outcomes.
        assert!(i.mttr_ms > 0);
        c.stop();
    }

    #[test]
    fn degrade_disallowed_escalates() {
        let fx = Fixture::new(false, u64::MAX);
        let mut policy = RecoveryPolicy::fast();
        policy.allow_degrade = false;
        let c = RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(policy)
            .start();
        c.on_failure(&report("minizk.broadcast", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(10)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::Escalated);
        assert!(fx.degraded.lock().is_empty());
        c.stop();
    }

    #[test]
    fn flapping_component_is_pinned_degraded() {
        // Heals on every restart but immediately gets blamed again: after
        // flap_threshold incidents the breaker pins it.
        let fx = Fixture::new(false, u64::MAX);
        let mut policy = RecoveryPolicy::fast();
        policy.max_retries = 0;
        policy.max_restarts = 0; // straight to degrade each incident
        policy.flap_threshold = 3;
        let c = RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(policy)
            .start();
        for _ in 0..5 {
            c.on_failure(&report("kvs.flusher", FailureKind::Error));
            assert!(c.wait_idle(Duration::from_secs(5)));
        }
        let incidents = c.incidents();
        // Reports after pinning open no incident.
        assert_eq!(incidents.len(), 3, "the 4th and 5th reports are ignored");
        let pinned: Vec<&Incident> = incidents.iter().filter(|i| i.pinned).collect();
        assert_eq!(pinned.len(), 1, "breaker trips exactly once");
        assert_eq!(pinned[0].component, "kvs.flusher");
        assert_eq!(pinned[0].outcome, RecoveryOutcome::Degraded);
        c.stop();
    }

    #[test]
    fn wedged_verifier_cannot_hang_the_coordinator() {
        let fx = Fixture::new(false, u64::MAX);
        let mut policy = RecoveryPolicy::fast();
        policy.verify_timeout = Duration::from_millis(50);
        policy.max_retries = 1;
        policy.max_restarts = 1;
        // Verifier wedges forever: every verification must time out and the
        // ladder still reach a terminal state quickly. The one launched at
        // open is carried up to the first restart's verify timeout; each
        // later restart abandons at most one more.
        let launched = Arc::new(AtomicU64::new(0));
        let l = Arc::clone(&launched);
        let surface = RecoverySurface {
            verifier: Arc::new(move |c: &ComponentId| {
                l.fetch_add(1, Ordering::Relaxed);
                let comp = c.clone();
                Some(Box::new(FnChecker::new("wedged-verify", comp, || loop {
                    std::thread::sleep(Duration::from_millis(10));
                })) as Box<dyn Checker>)
            }),
            ..fx.surface()
        };
        let c = RecoveryCoordinator::builder(RealClock::shared(), surface)
            .default_policy(policy)
            .start();
        let t0 = std::time::Instant::now();
        c.on_failure(&report("kvs.api", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(3));
        assert_eq!(c.incidents()[0].outcome, RecoveryOutcome::Degraded);
        assert!(
            launched.load(Ordering::Relaxed) <= 1 + 1,
            "1 + max_restarts"
        );
        c.stop();
    }

    #[test]
    fn reports_during_ladder_are_coalesced() {
        let fx = Fixture::new(false, 1);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.wal", FailureKind::Error));
        // Pile more blame onto the same component while the ladder runs.
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(10));
            c.on_failure(&report("kvs.wal", FailureKind::Error));
        }
        assert!(c.wait_idle(Duration::from_secs(5)));
        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1, "same-component reports coalesce");
        assert!(incidents[0].reports >= 2);
        c.stop();
    }

    #[test]
    fn is_idle_is_false_while_any_accepted_report_is_unhandled() {
        // Two reports for two components; each incident's verifier samples
        // `is_idle()` from its own thread, held at a barrier until the test
        // has filed both. While the first is verified the second is queued;
        // while the second is verified it is in the worker's hands.
        let fx = Fixture::new(true, u64::MAX);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let handle: Arc<std::sync::OnceLock<Arc<RecoveryCoordinator>>> = Arc::default();
        let samples: Arc<Mutex<Vec<bool>>> = Arc::default();
        let (g, h, s) = (Arc::clone(&gate), Arc::clone(&handle), Arc::clone(&samples));
        let surface = RecoverySurface {
            verifier: Arc::new(move |c: &ComponentId| {
                let (g, h, s) = (Arc::clone(&g), Arc::clone(&h), Arc::clone(&s));
                Some(Box::new(FnChecker::new("gated", c.clone(), move || {
                    let coordinator = h.get().expect("set before the first report");
                    s.lock().push(coordinator.is_idle());
                    g.wait();
                    s.lock().push(coordinator.is_idle());
                    CheckStatus::Pass
                })) as Box<dyn Checker>)
            }),
            ..fx.surface()
        };
        // A back-off no gate wait can outlast: neither look times out.
        let mut policy = RecoveryPolicy::fast();
        policy.backoff.base = Duration::from_secs(30);
        policy.backoff.max = Duration::from_secs(30);
        let c = RecoveryCoordinator::builder(RealClock::shared(), surface)
            .default_policy(policy)
            .start();
        assert!(handle.set(Arc::clone(&c)).is_ok());
        c.on_failure(&report("kvs.flusher", FailureKind::Error));
        c.on_failure(&report("kvs.compaction", FailureKind::Error));
        gate.wait();
        gate.wait();
        assert!(c.wait_idle(Duration::from_secs(5)));
        assert_eq!(samples.lock().as_slice(), &[false; 4]);
        assert_eq!(c.incidents().len(), 2);
        assert!(c.is_idle());
        c.stop();
    }

    #[test]
    fn incident_books_rungs_verifications_and_outcome() {
        let fx = Fixture::new(false, 1);
        let c = RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(RecoveryPolicy::fast())
            .seed(7)
            .start();
        c.on_failure(&report("kvs.compaction", FailureKind::Error));
        assert!(c.wait_idle(Duration::from_secs(5)));
        c.stop();

        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.component, "kvs.compaction");
        assert_eq!(inc.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(inc.verified);
        // Two retries, one restart; verifiers launched at open, at the end
        // of each back-off, and after the restart.
        assert_eq!((inc.retries, inc.restarts, inc.verifications), (2, 1, 4));
    }

    #[test]
    fn missing_verifier_fails_closed() {
        let fx = Fixture::new(true, u64::MAX);
        let surface = RecoverySurface {
            verifier: Arc::new(|_c: &ComponentId| None),
            ..fx.surface()
        };
        let c = RecoveryCoordinator::builder(RealClock::shared(), surface)
            .default_policy(RecoveryPolicy::fast())
            .start();
        c.on_failure(&report("kvs.listener", FailureKind::Error));
        assert!(c.wait_idle(Duration::from_secs(10)));
        // Healthy component, but nothing can *prove* it: never marked
        // verified-recovered.
        let i = &c.incidents()[0];
        assert_ne!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(!i.verified);
        c.stop();
    }
}
