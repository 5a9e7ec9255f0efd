//! One watched testbed, from boot to teardown.
//!
//! Every campaign — [`scenario`](crate::scenario), [`chaos`](crate::chaos),
//! [`recovery`](crate::recovery), [`infer`](crate::infer) — runs the same
//! protocol around what it measures: boot the target on the campaign's
//! clock, wire the injector, assemble and start the watchdog, start the
//! workload, observe in bounded wakes, then stop everything at one instant
//! and join. [`Session`] is that protocol, stated once and the same on
//! every clock; the campaigns keep only what is theirs (fault timelines,
//! hold/heal, detector sampling, scoring).
//!
//! The teardown order is the part that must not be re-typed. On a
//! discrete-event clock the harness thread is itself an actor, so virtual
//! time is frozen while it runs: [`Session::stop`] raises every stop flag
//! and seals the report log at that frozen instant, *then* retires the
//! harness actor so virtual time free-runs while the blocking joins drain.
//! A join issued before the retire waits on threads that can never be
//! scheduled; a party left waiting untimed after it trips the clock's
//! all-untimed-wait panic. On the real clock the actor registration is
//! inert and the same order is merely a stop request followed by its joins.
//! [`Session::finish`] is `stop` plus the instance's own teardown, and
//! [`Drop`] runs it, so an early `?` anywhere after boot tears down instead
//! of hanging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use faults::injector::Injector;
use wdog_base::clock::{ActorGuard, SharedClock};
use wdog_base::error::BaseResult;
use wdog_core::prelude::{FailureReport, WatchdogDriver};
use wdog_target::{TargetInstance, WatchdogTarget, WdOptions, WorkloadObserver, WorkloadProfile};

/// Longest single sleep of [`Session::sleep_until`].
const WAKE: Duration = Duration::from_millis(50);

/// A booted, watched testbed that tears itself down in the right order.
pub struct Session {
    seed: u64,
    clock: SharedClock,
    /// The harness thread's registration on `clock` (inert on the real
    /// clock); `None` once the session has stopped.
    main: Option<ActorGuard>,
    // Declared, and so dropped, before `inst`: its checkers hold handles
    // into the instance.
    driver: Option<WatchdogDriver>,
    inst: Box<dyn TargetInstance>,
    injector: Injector,
    crashed: Arc<AtomicBool>,
    /// Run at the stop instant; declared last so that a handle it owns
    /// to something with a joining `Drop` is released after every join.
    at_stop: Option<Box<dyn Fn()>>,
}

impl Session {
    /// Boots `target` from `seed` on `clock` — a fresh one per session, since
    /// the run's virtual time starts at its epoch — with the calling thread
    /// registered as the clock actor `actor`, and wires the fault injector.
    pub fn boot(
        target: &dyn WatchdogTarget,
        seed: u64,
        clock: SharedClock,
        actor: &str,
    ) -> BaseResult<Self> {
        let main = clock.actor(actor).adopt();
        let inst = target.start_on(seed, Arc::clone(&clock))?;
        let crashed = Arc::new(AtomicBool::new(false));
        let crash_flag = Arc::clone(&crashed);
        let injector = inst.injector(Arc::new(move || {
            crash_flag.store(true, Ordering::Relaxed);
        }));
        Ok(Self {
            seed,
            clock,
            main: Some(main),
            inst,
            injector,
            crashed,
            driver: None,
            at_stop: None,
        })
    }

    /// The clock the testbed runs on.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The booted instance.
    pub fn inst(&self) -> &dyn TargetInstance {
        self.inst.as_ref()
    }

    /// The injector wired to every fault surface the instance has.
    pub fn injector(&self) -> &Injector {
        &self.injector
    }

    /// Whether a `ProcessCrash` fault fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Sets the non-blocking stop request to issue at the stop instant,
    /// with the instance's and the driver's — for the one party the session
    /// does not own but that would otherwise outwait the run (the recovery
    /// coordinator's untimed inbox wait).
    pub fn at_stop(&mut self, hook: impl Fn() + 'static) {
        self.at_stop = Some(Box::new(hook));
    }

    /// Assembles the watchdog from `wd`, starts its driver, then starts the
    /// steady workload (`workload` reseeded with the boot seed).
    pub fn arm(
        &mut self,
        wd: &WdOptions,
        workload: &WorkloadProfile,
        observer: Option<WorkloadObserver>,
    ) -> BaseResult<()> {
        let (driver, _plan) = self.inst.build_watchdog(wd)?;
        // Owned before it starts: a half-started driver must go through
        // the ordered teardown too, not through its own joining `Drop`.
        self.driver.insert(driver).start()?;
        self.inst.start_workload(
            &WorkloadProfile {
                seed: self.seed,
                ..workload.clone()
            },
            observer,
        );
        Ok(())
    }

    /// Sleeps to `deadline` in wakes of at most 50 ms, calling `tick` at
    /// every wake (the first before any sleep, the last at the deadline);
    /// `tick` returning `true` ends the wait early.
    pub fn sleep_until(&self, deadline: Duration, mut tick: impl FnMut() -> bool) {
        loop {
            if tick() {
                return;
            }
            let now = self.clock.now();
            if now >= deadline {
                return;
            }
            self.clock.sleep((deadline - now).min(WAKE));
        }
    }

    /// Raises every stop flag at one instant, then joins the workload and
    /// the watchdog — everything but the instance's own threads, which
    /// [`Session::finish`] or `Drop` tear down — and returns the driver's
    /// reports up to that instant. Idempotent; later calls return an empty
    /// log.
    pub fn stop(&mut self) -> Vec<FailureReport> {
        let Some(main) = self.main.take() else {
            return Vec::new();
        };
        self.inst.clear_faults();
        // The stop instant: every loop observes the same stop time and no
        // report past it can leak into scoring.
        self.inst.request_stop();
        let reports = self.driver.as_ref().map_or_else(Vec::new, |d| {
            d.request_stop();
            d.log().reports()
        });
        if let Some(hook) = &self.at_stop {
            hook();
        }
        main.retire();
        // Blocking joins, with virtual time free-running.
        self.inst.stop_workload();
        if let Some(d) = &mut self.driver {
            d.stop();
        }
        reports
    }

    /// [`Session::stop`], then the instance's own teardown (idempotent,
    /// like every stop above).
    pub fn finish(&mut self) -> Vec<FailureReport> {
        let reports = self.stop();
        self.inst.teardown();
        reports
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use faults::schedule::{compose_schedule, ComposeOptions};
    use faults::spec::FaultKind;
    use miniblock::target::DnTarget;
    use minizk::target::ZkTarget;
    use simio::SimClock;
    use wdog_base::clock::RealClock;
    use wdog_target::WatchdogTarget;

    use super::Session;
    use crate::chaos::{chaos_pool, run_schedule, ChaosOptions};
    use crate::recovery::{run_recovery_scenario, RecoveryOptions};
    use crate::scenario::{run_scenario, RunnerOptions};

    /// Runs `f` on its own thread and fails if it has not returned within
    /// a minute of wall time — a sim deadlock never returns.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the campaign hung instead of returning")
    }

    /// A cooperative-toggle fault; minizk's injector has no toggle surface.
    fn toggle_fault() -> FaultKind {
        FaultKind::TaskStuck {
            toggle: "compaction".into(),
        }
    }

    #[test]
    fn a_refused_injection_ends_a_recovery_run_with_an_error() {
        let mut scenario = ZkTarget.catalog().remove(0);
        scenario.kind = toggle_fault();
        let result = within_a_minute(move || {
            run_recovery_scenario(&ZkTarget, &scenario, &RecoveryOptions::default())
        });
        assert!(result.is_err(), "the fault never armed: {result:?}");
    }

    /// The extrinsic detectors are clock actors with a joining `Drop`; the
    /// error path must retire the harness actor before it drops them.
    #[test]
    fn a_refused_injection_ends_a_scenario_run_with_an_error() {
        let mut scenario = ZkTarget.catalog().remove(0);
        scenario.kind = toggle_fault();
        let result = within_a_minute(move || {
            run_scenario(&ZkTarget, Some(&scenario), &RunnerOptions::default())
        });
        assert!(result.is_err(), "the fault never armed: {result:?}");
    }

    #[test]
    fn a_schedule_the_injector_cannot_arm_is_an_error_not_a_verdict() {
        let pool = chaos_pool(&ZkTarget);
        let mut schedule = compose_schedule(&pool, 42, 0, &ComposeOptions::default()).unwrap();
        schedule.faults[0].spec.kind = toggle_fault();
        let result =
            within_a_minute(move || run_schedule(&ZkTarget, &schedule, &ChaosOptions::default()));
        assert!(
            result.is_err(),
            "scored a fault that never armed: {result:?}"
        );
    }

    /// The teardown contract, the same on either clock: `stop` returns the
    /// sealed log once and leaves the workload joined; the instance's own
    /// threads go with `finish`.
    #[test]
    fn stop_seals_the_log_and_joins_then_finish_tears_down_on_either_clock() {
        for clock in [SimClock::shared(), RealClock::shared()] {
            within_a_minute(move || {
                let runner = RunnerOptions::default();
                let fault = DnTarget
                    .catalog()
                    .into_iter()
                    .find(|s| s.id == "disk-error")
                    .unwrap();
                let mut session = Session::boot(&DnTarget, 7, clock, "test-main").unwrap();
                session.arm(&runner.wd, &runner.workload, None).unwrap();
                session.clock().sleep(Duration::from_millis(400));
                session.injector().inject(&fault.kind).unwrap();
                session.clock().sleep(Duration::from_millis(600));
                let stopped_at = session.clock().now_millis();

                let reports = session.stop();
                assert!(
                    !reports.is_empty(),
                    "three rounds of disk errors went unreported"
                );
                assert!(reports.iter().all(|r| r.at_ms <= stopped_at), "{reports:?}");
                assert!(session.stop().is_empty(), "the log is handed over once");
                let served = session.inst().workload_counters();
                assert!(served.0 > 0, "the workload never ran");

                session.finish();
                assert_eq!(session.inst().workload_counters(), served);
                assert!(!session.inst().liveness_probe()());
            });
        }
    }

    #[test]
    fn a_sim_recovery_run_cut_off_by_max_wait_drains_and_replays() {
        let scenario = DnTarget
            .catalog()
            .into_iter()
            .find(|s| s.id == "disk-fail-slow")
            .unwrap();
        let run = move || {
            let opts = RecoveryOptions {
                warmup: Duration::from_millis(400),
                fault_hold: Duration::from_millis(300),
                max_wait: Duration::ZERO,
                ..RecoveryOptions::default()
            };
            run_recovery_scenario(&DnTarget, &scenario, &opts).unwrap()
        };
        let a = within_a_minute(run.clone());
        assert!(a.incidents > 0 && a.coordinator_idle, "{a:?}");
        let b = within_a_minute(run);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
