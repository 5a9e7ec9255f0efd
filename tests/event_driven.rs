//! The control plane is event-driven: no poll quantum sits between a
//! checker's verdict and a verified repair.
//!
//! Every test runs on the discrete-event [`SimClock`], where "at once" is
//! checkable as an equality between virtual instants. Each timing assertion
//! fails by construction on a scheduler that polls (2 ms busy / 25 ms idle),
//! an action worker that is a clock spectator, a coordinator that sleeps
//! 25 ms on its inbox and 5 ms per verification probe, or a recovery ladder
//! that sleeps out a back-off before it looks and spawns a verifier per look.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use simio::SimClock;
use wdog_base::clock::{ActorGuard, ActorToken, Waiter};
use wdog_base::queue::ClockedQueue;
use wdog_base::rng::derive_seed;
use wdog_core::prelude::*;
use wdog_recover::{BackoffPolicy, Incident, RecoveryCoordinator, RecoveryPolicy, RecoverySurface};

const MS: fn(u64) -> Duration = Duration::from_millis;

/// A fresh sim clock with the test thread adopted as its first actor.
fn sim() -> (SharedClock, ActorGuard) {
    let clock: SharedClock = Arc::new(SimClock::new());
    let main = clock.actor("test-main").adopt();
    (clock, main)
}

fn config(interval: Duration, timeout: Duration) -> WatchdogConfig {
    WatchdogConfig {
        policy: SchedulePolicy::every(interval),
        default_timeout: timeout,
        health_window: Duration::from_secs(10),
        spawn_order_seed: None,
    }
}

fn failure(component: &str) -> CheckStatus {
    CheckStatus::Fail(CheckFailure::new(
        FailureKind::Error,
        FaultLocation::new(component, "f"),
        "induced",
    ))
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

/// Frozen-instant teardown, as the campaign harnesses do it: stop flag at
/// the current virtual instant, retire the test actor, then join.
fn shut_down(driver: &mut WatchdogDriver, main: ActorGuard) {
    driver.request_stop();
    main.retire();
    driver.stop();
}

#[test]
fn a_failure_is_reported_at_the_instant_the_checker_returns() {
    let (clock, main) = sim();
    let dispatched_at = Arc::new(AtomicU64::new(u64::MAX));
    let (c, d) = (Arc::clone(&clock), Arc::clone(&dispatched_at));
    let mut driver = WatchdogDriver::builder()
        .config(config(MS(100), MS(500)))
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new("slow-fail", "comp", move || {
            d.store(c.now_millis(), Ordering::SeqCst);
            c.sleep(MS(7));
            failure("comp")
        })))
        .build()
        .unwrap();
    driver.start().unwrap();
    clock.sleep(MS(50));
    shut_down(&mut driver, main);
    let reports = driver.log().reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(
        reports[0].at_ms,
        dispatched_at.load(Ordering::SeqCst) + 7,
        "collected when it landed, not at the next poll tick"
    );
    assert_eq!(reports[0].observed_latency_ms, Some(7));
}

#[test]
fn a_hung_checker_is_reported_stuck_at_exactly_its_timeout() {
    let (clock, main) = sim();
    let dispatched_at = Arc::new(AtomicU64::new(u64::MAX));
    let (c, d) = (Arc::clone(&clock), Arc::clone(&dispatched_at));
    let mut driver = WatchdogDriver::builder()
        .config(config(MS(100), MS(50)))
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new("hang", "comp", move || {
            d.store(c.now_millis(), Ordering::SeqCst);
            c.sleep(Duration::from_secs(10));
            CheckStatus::Pass
        })))
        .build()
        .unwrap();
    driver.start().unwrap();
    clock.sleep(MS(80));
    shut_down(&mut driver, main);
    let reports = driver.log().reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, FailureKind::Stuck);
    assert_eq!(reports[0].at_ms, dispatched_at.load(Ordering::SeqCst) + 50);
    assert_eq!(reports[0].observed_latency_ms, Some(50));
}

#[test]
fn an_action_runs_at_the_virtual_instant_of_its_report() {
    let (clock, main) = sim();
    let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
    let (c, c2, s) = (Arc::clone(&clock), Arc::clone(&clock), Arc::clone(&seen));
    let mut driver = WatchdogDriver::builder()
        .config(config(MS(20), MS(500)))
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new("bad", "comp", move || {
            c.sleep(MS(3));
            failure("comp")
        })))
        .action(Arc::new(CallbackAction::new(move |r: &FailureReport| {
            s.lock().unwrap().push((r.at_ms, c2.now_millis()));
        })))
        .build()
        .unwrap();
    driver.start().unwrap();
    clock.sleep(MS(100));
    shut_down(&mut driver, main);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 5, "one report per 20 ms round: {seen:?}");
    for (at_ms, acted_ms) in seen.iter() {
        assert_eq!(at_ms, acted_ms, "the action worker is a clock actor");
    }
}

/// Counts every timed wait and sleep taken through it — the only ways a
/// scheduler thread can wake up on its own.
struct CountingClock {
    inner: SharedClock,
    wakeups: Arc<AtomicU64>,
}

struct CountingWaiter {
    inner: Arc<dyn Waiter>,
    wakeups: Arc<AtomicU64>,
}

impl Clock for CountingClock {
    fn now(&self) -> Duration {
        self.inner.now()
    }
    fn sleep(&self, d: Duration) {
        self.wakeups.fetch_add(1, Ordering::SeqCst);
        self.inner.sleep(d);
    }
    fn waiter(&self) -> Arc<dyn Waiter> {
        Arc::new(CountingWaiter {
            inner: self.inner.waiter(),
            wakeups: Arc::clone(&self.wakeups),
        })
    }
    fn actor(&self, name: &str) -> ActorToken {
        self.inner.actor(name)
    }
}

impl Waiter for CountingWaiter {
    fn wait(&self) {
        self.inner.wait();
    }
    fn wait_timeout(&self, d: Duration) -> bool {
        self.wakeups.fetch_add(1, Ordering::SeqCst);
        self.inner.wait_timeout(d)
    }
    fn notify_one(&self) {
        self.inner.notify_one();
    }
    fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[test]
fn with_nothing_in_flight_the_scheduler_sleeps_from_round_to_round() {
    let (clock, main) = sim();
    let wakeups = Arc::new(AtomicU64::new(0));
    let counting: SharedClock = Arc::new(CountingClock {
        inner: Arc::clone(&clock),
        wakeups: Arc::clone(&wakeups),
    });
    let mut driver = WatchdogDriver::builder()
        .config(config(MS(100), MS(500)))
        .clock(counting)
        .checker(Box::new(FnChecker::new("ok", "comp", || CheckStatus::Pass)))
        .build()
        .unwrap();
    driver.start().unwrap();
    // Ten full rounds; the eleventh was dispatched at t = 1000.
    clock.sleep(MS(1_050));
    let (rounds, waits) = (driver.stats().rounds, wakeups.load(Ordering::SeqCst));
    shut_down(&mut driver, main);
    assert_eq!(rounds, 10);
    // Per round: one wait that the instant result ends, one to the round
    // boundary. A 25 ms idle quantum would make it five.
    assert_eq!(waits, 2 * (rounds + 1), "scheduler woke between boundaries");
    assert_eq!(driver.stats().passes, 11);
}

#[test]
fn request_stop_ends_a_long_round_at_the_instant_of_the_call() {
    let (clock, main) = sim();
    let mut driver = WatchdogDriver::builder()
        .config(config(Duration::from_secs(2), MS(500)))
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new("ok", "comp", || CheckStatus::Pass)))
        .build()
        .unwrap();
    driver.start().unwrap();
    clock.sleep(MS(100));
    shut_down(&mut driver, main);
    // With the test actor retired only the driver's threads could have
    // moved virtual time; they all left at the instant of the request.
    assert_eq!(clock.now_millis(), 100);
    assert_eq!(driver.stats().rounds, 1);
}

#[test]
fn a_full_action_queue_counts_every_dropped_report() {
    let (clock, main) = sim();
    let blocked_once = AtomicBool::new(false);
    let c = Arc::clone(&clock);
    let mut driver = WatchdogDriver::builder()
        .config(config(MS(1), MS(500)))
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new("bad", "comp", || failure("comp"))))
        // The first report wedges the action worker for a virtual hour.
        .action(Arc::new(CallbackAction::new(move |_: &FailureReport| {
            if !blocked_once.swap(true, Ordering::SeqCst) {
                c.sleep(Duration::from_secs(3_600));
            }
        })))
        .build()
        .unwrap();
    driver.start().unwrap();
    // Rounds at t = 0, 1, .., 300 ms.
    clock.sleep(Duration::from_micros(300_500));
    let emitted = driver.stats().failures;
    let dropped = driver.stats().reports_dropped;
    shut_down(&mut driver, main);
    // One report in the worker's hands, 256 queued, the rest overflowed.
    assert_eq!(emitted, 301);
    assert_eq!(dropped, emitted - 257);
}

/// A recovery surface from two closures — what a restart does and what
/// every verifier's check answers — plus the virtual instants (ms) at which
/// the coordinator asked the factory for a verifier.
fn surface_of(
    clock: &SharedClock,
    restart: impl Fn() + Send + Sync + 'static,
    check: impl Fn() -> CheckStatus + Send + Sync + 'static,
) -> (RecoverySurface, Arc<Mutex<Vec<u64>>>) {
    struct RestartFn<F>(F);
    impl<F: Fn() + Send + Sync> Restartable for RestartFn<F> {
        fn restart(&self, _c: &ComponentId) {
            (self.0)()
        }
    }
    struct Nothing;
    impl Degradable for Nothing {
        fn degrade(&self, _c: &ComponentId) {}
    }
    let launches: Arc<Mutex<Vec<u64>>> = Arc::default();
    let (clock, launched, check) = (Arc::clone(clock), Arc::clone(&launches), Arc::new(check));
    let surface = RecoverySurface {
        restart: Arc::new(RestartFn(restart)),
        degrade: Arc::new(Nothing),
        verifier: Arc::new(move |c: &ComponentId| {
            launched.lock().unwrap().push(clock.now_millis());
            let check = Arc::clone(&check);
            Some(Box::new(FnChecker::new("verify", c.clone(), move || check())) as Box<dyn Checker>)
        }),
    };
    (surface, launches)
}

/// A recovery surface whose component is always healthy and whose first
/// restart blocks for a virtual hour.
fn surface(clock: &SharedClock) -> RecoverySurface {
    let (c, blocked_once) = (Arc::clone(clock), AtomicBool::new(false));
    let restart = move || {
        if !blocked_once.swap(true, Ordering::SeqCst) {
            c.sleep(Duration::from_secs(3_600));
        }
    };
    surface_of(clock, restart, || CheckStatus::Pass).0
}

#[test]
fn a_zero_backoff_retry_that_verifies_closes_with_zero_mttr() {
    let (clock, main) = sim();
    let policy = RecoveryPolicy {
        backoff: BackoffPolicy {
            base: Duration::ZERO,
            factor: 1.0,
            max: Duration::ZERO,
            jitter_frac: 0.0,
        },
        ..RecoveryPolicy::fast()
    };
    let coordinator = RecoveryCoordinator::builder(Arc::clone(&clock), surface(&clock))
        .default_policy(policy)
        .start();
    clock.sleep(MS(40));
    coordinator.on_failure(&report("comp", FailureKind::Error));
    clock.sleep(MS(1));
    let incidents = coordinator.incidents();
    coordinator.request_stop();
    main.retire();
    coordinator.stop();
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].opened_at_ms, 40, "no inbox poll delay");
    assert_eq!(incidents[0].mttr_ms, 0, "no verification poll delay");
    assert!(incidents[0].verified);
    assert_eq!((incidents[0].retries, incidents[0].restarts), (1, 0));
}

#[test]
fn a_full_inbox_counts_every_dropped_report() {
    let (clock, main) = sim();
    let coordinator = RecoveryCoordinator::builder(Arc::clone(&clock), surface(&clock))
        .default_policy(RecoveryPolicy::fast())
        .start();
    // Corruption skips the retry rung: the worker takes this report and
    // wedges inside the first restart.
    coordinator.on_failure(&report("a", FailureKind::Corruption));
    clock.sleep(MS(1));
    // 128 reports fill the inbox; five more overflow.
    for _ in 0..133 {
        coordinator.on_failure(&report("b", FailureKind::Corruption));
    }
    let dropped = coordinator.dropped_reports();
    coordinator.request_stop();
    main.retire();
    coordinator.stop();
    assert_eq!(dropped, 5);
}

const OPEN_MS: u64 = 40;
const LADDER_SEED: u64 = 9;

/// `RecoveryPolicy::fast()` without jitter: back-offs of 20 and 40 ms, so
/// the ladder's instants after open are 20, 60 (first restart), 90 (end of
/// its settle, second restart) and 120.
fn unjittered() -> RecoveryPolicy {
    let mut policy = RecoveryPolicy::fast();
    policy.backoff.jitter_frac = 0.0;
    policy
}

/// Files one `kind` report for `comp` at [`OPEN_MS`], lets the ladder run
/// for a virtual second and returns the incident it closed.
fn one_incident(
    clock: &SharedClock,
    main: ActorGuard,
    surface: RecoverySurface,
    policy: RecoveryPolicy,
    kind: FailureKind,
) -> Incident {
    let coordinator = RecoveryCoordinator::builder(Arc::clone(clock), surface)
        .default_policy(policy)
        .seed(LADDER_SEED)
        .start();
    clock.sleep(MS(OPEN_MS));
    coordinator.on_failure(&report("comp", kind));
    clock.sleep(Duration::from_secs(1));
    let incidents = coordinator.incidents();
    coordinator.request_stop();
    main.retire();
    coordinator.stop();
    assert_eq!(incidents.len(), 1, "{incidents:?}");
    assert_eq!(incidents[0].opened_at_ms, OPEN_MS);
    incidents.into_iter().next().unwrap()
}

#[test]
fn a_verifier_blocked_on_the_stuck_resource_is_carried_into_the_restart_that_frees_it() {
    let (clock, main) = sim();
    // The verifier blocks on a gate only `restart()` opens, as the kvs
    // compaction verifier blocks on the lock a wedged compactor holds. Filed
    // `Slow`: a fail-slow report still walks the back-offs, so the verifier
    // launched at open is the one the restart frees.
    let gate: ClockedQueue<()> = ClockedQueue::bounded(&clock, 1);
    let (opened, blocked) = (gate.clone(), gate.clone());
    let (surface, launches) = surface_of(
        &clock,
        move || opened.close(),
        move || {
            blocked.pop();
            CheckStatus::Pass
        },
    );
    let policy = RecoveryPolicy::fast();
    let seed = derive_seed(LADDER_SEED, "comp#1");
    let backoffs = policy.backoff.delay(0, seed) + policy.backoff.delay(1, seed);
    let incident = one_incident(&clock, main, surface, policy, FailureKind::Slow);
    assert!(incident.verified);
    assert_eq!((incident.retries, incident.restarts), (2, 1));
    // Neither a settle nor a fresh verifier's lock wait after the restart:
    // the incident closes at the instant the restart frees the resource.
    assert_eq!(
        incident.closed_at_ms,
        (MS(OPEN_MS) + backoffs).as_millis() as u64
    );
    // One `wdog-verify` actor for the whole incident (a sleep-then-poll
    // ladder spawns one per look: three).
    assert_eq!(launches.lock().unwrap().len(), 1);
    assert_eq!(incident.verifications, 1);
}

#[test]
fn a_component_healthy_at_open_closes_with_zero_mttr() {
    let (clock, main) = sim();
    let (surface, launches) = surface_of(&clock, || {}, || CheckStatus::Pass);
    let incident = one_incident(
        &clock,
        main,
        surface,
        RecoveryPolicy::fast(),
        FailureKind::Error,
    );
    assert!(incident.verified);
    assert_eq!(incident.mttr_ms, 0, "no back-off before the first look");
    assert_eq!((incident.retries, incident.restarts), (1, 0));
    assert_eq!(launches.lock().unwrap().as_slice(), &[OPEN_MS]);
}

#[test]
fn a_fast_failing_verifier_is_asked_only_at_the_ladders_instants() {
    // Instants after open at which a verifier may be launched: open, the end
    // of each back-off, and each restart + settle (the launch right after a
    // restart shares the instant before it). A sleep-then-poll ladder has
    // the same list without the 0.
    const LOOKS: [u64; 5] = [0, 20, 60, 90, 120];
    for heals_at in [0u64, 10, 30, 60, 80, 120] {
        let (clock, main) = sim();
        let c = Arc::clone(&clock);
        let (surface, launches) = surface_of(
            &clock,
            || {},
            move || {
                if c.now_millis() >= OPEN_MS + heals_at {
                    CheckStatus::Pass
                } else {
                    failure("comp")
                }
            },
        );
        let incident = one_incident(&clock, main, surface, unjittered(), FailureKind::Error);
        let expected = *LOOKS.iter().find(|l| **l >= heals_at).unwrap();
        assert!(incident.verified, "heals at {heals_at}: {incident:?}");
        assert_eq!(incident.mttr_ms, expected, "heals at {heals_at}");
        let restarts = LOOKS[2..].iter().filter(|l| **l < expected).count() as u32;
        assert_eq!(incident.restarts, restarts, "heals at {heals_at}");
        for at in launches.lock().unwrap().iter() {
            assert!(
                LOOKS.contains(&(at - OPEN_MS)),
                "heals at {heals_at}: verifier launched at open + {}",
                at - OPEN_MS
            );
        }
    }
}

#[test]
fn a_stale_fail_is_not_counted_against_the_restart_it_predates() {
    let (clock, main) = sim();
    // The verifier launched at open answers `Fail` 95 ms later: after the
    // restart at 60 and the end of its settle at 90. Every later verifier
    // passes once the restart has happened.
    let restarted = Arc::new(AtomicBool::new(false));
    let first = AtomicBool::new(true);
    let (c, r, seen) = (Arc::clone(&clock), Arc::clone(&restarted), restarted);
    let (surface, launches) = surface_of(
        &clock,
        move || r.store(true, Ordering::SeqCst),
        move || {
            if first.swap(false, Ordering::SeqCst) {
                c.sleep(MS(95));
                failure("comp")
            } else if seen.load(Ordering::SeqCst) {
                CheckStatus::Pass
            } else {
                failure("comp")
            }
        },
    );
    let incident = one_incident(&clock, main, surface, unjittered(), FailureKind::Error);
    assert!(incident.verified);
    // Counted, the verdict would end the restart rung and buy a second
    // restart; discarded, a fresh verifier is asked at that instant.
    assert_eq!(incident.restarts, 1);
    assert_eq!(incident.mttr_ms, 95);
    assert_eq!(
        launches.lock().unwrap().as_slice(),
        &[OPEN_MS, OPEN_MS + 95]
    );
}

#[test]
fn a_stuck_report_restarts_at_open_and_the_verifier_after_it_closes_the_incident() {
    let (clock, main) = sim();
    // The same gate as above, filed `Stuck`: the detector has already
    // waited out the hang, so no back-off re-waits it and the one verifier
    // is launched after the restart has opened the gate.
    let gate: ClockedQueue<()> = ClockedQueue::bounded(&clock, 1);
    let (opened, blocked) = (gate.clone(), gate.clone());
    let (surface, launches) = surface_of(
        &clock,
        move || opened.close(),
        move || {
            blocked.pop();
            CheckStatus::Pass
        },
    );
    let incident = one_incident(
        &clock,
        main,
        surface,
        RecoveryPolicy::fast(),
        FailureKind::Stuck,
    );
    assert!(incident.verified);
    assert_eq!(incident.closed_at_ms, OPEN_MS);
    assert_eq!(
        (incident.retries, incident.restarts, incident.verifications),
        (0, 1, 1)
    );
    assert_eq!(launches.lock().unwrap().as_slice(), &[OPEN_MS]);
}

#[test]
fn a_stuck_report_on_a_component_healthy_at_open_still_costs_one_restart() {
    // The price of the rule: nothing looks before the restart, so a hang
    // that cleared before the worker took its report is restarted anyway.
    let (clock, main) = sim();
    let restarts = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&restarts);
    let (surface, _) = surface_of(
        &clock,
        move || {
            r.fetch_add(1, Ordering::SeqCst);
        },
        || CheckStatus::Pass,
    );
    let incident = one_incident(
        &clock,
        main,
        surface,
        RecoveryPolicy::fast(),
        FailureKind::Stuck,
    );
    assert!(incident.verified);
    assert_eq!(incident.closed_at_ms, OPEN_MS);
    assert_eq!((incident.retries, incident.restarts), (0, 1));
    assert_eq!(restarts.load(Ordering::SeqCst), 1);
}

/// A recovery surface whose component fails every check until its first
/// restart, plus the instants verifiers were launched (see [`surface_of`]).
fn healed_by_restart(clock: &SharedClock) -> (RecoverySurface, Arc<Mutex<Vec<u64>>>) {
    let restarted = Arc::new(AtomicBool::new(false));
    let (r, seen) = (Arc::clone(&restarted), restarted);
    surface_of(
        clock,
        move || r.store(true, Ordering::SeqCst),
        move || {
            if seen.load(Ordering::SeqCst) {
                CheckStatus::Pass
            } else {
                failure("comp")
            }
        },
    )
}

#[test]
fn only_a_stuck_report_skips_the_back_offs() {
    // Slow and Error reports look at open and at the end of each back-off
    // (20, 60) before the restart at 60, whose verifier passes; a Stuck
    // report is restarted at open.
    for (kind, looks, retries) in [
        (FailureKind::Slow, &[0, 20, 60, 60][..], 2),
        (FailureKind::Error, &[0, 20, 60, 60][..], 2),
        (FailureKind::Stuck, &[0][..], 0),
    ] {
        let (clock, main) = sim();
        let (surface, launches) = healed_by_restart(&clock);
        let incident = one_incident(&clock, main, surface, unjittered(), kind);
        assert!(incident.verified, "{kind}: {incident:?}");
        assert_eq!(
            (incident.retries, incident.restarts),
            (retries, 1),
            "{kind}"
        );
        let after_open: Vec<u64> = launches
            .lock()
            .unwrap()
            .iter()
            .map(|at| at - OPEN_MS)
            .collect();
        assert_eq!(after_open, looks, "{kind}");
        assert_eq!(incident.mttr_ms, looks[looks.len() - 1], "{kind}");
    }
}

#[test]
fn a_report_that_waits_behind_another_ladder_keeps_the_instant_it_was_filed() {
    let (clock, main) = sim();
    let (surface, _) = healed_by_restart(&clock);
    let coordinator = RecoveryCoordinator::builder(Arc::clone(&clock), surface)
        .default_policy(unjittered())
        .start();
    clock.sleep(MS(OPEN_MS));
    for component in ["a", "b"] {
        coordinator.on_failure(&FailureReport {
            at_ms: clock.now_millis(),
            ..report(component, FailureKind::Error)
        });
    }
    clock.sleep(Duration::from_secs(1));
    let incidents = coordinator.incidents();
    coordinator.request_stop();
    main.retire();
    coordinator.stop();
    assert_eq!(incidents.len(), 2, "{incidents:?}");
    let (a, b) = (&incidents[0], &incidents[1]);
    assert_eq!((a.reported_at_ms, a.opened_at_ms), (OPEN_MS, OPEN_MS));
    assert_eq!(
        a.closed_at_ms,
        OPEN_MS + 60,
        "two back-offs, then a restart"
    );
    assert_eq!(b.reported_at_ms, OPEN_MS);
    assert_eq!(
        b.opened_at_ms, a.closed_at_ms,
        "taken when a's ladder closed"
    );
    assert_eq!(b.mttr_ms, b.closed_at_ms - b.opened_at_ms);
}
