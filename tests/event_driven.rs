//! The control plane is event-driven: no poll quantum sits between a
//! checker's verdict and a verified repair.
//!
//! Every test runs on the discrete-event [`SimClock`], where "at once" is
//! checkable as an equality between virtual instants. Each timing assertion
//! fails by construction on a scheduler that polls (2 ms busy / 25 ms idle),
//! an action worker that is a clock spectator, or a coordinator that sleeps
//! 25 ms on its inbox and 5 ms per verification probe.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use simio::SimClock;
use wdog_base::clock::{ActorGuard, ActorToken, Waiter};
use wdog_core::prelude::*;
use wdog_recover::coordinator::RECOVERY_DROPPED_METRIC;
use wdog_recover::{BackoffPolicy, RecoveryCoordinator, RecoveryPolicy, RecoverySurface};

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
    let registry = TelemetryRegistry::shared();
    let blocked_once = AtomicBool::new(false);
    let c = Arc::clone(&clock);
    let mut driver = WatchdogDriver::builder()
        .config(config(MS(1), MS(500)))
        .clock(Arc::clone(&clock))
        .telemetry(Arc::clone(&registry))
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
    let snap = registry.snapshot();
    assert_eq!(snap.counter("reports_dropped_total", ""), Some(dropped));
}

/// A recovery surface whose component is always healthy and whose first
/// restart blocks for a virtual hour.
fn surface(clock: &SharedClock) -> RecoverySurface {
    struct SlowFirstRestart {
        clock: SharedClock,
        blocked_once: AtomicBool,
    }
    impl Restartable for SlowFirstRestart {
        fn restart(&self, _c: &ComponentId) {
            if !self.blocked_once.swap(true, Ordering::SeqCst) {
                self.clock.sleep(Duration::from_secs(3_600));
            }
        }
    }
    struct Nothing;
    impl Degradable for Nothing {
        fn degrade(&self, _c: &ComponentId) {}
    }
    RecoverySurface {
        restart: Arc::new(SlowFirstRestart {
            clock: Arc::clone(clock),
            blocked_once: AtomicBool::new(false),
        }),
        degrade: Arc::new(Nothing),
        verifier: Arc::new(|c: &ComponentId| {
            Some(
                Box::new(FnChecker::new("verify", c.clone(), || CheckStatus::Pass))
                    as Box<dyn Checker>,
            )
        }),
    }
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
    coordinator.on_failure(&report("comp", FailureKind::Stuck));
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
    let registry = TelemetryRegistry::shared();
    let coordinator = RecoveryCoordinator::builder(Arc::clone(&clock), surface(&clock))
        .default_policy(RecoveryPolicy::fast())
        .telemetry(Arc::clone(&registry))
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
    let snap = registry.snapshot();
    assert_eq!(snap.counter(RECOVERY_DROPPED_METRIC, ""), Some(5));
}
