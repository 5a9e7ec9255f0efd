//! One watched testbed, from boot to teardown, and the one campaign run on
//! it.
//!
//! Every campaign — Table 1/2 and E4 ([`scenario`](crate::scenario)),
//! [`chaos`](crate::chaos), [`recovery`](crate::recovery) and the
//! [`infer`](crate::infer) recorder — is [`run`]: a [`FaultSchedule`]
//! played on a fresh [`Session`] through one inject → observe loop,
//! returning one [`Trace`]. The campaigns only build the schedule (a
//! catalogue row is a one-fault schedule, a recording has no fault), pick
//! what to attach ([`RunSpec`]: extrinsic detectors, a recovery
//! coordinator, auxiliary kicks) and score the trace. Only the E6c
//! placement ablation drives a bare `Session`.
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

use detectors::{Detector, ExternalProbe, HeartbeatDetector, ObserverHub, Verdict};
use faults::injector::Injector;
use faults::schedule::{FaultSchedule, ScheduleEvent};
use wdog_base::clock::{ActorGuard, SharedClock};
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;
use wdog_core::prelude::{Action, FailureReport, WatchdogDriver};
use wdog_recover::{Incident, RecoveryCoordinator, RecoveryPolicy};
use wdog_target::{
    spawn_workload_on, TargetInstance, WatchdogTarget, WdOptions, WorkloadHandle, WorkloadObserver,
    WorkloadProfile,
};
use wdog_telemetry::ChaosMetrics;

/// Longest single sleep of [`run`]'s observation loop.
const WAKE: Duration = Duration::from_millis(50);

/// A booted, watched testbed that tears itself down in the right order.
pub struct Session {
    seed: u64,
    clock: SharedClock,
    /// The harness thread's registration on `clock` (inert on the real
    /// clock); `None` once the session has stopped.
    main: Option<ActorGuard>,
    // Declared, and so dropped, before `inst`: their checkers and requests
    // hold handles into the instance.
    driver: Option<WatchdogDriver>,
    workload: Option<WorkloadHandle>,
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
            workload: None,
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

    /// Sets the non-blocking stop request to issue at the stop instant,
    /// with the instance's and the driver's — for the one party the session
    /// does not own but that would otherwise outwait the run (the recovery
    /// coordinator's untimed inbox wait).
    pub fn at_stop(&mut self, hook: impl Fn() + 'static) {
        self.at_stop = Some(Box::new(hook));
    }

    /// Assembles the watchdog from `wd`, starts its driver, then spawns the
    /// steady workload (`workload` reseeded with the boot seed) over the
    /// instance's request; request outcomes go to `observer`.
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
        let profile = WorkloadProfile {
            seed: self.seed,
            ..workload.clone()
        };
        let request = self.inst.workload(&profile);
        self.workload = Some(spawn_workload_on(&self.clock, &profile, observer, request));
        Ok(())
    }

    /// Clears every armed fault so wedged threads can drain, raises every
    /// stop flag at one instant (the workload's first), then joins the
    /// workload and the watchdog — everything but the instance's own
    /// threads, which [`Session::finish`] or `Drop` tear down — and returns
    /// the driver's reports up to that instant. Idempotent; later calls
    /// return an empty log.
    pub fn stop(&mut self) -> Vec<FailureReport> {
        let Some(main) = self.main.take() else {
            return Vec::new();
        };
        self.injector.clear_all();
        // The stop instant: every loop observes the same stop time and no
        // report past it can leak into scoring.
        if let Some(w) = &self.workload {
            w.request_stop();
        }
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
        if let Some(w) = &mut self.workload {
            w.stop();
        }
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

/// How [`run`] paces a schedule, and what its scorer attaches to it.
#[derive(Default)]
pub struct RunSpec {
    /// Watchdog configuration.
    pub wd: WdOptions,
    /// Workload shape.
    pub workload: WorkloadProfile,
    /// Steady state before `run_start`, the schedule's time zero.
    pub warmup: Duration,
    /// Observation past the schedule's horizon.
    pub tail: Duration,
    /// The extrinsic baselines — heartbeat, probe client, observer hub —
    /// and the error-handler count, each sampled at every wake.
    pub extrinsic: bool,
    /// A recovery coordinator walking this policy; it ends the run inside
    /// the tail, at the first wake it is idle with a closed incident.
    pub coordinator: Option<RecoveryPolicy>,
    /// Offsets from `run_start` at which to kick the target's auxiliary
    /// paths (minizk's follower sync), each once the faults due then armed.
    pub kicks: Vec<Duration>,
    /// Receives the substrate's sim I/O counters, sampled at the stop
    /// instant.
    pub io_metrics: Option<ChaosMetrics>,
}

/// Everything one [`run`] observed; instants are on the run's clock.
#[derive(Debug, Default)]
pub struct Trace {
    /// When the warmup ended: fault onsets are offsets from it.
    pub run_start: Duration,
    /// When the run stopped.
    pub stopped_at: Duration,
    /// Per schedule fault, when it armed and when the schedule cleared it
    /// (`None` for an until-end fault: the stop clears it).
    pub faults: Vec<(Option<Duration>, Option<Duration>)>,
    /// The driver's reports, sealed at the stop instant.
    pub reports: Vec<FailureReport>,
    /// Each extrinsic detector's name and first suspicion (instant, reason).
    pub extrinsic: Vec<(String, Option<(Duration, String)>)>,
    /// When the target's error handler first absorbed an error.
    pub errors_handled: Option<Duration>,
    /// The attached coordinator's closed incidents, in close order.
    pub incidents: Vec<Incident>,
    /// Whether the attached coordinator drained to idle after the stop.
    pub coordinator_idle: bool,
    /// Reports dropped at its inbox.
    pub dropped_reports: u64,
    /// `(ok, failed)` workload requests.
    pub workload: (u64, u64),
    /// Whether a `ProcessCrash` fault fired.
    pub crashed: bool,
}

/// Plays `schedule` on a fresh `target` testbed booted from its seed on
/// `clock`: boot, attach, arm, warm up; then fire every schedule event at
/// `run_start + at` on the harness actor, waking at least every 50 ms to
/// sample, through the horizon and the tail; then stop everything at one
/// instant. A refused injection is an error, not a trace.
pub fn run(
    target: &dyn WatchdogTarget,
    clock: SharedClock,
    schedule: &FaultSchedule,
    spec: &RunSpec,
) -> BaseResult<Trace> {
    // Declared before the session so that they drop after it: each has a
    // joining `Drop` that needs the harness actor retired first.
    let mut extrinsics: Vec<Box<dyn Detector>> = Vec::new();
    let mut coordinator: Option<Arc<RecoveryCoordinator>> = None;
    let mut session = Session::boot(target, schedule.seed, Arc::clone(&clock), "campaign-main")?;

    let mut wd = spec.wd.clone();
    if let Some(policy) = &spec.coordinator {
        let surface = session.inst().recovery_map().surface();
        let c = RecoveryCoordinator::builder(Arc::clone(&clock), surface)
            .default_policy(policy.clone())
            .seed(derive_seed(schedule.seed, "recovery"))
            .start();
        // Its idle wait is untimed, so under sim nothing but a close ends
        // it: it is sealed at the stop instant with everything else.
        session.at_stop({
            let c = Arc::clone(&c);
            move || c.request_stop()
        });
        // Drivers are sealed at build: the coordinator rides in through the
        // options' action list instead of a post-hoc `add_action`.
        wd.actions.push(Arc::clone(&c) as Arc<dyn Action>);
        coordinator = Some(c);
    }
    let hub = spec
        .extrinsic
        .then(|| ObserverHub::new(Arc::clone(&clock), Duration::from_secs(2), 8, 0.5));
    let observer = hub
        .clone()
        .map(|hub| Arc::new(move |ok: bool| hub.report(ok)) as WorkloadObserver);
    session.arm(&wd, &spec.workload, observer)?;
    if let Some(hub) = hub {
        let (inst, ms) = (session.inst(), Duration::from_millis);
        extrinsics = vec![
            Box::new(HeartbeatDetector::start(
                Arc::clone(&clock),
                ms(50),
                ms(300),
                inst.liveness_probe(),
            )),
            Box::new(ExternalProbe::start(
                Arc::clone(&clock),
                ms(100),
                2,
                inst.api_probe(),
            )),
            Box::new(hub),
        ];
    }
    // Even a zero sleep yields to the actors ready at this instant.
    if !spec.warmup.is_zero() {
        clock.sleep(spec.warmup);
    }

    let run_start = clock.now();
    let horizon = run_start + schedule.horizon;
    let end = horizon + spec.tail;
    let errors_before = session.inst().errors_handled();
    let mut events = schedule.events();
    events.extend(spec.kicks.iter().map(|at| (*at, ScheduleEvent::Kick)));
    events.sort_by_key(|(at, _)| *at);
    let mut events = events.into_iter().peekable();
    let mut armed: Vec<_> = schedule.faults.iter().map(|_| None).collect();
    let mut trace = Trace {
        run_start,
        faults: vec![(None, None); schedule.faults.len()],
        extrinsic: extrinsics
            .iter()
            .map(|d| (d.name().to_owned(), None))
            .collect(),
        ..Trace::default()
    };
    loop {
        let now = clock.now();
        while let Some((_, event)) = events.next_if(|(at, _)| run_start + *at <= now) {
            // Kicks were appended after the schedule's events and the sort
            // is stable, so at one instant a kick follows the arms.
            match event {
                ScheduleEvent::Arm(i) => {
                    armed[i] = Some(session.injector().inject(&schedule.faults[i].spec.kind)?);
                    trace.faults[i].0 = Some(now);
                }
                ScheduleEvent::Clear(i) => {
                    if let Some(a) = armed[i].take() {
                        session.injector().clear(&a);
                        trace.faults[i].1 = Some(now);
                    }
                }
                ScheduleEvent::Kick => session.inst().exercise_auxiliary(),
            }
        }
        for (d, (_, first)) in extrinsics.iter().zip(&mut trace.extrinsic) {
            if first.is_none() {
                if let Verdict::Suspected { reason } = d.verdict() {
                    *first = Some((now, reason));
                }
            }
        }
        if spec.extrinsic
            && trace.errors_handled.is_none()
            && session.inst().errors_handled() > errors_before
        {
            trace.errors_handled = Some(now);
        }
        let settled = coordinator
            .as_ref()
            .is_some_and(|c| now >= horizon && !c.incidents().is_empty() && c.is_idle());
        if now >= end || settled {
            break;
        }
        let bound = if now < horizon { horizon } else { end };
        let next = events
            .peek()
            .map_or(bound, |(at, _)| (run_start + *at).min(bound));
        clock.sleep(next.min(now + WAKE) - now);
    }

    trace.stopped_at = clock.now();
    // Sampled while virtual time is still frozen at the stop instant: once
    // the harness actor retires, background loops run on for a number of
    // ops no schedule fixes, and the ledger would differ run to run.
    if let Some(m) = &spec.io_metrics {
        session.inst().substrate().export_io(m);
    }
    trace.reports = session.stop();
    for d in &mut extrinsics {
        d.stop();
    }
    // Drained against the still-standing instance: a repair in flight at
    // the stop must not find the instance torn down under it.
    if let Some(c) = &coordinator {
        trace.coordinator_idle = c.wait_idle(Duration::from_secs(2));
        c.stop();
        trace.incidents = c.incidents();
        trace.dropped_reports = c.dropped_reports();
    }
    trace.workload = session.workload.as_ref().map_or((0, 0), |w| w.counters());
    trace.crashed = session.crashed.load(Ordering::Relaxed);
    session.finish();
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use faults::schedule::{compose_schedule, ComposeOptions};
    use faults::spec::FaultKind;
    use kvs::target::KvsTarget;
    use miniblock::target::DnTarget;
    use minizk::target::ZkTarget;
    use simio::SimClock;
    use wdog_base::clock::RealClock;
    use wdog_target::WatchdogTarget;
    use wdog_telemetry::{ChaosMetrics, TelemetryRegistry};

    use faults::schedule::{FaultSchedule, ScheduledFault};
    use wdog_recover::RecoveryPolicy;

    use super::{run, RunSpec, Session, Trace};
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

    /// Each target's profile picks its catalogue and its `injector()`
    /// binds the surfaces: every listed scenario must arm and clear through
    /// a session's injector, every shared scenario left out must be refused,
    /// and the crash arms last.
    #[test]
    fn each_catalogue_arms_and_clears_through_its_session_injector() {
        within_a_minute(|| {
            let shared = KvsTarget.catalog();
            let targets: [&dyn WatchdogTarget; 3] = [&KvsTarget, &ZkTarget, &DnTarget];
            for target in targets {
                let catalog = target.catalog();
                let session = Session::boot(target, 1, SimClock::shared(), "test-main").unwrap();
                let injector = session.injector();
                let (crash, rest): (Vec<_>, Vec<_>) = catalog
                    .iter()
                    .partition(|s| matches!(s.kind, FaultKind::ProcessCrash));
                for s in rest {
                    let armed = injector
                        .inject(&s.kind)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", target.name(), s.id));
                    injector.clear(&armed);
                }
                for s in shared
                    .iter()
                    .filter(|s| catalog.iter().all(|c| c.id != s.id))
                {
                    assert!(
                        injector.inject(&s.kind).is_err(),
                        "{}/{} is not catalogued but arms",
                        target.name(),
                        s.id
                    );
                }
                assert_eq!(crash.len(), 1, "{}: one crash scenario", target.name());
                injector.inject(&crash[0].kind).unwrap();
                assert!(session.crashed.load(std::sync::atomic::Ordering::Relaxed));
            }
        });
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
                let counters = |s: &Session| s.workload.as_ref().unwrap().counters();
                let served = counters(&session);
                assert!(served.0 > 0, "the workload never ran");

                session.finish();
                assert_eq!(counters(&session), served);
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

    fn kvs_fault(id: &str, start_ms: u64, hold_ms: Option<u64>) -> ScheduledFault {
        let scenario = KvsTarget
            .catalog()
            .into_iter()
            .find(|s| s.id == id)
            .unwrap();
        let mut f = ScheduledFault::at_start(&scenario, hold_ms.map(Duration::from_millis));
        f.spec.start_after = Duration::from_millis(start_ms);
        f
    }

    fn kvs_schedule(horizon_ms: u64, faults: Vec<ScheduledFault>) -> FaultSchedule {
        FaultSchedule {
            id: "runner-test".into(),
            seed: 3,
            benign: false,
            horizon: Duration::from_millis(horizon_ms),
            faults,
        }
    }

    fn campaign_spec(tail: Duration, coordinator: Option<RecoveryPolicy>) -> RunSpec {
        let runner = RunnerOptions::default();
        RunSpec {
            wd: runner.wd,
            workload: runner.workload,
            warmup: Duration::from_millis(400),
            tail,
            coordinator,
            ..RunSpec::default()
        }
    }

    fn run_on_sim(schedule: FaultSchedule, spec: RunSpec) -> Trace {
        within_a_minute(move || run(&KvsTarget, SimClock::shared(), &schedule, &spec).unwrap())
    }

    /// Every event fires on the harness actor at `run_start + at`, off the
    /// 50 ms wake grid too; an until-end fault is cleared only by the stop.
    #[test]
    fn the_runner_arms_and_clears_each_fault_at_its_offset() {
        let schedule = kvs_schedule(
            1_000,
            vec![
                kvs_fault("partial-disk-stuck", 130, Some(410)),
                kvs_fault("background-task-stuck", 275, None),
            ],
        );
        let t = run_on_sim(schedule, campaign_spec(Duration::ZERO, None));
        let at = |ms: u64| Some(t.run_start + Duration::from_millis(ms));
        assert_eq!(t.faults, vec![(at(130), at(540)), (at(275), None)]);
        assert_eq!(Some(t.stopped_at), at(1_000));
    }

    /// An attached coordinator never ends the run inside the horizon, and
    /// inside the tail ends it at the first wake where it is idle with a
    /// closed incident.
    #[test]
    fn an_attached_coordinator_ends_the_run_only_inside_the_tail() {
        let tail = Duration::from_secs(8);
        for horizon_ms in [100, 2_500] {
            let schedule = kvs_schedule(
                horizon_ms,
                vec![kvs_fault("background-task-stuck", 0, None)],
            );
            let t = run_on_sim(schedule, campaign_spec(tail, Some(RecoveryPolicy::fast())));
            let horizon = t.run_start + Duration::from_millis(horizon_ms);
            let first_close = t.incidents.iter().map(|i| i.closed_at_ms).min().unwrap();
            assert!(t.coordinator_idle, "{t:?}");
            assert!(t.stopped_at >= horizon && t.stopped_at < horizon + tail);
            let waited = (t.stopped_at - horizon).as_millis() as u64;
            assert_eq!(waited % 50, 0, "stopped off the wake grid: {t:?}");
            // Incidents close on whole virtual ms; wakes keep the boot's
            // sub-ms offset.
            let closed = Duration::from_millis(first_close);
            if closed <= horizon {
                assert_eq!(t.stopped_at, horizon, "{t:?}");
            } else {
                let previous_wake = t.stopped_at - Duration::from_millis(50);
                assert!(
                    closed <= t.stopped_at && previous_wake < closed + Duration::from_millis(1),
                    "{t:?}"
                );
            }
        }
    }

    /// What no campaign composed before: a multi-fault chaos schedule with
    /// the recovery loop attached, replaying to the same trace.
    #[test]
    fn a_two_fault_schedule_with_a_coordinator_replays_identically() {
        let pool = chaos_pool(&KvsTarget);
        let schedule = (0..)
            .filter_map(|i| compose_schedule(&pool, 42, i, &ComposeOptions::default()))
            .find(|s| s.faults.len() == 2 && !s.benign)
            .unwrap();
        let replay = || {
            let spec = campaign_spec(Duration::from_secs(2), Some(RecoveryPolicy::fast()));
            run_on_sim(schedule.clone(), spec)
        };
        let a = replay();
        assert!(a.faults.iter().all(|f| f.0.is_some()), "{a:?}");
        assert!(!a.incidents.is_empty(), "{a:?}");
        assert_eq!(format!("{a:?}"), format!("{:?}", replay()));
    }

    /// The I/O ledger is sampled at the stop instant, before teardown lets
    /// background loops run on: the same schedule reads the same counters.
    /// Sampled after teardown, a few of the first six kvs schedules read a
    /// different count on a second run.
    #[test]
    fn the_io_ledger_replays_identically() {
        let pool = chaos_pool(&KvsTarget);
        for index in 0..6 {
            let schedule = compose_schedule(&pool, 42, index, &ComposeOptions::default()).unwrap();
            let replay = || {
                let metrics = ChaosMetrics::new(TelemetryRegistry::shared());
                let spec = RunSpec {
                    io_metrics: Some(metrics.clone()),
                    ..campaign_spec(Duration::from_millis(400), None)
                };
                run_on_sim(schedule.clone(), spec);
                metrics.registry().snapshot()
            };
            let a = replay();
            assert!(a.counters.iter().any(|c| c.value > 0), "{a:?}");
            assert_eq!(a, replay(), "{}", schedule.id);
        }
    }
}
