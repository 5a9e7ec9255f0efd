//! The watchdog driver: checker scheduling, execution, and failure handling.
//!
//! The driver is the paper's runtime core (§3.1): it "manages checker
//! scheduling and execution. When a checker executes, it might get stuck,
//! crash, or trigger an error. The watchdog driver catches failure signatures
//! from checkers, aborts or restarts their executions and applies an action
//! to the main program accordingly."
//!
//! # Execution model
//!
//! Every registered checker gets a **dedicated executor thread**. The
//! scheduler thread dispatches rounds at the configured
//! [`SchedulePolicy`] interval and is otherwise **event-driven**: it parks
//! on one clock [`Waiter`] until the earlier of the round deadline and a
//! busy checker's timeout, and is woken early only by an executor posting a
//! result or by `stop`/`request_stop`. Nothing is polled: a
//! result is collected — and a failure reported — at the instant it lands,
//! a timeout fires at exactly `dispatch + timeout`, and a driver with
//! nothing in flight sleeps from one round boundary to the next. It watches
//! for three failure signatures:
//!
//! - a **failed check** — the checker returned
//!   [`CheckStatus::Fail`];
//! - a **hung checker** — the executor did not report back within the
//!   checker's timeout. Because mimic checkers share the fate of the code
//!   they copy (§3.3), a hung checker *is* a detection: the driver emits a
//!   [`FailureKind::Stuck`] report
//!   pinpointed at the operation the checker's
//!   [`ExecutionProbe`] last entered;
//! - a **panicked checker** — caught with `catch_unwind` on the executor
//!   thread and reported as
//!   [`FailureKind::CheckerPanic`];
//!   the main program is never affected (isolation, §3.2). Every body runs
//!   inside [`wdog_base::isolation::scope`], so an untagged write, send or
//!   state change it attempts panics before it takes effect and is reported
//!   the same way.
//!
//! A checker still busy when the next round begins is simply not
//! re-dispatched — a hung checker is reported `Stuck` once and runs again
//! only after the hung call returns; other checkers proceed independently,
//! so one wedged component never blinds the watchdog to the rest of the
//! process.
//!
//! Failure reports are handed to actions through a bounded [`ClockedQueue`]
//! serviced by the dedicated `wdog-actions` clock actor, so a slow action
//! (say, a recovery attempt) can never wedge the scheduler and, under a
//! simulated clock, an action sees a report at the virtual instant it was
//! emitted; overflow is counted in [`DriverStats::reports_dropped`] rather
//! than blocking detection.
//!
//! For the in-place ablation (experiment E6), [`WatchdogDriver::run_inline_round`]
//! executes every checker synchronously on the caller's thread — the design
//! the paper argues *against* — without spawning anything.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver};

use wdog_base::clock::{spawn_on, SharedClock, Waiter};
use wdog_base::error::{BaseError, BaseResult};
use wdog_base::ids::{CheckerId, ComponentId};
use wdog_base::queue::ClockedQueue;

use crate::action::{Action, LogAction};
use crate::checker::{CheckStatus, Checker, ExecutionProbe};
use crate::policy::SchedulePolicy;
use crate::report::{FailureKind, FailureReport, FaultLocation};

/// Driver-wide configuration.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Scheduling policy for checking rounds.
    pub policy: SchedulePolicy,
    /// Execution timeout applied to every checker.
    pub default_timeout: Duration,
    /// Read by nothing. The field survives only because `benchmark/` names
    /// it in a struct literal; it goes when that workspace may change.
    pub health_window: Duration,
    /// When set, executors spawn in a seed-derived permutation of
    /// registration order instead of registration order itself. Verdicts
    /// must not depend on spawn order; campaign determinism tests sweep
    /// this seed to prove it.
    pub spawn_order_seed: Option<u64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            policy: SchedulePolicy::default(),
            default_timeout: Duration::from_secs(5),
            health_window: Duration::from_secs(30),
            spawn_order_seed: None,
        }
    }
}

/// Counters describing everything the driver has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Completed scheduling rounds.
    pub rounds: u64,
    /// Checker executions dispatched.
    pub runs: u64,
    /// Executions that returned `Pass`.
    pub passes: u64,
    /// Executions that returned `Fail` (excluding timeouts).
    pub failures: u64,
    /// Executions skipped or returned `NotReady`.
    pub not_ready: u64,
    /// Stuck-checker detections (timeout expiries).
    pub timeouts: u64,
    /// Checker panics caught.
    pub panics: u64,
    /// Failure reports dropped because the action queue was full.
    pub reports_dropped: u64,
    /// Reports evicted from the driver's built-in ring log to honour its
    /// capacity (folded in from [`LogAction`]).
    pub log_evictions: u64,
}

#[derive(Default)]
struct StatsInner {
    rounds: AtomicU64,
    runs: AtomicU64,
    passes: AtomicU64,
    failures: AtomicU64,
    not_ready: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    reports_dropped: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> DriverStats {
        DriverStats {
            rounds: self.rounds.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            not_ready: self.not_ready.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            reports_dropped: self.reports_dropped.load(Ordering::Relaxed),
            log_evictions: 0,
        }
    }
}

/// A checker not yet started: still owned by the driver.
struct Pending {
    checker: Box<dyn Checker>,
    probe: ExecutionProbe,
}

impl Pending {
    /// Attaches a fresh [`ExecutionProbe`] to `checker`.
    fn new(mut checker: Box<dyn Checker>) -> Self {
        let probe = ExecutionProbe::new();
        checker.attach_probe(probe.clone());
        Self { checker, probe }
    }
}

/// Scheduler→executor dispatch signal.
///
/// Replaces a bounded crossbeam channel with a clock-provided [`Waiter`] so
/// executor threads block *on the clock*: under a real clock this is a plain
/// condvar, under the simulated clock the wait is visible to the
/// discrete-event core and virtual time can advance past it.
///
/// Dispatch is **batched**: every executor of one driver parks on a single
/// shared waiter, the scheduler arms the run flags of all due slots with
/// plain stores, and then issues *one* `notify_all` for the whole batch —
/// one wakeup drains a slice of due checkers instead of one syscall-grade
/// notify per checker per round. Executors woken without a run token simply
/// re-park; the busy-slot gate in [`SchedulerCtx::dispatch`] guarantees
/// at most one outstanding run per executor.
struct ExecSignal {
    waiter: Arc<dyn Waiter>,
    run: AtomicBool,
    closed: AtomicBool,
}

impl ExecSignal {
    fn new(waiter: Arc<dyn Waiter>) -> Arc<Self> {
        Arc::new(Self {
            waiter,
            run: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        })
    }

    /// Scheduler side: hand the executor one run token *without* waking it.
    /// The scheduler wakes the whole batch with one `notify_all` on the
    /// shared waiter after arming every due slot.
    fn arm(&self) {
        self.run.store(true, Ordering::Release);
    }

    /// Scheduler side: release the executor thread for good. Like
    /// [`arm`](Self::arm) it does not wake the thread; the caller follows
    /// up with one `notify_all` on the shared waiter.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Executor side: block until the next run token; `false` means closed.
    fn next_run(&self) -> bool {
        loop {
            if self.closed.load(Ordering::Acquire) {
                return false;
            }
            if self.run.swap(false, Ordering::AcqRel) {
                return true;
            }
            self.waiter.wait();
        }
    }
}

/// Driver-side view of a running checker's executor.
struct ExecSlot {
    id: CheckerId,
    component: ComponentId,
    probe: ExecutionProbe,
    signal: Arc<ExecSignal>,
    result_rx: Receiver<CheckStatus>,
    busy_since: Option<Duration>,
    reported_stuck: bool,
}

impl ExecSlot {
    /// The next instant this slot needs the scheduler: the timeout of a
    /// busy checker not yet reported stuck.
    fn next_event(&self, timeout: Duration) -> Option<Duration> {
        self.busy_since
            .filter(|_| !self.reported_stuck)
            .map(|since| since + timeout)
    }
}

/// What an executor thread needs from its driver.
struct ExecEnv {
    clock: SharedClock,
    default_timeout: Duration,
    /// The one waiter all executors park on; see [`ExecSignal`].
    dispatch: Arc<dyn Waiter>,
    /// The scheduler's waiter: notified when a result lands and by
    /// `stop`/`request_stop`.
    wake: Arc<dyn Waiter>,
}

/// Capacity of the bounded scheduler→action queue.
const ACTION_QUEUE_CAP: usize = 256;

/// The watchdog driver. See module docs for the execution model.
pub struct WatchdogDriver {
    config: WatchdogConfig,
    clock: SharedClock,
    pending: Vec<Pending>,
    actions: Vec<Arc<dyn Action>>,
    log: Arc<LogAction>,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    /// What the scheduler parks on (see [`ExecEnv::wake`]).
    wake: Arc<dyn Waiter>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    action_worker: Option<std::thread::JoinHandle<()>>,
}

impl WatchdogDriver {
    /// Creates a driver with the given configuration and clock. Internal:
    /// [`DriverBuilder::build`] is the only entry point, so every driver is
    /// validated exactly once before it can start.
    fn new(config: WatchdogConfig, clock: SharedClock) -> Self {
        Self {
            config,
            wake: clock.waiter(),
            clock,
            pending: Vec::new(),
            actions: Vec::new(),
            log: LogAction::new(),
            stats: Arc::new(StatsInner::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            scheduler: None,
            action_worker: None,
        }
    }

    /// Returns a [`DriverBuilder`], the preferred way to assemble a driver.
    pub fn builder() -> DriverBuilder {
        DriverBuilder::new()
    }

    /// Adds an action invoked for every failure report (builder-internal;
    /// see [`DriverBuilder::action`]).
    fn add_action(&mut self, action: Arc<dyn Action>) {
        self.actions.push(action);
    }

    /// Returns the built-in report log.
    pub fn log(&self) -> Arc<LogAction> {
        Arc::clone(&self.log)
    }

    /// Returns a snapshot of the driver counters.
    pub fn stats(&self) -> DriverStats {
        let mut stats = self.stats.snapshot();
        stats.log_evictions = self.log.eviction_count();
        stats
    }

    /// Returns the ids of all registered checkers, in registration order.
    pub fn checker_ids(&self) -> Vec<CheckerId> {
        self.pending.iter().map(|p| p.checker.id()).collect()
    }

    /// Returns the component each registered checker blames, in
    /// registration order.
    pub fn checker_components(&self) -> Vec<ComponentId> {
        self.pending.iter().map(|p| p.checker.component()).collect()
    }

    /// Runs every registered checker once, synchronously, on this thread.
    ///
    /// This is the **in-place** execution mode the paper argues against
    /// (§3.1) — heavy checks delay the caller and a hung check hangs the
    /// caller — kept for the E6 ablation. Only valid before `start`.
    pub fn run_inline_round(&mut self) -> BaseResult<Vec<FailureReport>> {
        if self.scheduler.is_some() {
            return Err(BaseError::InvalidState(
                "inline rounds are unavailable after start".into(),
            ));
        }
        let mut reports = Vec::new();
        let now_ms = self.clock.now_millis();
        for p in &mut self.pending {
            self.stats.runs.fetch_add(1, Ordering::Relaxed);
            let status = {
                let _isolated = wdog_base::isolation::scope();
                p.checker.check()
            };
            match status {
                CheckStatus::Pass => {
                    self.stats.passes.fetch_add(1, Ordering::Relaxed);
                }
                CheckStatus::NotReady => {
                    self.stats.not_ready.fetch_add(1, Ordering::Relaxed);
                }
                CheckStatus::Fail(f) => {
                    self.stats.failures.fetch_add(1, Ordering::Relaxed);
                    let report = FailureReport {
                        checker: p.checker.id(),
                        kind: f.kind,
                        location: f.location,
                        detail: f.detail,
                        payload: f.payload,
                        observed_latency_ms: f.observed_latency_ms,
                        at_ms: now_ms,
                    };
                    self.log.on_failure(&report);
                    for a in &self.actions {
                        a.on_failure(&report);
                    }
                    reports.push(report);
                }
            }
        }
        self.stats.rounds.fetch_add(1, Ordering::Relaxed);
        Ok(reports)
    }

    /// Starts the concurrent watchdog: spawns one executor thread per
    /// checker plus the scheduler thread.
    pub fn start(&mut self) -> BaseResult<()> {
        if self.scheduler.is_some() {
            return Err(BaseError::InvalidState("driver already started".into()));
        }
        if let Some(seed) = self.config.spawn_order_seed {
            // Deterministic Fisher–Yates over a splitmix64 stream: the same
            // seed always yields the same spawn order, and `None` keeps
            // registration order exactly.
            let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for i in (1..self.pending.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                self.pending.swap(i, j);
            }
        }
        let env = ExecEnv {
            clock: Arc::clone(&self.clock),
            default_timeout: self.config.default_timeout,
            // One waiter shared by every executor: dispatch arms run flags
            // and wakes the whole batch with a single notify_all.
            dispatch: self.clock.waiter(),
            wake: Arc::clone(&self.wake),
        };
        let slots = self
            .pending
            .drain(..)
            .map(|p| spawn_executor(p, &env))
            .collect();

        // Actions run on their own clock actor behind a bounded queue: a
        // slow or blocking action (a recovery attempt, say) must never stall
        // detection, and a failure storm overflows into a counter instead of
        // unbounded memory. The scheduler closes the queue when it exits.
        let action_queue = ClockedQueue::bounded(&self.clock, ACTION_QUEUE_CAP);
        let (inbox, actions) = (action_queue.clone(), self.actions.clone());
        self.action_worker = Some(spawn_on(&self.clock, "wdog-actions", move || {
            while let Some(report) = inbox.pop() {
                for a in &actions {
                    a.on_failure(&report);
                }
            }
        }));

        let ctx = SchedulerCtx {
            slots,
            env,
            action_queue,
            log: Arc::clone(&self.log),
            stats: Arc::clone(&self.stats),
            interval: self.config.policy.interval,
            shutdown: Arc::clone(&self.shutdown),
        };
        self.scheduler = Some(spawn_on(&self.clock, "wdog-scheduler", move || {
            scheduler_loop(ctx)
        }));
        Ok(())
    }

    /// Requests shutdown without blocking: the scheduler is woken at once,
    /// closes every executor and the action queue, and exits. Under a
    /// simulated clock all of that happens at the virtual instant of the
    /// call; the (wall-time) joins are left to [`WatchdogDriver::stop`].
    pub fn request_stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.wake.notify_one();
    }

    /// Stops the scheduler and releases idle executor threads.
    ///
    /// Executor threads currently wedged inside a hung check cannot be
    /// forcibly killed; they exit on their own if the underlying operation
    /// ever completes. This mirrors the paper's observation that the driver
    /// can only *abort scheduling* a stuck checker, not unwind it.
    pub fn stop(&mut self) {
        self.request_stop();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        // The scheduler closed the action queue on its way out; the action
        // worker drains whatever is queued and exits.
        if let Some(handle) = self.action_worker.take() {
            let _ = handle.join();
        }
    }

    /// Returns `true` once [`WatchdogDriver::start`] has run.
    pub fn is_started(&self) -> bool {
        self.scheduler.is_some()
    }
}

impl Drop for WatchdogDriver {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for WatchdogDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchdogDriver")
            .field("started", &self.is_started())
            .field("stats", &self.stats())
            .finish()
    }
}

/// One-shot assembly of a [`WatchdogDriver`] — the only way to build one.
///
/// A fluent builder that validates the whole configuration once at
/// [`DriverBuilder::build`]: duplicate checker ids and a zero scheduling
/// interval are rejected there instead of surfacing as confusing runtime
/// behaviour, and a started driver can never grow checkers or actions.
///
/// # Examples
///
/// ```
/// use wdog_core::prelude::*;
/// use std::time::Duration;
///
/// let driver = WatchdogDriver::builder()
///     .config(WatchdogConfig {
///         policy: SchedulePolicy::every(Duration::from_millis(50)),
///         ..WatchdogConfig::default()
///     })
///     .checker(Box::new(FnChecker::new("ok", "comp", || CheckStatus::Pass)))
///     .build()
///     .unwrap();
/// assert_eq!(driver.checker_ids().len(), 1);
/// ```
#[derive(Default)]
pub struct DriverBuilder {
    config: WatchdogConfig,
    clock: Option<SharedClock>,
    checkers: Vec<Box<dyn Checker>>,
    actions: Vec<Arc<dyn Action>>,
}

impl DriverBuilder {
    /// Creates a builder with the default [`WatchdogConfig`] and real clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the driver configuration (policy, default timeout, health window).
    pub fn config(mut self, config: WatchdogConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the clock; defaults to the process-wide real clock.
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Adds one checker.
    pub fn checker(mut self, checker: Box<dyn Checker>) -> Self {
        self.checkers.push(checker);
        self
    }

    /// Adds every checker from an iterator.
    pub fn checkers(mut self, checkers: impl IntoIterator<Item = Box<dyn Checker>>) -> Self {
        self.checkers.extend(checkers);
        self
    }

    /// Adds an action invoked for every failure report.
    pub fn action(mut self, action: Arc<dyn Action>) -> Self {
        self.actions.push(action);
        self
    }

    /// Validates the assembled configuration and returns the driver.
    ///
    /// Errors on a zero scheduling interval or duplicate checker ids.
    pub fn build(self) -> BaseResult<WatchdogDriver> {
        if self.config.policy.interval.is_zero() {
            return Err(BaseError::InvalidState(
                "scheduling interval must be non-zero".into(),
            ));
        }
        let clock = self
            .clock
            .unwrap_or_else(wdog_base::clock::RealClock::shared);
        let mut driver = WatchdogDriver::new(self.config, clock);
        for checker in self.checkers {
            driver.pending.push(Pending::new(checker));
        }
        let mut seen = std::collections::HashSet::new();
        for id in driver.checker_ids() {
            if !seen.insert(id.clone()) {
                return Err(BaseError::InvalidState(format!(
                    "duplicate checker id: {id}"
                )));
            }
        }
        for action in self.actions {
            driver.add_action(action);
        }
        Ok(driver)
    }
}

impl std::fmt::Debug for DriverBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverBuilder")
            .field("checkers", &self.checkers.len())
            .field("actions", &self.actions.len())
            .finish()
    }
}

fn spawn_executor(p: Pending, env: &ExecEnv) -> ExecSlot {
    let Pending { mut checker, probe } = p;
    let id = checker.id();
    let component = checker.component();
    let signal = ExecSignal::new(Arc::clone(&env.dispatch));
    let (result_tx, result_rx) = bounded::<CheckStatus>(1);
    let wake = Arc::clone(&env.wake);
    let thread_signal = Arc::clone(&signal);
    let thread_probe = probe.clone();
    let thread_component = component.clone();
    let thread_id = id.clone();
    spawn_on(&env.clock, &format!("wdog-exec-{id}"), move || {
        while thread_signal.next_run() {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _isolated = wdog_base::isolation::scope();
                checker.check()
            }));
            let status = match outcome {
                Ok(s) => s,
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    let location = thread_probe.current().unwrap_or_else(|| {
                        FaultLocation::new(
                            thread_component.clone(),
                            format!("<checker {thread_id}>"),
                        )
                    });
                    CheckStatus::Fail(crate::checker::CheckFailure::new(
                        FailureKind::CheckerPanic,
                        location,
                        msg,
                    ))
                }
            };
            thread_probe.exit();
            if result_tx.send(status).is_err() {
                break; // The scheduler exited and dropped the slot.
            }
            wake.notify_one();
        }
    });
    ExecSlot {
        id,
        component,
        probe,
        signal,
        result_rx,
        busy_since: None,
        reported_stuck: false,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("checker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("checker panicked: {s}")
    } else {
        "checker panicked".to_owned()
    }
}

struct SchedulerCtx {
    slots: Vec<ExecSlot>,
    env: ExecEnv,
    action_queue: ClockedQueue<FailureReport>,
    log: Arc<LogAction>,
    stats: Arc<StatsInner>,
    /// Time between the starts of consecutive rounds.
    interval: Duration,
    shutdown: Arc<AtomicBool>,
}

impl SchedulerCtx {
    fn emit(&self, report: FailureReport) {
        self.log.on_failure(&report);
        // Actions run on the wdog-actions thread; if its queue is full the
        // report is counted as dropped rather than blocking the scheduler.
        if self.action_queue.push(report).is_err() {
            self.stats.reports_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains completed executions and counts their outcomes.
    fn collect_results(&mut self) {
        let now_ms = self.env.clock.now_millis();
        let now = self.env.clock.now();
        // Gather finished statuses first to avoid borrowing `self` twice.
        let mut finished: Vec<(usize, CheckStatus, Option<u64>)> = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.busy_since.is_none() {
                continue;
            }
            if let Ok(status) = slot.result_rx.try_recv() {
                let elapsed_ms = slot
                    .busy_since
                    .map(|s| now.saturating_sub(s).as_millis() as u64);
                slot.busy_since = None;
                slot.reported_stuck = false;
                finished.push((i, status, elapsed_ms));
            }
        }
        for (i, status, elapsed_ms) in finished {
            match status {
                CheckStatus::Pass => {
                    self.stats.passes.fetch_add(1, Ordering::Relaxed);
                }
                CheckStatus::NotReady => {
                    self.stats.not_ready.fetch_add(1, Ordering::Relaxed);
                }
                CheckStatus::Fail(f) => {
                    if f.kind == FailureKind::CheckerPanic {
                        self.stats.panics.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.stats.failures.fetch_add(1, Ordering::Relaxed);
                    }
                    let slot = &self.slots[i];
                    let report = FailureReport {
                        checker: slot.id.clone(),
                        kind: f.kind,
                        location: f.location,
                        detail: f.detail,
                        payload: f.payload,
                        observed_latency_ms: f.observed_latency_ms.or(elapsed_ms),
                        at_ms: now_ms,
                    };
                    self.emit(report);
                }
            }
        }
    }

    /// Reports, once per episode, checkers that have exceeded their
    /// execution timeout.
    fn detect_stuck(&mut self) {
        let now = self.env.clock.now();
        let now_ms = self.env.clock.now_millis();
        let timeout = self.env.default_timeout;
        let mut reports = Vec::new();
        for slot in &mut self.slots {
            let Some(since) = slot.busy_since else {
                continue;
            };
            let elapsed = now.saturating_sub(since);
            if slot.reported_stuck || elapsed < timeout {
                continue;
            }
            slot.reported_stuck = true;
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            let location = slot.probe.current().unwrap_or_else(|| {
                FaultLocation::new(slot.component.clone(), format!("<checker {}>", slot.id))
            });
            reports.push(FailureReport {
                checker: slot.id.clone(),
                kind: FailureKind::Stuck,
                location,
                detail: format!(
                    "checker execution exceeded timeout of {} ms",
                    timeout.as_millis()
                ),
                payload: Vec::new(),
                observed_latency_ms: Some(elapsed.as_millis() as u64),
                at_ms: now_ms,
            });
        }
        for r in reports {
            self.emit(r);
        }
    }

    /// Dispatches every idle checker at the top of a round: arms each run
    /// flag, then wakes the executor pool once.
    fn dispatch(&mut self) {
        let now = self.env.clock.now();
        let mut armed = 0usize;
        for slot in &mut self.slots {
            if slot.busy_since.is_some() {
                continue; // Still running (possibly stuck); skip this round.
            }
            slot.signal.arm();
            armed += 1;
            slot.busy_since = Some(now);
            self.stats.runs.fetch_add(1, Ordering::Relaxed);
        }
        if armed > 0 {
            self.env.dispatch.notify_all();
        }
    }

    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Parks the scheduler until `deadline`, the earliest slot event before
    /// it, a landed result or a stop request — whichever comes first.
    fn park(&self, deadline: Duration) {
        let wake_at = self
            .slots
            .iter()
            .filter_map(|slot| slot.next_event(self.env.default_timeout))
            .fold(deadline, Duration::min);
        let now = self.env.clock.now();
        self.env.wake.wait_timeout(wake_at.saturating_sub(now));
    }
}

fn scheduler_loop(mut ctx: SchedulerCtx) {
    let clock = Arc::clone(&ctx.env.clock);
    while !ctx.stopped() {
        ctx.collect_results();
        let round_start = clock.now();
        ctx.dispatch();
        let deadline = round_start + ctx.interval;
        while !ctx.stopped() && clock.now() < deadline {
            ctx.park(deadline);
            ctx.collect_results();
            ctx.detect_stuck();
        }
        ctx.stats.rounds.fetch_add(1, Ordering::Relaxed);
    }
    // Release every executor thread and the action worker: a waiter wait is
    // not woken by a drop, so shutdown must close both explicitly.
    for slot in &ctx.slots {
        slot.signal.close();
    }
    ctx.env.dispatch.notify_all();
    ctx.action_queue.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckFailure, FnChecker};
    use std::sync::atomic::AtomicU64;
    use wdog_base::clock::RealClock;

    fn fast_config(interval_ms: u64, timeout_ms: u64) -> WatchdogConfig {
        WatchdogConfig {
            policy: SchedulePolicy::every(Duration::from_millis(interval_ms)),
            default_timeout: Duration::from_millis(timeout_ms),
            health_window: Duration::from_secs(10),
            spawn_order_seed: None,
        }
    }

    fn wait_until(pred: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        pred()
    }

    #[test]
    fn passing_checkers_produce_no_reports() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .checker(Box::new(FnChecker::new("ok", "comp", || CheckStatus::Pass)))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(|| d.stats().passes >= 3, Duration::from_secs(5)));
        d.stop();
        assert!(d.log().is_empty());
        assert_eq!(d.stats().failures, 0);
    }

    #[test]
    fn failing_checker_produces_reports() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .checker(Box::new(FnChecker::new("bad", "kvs.wal", || {
                CheckStatus::Fail(CheckFailure::new(
                    FailureKind::Error,
                    FaultLocation::new("kvs.wal", "append"),
                    "disk error",
                ))
            })))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(|| d.log().len() >= 2, Duration::from_secs(5)));
        d.stop();
        let report = &d.log().reports()[0];
        assert_eq!(report.kind, FailureKind::Error);
        assert_eq!(report.location.function, "append");
        assert_eq!(report.location.component, ComponentId::new("kvs.wal"));
    }

    #[test]
    fn hung_checker_is_reported_stuck_at_probe_location() {
        let gate = Arc::new(AtomicBool::new(true));
        let gate2 = Arc::clone(&gate);
        struct Hanging {
            gate: Arc<AtomicBool>,
            probe: Option<ExecutionProbe>,
        }
        impl Checker for Hanging {
            fn id(&self) -> CheckerId {
                CheckerId::new("hang")
            }
            fn component(&self) -> ComponentId {
                ComponentId::new("zk.sync")
            }
            fn attach_probe(&mut self, probe: ExecutionProbe) {
                self.probe = Some(probe);
            }
            fn check(&mut self) -> CheckStatus {
                self.probe
                    .as_ref()
                    .unwrap()
                    .enter(FaultLocation::new("zk.sync", "serialize_node").with_op("net::send"));
                while self.gate.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                self.probe.as_ref().unwrap().exit();
                CheckStatus::Pass
            }
        }
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 50))
            .checker(Box::new(Hanging {
                gate: gate2,
                probe: None,
            }))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(
            || d.stats().timeouts >= 1,
            Duration::from_secs(5)
        ));
        let reports = d.log().reports();
        let stuck = reports
            .iter()
            .find(|r| r.kind == FailureKind::Stuck)
            .unwrap();
        assert_eq!(stuck.location.function, "serialize_node");
        assert_eq!(
            stuck.location.operation.as_ref().unwrap().as_str(),
            "net::send"
        );
        gate.store(false, Ordering::Relaxed);
        d.stop();
    }

    #[test]
    fn hung_checker_is_reported_once_skipped_while_busy_and_rerun_after() {
        let gate = Arc::new(AtomicBool::new(true));
        let calls = Arc::new(AtomicU64::new(0));
        let (g, c) = (Arc::clone(&gate), Arc::clone(&calls));
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 30))
            .checker(Box::new(FnChecker::new("hang", "a", move || {
                c.fetch_add(1, Ordering::Relaxed);
                while g.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                CheckStatus::Pass
            })))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(
            || d.stats().timeouts >= 1,
            Duration::from_secs(5)
        ));
        // Many rounds (and several timeouts' worth of time) later the hung
        // checker has neither been dispatched nor reported again.
        let rounds = d.stats().rounds;
        assert!(wait_until(
            || d.stats().rounds >= rounds + 10,
            Duration::from_secs(5)
        ));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(d.stats().timeouts, 1);
        // Once the hung call returns the checker is dispatched again.
        gate.store(false, Ordering::Relaxed);
        assert!(wait_until(
            || calls.load(Ordering::Relaxed) >= 2,
            Duration::from_secs(5)
        ));
        d.stop();
        let stucks = d
            .log()
            .reports()
            .iter()
            .filter(|r| r.kind == FailureKind::Stuck)
            .count();
        assert_eq!(stucks, 1);
    }

    #[test]
    fn panicking_checker_is_caught_and_reported() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .checker(Box::new(FnChecker::new("boom", "comp", || {
                panic!("checker exploded")
            })))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(|| d.stats().panics >= 1, Duration::from_secs(5)));
        d.stop();
        let reports = d.log().reports();
        let r = reports
            .iter()
            .find(|r| r.kind == FailureKind::CheckerPanic)
            .unwrap();
        assert!(r.detail.contains("checker exploded"));
    }

    #[test]
    fn one_stuck_checker_does_not_block_others() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 100))
            .checker(Box::new(FnChecker::new("hang", "a", || loop {
                std::thread::sleep(Duration::from_millis(50));
            })))
            .checker(Box::new(FnChecker::new("ok", "b", || CheckStatus::Pass)))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(|| d.stats().passes >= 5, Duration::from_secs(5)));
        d.stop();
    }

    #[test]
    fn actions_fire_per_report() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .action(Arc::new(crate::action::CallbackAction::new(move |_r| {
                h.fetch_add(1, Ordering::Relaxed);
            })))
            .checker(Box::new(FnChecker::new("bad", "c", || {
                CheckStatus::Fail(CheckFailure::new(
                    FailureKind::Corruption,
                    FaultLocation::new("c", "f"),
                    "crc mismatch",
                ))
            })))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(
            || hits.load(Ordering::Relaxed) >= 2,
            Duration::from_secs(5)
        ));
        d.stop();
    }

    #[test]
    fn double_start_rejected() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(50, 500))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(d.start().is_err(), "double start must fail");
        d.stop();
    }

    #[test]
    fn inline_round_runs_synchronously() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(50, 500))
            .checker(Box::new(FnChecker::new("a", "c", || CheckStatus::Pass)))
            .checker(Box::new(FnChecker::new("b", "c", || {
                CheckStatus::Fail(CheckFailure::new(
                    FailureKind::Error,
                    FaultLocation::new("c", "g"),
                    "bad",
                ))
            })))
            .build()
            .unwrap();
        let reports = d.run_inline_round().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(d.stats().passes, 1);
        assert_eq!(d.stats().failures, 1);
        assert_eq!(d.stats().rounds, 1);
        d.start().unwrap();
        assert!(d.run_inline_round().is_err());
        d.stop();
    }

    #[test]
    fn not_ready_checkers_are_counted_not_reported() {
        let mut d = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .checker(Box::new(FnChecker::new("nr", "c", || {
                CheckStatus::NotReady
            })))
            .build()
            .unwrap();
        d.start().unwrap();
        assert!(wait_until(
            || d.stats().not_ready >= 3,
            Duration::from_secs(5)
        ));
        d.stop();
        assert!(d.log().is_empty());
    }

    #[test]
    fn builder_assembles_and_validates() {
        let driver = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .clock(RealClock::shared())
            .checker(Box::new(FnChecker::new("a", "c", || CheckStatus::Pass)))
            .checkers(vec![
                Box::new(FnChecker::new("b", "c", || CheckStatus::Pass)) as Box<dyn Checker>,
            ])
            .action(Arc::new(crate::action::CallbackAction::new(|_| {})))
            .build()
            .unwrap();
        assert_eq!(
            driver.checker_ids(),
            vec![CheckerId::new("a"), CheckerId::new("b")]
        );
    }

    #[test]
    fn builder_rejects_duplicate_checker_ids() {
        let err = WatchdogDriver::builder()
            .config(fast_config(10, 500))
            .checker(Box::new(FnChecker::new("dup", "c", || CheckStatus::Pass)))
            .checker(Box::new(FnChecker::new("dup", "c", || CheckStatus::Pass)))
            .build()
            .unwrap_err();
        assert!(matches!(err, BaseError::InvalidState(_)), "{err:?}");
    }

    #[test]
    fn builder_rejects_zero_interval() {
        let config = WatchdogConfig {
            policy: SchedulePolicy::every(Duration::ZERO),
            ..WatchdogConfig::default()
        };
        assert!(WatchdogDriver::builder().config(config).build().is_err());
    }

    #[test]
    fn checker_ids_listed_in_order() {
        let d = WatchdogDriver::builder()
            .config(fast_config(50, 500))
            .checker(Box::new(FnChecker::new("one", "c", || CheckStatus::Pass)))
            .checker(Box::new(FnChecker::new("two", "c", || CheckStatus::Pass)))
            .build()
            .unwrap();
        assert_eq!(
            d.checker_ids(),
            vec![CheckerId::new("one"), CheckerId::new("two")]
        );
    }
}
