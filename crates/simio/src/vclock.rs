//! The discrete-event virtual clock every harness campaign runs on.
//!
//! [`SimClock`] implements [`wdog_base::Clock`] with time that never flows
//! on its own. Threads participating in a simulated run register as named
//! *actors* (via [`Clock::actor`] / [`wdog_base::spawn_on`]); the core then
//! enforces two invariants:
//!
//! 1. **Run-to-block serialization.** Exactly one actor holds the *run
//!    token* at any instant. An actor runs until it blocks on the clock —
//!    [`Clock::sleep`] or a [`Waiter`] wait — and only then is the next
//!    actor scheduled (ready queue first, in wake order). Concurrency
//!    still *shapes* the run (actors interleave at block boundaries), but
//!    every interleaving decision is made by the core, deterministically —
//!    so shared-RNG draw order, mailbox queue order, and report order are
//!    reproducible by construction, not by contract.
//! 2. **Event-driven time.** When no actor is ready, virtual time jumps
//!    straight to the earliest pending deadline (a sleep's wake-up or a
//!    timed wait's expiry) and the owning actor is scheduled. A run whose
//!    actors spend most wall time asleep therefore executes in the time it
//!    takes to *do the work*, orders of magnitude faster than real time.
//!
//! Threads that never register (teardown joins, unit tests poking a clock)
//! are *spectators*: their sleeps and waits do not hold time. A spectator
//! sleeping on a clock with live actors wakes when virtual time happens to
//! pass its deadline; with no actors registered at all, a spectator sleep
//! advances the clock itself so `SimClock` remains usable as a plain fast
//! virtual clock.
//!
//! If every actor is blocked on an *untimed* wait, no deadline exists to
//! advance to: the run is genuinely deadlocked, and the core panics with a
//! dump of every actor's name and state rather than hanging the campaign.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use wdog_base::clock::{ActorCtl, ActorToken, Clock, SharedClock, Waiter};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// In the ready queue or holding the run token.
    Ready,
    /// Blocked in `sleep` until the given virtual instant.
    Sleeping { until: Duration },
    /// Blocked on a waiter, optionally with a timeout deadline.
    Waiting {
        waiter: u64,
        until: Option<Duration>,
    },
}

struct ActorState {
    name: String,
    status: Status,
    /// Set when the actor was woken by a notification (vs a timeout).
    notified: bool,
    /// Condvar the actor's own thread parks on while not running.
    cond: Arc<Condvar>,
}

#[derive(Default)]
struct WaiterState {
    /// At most one stored permit (notify with nobody waiting).
    permit: bool,
    /// Actors blocked on this waiter, in arrival order.
    queue: VecDeque<u64>,
}

struct State {
    now: Duration,
    next_actor: u64,
    next_waiter: u64,
    actors: BTreeMap<u64, ActorState>,
    /// The actor currently holding the run token.
    running: Option<u64>,
    /// Actors ready to run, in wake/registration order.
    ready: VecDeque<u64>,
    waiters: HashMap<u64, WaiterState>,
    /// Run-token handoffs since creation — the stall monitor's progress
    /// signal (virtual time alone can stall legitimately at a busy instant).
    steps: u64,
}

/// Renders one-line-per-actor state (shared by `dump` and the stall
/// monitor).
fn render_state(st: &State) -> String {
    let mut out = format!(
        "SimClock now={:?} steps={} running={:?}\n",
        st.now, st.steps, st.running
    );
    for (id, a) in &st.actors {
        out.push_str(&format!("  [{id}] {} {:?}\n", a.name, a.status));
    }
    out
}

/// Watches a core for lack of progress and dumps actor state to stderr.
/// Armed by `WDOG_SIM_STALL_DUMP_MS`; exits when the clock is dropped.
/// The classic stall this catches is an actor blocked on something the
/// clock cannot see (an OS futex) while holding the run token — the dump's
/// `running` actor is the culprit.
#[expect(
    clippy::disallowed_methods,
    reason = "the stall monitor watches a frozen virtual clock, so it must run on the real one"
)]
fn spawn_stall_monitor(core: std::sync::Weak<Core>, interval: Duration) {
    std::thread::Builder::new()
        .name("sim-stall-monitor".into())
        .spawn(move || {
            let mut last: Option<(Duration, u64)> = None;
            loop {
                std::thread::sleep(interval);
                let Some(core) = core.upgrade() else { return };
                let st = core.state.lock();
                let cur = (st.now, st.steps);
                if last == Some(cur) && !st.actors.is_empty() {
                    eprintln!(
                        "[sim-stall] no progress for {interval:?}\n{}",
                        render_state(&st)
                    );
                }
                drop(st);
                last = Some(cur);
            }
        })
        .expect("spawn sim-stall-monitor");
}

struct Core {
    state: Mutex<State>,
    /// Spectator threads (no actor registration) park here; notified
    /// whenever time moves or a waiter permit lands.
    spectators: Condvar,
}

thread_local! {
    /// `(core address, actor id)` pairs adopted by this thread, innermost
    /// last. Lets `sleep`/`wait` discover whether the calling thread is a
    /// registered actor of the clock it is blocking on.
    static ADOPTED: std::cell::RefCell<Vec<(usize, u64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Core {
    fn token(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn current_actor(self: &Arc<Self>) -> Option<u64> {
        let token = self.token();
        ADOPTED.with(|v| {
            v.borrow()
                .iter()
                .rev()
                .find(|(core, _)| *core == token)
                .map(|(_, id)| *id)
        })
    }

    /// Hands the run token to the next actor: ready queue first, otherwise
    /// advance virtual time to the earliest pending deadline. Must be
    /// called with the state lock held and `running == None`.
    fn schedule(&self, st: &mut State) {
        debug_assert!(st.running.is_none());
        st.steps = st.steps.wrapping_add(1);
        if let Some(next) = st.ready.pop_front() {
            st.running = Some(next);
            if let Some(actor) = st.actors.get(&next) {
                actor.cond.notify_all();
            }
            return;
        }
        // No actor is ready: advance to the earliest deadline.
        let due = st
            .actors
            .iter()
            .filter_map(|(id, a)| match a.status {
                Status::Sleeping { until } => Some((until, *id)),
                Status::Waiting {
                    until: Some(until), ..
                } => Some((until, *id)),
                _ => None,
            })
            .min();
        match due {
            Some((until, id)) => {
                if until > st.now {
                    st.now = until;
                    self.spectators.notify_all();
                }
                let actor = st.actors.get_mut(&id).expect("due actor exists");
                // A deadline wake is not a notification; leave any stale
                // waiter-queue entry for the wake path to clean up.
                actor.notified = false;
                actor.status = Status::Ready;
                st.running = Some(id);
                actor.cond.notify_all();
            }
            None if st.actors.is_empty() => {
                // Nothing registered: spectators self-advance their own
                // sleeps; nothing to do here.
                self.spectators.notify_all();
            }
            None => {
                let dump: Vec<String> = st
                    .actors
                    .values()
                    .map(|a| format!("{} ({:?})", a.name, a.status))
                    .collect();
                panic!(
                    "sim deadlock: every actor is blocked on an untimed wait \
                     and no deadline exists to advance to: [{}]",
                    dump.join(", ")
                );
            }
        }
    }

    /// Blocks the running actor `id` with `status` until it is scheduled
    /// again. Returns whether the wake was a notification.
    fn block(self: &Arc<Self>, id: u64, status: Status) -> bool {
        let mut st = self.state.lock();
        {
            let actor = st.actors.get_mut(&id).expect("blocking actor exists");
            actor.status = status.clone();
            actor.notified = false;
        }
        if let Status::Waiting { waiter, .. } = status {
            st.waiters.entry(waiter).or_default().queue.push_back(id);
        }
        if st.running == Some(id) {
            st.running = None;
            self.schedule(&mut st);
        }
        let cond = Arc::clone(&st.actors[&id].cond);
        while st.running != Some(id) {
            cond.wait(&mut st);
        }
        // Scheduled again: clean up any stale waiter-queue entry (timeout
        // wakes leave one behind) and report the wake reason.
        let notified = st.actors[&id].notified;
        if let Status::Waiting { waiter, .. } = status {
            if let Some(w) = st.waiters.get_mut(&waiter) {
                w.queue.retain(|q| *q != id);
            }
        }
        notified
    }

    fn register(self: &Arc<Self>, name: &str) -> u64 {
        let mut st = self.state.lock();
        let id = st.next_actor;
        st.next_actor += 1;
        st.actors.insert(
            id,
            ActorState {
                name: name.to_owned(),
                status: Status::Ready,
                notified: false,
                cond: Arc::new(Condvar::new()),
            },
        );
        st.ready.push_back(id);
        if st.running.is_none() {
            self.schedule(&mut st);
        }
        id
    }

    fn retire(self: &Arc<Self>, id: u64) {
        let mut st = self.state.lock();
        st.actors.remove(&id);
        st.ready.retain(|r| *r != id);
        for w in st.waiters.values_mut() {
            w.queue.retain(|q| *q != id);
        }
        if st.running == Some(id) {
            st.running = None;
            self.schedule(&mut st);
        }
    }

    /// Moves waiter-queue actors to the ready queue after a notification.
    fn wake_from_waiter(&self, st: &mut State, id: u64) {
        if let Some(actor) = st.actors.get_mut(&id) {
            actor.notified = true;
            actor.status = Status::Ready;
            st.ready.push_back(id);
        }
        if st.running.is_none() {
            self.schedule(st);
        }
    }
}

/// A discrete-event virtual clock (see module docs).
pub struct SimClock {
    core: Arc<Core>,
}

impl SimClock {
    /// Creates a clock at virtual time zero with no actors.
    pub fn new() -> Self {
        let core = Arc::new(Core {
            state: Mutex::new(State {
                now: Duration::ZERO,
                next_actor: 1,
                next_waiter: 1,
                actors: BTreeMap::new(),
                running: None,
                ready: VecDeque::new(),
                waiters: HashMap::new(),
                steps: 0,
            }),
            spectators: Condvar::new(),
        });
        if let Some(ms) = std::env::var("WDOG_SIM_STALL_DUMP_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            spawn_stall_monitor(Arc::downgrade(&core), Duration::from_millis(ms.max(100)));
        }
        Self { core }
    }

    /// Creates a shared handle to a fresh clock.
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }

    /// One-line-per-actor state dump — which actor holds the run token and
    /// what everyone else is blocked on. For diagnosing a run that makes no
    /// progress: the running actor is the one blocked on something the
    /// clock cannot see.
    pub fn dump(&self) -> String {
        render_state(&self.core.state.lock())
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("SimClock")
            .field("now", &st.now)
            .field("actors", &st.actors.len())
            .finish()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        self.core.state.lock().now
    }

    fn sleep(&self, d: Duration) {
        if let Some(id) = self.core.current_actor() {
            let until = self.core.state.lock().now + d;
            self.core.block(id, Status::Sleeping { until });
            return;
        }
        // Spectator sleep: does not hold time. With live actors, wake when
        // time passes the deadline; with none, self-advance.
        let mut st = self.core.state.lock();
        let deadline = st.now + d;
        loop {
            if st.now >= deadline {
                return;
            }
            if st.actors.is_empty() {
                st.now = deadline;
                self.core.spectators.notify_all();
                return;
            }
            self.core.spectators.wait(&mut st);
        }
    }

    fn waiter(&self) -> Arc<dyn Waiter> {
        let mut st = self.core.state.lock();
        let id = st.next_waiter;
        st.next_waiter += 1;
        st.waiters.insert(id, WaiterState::default());
        drop(st);
        Arc::new(SimWaiter {
            core: Arc::clone(&self.core),
            id,
        })
    }

    fn actor(&self, name: &str) -> ActorToken {
        let id = self.core.register(name);
        ActorToken::live(Arc::new(SimActorCtl {
            core: Arc::clone(&self.core),
            id,
        }))
    }
}

/// Clock-side registration handle for one actor.
struct SimActorCtl {
    core: Arc<Core>,
    id: u64,
}

impl ActorCtl for SimActorCtl {
    fn adopt(&self) {
        let token = self.core.token();
        ADOPTED.with(|v| v.borrow_mut().push((token, self.id)));
        // Block until granted the run token; registration order (parent
        // side) decides scheduling order, not OS thread-startup races.
        let mut st = self.core.state.lock();
        let cond = match st.actors.get(&self.id) {
            Some(a) => Arc::clone(&a.cond),
            None => return, // already retired
        };
        while st.running != Some(self.id) {
            cond.wait(&mut st);
        }
    }

    fn retire(&self) {
        let token = self.core.token();
        ADOPTED.with(|v| {
            let mut v = v.borrow_mut();
            if let Some(pos) = v.iter().rposition(|e| *e == (token, self.id)) {
                v.remove(pos);
            }
        });
        self.core.retire(self.id);
    }
}

/// A [`Waiter`] whose timed waits are measured in virtual time.
struct SimWaiter {
    core: Arc<Core>,
    id: u64,
}

impl Waiter for SimWaiter {
    fn wait(&self) {
        if let Some(actor) = self.core.current_actor() {
            {
                let mut st = self.core.state.lock();
                if let Some(w) = st.waiters.get_mut(&self.id) {
                    if w.permit {
                        w.permit = false;
                        return;
                    }
                }
            }
            self.core.block(
                actor,
                Status::Waiting {
                    waiter: self.id,
                    until: None,
                },
            );
            return;
        }
        // Spectator: park until a permit lands.
        let mut st = self.core.state.lock();
        loop {
            if let Some(w) = st.waiters.get_mut(&self.id) {
                if w.permit {
                    w.permit = false;
                    return;
                }
            }
            self.core.spectators.wait(&mut st);
        }
    }

    fn wait_timeout(&self, d: Duration) -> bool {
        if let Some(actor) = self.core.current_actor() {
            let until = {
                let mut st = self.core.state.lock();
                if let Some(w) = st.waiters.get_mut(&self.id) {
                    if w.permit {
                        w.permit = false;
                        return true;
                    }
                }
                st.now + d
            };
            return self.core.block(
                actor,
                Status::Waiting {
                    waiter: self.id,
                    until: Some(until),
                },
            );
        }
        // Spectator timed wait: virtual deadline, self-advancing when no
        // actors are registered (mirrors spectator sleep).
        let mut st = self.core.state.lock();
        let deadline = st.now + d;
        loop {
            if let Some(w) = st.waiters.get_mut(&self.id) {
                if w.permit {
                    w.permit = false;
                    return true;
                }
            }
            if st.now >= deadline {
                return false;
            }
            if st.actors.is_empty() {
                st.now = deadline;
                self.core.spectators.notify_all();
                return false;
            }
            self.core.spectators.wait(&mut st);
        }
    }

    fn notify_one(&self) {
        let mut st = self.core.state.lock();
        let woken = st
            .waiters
            .get_mut(&self.id)
            .and_then(|w| w.queue.pop_front());
        match woken {
            Some(id) => self.core.wake_from_waiter(&mut st, id),
            None => {
                if let Some(w) = st.waiters.get_mut(&self.id) {
                    w.permit = true;
                }
                self.core.spectators.notify_all();
            }
        }
    }

    fn notify_all(&self) {
        let mut st = self.core.state.lock();
        let drained: Vec<u64> = st
            .waiters
            .get_mut(&self.id)
            .map(|w| w.queue.drain(..).collect())
            .unwrap_or_default();
        for id in drained {
            self.core.wake_from_waiter(&mut st, id);
        }
        if let Some(w) = st.waiters.get_mut(&self.id) {
            w.permit = true;
        }
        self.core.spectators.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wdog_base::spawn_on;

    #[test]
    fn spectator_sleep_self_advances_without_actors() {
        let clock = SimClock::shared();
        let t0 = std::time::Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now(), Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_secs(2), "slept in real time");
    }

    #[test]
    fn actors_interleave_deterministically_by_deadline() {
        let clock = SimClock::shared();
        let order = Arc::new(Mutex::new(Vec::new()));
        let main = clock.actor("main").adopt();
        let mut handles = Vec::new();
        for (name, period_ms) in [("a", 7u64), ("b", 3u64)] {
            let c = Arc::clone(&clock);
            let order = Arc::clone(&order);
            handles.push(spawn_on(&clock, name, move || {
                for i in 0..5u64 {
                    c.sleep(Duration::from_millis(period_ms));
                    order.lock().push(format!("{name}{i}@{}", c.now_millis()));
                }
            }));
        }
        // Main sleeps past both actors' lifetimes, then lets them finish.
        clock.sleep(Duration::from_millis(100));
        main.retire();
        for h in handles {
            h.join().unwrap();
        }
        // Pure discrete-event merge of the two periodic timelines.
        assert_eq!(
            order.lock().clone(),
            vec![
                "b0@3", "b1@6", "a0@7", "b2@9", "b3@12", "a1@14", "b4@15", "a2@21", "a3@28",
                "a4@35",
            ]
        );
    }

    #[test]
    fn interleaving_is_reproducible_across_runs() {
        let run = || {
            let clock = SimClock::shared();
            let order = Arc::new(Mutex::new(Vec::new()));
            let main = clock.actor("main").adopt();
            let mut handles = Vec::new();
            for (name, period_ms) in [("a", 7u64), ("b", 3u64), ("c", 5u64)] {
                let c = Arc::clone(&clock);
                let order = Arc::clone(&order);
                handles.push(spawn_on(&clock, name, move || {
                    for i in 0..20u64 {
                        c.sleep(Duration::from_millis(period_ms));
                        order.lock().push(format!("{name}{i}@{}", c.now_millis()));
                    }
                }));
            }
            clock.sleep(Duration::from_millis(500));
            main.retire();
            for h in handles {
                h.join().unwrap();
            }
            let v = order.lock().clone();
            v
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same program, same virtual interleaving");
        assert_eq!(a.len(), 60);
    }

    #[test]
    fn timed_wait_times_out_in_virtual_time() {
        let clock = SimClock::shared();
        let waiter = clock.waiter();
        let main = clock.actor("main").adopt();
        let c = Arc::clone(&clock);
        let w = Arc::clone(&waiter);
        let woke = Arc::new(AtomicU64::new(u64::MAX));
        let woke2 = Arc::clone(&woke);
        let h = spawn_on(&clock, "waiter", move || {
            let notified = w.wait_timeout(Duration::from_millis(250));
            assert!(!notified, "nobody notified; must time out");
            woke2.store(c.now_millis(), Ordering::SeqCst);
        });
        clock.sleep(Duration::from_millis(400));
        main.retire();
        h.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 250);
    }

    #[test]
    fn notify_wakes_waiting_actor_and_stores_permit() {
        let clock = SimClock::shared();
        let waiter = clock.waiter();
        let main = clock.actor("main").adopt();
        let w = Arc::clone(&waiter);
        let got = Arc::new(AtomicU64::new(0));
        let got2 = Arc::clone(&got);
        let h = spawn_on(&clock, "rx", move || {
            if w.wait_timeout(Duration::from_secs(10)) {
                got2.store(1, Ordering::SeqCst);
            }
            // Second wait consumes the permit stored while we were not
            // waiting (notify with empty queue).
            if w.wait_timeout(Duration::from_secs(10)) {
                got2.fetch_add(1, Ordering::SeqCst);
            }
        });
        clock.sleep(Duration::from_millis(1)); // let rx block
        waiter.notify_one();
        clock.sleep(Duration::from_millis(1)); // rx consumes, re-blocks
        waiter.notify_one();
        clock.sleep(Duration::from_millis(1));
        main.retire();
        h.join().unwrap();
        assert_eq!(got.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "sim deadlock")]
    fn untimed_wait_with_no_deadlines_panics() {
        let clock = SimClock::new();
        let waiter = clock.waiter();
        let _main = clock.actor("stuck").adopt();
        // The only actor waits forever on a waiter nobody will notify.
        waiter.wait();
    }
}
