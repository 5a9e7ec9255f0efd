//! Time sources for production and deterministic testing.
//!
//! Every component in the workspace that needs "now" or "sleep" takes a
//! [`SharedClock`] instead of calling [`std::time::Instant::now`] directly.
//! Production code uses [`RealClock`]; campaigns and deterministic tests use
//! the discrete-event `simio::SimClock`, whose time moves only when every
//! actor on it blocks (or, with no actors, when a caller sleeps).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// A monotonic time source that can also block the caller.
///
/// Implementations must be safe to share across threads. `now()` is expressed
/// as a [`Duration`] since an arbitrary per-clock epoch, which keeps virtual
/// and real clocks interchangeable.
pub trait Clock: Send + Sync + 'static {
    /// Returns the time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks the calling thread for `d` of this clock's time.
    ///
    /// For a [`RealClock`] this is a plain [`std::thread::sleep`]; on a
    /// discrete-event clock it blocks until virtual time reaches the
    /// deadline.
    fn sleep(&self, d: Duration);

    /// Returns the number of whole milliseconds since this clock's epoch.
    fn now_millis(&self) -> u64 {
        self.now().as_millis() as u64
    }

    /// Creates a notification primitive whose timed waits are measured on
    /// *this clock's* time.
    ///
    /// Blocking code must use clock waiters instead of raw condvars: a raw
    /// `Condvar::wait_for` measures wall time, which a simulated clock can
    /// neither see nor advance past — the wait would hang a virtual-time
    /// run. The default is a condvar-backed waiter appropriate for real
    /// clocks.
    fn waiter(&self) -> Arc<dyn Waiter> {
        Arc::new(CondvarWaiter::default())
    }

    /// Registers a named *actor* with this clock and returns its token.
    ///
    /// On a discrete-event clock, registered actors are the threads whose
    /// sleeps and waits hold virtual time: time only advances when every
    /// actor is blocked. The token is created registered-and-runnable by
    /// the *parent* thread (so time cannot advance past a child thread's
    /// startup) and adopted by the child via [`ActorToken::adopt`]. On
    /// real clocks this is a no-op token.
    fn actor(&self, name: &str) -> ActorToken {
        let _ = name;
        ActorToken::inert()
    }
}

/// A clock-aware notification primitive (see [`Clock::waiter`]).
///
/// Waiters carry at most **one** stored permit: a `notify_one` with no
/// thread waiting is remembered and consumes the next wait immediately,
/// which closes the classic check-then-wait race without requiring callers
/// to hold a lock across the wait. A `notify_all` is a true broadcast —
/// **every** thread waiting at that moment is released (plus the single
/// stored permit for the next late arrival), so a group of threads may
/// share one waiter and each recheck its own condition after a wakeup.
pub trait Waiter: Send + Sync {
    /// Blocks until notified (or consumes a stored permit immediately).
    fn wait(&self);

    /// Blocks until notified or until `d` of clock time has passed.
    /// Returns `true` if woken by a notification, `false` on timeout.
    fn wait_timeout(&self, d: Duration) -> bool;

    /// Wakes one waiting thread, or stores a single permit if none waits.
    fn notify_one(&self);

    /// Wakes every currently waiting thread and stores a single permit.
    fn notify_all(&self);
}

#[derive(Debug, Default)]
struct PermitState {
    /// The single stored permit (consumed by one future wait).
    permit: bool,
    /// Broadcast epoch: bumped by `notify_all` so every in-flight wait
    /// returns without competing for the one permit.
    epoch: u64,
}

/// The real-clock [`Waiter`]: a condvar with a one-permit store and a
/// broadcast epoch.
#[derive(Debug, Default)]
pub struct CondvarWaiter {
    state: Mutex<PermitState>,
    cond: Condvar,
}

impl Waiter for CondvarWaiter {
    fn wait(&self) {
        let mut st = self.state.lock();
        if st.permit {
            st.permit = false;
            return;
        }
        let entered = st.epoch;
        loop {
            self.cond.wait(&mut st);
            if st.epoch != entered {
                // Broadcast: released without touching the stored permit,
                // exactly like the discrete-event waiter's drained queue.
                return;
            }
            if st.permit {
                st.permit = false;
                return;
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the RealClock waiter bounds its condvar wait in wall time"
    )]
    fn wait_timeout(&self, d: Duration) -> bool {
        let deadline = std::time::Instant::now() + d;
        let mut st = self.state.lock();
        if st.permit {
            st.permit = false;
            return true;
        }
        let entered = st.epoch;
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.cond.wait_for(&mut st, deadline - now);
            if st.epoch != entered {
                return true;
            }
            if st.permit {
                st.permit = false;
                return true;
            }
        }
    }

    fn notify_one(&self) {
        self.state.lock().permit = true;
        self.cond.notify_one();
    }

    fn notify_all(&self) {
        let mut st = self.state.lock();
        st.permit = true;
        st.epoch += 1;
        drop(st);
        self.cond.notify_all();
    }
}

/// Clock-side half of an actor registration (see [`Clock::actor`]).
///
/// Implemented by discrete-event clocks; real clocks use inert tokens.
pub trait ActorCtl: Send + Sync {
    /// Called from the actor's own thread once it starts running.
    fn adopt(&self);

    /// Deregisters the actor; its sleeps no longer hold virtual time.
    fn retire(&self);
}

/// A registered-but-not-yet-adopted actor, created by the spawning thread.
#[derive(Default)]
pub struct ActorToken {
    ctl: Option<Arc<dyn ActorCtl>>,
}

impl ActorToken {
    /// A token that does nothing — what real clocks hand out.
    pub fn inert() -> Self {
        Self::default()
    }

    /// Wraps a live registration from a discrete-event clock.
    pub fn live(ctl: Arc<dyn ActorCtl>) -> Self {
        Self { ctl: Some(ctl) }
    }

    /// Claims the registration from the actor's own thread; the returned
    /// guard retires the actor when dropped.
    pub fn adopt(self) -> ActorGuard {
        if let Some(ctl) = &self.ctl {
            ctl.adopt();
        }
        ActorGuard { ctl: self.ctl }
    }
}

impl std::fmt::Debug for ActorToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorToken")
            .field("live", &self.ctl.is_some())
            .finish()
    }
}

/// RAII guard for an adopted actor; dropping it retires the registration.
pub struct ActorGuard {
    ctl: Option<Arc<dyn ActorCtl>>,
}

impl ActorGuard {
    /// Retires the actor now instead of at scope end.
    pub fn retire(mut self) {
        if let Some(ctl) = self.ctl.take() {
            ctl.retire();
        }
    }
}

impl Drop for ActorGuard {
    fn drop(&mut self) {
        if let Some(ctl) = self.ctl.take() {
            ctl.retire();
        }
    }
}

impl std::fmt::Debug for ActorGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorGuard")
            .field("live", &self.ctl.is_some())
            .finish()
    }
}

/// Spawns a named thread registered as an actor on `clock`.
///
/// The actor token is created *before* the OS thread starts, so a
/// discrete-event clock counts the child as runnable from the moment of
/// the call — virtual time cannot jump past the child's startup. Every
/// production thread that sleeps or waits on a clock must be spawned this
/// way (or adopt a token itself); clippy's `disallowed-methods` list in
/// `crates/clippy.toml` enforces the complementary rule that such threads
/// never touch the real clock.
pub fn spawn_on<F, T>(clock: &SharedClock, name: &str, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let token = clock.actor(name);
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            let _actor = token.adopt();
            f()
        })
        .unwrap_or_else(|e| panic!("failed to spawn thread: {e}"))
}

/// A shareable handle to a [`Clock`].
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock time via [`std::time::Instant`].
///
/// The epoch is the moment the clock was constructed.
#[derive(Debug)]
pub struct RealClock {
    start: std::time::Instant,
}

impl RealClock {
    /// Creates a real clock whose epoch is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the RealClock implementation is the one sanctioned wrapper over raw time"
    )]
    pub fn new() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    /// Creates a shared handle to a fresh real clock.
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the RealClock implementation is the one sanctioned wrapper over raw time"
    )]
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn condvar_waiter_stores_one_permit() {
        let w = CondvarWaiter::default();
        w.notify_one();
        w.notify_one();
        // The first timed wait consumes the (single) stored permit…
        assert!(w.wait_timeout(Duration::from_millis(1)));
        // …and the second times out: permits never accumulate past one.
        assert!(!w.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn condvar_waiter_wakes_a_blocked_thread() {
        let w = Arc::new(CondvarWaiter::default());
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.wait_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        w.notify_one();
        assert!(t.join().unwrap(), "wait should report a notification");
    }

    #[test]
    fn condvar_waiter_broadcast_releases_every_waiter() {
        let w = Arc::new(CondvarWaiter::default());
        let mut threads = Vec::new();
        for _ in 0..4 {
            let w2 = Arc::clone(&w);
            threads.push(std::thread::spawn(move || {
                w2.wait_timeout(Duration::from_secs(5))
            }));
        }
        // Give everyone time to park, then release the whole group at once:
        // a single-permit notify would strand three of the four.
        std::thread::sleep(Duration::from_millis(50));
        w.notify_all();
        for t in threads {
            assert!(t.join().unwrap(), "broadcast must wake every waiter");
        }
    }

    #[test]
    fn wall_clock_actor_tokens_are_inert() {
        let clock: SharedClock = RealClock::shared();
        let token = clock.actor("t");
        let guard = token.adopt();
        drop(guard); // no-op all the way down
        let h = spawn_on(&clock, "spawned", || {
            std::thread::current().name().map(str::to_owned)
        });
        assert_eq!(h.join().unwrap().as_deref(), Some("spawned"));
    }
}
