//! A clock-visible mutex.
//!
//! Target code routinely holds a lock across simulated IO — the kvs WAL
//! rotates under the WAL lock so no append straddles the boundary, and a
//! compaction merge runs entirely under `compaction_lock`. On a real clock
//! that is ordinary contention. On a discrete-event clock it is fatal with
//! a plain mutex: the holder sleeps *visibly* inside the disk latency gate
//! while a contender blocks *invisibly* on the mutex futex. If the
//! contender holds the run token, virtual time can never advance to the
//! holder's wakeup — the run freezes at a fixed virtual instant.
//!
//! [`ClockedMutex`] closes the hole by parking contenders on the clock's
//! [`Waiter`] instead of the OS futex: a blocked `lock()` or
//! `try_lock_for()` is a first-class discrete-event wait the clock can see,
//! schedule around, and (for timed waits) expire in virtual time. Under
//! [`RealClock`](crate::clock::RealClock) the waiter is a condvar and
//! behavior matches a plain mutex with a retry loop.
//!
//! The rule this type exists to enforce: **an actor must never block on
//! something the clock cannot see while another actor needs virtual time
//! to release it.** Locks that are only ever held across in-memory work
//! don't need this type (under a discrete-event clock they can't even be
//! contended, because the holder never yields the run token while holding
//! them); any lock held across a `Clock::sleep` — directly or through
//! simulated disk/net latency — does.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use crate::clock::{SharedClock, Waiter};

/// A mutex whose blocked acquisitions wait on the owning clock.
///
/// Construction captures a [`Waiter`] from the clock; every release
/// notifies it, and every blocked acquisition parks on it. Timed
/// acquisition ([`try_lock_for`](Self::try_lock_for)) measures its bound
/// in *clock* time, so a 500ms lock probe inside a checker costs 500
/// virtual milliseconds under simulation, not 500 real ones.
pub struct ClockedMutex<T> {
    inner: Mutex<T>,
    clock: SharedClock,
    waiter: Arc<dyn Waiter>,
}

impl<T> ClockedMutex<T> {
    /// Creates a clock-visible mutex owned by `clock`.
    pub fn new(clock: &SharedClock, value: T) -> Self {
        Self {
            inner: Mutex::new(value),
            clock: Arc::clone(clock),
            waiter: clock.waiter(),
        }
    }

    /// Acquires the lock, parking on the clock's waiter while contended.
    ///
    /// The wait is untimed: on a discrete-event clock a `lock()` against a
    /// holder that never releases is a genuine deadlock and trips the
    /// clock's all-actors-blocked panic (with an actor dump) instead of
    /// hanging silently.
    pub fn lock(&self) -> ClockedMutexGuard<'_, T> {
        loop {
            if let Some(g) = self.inner.try_lock() {
                return ClockedMutexGuard {
                    guard: Some(g),
                    waiter: &self.waiter,
                };
            }
            // Releases notify *after* unlocking and waiters store a permit,
            // so a release landing between the failed try_lock and this
            // wait cannot be lost.
            self.waiter.wait();
        }
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<ClockedMutexGuard<'_, T>> {
        self.inner.try_lock().map(|g| ClockedMutexGuard {
            guard: Some(g),
            waiter: &self.waiter,
        })
    }

    /// Acquires the lock, giving up after `d` of **clock** time.
    pub fn try_lock_for(&self, d: Duration) -> Option<ClockedMutexGuard<'_, T>> {
        let deadline = self.clock.now() + d;
        loop {
            if let Some(g) = self.inner.try_lock() {
                return Some(ClockedMutexGuard {
                    guard: Some(g),
                    waiter: &self.waiter,
                });
            }
            let now = self.clock.now();
            if now >= deadline {
                return None;
            }
            self.waiter.wait_timeout(deadline - now);
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ClockedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Some(g) => f.debug_struct("ClockedMutex").field("data", &*g).finish(),
            None => f
                .debug_struct("ClockedMutex")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

/// RAII guard for [`ClockedMutex`]; releasing notifies blocked waiters.
pub struct ClockedMutexGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    waiter: &'a Arc<dyn Waiter>,
}

impl<T> Deref for ClockedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> DerefMut for ClockedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for ClockedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Unlock first, then wake: a woken waiter's try_lock must be able
        // to succeed immediately.
        drop(self.guard.take());
        self.waiter.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;

    #[test]
    fn uncontended_lock_round_trips() {
        let clock = RealClock::shared();
        let m = ClockedMutex::new(&clock, 41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.try_lock().map(|g| *g), Some(42));
    }

    #[test]
    fn try_lock_fails_while_held() {
        let clock = RealClock::shared();
        let m = ClockedMutex::new(&clock, ());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        assert!(m.try_lock_for(Duration::from_millis(10)).is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn blocked_lock_wakes_on_release() {
        let clock = RealClock::shared();
        let m = Arc::new(ClockedMutex::new(&clock, 0u32));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "contender acquired a held lock");
        drop(g);
        t.join().unwrap();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn timed_lock_acquires_when_released_in_time() {
        let clock = RealClock::shared();
        let m = Arc::new(ClockedMutex::new(&clock, ()));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || m2.try_lock_for(Duration::from_secs(5)).is_some());
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        assert!(t.join().unwrap(), "timed lock missed the release");
    }

    #[test]
    fn contended_increments_all_land() {
        let clock = RealClock::shared();
        let m = Arc::new(ClockedMutex::new(&clock, 0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 800);
    }
}
