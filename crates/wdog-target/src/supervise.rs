//! Generation-flag supervision for restartable background components.
//!
//! The paper's §5.2 recovery story requires background loops that can be
//! *individually* retired and replaced: each supervised component owns a
//! generation flag its loop polls alongside the process-wide running flag.
//! Restarting swaps in a fresh flag (the old thread exits at its next poll,
//! or whenever an armed fault releases it) and the caller spawns a
//! replacement; degrading retires the generation with no replacement.
//!
//! Targets keep one [`Supervised`] per restartable component; the restart
//! and shed handles of their [`RecoveryMap`](crate::RecoveryMap) drive it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One restartable background component's supervision state.
pub struct Supervised {
    /// The current generation's liveness flag; swapped on restart.
    alive: Mutex<Arc<AtomicBool>>,
    restarts: AtomicU64,
    degraded: AtomicBool,
}

impl Default for Supervised {
    fn default() -> Self {
        Self::new()
    }
}

impl Supervised {
    /// Creates supervision state with a live first generation.
    pub fn new() -> Self {
        Self {
            alive: Mutex::new(Arc::new(AtomicBool::new(true))),
            restarts: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        }
    }

    /// The flag the current generation's loop must poll.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.alive.lock())
    }

    /// Retires the current generation and returns the fresh flag the
    /// replacement loop must poll.
    pub fn next_generation(&self) -> Arc<AtomicBool> {
        let mut cur = self.alive.lock();
        cur.store(false, Ordering::Relaxed);
        let fresh = Arc::new(AtomicBool::new(true));
        *cur = Arc::clone(&fresh);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(false, Ordering::Relaxed);
        fresh
    }

    /// Retires the current generation with no replacement (degrade).
    pub fn shed(&self) {
        self.alive.lock().store(false, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Generations retired by restart so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Whether the component is currently shed.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_retire_and_replace() {
        let s = Supervised::new();
        let g0 = s.flag();
        assert!(g0.load(Ordering::Relaxed));
        let g1 = s.next_generation();
        assert!(!g0.load(Ordering::Relaxed), "old generation retired");
        assert!(g1.load(Ordering::Relaxed));
        assert_eq!(s.restarts(), 1);
        assert!(!s.is_degraded());
    }

    #[test]
    fn shed_marks_degraded_until_next_generation() {
        let s = Supervised::new();
        let g0 = s.flag();
        s.shed();
        assert!(!g0.load(Ordering::Relaxed));
        assert!(s.is_degraded());
        // A later restart revives the component.
        let g1 = s.next_generation();
        assert!(g1.load(Ordering::Relaxed));
        assert!(!s.is_degraded());
    }
}
