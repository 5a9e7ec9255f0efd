//! Simulated process-resource accounting for signal-type checkers.
//!
//! The paper's *signal* checkers (Table 2) watch system health indicators:
//! memory usage, queue depths, load. In a simulation there is no `/proc` to
//! read, so target systems account their resource usage against a
//! [`ResourceMonitor`] — allocations and named queues whose depths are
//! sampled through registered probes.
//!
//! The monitor is purely observational: it never fails an operation itself
//! (capacity enforcement lives in the substrate that owns the resource), it
//! just exposes the numbers a checker would read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A callback reporting the current depth of a named queue.
pub type DepthProbe = Arc<dyn Fn() -> usize + Send + Sync>;

/// A cooperative process-wide stall gate, simulating runtime pauses.
///
/// The paper's §3.3 example detects JVM garbage-collection pauses by noticing
/// that a sleeping worker woke far later than requested. A [`StallPoint`]
/// simulates such whole-process pauses: worker threads (and the sleep-drift
/// signal checker) call [`StallPoint::pass`] at their loop tops; while a
/// fault injector holds the gate, every cooperating thread blocks — the same
/// observable as a stop-the-world pause.
#[derive(Clone, Default)]
pub struct StallPoint {
    armed: Arc<std::sync::atomic::AtomicBool>,
}

impl StallPoint {
    /// Creates an open (non-stalling) gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms or releases the stall.
    pub fn set_stalled(&self, stalled: bool) {
        self.armed.store(stalled, Ordering::Relaxed);
    }

    /// Returns whether the gate is currently armed.
    pub fn is_stalled(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Blocks the caller while the gate is armed, polling on `clock`.
    pub fn pass(&self, clock: &dyn wdog_base::clock::Clock) {
        while self.is_stalled() {
            clock.sleep(std::time::Duration::from_millis(1));
        }
    }
}

impl std::fmt::Debug for StallPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StallPoint")
            .field("stalled", &self.is_stalled())
            .finish()
    }
}

/// Shared, observational resource accounting for one simulated process.
#[derive(Clone, Default)]
pub struct ResourceMonitor {
    inner: Arc<MonitorInner>,
}

#[derive(Default)]
struct MonitorInner {
    memory_bytes: AtomicI64,
    queues: RwLock<HashMap<String, DepthProbe>>,
}

impl ResourceMonitor {
    /// Creates a monitor with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation of `bytes`.
    pub fn alloc(&self, bytes: u64) {
        self.inner
            .memory_bytes
            .fetch_add(bytes as i64, Ordering::Relaxed);
    }

    /// Records a free of `bytes`; clamps at zero if over-freed.
    pub fn free(&self, bytes: u64) {
        let prev = self
            .inner
            .memory_bytes
            .fetch_sub(bytes as i64, Ordering::Relaxed);
        if prev - (bytes as i64) < 0 {
            self.inner.memory_bytes.store(0, Ordering::Relaxed);
        }
    }

    /// Returns currently accounted memory in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes.load(Ordering::Relaxed).max(0) as u64
    }

    /// Registers (or replaces) a named queue-depth probe.
    pub fn register_queue(&self, name: impl Into<String>, probe: DepthProbe) {
        self.inner.queues.write().insert(name.into(), probe);
    }

    /// Samples the depth of a named queue, or `None` if not registered.
    pub fn queue_depth(&self, name: &str) -> Option<usize> {
        self.inner.queues.read().get(name).map(|p| p())
    }

    /// Returns the names of all registered queues, sorted.
    pub fn queue_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.queues.read().keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for ResourceMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceMonitor")
            .field("memory_bytes", &self.memory_bytes())
            .field("queues", &self.queue_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn memory_accounting_tracks_allocs_and_frees() {
        let m = ResourceMonitor::new();
        m.alloc(100);
        m.alloc(50);
        assert_eq!(m.memory_bytes(), 150);
        m.free(120);
        assert_eq!(m.memory_bytes(), 30);
    }

    #[test]
    fn over_free_clamps_to_zero() {
        let m = ResourceMonitor::new();
        m.alloc(10);
        m.free(100);
        assert_eq!(m.memory_bytes(), 0);
    }

    #[test]
    fn queue_probes_sample_live_values() {
        let m = ResourceMonitor::new();
        let depth = Arc::new(AtomicU64::new(3));
        let d2 = Arc::clone(&depth);
        m.register_queue(
            "requests",
            Arc::new(move || d2.load(Ordering::Relaxed) as usize),
        );
        assert_eq!(m.queue_depth("requests"), Some(3));
        depth.store(42, Ordering::Relaxed);
        assert_eq!(m.queue_depth("requests"), Some(42));
        assert_eq!(m.queue_depth("nope"), None);
        assert_eq!(m.queue_names(), vec!["requests"]);
    }

    #[test]
    fn clones_share_state() {
        let m = ResourceMonitor::new();
        let m2 = m.clone();
        m.alloc(64);
        assert_eq!(m2.memory_bytes(), 64);
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn open_gate_passes_immediately() {
        let s = StallPoint::new();
        let clock = wdog_base::clock::RealClock::new();
        s.pass(&clock); // Must not block.
        assert!(!s.is_stalled());
    }

    #[test]
    fn armed_gate_blocks_until_released() {
        let s = StallPoint::new();
        s.set_stalled(true);
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            let clock = wdog_base::clock::RealClock::new();
            s2.pass(&clock);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "pass() returned while stalled");
        s.set_stalled(false);
        t.join().unwrap();
    }
}
