//! Flight recorder: a fixed-capacity ring of recent runtime events.
//!
//! The watchdog plane generates a low-rate event stream (reports, timeouts,
//! recovery rungs). Keeping the last N of them in memory
//! gives a postmortem the ordered tail of what the runtime saw without any
//! logging dependency; the ring never grows and records in O(1).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Default number of retained events.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// One recorded runtime event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Clock timestamp (ms) supplied by the recorder.
    pub at_ms: u64,
    /// Stable event class label (`report`, `timeout`, `incident-open`,
    /// `incident-close`, ...).
    pub kind: String,
    /// Free-form detail (checker id, component, outcome, ...).
    pub detail: String,
}

/// Fixed-capacity ring buffer of [`FlightEvent`]s.
///
/// When full, the oldest event is evicted and counted in
/// [`FlightRecorder::dropped`].
pub struct FlightRecorder {
    ring: Mutex<VecDeque<FlightEvent>>,
    cap: usize,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `cap` events (min 1).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(cap.max(1))),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event, evicting the oldest when at capacity.
    pub fn record(&self, at_ms: u64, kind: &str, detail: &str) {
        let mut ring = self.ring.lock();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(FlightEvent {
            at_ms,
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Returns the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Returns how many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Returns the ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAP)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("cap", &self.cap)
            .field("len", &self.ring.lock().len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_last_n_events() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record(i, "e", &i.to_string());
        }
        let evs = fr.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].detail, "2");
        assert_eq!(evs[2].detail, "4");
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let fr = FlightRecorder::with_capacity(0);
        fr.record(1, "a", "");
        fr.record(2, "b", "");
        assert_eq!(fr.events().len(), 1);
        assert_eq!(fr.events()[0].kind, "b");
    }
}
