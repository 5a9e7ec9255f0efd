//! Seedable, deterministic schedule clocking.
//!
//! Chaos campaigns arm and clear faults at precomputed offsets within a
//! run. Doing that with ad-hoc helper threads gives every fault its own
//! wakeup race; a [`Timeline`] instead collects *all* timed events of one
//! run, orders them deterministically (by offset, then by insertion
//! sequence), and walks them on a single clocked thread. Two runs that
//! build the same timeline therefore apply their events in byte-identical
//! order, which is what makes a replayed fault schedule reproduce.

use std::time::Duration;

use wdog_base::clock::SharedClock;

/// One timed event: an offset from timeline start plus an opaque label the
/// consumer interprets (e.g. `arm:3` / `clear:3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Offset from the timeline's start.
    pub at: Duration,
    /// Insertion sequence number; ties on `at` break by `seq`, so event
    /// order is a pure function of how the timeline was built.
    pub seq: u64,
    /// Consumer-interpreted label.
    pub label: String,
}

/// An ordered set of timed events driven by one clock.
#[derive(Debug, Default)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    next_seq: u64,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event at `at` from timeline start.
    pub fn push(&mut self, at: Duration, label: impl Into<String>) {
        self.events.push(TimelineEvent {
            at,
            seq: self.next_seq,
            label: label.into(),
        });
        self.next_seq += 1;
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the timeline into its deterministic execution order.
    pub fn into_sorted(mut self) -> Vec<TimelineEvent> {
        self.events.sort_by_key(|e| (e.at, e.seq));
        self.events
    }

    /// Spawns a thread that sleeps on `clock` to each event's offset (from
    /// the moment of the call) and invokes `f` with the event, in
    /// deterministic order. Returns a handle to join once the last event
    /// has fired. The thread registers as a clock actor, so under a
    /// simulated clock events fire at their exact virtual offsets.
    pub fn run<F>(self, clock: SharedClock, mut f: F) -> TimelineHandle
    where
        F: FnMut(&TimelineEvent) + Send + 'static,
    {
        let events = self.into_sorted();
        let spawn_clock = std::sync::Arc::clone(&clock);
        let handle = wdog_base::clock::spawn_on(&spawn_clock, "timeline", move || {
            let start = clock.now();
            for e in &events {
                let target = start + e.at;
                let now = clock.now();
                if target > now {
                    clock.sleep(target - now);
                }
                f(e);
            }
        });
        TimelineHandle {
            handle: Some(handle),
        }
    }
}

/// Join handle for a running [`Timeline`] thread.
#[derive(Debug)]
pub struct TimelineHandle {
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TimelineHandle {
    /// Blocks until every event has fired.
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TimelineHandle {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use wdog_base::clock::{RealClock, VirtualClock};

    fn build() -> Timeline {
        let mut t = Timeline::new();
        t.push(Duration::from_millis(30), "b");
        t.push(Duration::from_millis(10), "a");
        t.push(Duration::from_millis(30), "c");
        t
    }

    #[test]
    fn sorted_order_is_offset_then_insertion() {
        let order: Vec<String> = build().into_sorted().into_iter().map(|e| e.label).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn run_fires_every_event_in_order() {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&fired);
        let handle = build().run(RealClock::shared(), move |e| {
            f2.lock().unwrap().push(e.label.clone());
        });
        handle.join();
        assert_eq!(*fired.lock().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn run_obeys_a_virtual_clock() {
        let clock = VirtualClock::shared();
        let fired = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&fired);
        let shared: SharedClock = Arc::clone(&clock) as SharedClock;
        let handle = build().run(shared, move |e| {
            f2.lock().unwrap().push(e.label.clone());
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            fired.lock().unwrap().is_empty(),
            "fired before time advanced"
        );
        clock.advance(Duration::from_millis(50));
        handle.join();
        assert_eq!(*fired.lock().unwrap(), vec!["a", "b", "c"]);
    }
}
