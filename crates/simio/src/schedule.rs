//! Seedable, deterministic schedule clocking.
//!
//! Chaos campaigns arm and clear faults at precomputed offsets within a
//! run. A [`Timeline`] collects *all* timed events of one run and orders
//! them deterministically (by offset, then by insertion sequence); the
//! campaign runner (`harness::session::run`) fires them itself, on its own
//! clock actor, at the wakes where they fall due. Two runs that build the
//! same timeline therefore apply their events in byte-identical order,
//! which is what makes a replayed fault schedule reproduce.

use std::time::Duration;

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
