//! Execution tracing for checker inference (`wdog-infer`).
//!
//! A [`TraceRecorder`] journals what the instrumented program *does* while
//! its own tests run: every context-key publish that flows through a hook
//! site and every op-table execution a mimic checker performs. The journal
//! is the raw material `wdog-infer` mines for value-level invariants —
//! numeric bounds, publish orderings, staleness windows — that structural
//! mimics are blind to.
//!
//! The recorder arms [`crate::hooks`] post-hoc: it is attached through
//! [`Hooks::attach_trace`](crate::hooks::Hooks::attach_trace), the armed
//! flag flips only after the recorder is stored, and a *disarmed* hook fire
//! still costs exactly one extra relaxed atomic load. An armed fire clones
//! its fields into one bounded, mutex-guarded buffer — recording is a
//! test-time mode, so the armed path may allocate; the production path may
//! not.
//!
//! Events are stamped with their position in the journal and the recorder
//! clock's current (virtual) time. Under the deterministic simulation
//! substrate the drained journal is fully reproducible, which is what makes
//! mined invariants and the emitted checker corpus byte-stable.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use wdog_base::clock::SharedClock;

use crate::context::CtxValue;

/// Default event capacity; past it events are counted as dropped rather
/// than grown unboundedly (the buffer is bounded by construction).
const DEFAULT_CAPACITY: usize = 1 << 19;

/// What one trace event records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A hook fired and published these fields into its context key.
    Publish { fields: Vec<(String, CtxValue)> },
    /// A mimicked op-table operation executed against the key's context.
    Op { op: String, ok: bool },
}

/// One journaled event: a context publish or an op-table execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global record order (1-based); ties cannot occur.
    pub seq: u64,
    /// Recorder-clock timestamp in microseconds (virtual time under sim).
    pub at_us: u64,
    /// The context key the event belongs to.
    pub key: String,
    /// Publish or op execution.
    pub kind: TraceEventKind,
}

/// A bounded journal of publishes and op executions.
///
/// Created around the program's clock (use the sim clock for deterministic
/// journals), attached to the program's [`Hooks`](crate::hooks::Hooks) and
/// to mimic checkers, then [`drain`](TraceRecorder::drain)ed after the
/// workload of interest has run.
pub struct TraceRecorder {
    clock: SharedClock,
    capacity: usize,
    journal: Mutex<Journal>,
}

#[derive(Default)]
struct Journal {
    events: Vec<TraceEvent>,
    /// Sequence of the last journaled event; survives drains.
    seq: u64,
    dropped: u64,
}

impl TraceRecorder {
    /// Creates a recorder stamping events with `clock`, with the default
    /// capacity.
    pub fn new(clock: SharedClock) -> Arc<Self> {
        Self::with_capacity(clock, DEFAULT_CAPACITY)
    }

    /// Creates a recorder buffering at most `capacity` events between
    /// drains.
    pub fn with_capacity(clock: SharedClock, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            clock,
            capacity,
            journal: Mutex::new(Journal::default()),
        })
    }

    /// Journals a completed context publish.
    pub fn record_publish(&self, key: &str, fields: Vec<(String, CtxValue)>) {
        self.record(key, TraceEventKind::Publish { fields });
    }

    /// Journals one op-table execution for the checker bound to `key`.
    pub fn record_op(&self, key: &str, op: &str, ok: bool) {
        self.record(
            key,
            TraceEventKind::Op {
                op: op.to_owned(),
                ok,
            },
        );
    }

    fn record(&self, key: &str, kind: TraceEventKind) {
        let mut journal = self.journal.lock();
        if journal.events.len() >= self.capacity {
            journal.dropped += 1;
            return;
        }
        journal.seq += 1;
        let seq = journal.seq;
        journal.events.push(TraceEvent {
            seq,
            at_us: self.clock.now().as_micros() as u64,
            key: key.to_owned(),
            kind,
        });
    }

    /// Removes and returns every journaled event, in sequence order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.journal.lock().events)
    }

    /// Returns how many events were discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.journal.lock().dropped
    }

    /// Returns how many events are currently buffered.
    pub fn len(&self) -> usize {
        self.journal.lock().events.len()
    }

    /// Returns `true` if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::SimClock;
    use std::time::Duration;

    #[test]
    fn records_publishes_and_ops_in_sequence_order() {
        let clock = SimClock::shared();
        let rec = TraceRecorder::new(clock.clone());
        rec.record_publish("k", vec![("a".into(), CtxValue::U64(1))]);
        clock.sleep(Duration::from_millis(2));
        rec.record_op("k", "f#disk_write", true);
        let events = rec.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1);
        assert_eq!(events[0].at_us, 0);
        assert_eq!(
            events[0].kind,
            TraceEventKind::Publish {
                fields: vec![("a".into(), CtxValue::U64(1))]
            }
        );
        assert_eq!(events[1].at_us, 2_000);
        assert_eq!(
            events[1].kind,
            TraceEventKind::Op {
                op: "f#disk_write".into(),
                ok: true
            }
        );
        assert!(rec.is_empty(), "drain removes events");
    }

    #[test]
    fn bounded_buffer_counts_drops_instead_of_growing() {
        let rec = TraceRecorder::with_capacity(SimClock::shared(), 2);
        for i in 0..5u64 {
            rec.record_publish("k", vec![("i".into(), CtxValue::U64(i))]);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn a_workload_that_fit_the_eight_lanes_drops_nothing() {
        // The recorder used to be eight lanes of 1 << 16 events, one lane
        // per thread: eight threads could journal 1 << 16 events each.
        let rec = TraceRecorder::new(SimClock::shared());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1 << 16 {
                        rec.record_op("k", "op", true);
                    }
                });
            }
        });
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.len(), 8 << 16);
        // The buffer is still bounded: the next event is counted, not kept.
        rec.record_op("k", "op", true);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn concurrent_recording_yields_unique_total_order() {
        let rec = TraceRecorder::new(SimClock::shared());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..500u64 {
                        rec.record_publish("k", vec![("v".into(), CtxValue::U64(t * 1000 + i))]);
                    }
                });
            }
        });
        let events = rec.drain();
        assert_eq!(events.len(), 2000);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1, "sequences dense and sorted");
        }
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = TraceEvent {
            seq: 7,
            at_us: 1234,
            key: "flush".into(),
            kind: TraceEventKind::Publish {
                fields: vec![("len".into(), CtxValue::U64(42))],
            },
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
