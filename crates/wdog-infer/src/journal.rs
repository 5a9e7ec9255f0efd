//! The in-memory trace journal the miner consumes.
//!
//! A [`TraceJournal`] is one recorded execution: the events a
//! [`TraceRecorder`](wdog_core::TraceRecorder) drained after a target's
//! test workload ran, stamped with which target produced it, a label for
//! the execution (test name, chaos schedule, load profile) and the seed it
//! booted with. Journals are the unit the miner consumes — invariants are
//! judged per-journal (orderings, staleness) or across all journals
//! (bounds, deltas), so keeping executions separate matters. Journals are
//! never written to disk: only the mined report is archived.

use wdog_core::{TraceEvent, TraceEventKind};

/// One recorded execution of an instrumented target.
#[derive(Debug, Clone)]
pub struct TraceJournal {
    /// Target program that produced the trace (`kvs`, `minizk`, ...).
    pub target: String,
    /// Human label for the execution the trace came from.
    pub label: String,
    /// Seed the execution booted with.
    pub seed: u64,
    /// Drained recorder events, in sequence order.
    pub events: Vec<TraceEvent>,
}

impl TraceJournal {
    /// Wraps drained recorder events into a journal.
    pub fn new(
        target: impl Into<String>,
        label: impl Into<String>,
        seed: u64,
        events: Vec<TraceEvent>,
    ) -> Self {
        Self {
            target: target.into(),
            label: label.into(),
            seed,
            events,
        }
    }

    /// Iterates the journal's publish events as `(event, fields)` pairs.
    pub fn publishes(
        &self,
    ) -> impl Iterator<Item = (&TraceEvent, &[(String, wdog_core::CtxValue)])> {
        self.events.iter().filter_map(|e| match &e.kind {
            TraceEventKind::Publish { fields } => Some((e, fields.as_slice())),
            TraceEventKind::Op { .. } => None,
        })
    }

    /// The journal's end-of-recording timestamp: the latest event time.
    ///
    /// Used as the closing bound when measuring publish gaps, so a key that
    /// goes quiet before the recording ends is charged for its silence.
    pub fn end_us(&self) -> u64 {
        self.events.iter().map(|e| e.at_us).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_core::CtxValue;

    #[test]
    fn journal_exposes_publishes_and_its_end() {
        let publish = TraceEvent {
            seq: 1,
            at_us: 10,
            key: "wal_loop".into(),
            kind: TraceEventKind::Publish {
                fields: vec![("n".into(), CtxValue::U64(1))],
            },
        };
        let mut j = TraceJournal::new("kvs", "unit", 7, vec![publish]);
        j.events.push(TraceEvent {
            seq: 2,
            at_us: 25,
            key: "wal_loop".into(),
            kind: TraceEventKind::Op {
                op: "flush#wal_sync".into(),
                ok: true,
            },
        });
        assert_eq!(j.publishes().count(), 1);
        assert_eq!(j.end_us(), 25);
    }
}
