//! On-disk trace journal format (`wdog-infer/v1`).
//!
//! A [`TraceJournal`] is one recorded execution: the events a
//! [`TraceRecorder`](wdog_core::TraceRecorder) drained after a target's
//! test workload ran, stamped with which target produced it, a label for
//! the execution (test name, chaos schedule, load profile) and the seed it
//! booted with. Journals are the unit the miner consumes — invariants are
//! judged per-journal (orderings, staleness) or across all journals
//! (bounds, deltas), so keeping executions separate matters.

use serde::{Deserialize, Serialize};
use wdog_core::{TraceEvent, TraceEventKind};

/// Schema tag written into every journal and corpus artifact.
pub const SCHEMA: &str = "wdog-infer/v1";

/// One recorded execution of an instrumented target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceJournal {
    /// Format tag; always [`SCHEMA`] for journals this crate writes.
    pub schema: String,
    /// Target program that produced the trace (`kvs`, `minizk`, ...).
    pub target: String,
    /// Human label for the execution the trace came from.
    pub label: String,
    /// Seed the execution booted with.
    pub seed: u64,
    /// Drained recorder events, in sequence order.
    pub events: Vec<TraceEvent>,
    /// Events the recorder discarded because its buffer was full
    /// ([`TraceRecorder::dropped`](wdog_core::TraceRecorder::dropped)):
    /// non-zero means `events` is a truncated view of the execution.
    #[serde(default)]
    pub dropped: u64,
}

impl TraceJournal {
    /// Wraps drained recorder events into a schema-tagged journal.
    pub fn new(
        target: impl Into<String>,
        label: impl Into<String>,
        seed: u64,
        events: Vec<TraceEvent>,
    ) -> Self {
        Self {
            schema: SCHEMA.to_owned(),
            target: target.into(),
            label: label.into(),
            seed,
            events,
            dropped: 0,
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

    fn publish(seq: u64, at_us: u64, key: &str) -> TraceEvent {
        TraceEvent {
            seq,
            at_us,
            key: key.into(),
            kind: TraceEventKind::Publish {
                fields: vec![("n".into(), CtxValue::U64(seq))],
            },
        }
    }

    #[test]
    fn journal_round_trips_and_exposes_publishes() {
        let mut j = TraceJournal::new("kvs", "unit", 7, vec![publish(1, 10, "wal_loop")]);
        j.events.push(TraceEvent {
            seq: 2,
            at_us: 25,
            key: "wal_loop".into(),
            kind: TraceEventKind::Op {
                op: "flush#wal_sync".into(),
                ok: true,
            },
        });
        assert_eq!(j.schema, SCHEMA);
        assert_eq!(j.publishes().count(), 1);
        assert_eq!(j.end_us(), 25);
        let json = serde_json::to_string(&j).unwrap();
        let back: TraceJournal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j);
    }
}
