//! Trace-driven checker inference.
//!
//! System software ships with tests that exercise its healthy behavior.
//! `wdog-infer` turns those executions into *checkers*: a
//! [`TraceRecorder`](wdog_core::TraceRecorder) journals every context-key
//! publish and op-table execution while the tests run, the [`miner`]
//! replays the journals and proposes value-level invariants the recorded
//! behavior never violated, and the [`emit`](mod@emit) pass lowers surviving
//! candidates into [`InferredSpec`]s that register through `DriverBuilder`
//! beside the structural mimics.
//!
//! The pipeline is record → mine → emit → score:
//!
//! ```text
//! tests ──TraceRecorder──▶ TraceJournal (in memory)
//!       ──mine(journals)──▶ Vec<MinedInvariant>  (observed bounds)
//!       ──emit(mined)─────▶ Vec<InferredSpec>    (slack folded in)
//!       ──WdOptions.inferred──▶ scored in chaos sim beside mimics
//! ```
//!
//! Both halves speak one vocabulary, `wdog_checkers::InferredPredicate`:
//! a mined invariant is a predicate with its observed bounds, and emitting
//! it only widens the bounds and names the spec.
//!
//! Everything downstream of recording is a pure function of the journals,
//! and journals recorded on the simulation substrate are themselves
//! deterministic — so the emitted corpus is byte-stable and diffable.

pub mod emit;
pub mod journal;
pub mod miner;

pub use emit::emit;
pub use journal::TraceJournal;
pub use miner::{holds_on, mine, MinedInvariant, MinerConfig};

use wdog_checkers::InferredSpec;

/// Schema tag of every archived [`InferenceReport`].
pub const SCHEMA: &str = "wdog-infer/v1";

/// Record-side output of one mining run: the mined set plus the specs it
/// lowered to, under one schema tag. This is the shape the corpus
/// artifacts in `results/inferred/` serialize.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InferenceReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Target the journals came from.
    pub target: String,
    /// Labels of the journals that were mined, sorted.
    pub journals: Vec<String>,
    /// Total trace events consumed.
    pub events: u64,
    /// Invariants that survived the confidence floors, sorted by id.
    pub mined: Vec<MinedInvariant>,
    /// Registrable checker specs, slack folded in.
    pub specs: Vec<InferredSpec>,
}

/// Runs mine + emit over `journals` and wraps the result for archiving.
pub fn infer(target: &str, journals: &[TraceJournal], miner_cfg: &MinerConfig) -> InferenceReport {
    let mined = mine(journals, miner_cfg);
    let specs = emit(&mined, target);
    let mut labels: Vec<String> = journals.iter().map(|j| j.label.clone()).collect();
    labels.sort();
    InferenceReport {
        schema: SCHEMA.to_owned(),
        target: target.to_owned(),
        journals: labels,
        events: journals.iter().map(|j| j.events.len() as u64).sum(),
        mined,
        specs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_core::{CtxValue, TraceEvent, TraceEventKind};

    #[test]
    fn infer_wraps_mine_and_emit_under_the_schema() {
        let events = (1..=5u64)
            .map(|i| TraceEvent {
                seq: i,
                at_us: i * 1_000,
                key: "wal_loop".into(),
                kind: TraceEventKind::Publish {
                    fields: vec![("n".into(), CtxValue::U64(i))],
                },
            })
            .collect();
        let journals = vec![TraceJournal::new("kvs", "unit", 3, events)];
        let report = infer("kvs", &journals, &MinerConfig::default());
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.events, 5);
        assert_eq!(report.journals, vec!["unit".to_owned()]);
        assert_eq!(report.mined.len(), report.specs.len());
        assert!(report
            .specs
            .iter()
            .any(|s| s.id == "kvs.inferred.staleness.wal_loop"));
        let json = serde_json::to_string(&report).unwrap();
        let back: InferenceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
