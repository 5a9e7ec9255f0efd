//! The trace-driven inference pipeline behind the `wdog-infer` bin.
//!
//! Record → mine → emit → score:
//!
//! 1. **Record** — boot each target on the discrete-event sim clock, run
//!    its steady benign workload with a [`TraceRecorder`] armed, and drain
//!    the journal. Virtual time makes every journal — and therefore
//!    everything downstream — byte-reproducible.
//! 2. **Mine + emit** — hand the journals to `wdog-infer`, which proposes
//!    invariants the recorded executions never violated and lowers the
//!    survivors into slack-widened [`InferredSpec`]s.
//! 3. **Score** — replay the *missed* schedules from the target's archived
//!    chaos campaign (`results/chaos/chaos_<t>.json`) with the inferred
//!    family registered beside the mimics, and count the fault verdicts
//!    that flip to detected. The archived campaign ran the same seeds on
//!    the same sim substrate, so any flip is attributable to the inferred
//!    checkers — the mimics' behavior is reproduced exactly.
//!
//! The artifact (`results/inferred/inferred_<target>.json`) carries the
//! mined set, the emitted specs, and the flip ledger, and is deterministic
//! for a `(target, seed)` pair by construction.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use simio::SimClock;
use wdog_base::error::BaseResult;
use wdog_checkers::InferredSpec;
use wdog_core::TraceRecorder;
use wdog_infer::{infer, EmitConfig, InferenceReport, MinerConfig, TraceJournal, SCHEMA};
use wdog_target::WatchdogTarget;

use crate::chaos::{self, ChaosOptions, ChaosReport, DETECTED, MISSED};
use crate::session::Session;

/// Pipeline knobs.
#[derive(Debug, Clone)]
pub struct InferOptions {
    /// Base seed; each recording run derives its boot seed from it.
    pub seed: u64,
    /// How many benign executions to record per target.
    pub runs: u64,
    /// Virtual duration of each recording run.
    pub record_for: Duration,
    /// Confidence floors for the miner.
    pub miner: MinerConfig,
    /// At most this many archived missed schedules are re-scored.
    pub max_rescore: usize,
    /// Where the archived chaos campaigns live (`results/chaos`).
    pub chaos_dir: PathBuf,
}

impl Default for InferOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            runs: 3,
            record_for: Duration::from_secs(10),
            miner: MinerConfig::default(),
            max_rescore: 40,
            chaos_dir: PathBuf::from("results/chaos"),
        }
    }
}

/// One archived missed fault verdict that flipped to detected once the
/// inferred checkers were registered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlippedFault {
    /// Schedule id from the archived campaign.
    pub schedule: String,
    /// The fault's spec name (`<scenario>#<k>`).
    pub fault: String,
    /// Fault-kind label.
    pub kind: String,
    /// The exact ids a correct report blames for the fault.
    pub blames: Vec<String>,
    /// Inferred checkers in the fresh detection's canonical checker set.
    pub checkers: Vec<String>,
}

/// Re-scoring results against one archived chaos campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferScore {
    /// Seed of the archived campaign the schedules came from.
    pub chaos_seed: u64,
    /// Missed schedules in the archive.
    pub missed_schedules: u64,
    /// How many of them were replayed with the inferred family armed.
    pub rescored: u64,
    /// Previously-missed fault verdicts that stayed missed.
    pub still_missed: u64,
    /// Previously-missed fault verdicts that flipped to detected.
    pub flips: Vec<FlippedFault>,
}

/// The full `results/inferred/` artifact for one target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferArtifact {
    /// Always `wdog-infer/v1`.
    pub schema: String,
    /// Target name.
    pub target: String,
    /// Pipeline base seed.
    pub seed: u64,
    /// Recording runs taken.
    pub runs: u64,
    /// Events the trace recorders dropped across all recording runs. Must
    /// be zero for the corpus to stand: anything else means the invariants
    /// below were mined from truncated journals, and `wdog-infer` fails.
    pub dropped_events: u64,
    /// Mined invariants and emitted specs.
    pub inference: InferenceReport,
    /// Chaos re-scoring ledger; absent when no archive was found.
    pub score: Option<InferScore>,
}

/// Records one benign sim execution of `target` and returns its journal.
///
/// Runs as a sim [`Session`]: boot, workload, and observation all happen at
/// deterministic virtual instants.
pub fn record_journal(
    target: &dyn WatchdogTarget,
    seed: u64,
    label: &str,
    record_for: Duration,
) -> BaseResult<TraceJournal> {
    record_with(target, seed, label, record_for, TraceRecorder::new)
}

/// [`record_journal`] with the recorder built by `recorder` (tests pass a
/// deliberately small one).
fn record_with(
    target: &dyn WatchdogTarget,
    seed: u64,
    label: &str,
    record_for: Duration,
    recorder: impl FnOnce(wdog_base::clock::SharedClock) -> Arc<TraceRecorder>,
) -> BaseResult<TraceJournal> {
    let mut session = Session::boot(target, seed, SimClock::shared(), "infer-record")?;
    let clock = Arc::clone(session.clock());
    let recorder = recorder(Arc::clone(&clock));

    let base = ChaosOptions::default();
    let mut wd = base.wd.clone();
    wd.trace = Some(Arc::clone(&recorder));
    session.arm(&wd, &base.workload, None)?;

    let start = clock.now();
    let deadline = start + record_for;
    // Kick auxiliary paths (snapshot syncs, ...) twice, at fixed fractions
    // of the window: the steady workload never reaches them, and invariants
    // can only cover loops that published during recording. Two bursts per
    // journal give orderings and staleness something to hold onto.
    let marks = [start + record_for * 2 / 5, start + record_for * 7 / 10];
    let mut exercised = [false; 2];
    session.sleep_until(deadline, || {
        let now = clock.now();
        for (done, mark) in exercised.iter_mut().zip(marks) {
            if !*done && now >= mark {
                session.inst().exercise_auxiliary();
                *done = true;
            }
        }
        false
    });
    session.finish();

    // Keep only the deterministic prefix. Everything before the deadline
    // ran at frozen virtual instants and replays identically under the
    // same seed; events stamped at or past it were journaled while
    // virtual time free-ran through teardown, and how many of those land
    // depends on real thread scheduling.
    let deadline_us = deadline.as_micros() as u64;
    let mut events = recorder.drain();
    events.retain(|e| e.at_us < deadline_us);

    // A full buffer drops silently on the hot path; the count travels with
    // the journal so the pipeline can refuse a truncated corpus.
    let mut journal = TraceJournal::new(target.name(), label, seed, events);
    journal.dropped = recorder.dropped();
    Ok(journal)
}

/// Records `opts.runs` benign executions with derived seeds.
pub fn record_journals(
    target: &dyn WatchdogTarget,
    opts: &InferOptions,
) -> BaseResult<Vec<TraceJournal>> {
    let mut journals = Vec::new();
    for run in 0..opts.runs {
        let label = format!("record-{run:03}");
        let seed = wdog_base::rng::derive_seed(opts.seed, &label);
        eprintln!(
            "[wdog-infer] {} {label} (seed {seed}) recording {:?} virtual ...",
            target.name(),
            opts.record_for
        );
        journals.push(record_journal(target, seed, &label, opts.record_for)?);
    }
    Ok(journals)
}

/// Replays the archive's missed schedules with `specs` registered and
/// ledgers every fault verdict that flips to detected.
pub fn score_against_archive(
    target: &dyn WatchdogTarget,
    specs: &[InferredSpec],
    archive: &ChaosReport,
    opts: &InferOptions,
) -> BaseResult<InferScore> {
    let missed: Vec<_> = archive
        .outcomes
        .iter()
        .filter(|o| o.verdict == MISSED)
        .collect();
    let mut copts = ChaosOptions::default();
    copts.wd.inferred = specs.to_vec();

    let mut score = InferScore {
        chaos_seed: archive.seed,
        missed_schedules: missed.len() as u64,
        rescored: 0,
        still_missed: 0,
        flips: Vec::new(),
    };
    for outcome in missed.iter().take(opts.max_rescore) {
        score.rescored += 1;
        let fresh = chaos::run_schedule(target, &outcome.schedule, &copts)?;
        for (old, new) in outcome.verdicts.iter().zip(&fresh.verdicts) {
            if old.verdict != MISSED {
                continue;
            }
            if new.verdict == DETECTED {
                score.flips.push(FlippedFault {
                    schedule: outcome.schedule.id.clone(),
                    fault: new.fault.clone(),
                    kind: new.kind.clone(),
                    blames: new.blames.clone(),
                    checkers: new
                        .checkers
                        .iter()
                        .filter(|c| c.contains(".inferred."))
                        .cloned()
                        .collect(),
                });
            } else {
                score.still_missed += 1;
            }
        }
    }
    Ok(score)
}

/// Loads the archived chaos campaign for `target`, if present.
pub fn load_chaos_archive(dir: &Path, target: &str) -> Option<ChaosReport> {
    let path = dir.join(format!("chaos_{target}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Runs the full pipeline for one target.
pub fn run_pipeline(target: &dyn WatchdogTarget, opts: &InferOptions) -> BaseResult<InferArtifact> {
    let journals = record_journals(target, opts)?;
    let inference = infer(
        target.name(),
        &journals,
        &opts.miner,
        &EmitConfig::for_target(target.name()),
    );
    eprintln!(
        "[wdog-infer] {}: {} events -> {} invariants -> {} specs",
        target.name(),
        inference.events,
        inference.mined.invariants.len(),
        inference.specs.len()
    );
    let score = match load_chaos_archive(&opts.chaos_dir, target.name()) {
        Some(archive) => {
            let s = score_against_archive(target, &inference.specs, &archive, opts)?;
            eprintln!(
                "[wdog-infer] {}: {} missed schedules archived, {} rescored, {} fault flips",
                target.name(),
                s.missed_schedules,
                s.rescored,
                s.flips.len()
            );
            Some(s)
        }
        None => {
            eprintln!(
                "[wdog-infer] {}: no archived campaign under {}; skipping scoring",
                target.name(),
                opts.chaos_dir.display()
            );
            None
        }
    };
    Ok(InferArtifact {
        schema: SCHEMA.to_owned(),
        target: target.name().to_owned(),
        seed: opts.seed,
        runs: opts.runs,
        dropped_events: journals.iter().map(|j| j.dropped).sum(),
        inference,
        score,
    })
}

/// Renders the per-target summary table.
pub fn render(artifact: &InferArtifact) -> String {
    let mut t = crate::fmt::Table::new(&["checker", "kind", "key", "support"]);
    for spec in &artifact.inference.specs {
        t.row_owned(vec![
            spec.id.clone(),
            spec.predicate.kind().to_owned(),
            spec.key.clone(),
            spec.support.to_string(),
        ]);
    }
    let score_line = match &artifact.score {
        Some(s) => format!(
            "chaos rescoring (seed {}): {} missed schedules, {} rescored, \
             {} fault verdicts flipped to detected, {} still missed",
            s.chaos_seed,
            s.missed_schedules,
            s.rescored,
            s.flips.len(),
            s.still_missed
        ),
        None => "chaos rescoring: no archived campaign".to_owned(),
    };
    format!(
        "Inferred checkers [{}] seed {}: {} journals, {} events, \
         {} invariants -> {} registered checkers\n{}\n\n{}",
        artifact.target,
        artifact.seed,
        artifact.inference.journals.len(),
        artifact.inference.events,
        artifact.inference.mined.invariants.len(),
        artifact.inference.specs.len(),
        score_line,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs::target::KvsTarget;

    #[test]
    fn recording_a_benign_run_yields_a_mineable_journal() {
        let journal = record_journal(&KvsTarget, 7, "unit", Duration::from_secs(3)).unwrap();
        assert_eq!(journal.target, "kvs");
        assert_eq!(journal.schema, SCHEMA);
        assert!(
            journal.publishes().count() > 20,
            "only {} publishes journaled",
            journal.publishes().count()
        );
        // Re-recording under the same seed yields the same *inference*:
        // the sim replays the same virtual execution, and mining ignores
        // the one nondeterministic residue (sequence interleaving between
        // threads recording at the same frozen instant).
        let again = record_journal(&KvsTarget, 7, "unit", Duration::from_secs(3)).unwrap();
        assert_eq!(again.publishes().count(), journal.publishes().count());
        let cfg = MinerConfig::default();
        let emit_cfg = EmitConfig::for_target("kvs");
        assert_eq!(
            infer("kvs", &[journal], &cfg, &emit_cfg),
            infer("kvs", &[again], &cfg, &emit_cfg),
        );
    }

    #[test]
    fn pipeline_mines_specs_for_kvs() {
        let opts = InferOptions {
            runs: 2,
            record_for: Duration::from_secs(4),
            // Unit test runs from the crate dir: no archive there, so the
            // scoring leg is skipped.
            chaos_dir: PathBuf::from("does-not-exist"),
            ..InferOptions::default()
        };
        let artifact = run_pipeline(&KvsTarget, &opts).unwrap();
        assert!(artifact.score.is_none());
        assert!(
            artifact.inference.specs.len() >= 10,
            "only {} specs mined",
            artifact.inference.specs.len()
        );
        assert!(artifact
            .inference
            .specs
            .iter()
            .all(|s| s.id.starts_with("kvs.inferred.")));
        let rendered = render(&artifact);
        assert!(rendered.contains("registered checkers"));
        assert_eq!(artifact.dropped_events, 0, "default capacity must fit");
    }

    #[test]
    fn a_recorder_that_overflows_is_reported_not_hidden() {
        let journal = record_with(&KvsTarget, 7, "tiny", Duration::from_secs(1), |clock| {
            TraceRecorder::with_capacity(clock, 16)
        })
        .unwrap();
        assert!(journal.events.len() <= 16);
        assert!(
            journal.dropped > 0,
            "a 16-event buffer cannot hold 1 s of kvs"
        );
    }
}
