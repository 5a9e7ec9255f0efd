//! The chaos campaign engine behind the `wdog-chaos` bin.
//!
//! Table 1 replays the *hand-written* gray-failure catalogue one scenario
//! at a time; a chaos campaign instead asks what the watchdog does under
//! fault combinations nobody wrote down. A seeded PRNG composes
//! multi-fault [`FaultSchedule`]s from the target's catalogue — random
//! components, onsets, durations, severities, overlapping pairs, plus
//! benign *near-miss* schedules that must not fire anything — plays each
//! through the one campaign run ([`session::run`], no coordinator or
//! extrinsic detector attached) and scores its trace. Every fault gets a
//! verdict:
//!
//! - **detected** — some in-window report blames the fault: its component
//!   or operation is exactly one of the fault's `blames` ids
//!   ([`crate::scenario::blames`], the one rule every campaign scores by);
//! - **wrong-component** — no report blames the fault, but some report
//!   blames no fault of the schedule at all (mislocated pinpoint);
//! - **missed** — no report blames the fault, and any that arrived blames
//!   another fault of the schedule;
//! - **clean** / **false-positive** — the benign-schedule verdicts: a
//!   sub-threshold near-miss must produce *no* report.
//!
//! Failing schedules shrink by greedy delta debugging
//! ([`shrink`]): drop faults, shorten durations, pull onsets in — rerunning
//! the campaign oracle at each step — down to a minimal [`Reproducer`]
//! that `wdog-chaos --replay` reruns byte-for-byte.
//!
//! A [`ChaosReport`] is a pure function of `(target, seed, schedules)`:
//! schedule composition is a pure function of the seed, and every schedule
//! replays on a fresh discrete-event `SimClock`, so which checker reports
//! at which virtual instant is fixed too. The report carries compositions,
//! verdicts and the checkers behind each detection, never latencies or
//! report counts; measured latencies go to the [`ChaosMetrics`] sidecar.
//! Reports from signal checkers ([`is_signal_checker`]) are
//! measured, never scored: they sample resource levels, whose trip point
//! the schedule's severity does not set.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use faults::schedule::{compose_schedule, ComposeOptions, FaultSchedule};
use faults::spec::FaultKind;
use faults::Scenario;
use simio::SimClock;
use wdog_base::clock::{RealClock, SharedClock};
use wdog_base::error::{BaseError, BaseResult};
use wdog_core::report::FailureReport;
use wdog_target::{WatchdogTarget, WdOptions, WorkloadProfile};
use wdog_telemetry::{checker_family, ChaosMetrics};

use crate::scenario::{blames, RunnerOptions};
use crate::session::{self, RunSpec, Trace};

/// Verdict labels.
pub const DETECTED: &str = "detected";
/// See [`DETECTED`].
pub const MISSED: &str = "missed";
/// See [`DETECTED`].
pub const WRONG_COMPONENT: &str = "wrong-component";
/// See [`DETECTED`].
pub const CLEAN: &str = "clean";
/// See [`DETECTED`].
pub const FALSE_POSITIVE: &str = "false-positive";

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Campaign seed: schedules, boot seeds, and workloads all derive
    /// from it.
    pub seed: u64,
    /// How many schedules to compose and replay.
    pub schedules: u64,
    /// Schedule composition knobs.
    pub compose: ComposeOptions,
    /// Watchdog tuning per run (campaign tuning, as in the scenario
    /// runner — short rounds so detection lands inside the horizon).
    pub wd: WdOptions,
    /// Steady-state period before each schedule's clock starts.
    pub warmup: Duration,
    /// Extra observation past the horizon so final-round reports land.
    pub grace: Duration,
    /// Workload shape per run.
    pub workload: WorkloadProfile,
    /// Largest number of schedule re-runs one shrink may spend.
    pub shrink_budget: u64,
    /// At most this many failing schedules are shrunk to reproducers.
    pub max_reproducers: usize,
    /// Measurement sidecar: detection latencies, signal-checker reports and
    /// the substrate's I/O ledger.
    pub metrics: Option<ChaosMetrics>,
    /// Pinned `true`: every schedule runs on a fresh discrete-event
    /// `SimClock`, which is what makes the report byte-identical by
    /// construction. The field survives only because `benchmark/` names it
    /// in a struct literal; it is read once, in [`run_schedule`].
    pub sim: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        let runner = RunnerOptions::default();
        Self {
            seed: 42,
            schedules: 20,
            compose: ComposeOptions::default(),
            wd: runner.wd,
            warmup: Duration::from_millis(500),
            grace: Duration::from_millis(400),
            workload: runner.workload,
            shrink_budget: 24,
            max_reproducers: 2,
            metrics: None,
            sim: true,
        }
    }
}

/// The catalogue subset chaos composes from.
///
/// Process crashes stay out: the in-process watchdog dies with the process,
/// so a crashed run has no detector left to score (Table 1's heartbeat row
/// scores crashes). Memory leaks stay out too: their accrual rate couples
/// the verdict to wall time.
pub fn chaos_pool(target: &dyn WatchdogTarget) -> Vec<Scenario> {
    target
        .catalog()
        .into_iter()
        .filter(|s| {
            !matches!(
                s.kind,
                FaultKind::ProcessCrash | FaultKind::MemoryLeak { .. }
            )
        })
        .collect()
}

/// One fault's verdict within a schedule run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultVerdict {
    /// The fault's spec name (`<scenario>#<k>`).
    pub fault: String,
    /// Catalogue scenario it was derived from.
    pub scenario: String,
    /// Fault-kind label (`disk-stuck`, `net-slow`, …).
    pub kind: String,
    /// The exact component and operation ids a correct report blames.
    pub blames: Vec<String>,
    /// `detected`, `missed`, `wrong-component`, `clean`, or
    /// `false-positive`.
    pub verdict: String,
    /// Checkers whose in-window reports blame this fault (sorted); for
    /// false positives, every checker that reported at all.
    pub checkers: Vec<String>,
    /// For wrong-component verdicts: the components of the in-window
    /// reports that blame no fault of the schedule (sorted).
    pub blamed: Vec<String>,
}

/// One schedule's full replay record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// The composed schedule, byte-for-byte replayable.
    pub schedule: FaultSchedule,
    /// Per-fault verdicts, in composition order.
    pub verdicts: Vec<FaultVerdict>,
    /// Schedule-level verdict: worst fault verdict (harmful), or
    /// `clean`/`false-positive` (benign).
    pub verdict: String,
}

impl ScheduleOutcome {
    /// Whether this outcome is a campaign failure worth shrinking: a
    /// harmful fault the watchdog missed or mislocated, or a benign
    /// schedule that fired a checker.
    pub fn failing(&self) -> bool {
        self.verdict != DETECTED && self.verdict != CLEAN
    }
}

/// Campaign-level accuracy accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Schedules replayed.
    pub schedules: u64,
    /// Harmful schedules.
    pub harmful: u64,
    /// Benign near-miss schedules.
    pub benign: u64,
    /// Per-fault `detected` verdicts.
    pub detected: u64,
    /// Per-fault `missed` verdicts.
    pub missed: u64,
    /// Per-fault `wrong-component` verdicts.
    pub wrong_component: u64,
    /// Benign schedules that stayed silent.
    pub clean: u64,
    /// Benign schedules that fired a checker.
    pub false_positives: u64,
}

/// The campaign artifact `wdog-chaos` archives under `results/chaos/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Target name.
    pub target: String,
    /// Campaign seed.
    pub seed: u64,
    /// Every schedule's outcome, in index order.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Accuracy totals.
    pub summary: ChaosSummary,
    /// Shrunk minimal reproducers for failing schedules.
    pub reproducers: Vec<Reproducer>,
}

/// A minimal failing schedule, archived as standalone replayable JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// What the reproducer reproduces: a failing verdict, or `exemplar`
    /// for the always-emitted replay example of a clean campaign.
    pub kind: String,
    /// Target the schedule runs against.
    pub target: String,
    /// The (shrunk) schedule.
    pub schedule: FaultSchedule,
    /// The schedule-level verdict a faithful replay must reproduce.
    pub verdict: String,
    /// Shrink steps that each removed or shortened something.
    pub shrink_steps: u64,
    /// Schedule re-runs the shrink spent.
    pub shrink_evals: u64,
}

/// Replays one schedule against a fresh testbed and scores every fault.
///
/// The instance boots from the schedule's own stored seed, so a shrunk or
/// archived schedule replays identically with no campaign context.
pub fn run_schedule(
    target: &dyn WatchdogTarget,
    schedule: &FaultSchedule,
    opts: &ChaosOptions,
) -> BaseResult<ScheduleOutcome> {
    schedule.validate().map_err(BaseError::InvalidState)?;
    let clock: SharedClock = if opts.sim {
        SimClock::shared()
    } else {
        RealClock::shared()
    };
    let spec = RunSpec {
        wd: opts.wd.clone(),
        workload: opts.workload.clone(),
        warmup: opts.warmup,
        // Final-round reports land in the grace period.
        tail: opts.grace,
        io_metrics: opts.metrics.clone(),
        ..RunSpec::default()
    };
    let trace = session::run(target, clock, schedule, &spec)?;
    Ok(score_schedule(schedule, &trace, opts.metrics.as_ref()))
}

/// Is `checker` a load-coupled signal checker (its [`checker_family`] is
/// `signal`)? Signal checkers sample real resource levels — queue
/// depth, memory, disk headroom — so whether one trips during a schedule
/// depends on machine load at the sample instant, not on the injected
/// severity. The campaign measures their reports in the [`ChaosMetrics`] sidecar
/// but never scores them: a verdict they could flip would wobble between
/// same-seed runs and break the byte-identical-report contract.
pub fn is_signal_checker(checker: &str) -> bool {
    checker_family(checker) == "signal"
}

/// Scores a replayed schedule from its trace's report log.
fn score_schedule(
    schedule: &FaultSchedule,
    trace: &Trace,
    metrics: Option<&ChaosMetrics>,
) -> ScheduleOutcome {
    let run_start_ms = trace.run_start.as_millis() as u64;
    let benign = schedule.benign;
    // Deterministic scoring set: signal-checker reports are measured in
    // the sidecar and dropped (see [`is_signal_checker`]).
    let (signal, reports): (Vec<&FailureReport>, Vec<&FailureReport>) = trace
        .reports
        .iter()
        .partition(|r| is_signal_checker(r.checker.as_str()));
    if let Some(m) = metrics {
        signal
            .iter()
            .for_each(|r| m.signal_report(r.checker.as_str()));
    }
    let sorted = |names: Vec<&str>| {
        let mut names: Vec<String> = names.into_iter().map(str::to_owned).collect();
        names.sort();
        names.dedup();
        names
    };
    let verdicts: Vec<FaultVerdict> = schedule
        .faults
        .iter()
        .map(|f| {
            // A near-miss schedule must stay silent: any report at all
            // after the schedule clock started is a false positive.
            let onset_ms = run_start_ms
                + if benign {
                    0
                } else {
                    f.spec.start_after.as_millis() as u64
                };
            let window: Vec<&FailureReport> = reports
                .iter()
                .filter(|r| r.at_ms >= onset_ms)
                .copied()
                .collect();
            let hits: Vec<&FailureReport> = window
                .iter()
                .filter(|r| benign || blames(r, &f.blames))
                .copied()
                .collect();
            // A missed fault's window report that blames no fault of the
            // schedule is a mislocated pinpoint, not silence.
            let blamed = if benign || !hits.is_empty() {
                Vec::new()
            } else {
                sorted(
                    window
                        .iter()
                        .filter(|r| !schedule.faults.iter().any(|g| blames(r, &g.blames)))
                        .map(|r| r.location.component.as_str())
                        .collect(),
                )
            };
            let verdict = match (benign, hits.first()) {
                (true, None) => CLEAN,
                (true, Some(_)) => FALSE_POSITIVE,
                (false, Some(first)) => {
                    if let Some(m) = metrics {
                        let ms = first.at_ms.saturating_sub(onset_ms);
                        m.detection_latency(f.spec.kind.label(), ms);
                    }
                    DETECTED
                }
                (false, None) if blamed.is_empty() => MISSED,
                (false, None) => WRONG_COMPONENT,
            };
            FaultVerdict {
                fault: f.spec.name.clone(),
                scenario: f.scenario.clone(),
                kind: f.spec.kind.label().to_owned(),
                blames: f.blames.clone(),
                verdict: verdict.to_owned(),
                checkers: sorted(hits.iter().map(|r| r.checker.as_str()).collect()),
                blamed,
            }
        })
        .collect();
    // Worst fault verdict wins at the schedule level.
    let verdict = [MISSED, WRONG_COMPONENT, FALSE_POSITIVE, CLEAN]
        .into_iter()
        .find(|w| verdicts.iter().any(|v| v.verdict == *w))
        .unwrap_or(DETECTED);
    ScheduleOutcome {
        schedule: schedule.clone(),
        verdicts,
        verdict: verdict.to_owned(),
    }
}

/// Greedy delta debugging over [`FaultSchedule::shrink_candidates`].
///
/// `oracle` replays a candidate and answers whether it still fails the
/// same way; each accepted candidate restarts the walk from the smaller
/// schedule. Returns the minimal schedule plus `(steps, evals)` spent.
/// The oracle is injected (rather than baked in) so shrink logic is
/// testable without a live testbed.
pub fn shrink(
    schedule: &FaultSchedule,
    budget: u64,
    mut oracle: impl FnMut(&FaultSchedule) -> BaseResult<bool>,
) -> BaseResult<(FaultSchedule, u64, u64)> {
    let mut current = schedule.clone();
    let mut steps = 0u64;
    let mut evals = 0u64;
    'outer: loop {
        for cand in current.shrink_candidates() {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if oracle(&cand)? {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    Ok((current, steps, evals))
}

/// Runs a full campaign: compose `opts.schedules` schedules, replay each,
/// score every fault, and shrink up to `opts.max_reproducers` failing
/// schedules into minimal reproducers.
pub fn run_campaign(target: &dyn WatchdogTarget, opts: &ChaosOptions) -> BaseResult<ChaosReport> {
    let pool = chaos_pool(target);
    let mut outcomes: Vec<ScheduleOutcome> = Vec::new();
    let mut reproducers: Vec<Reproducer> = Vec::new();

    for index in 0..opts.schedules {
        let Some(schedule) = compose_schedule(&pool, opts.seed, index, &opts.compose) else {
            continue;
        };
        // Sweeps run thousands of schedules; log every 100th instead of
        // flooding stderr.
        if index % 100 == 0 || index + 1 == opts.schedules {
            eprintln!(
                "[wdog-chaos] {} / {} ({} fault{}, {}) ...",
                target.name(),
                schedule.id,
                schedule.faults.len(),
                if schedule.faults.len() == 1 { "" } else { "s" },
                if schedule.benign { "benign" } else { "harmful" },
            );
        }
        let outcome = run_schedule(target, &schedule, opts)?;

        if outcome.failing() && reproducers.len() < opts.max_reproducers {
            eprintln!(
                "[wdog-chaos]   {} verdict {:?}; shrinking ...",
                schedule.id, outcome.verdict
            );
            let want = outcome.verdict.clone();
            let (minimal, shrink_steps, shrink_evals) =
                shrink(&schedule, opts.shrink_budget, |cand| {
                    Ok(run_schedule(target, cand, opts)?.verdict == want)
                })?;
            reproducers.push(Reproducer {
                kind: want.clone(),
                target: target.name().to_owned(),
                schedule: minimal,
                verdict: want,
                shrink_steps,
                shrink_evals,
            });
        }
        outcomes.push(outcome);
    }

    let mut summary = ChaosSummary {
        schedules: outcomes.len() as u64,
        ..ChaosSummary::default()
    };
    for o in &outcomes {
        if o.schedule.benign {
            summary.benign += 1;
            match o.verdict.as_str() {
                CLEAN => summary.clean += 1,
                _ => summary.false_positives += 1,
            }
        } else {
            summary.harmful += 1;
            for v in &o.verdicts {
                match v.verdict.as_str() {
                    DETECTED => summary.detected += 1,
                    WRONG_COMPONENT => summary.wrong_component += 1,
                    _ => summary.missed += 1,
                }
            }
        }
    }

    Ok(ChaosReport {
        target: target.name().to_owned(),
        seed: opts.seed,
        outcomes,
        summary,
        reproducers,
    })
}

/// The replay artifact for a clean campaign: the first schedule's outcome
/// packaged as an `exemplar` reproducer, so `--replay` always has a
/// target even when nothing failed (the acceptance path that "proves no
/// failure occurred").
pub fn exemplar_reproducer(report: &ChaosReport) -> Option<Reproducer> {
    report.outcomes.first().map(|o| Reproducer {
        kind: "exemplar".into(),
        target: report.target.clone(),
        schedule: o.schedule.clone(),
        verdict: o.verdict.clone(),
        shrink_steps: 0,
        shrink_evals: 0,
    })
}

/// Replays an archived reproducer; returns the fresh outcome and whether
/// its schedule-level verdict matches the recorded one.
pub fn replay(
    target: &dyn WatchdogTarget,
    rep: &Reproducer,
    opts: &ChaosOptions,
) -> BaseResult<(ScheduleOutcome, bool)> {
    if target.name() != rep.target {
        return Err(BaseError::InvalidState(format!(
            "reproducer targets {:?}, not {:?}",
            rep.target,
            target.name()
        )));
    }
    let outcome = run_schedule(target, &rep.schedule, opts)?;
    let matches = outcome.verdict == rep.verdict;
    Ok((outcome, matches))
}

/// Renders the campaign's paper-style table.
pub fn render(report: &ChaosReport) -> String {
    let mut t = crate::fmt::Table::new(&["schedule", "kind", "faults", "verdict", "detail"]);
    for o in &report.outcomes {
        let faults: Vec<String> = o
            .schedule
            .faults
            .iter()
            .map(|f| f.scenario.clone())
            .collect();
        let detail = o
            .verdicts
            .iter()
            .filter(|v| v.verdict != DETECTED && v.verdict != CLEAN)
            .map(|v| {
                if v.blamed.is_empty() {
                    format!("{}: {}", v.fault, v.verdict)
                } else {
                    format!("{}: {} (blamed {})", v.fault, v.verdict, v.blamed.join(","))
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        t.row_owned(vec![
            o.schedule.id.clone(),
            if o.schedule.benign {
                "benign"
            } else {
                "harmful"
            }
            .into(),
            faults.join("+"),
            o.verdict.clone(),
            detail,
        ]);
    }
    let s = &report.summary;
    format!(
        "Chaos campaign [{}] seed {}: {} schedules ({} harmful, {} benign)\n\
         fault verdicts: {} detected, {} missed, {} wrong-component; \
         benign: {} clean, {} false-positive; {} reproducer(s)\n\n{}",
        report.target,
        report.seed,
        s.schedules,
        s.harmful,
        s.benign,
        s.detected,
        s.missed,
        s.wrong_component,
        s.clean,
        s.false_positives,
        report.reproducers.len(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::spec::FaultSpec;
    use kvs::target::KvsTarget;

    /// A trace of `reports` from a run whose schedule clock started at 1 s.
    fn traced(reports: &[FailureReport]) -> Trace {
        Trace {
            run_start: Duration::from_secs(1),
            reports: reports.to_vec(),
            ..Trace::default()
        }
    }

    #[test]
    fn chaos_pool_excludes_crash_and_leak() {
        let p = chaos_pool(&KvsTarget);
        assert!(!p.is_empty());
        assert!(p.iter().all(|s| !matches!(
            s.kind,
            FaultKind::ProcessCrash | FaultKind::MemoryLeak { .. }
        )));
    }

    #[test]
    fn shrink_drops_redundant_faults_under_oracle() {
        // Build a two-fault schedule where only the first fault matters;
        // the oracle "fails" iff a disk-stuck fault survives.
        let mut s =
            compose_schedule(&chaos_pool(&KvsTarget), 7, 0, &ComposeOptions::default()).unwrap();
        while s.faults.len() < 2 {
            let mut extra = s.faults[0].clone();
            extra.spec.name = "padding#9".into();
            extra.scenario = "padding".into();
            extra.blames = vec!["kvs.replication_loop".into()];
            extra.spec.kind = FaultKind::NetDrop {
                src: "a".into(),
                dst: "b".into(),
            };
            s.faults.push(extra);
        }
        s.faults[0].spec = FaultSpec::new(
            "keep#0",
            FaultKind::DiskStuck {
                path_prefix: "wal/".into(),
            },
            Duration::from_millis(400),
        );
        s.validate().unwrap();
        let mut evals = 0u64;
        let (minimal, steps, spent) = shrink(&s, 64, |cand| {
            evals += 1;
            Ok(cand
                .faults
                .iter()
                .any(|f| matches!(f.spec.kind, FaultKind::DiskStuck { .. })))
        })
        .unwrap();
        assert_eq!(spent, evals);
        assert!(steps > 0, "nothing shrank");
        assert_eq!(minimal.faults.len(), 1, "redundant fault kept: {minimal:?}");
        assert!(matches!(
            minimal.faults[0].spec.kind,
            FaultKind::DiskStuck { .. }
        ));
        minimal.validate().unwrap();
    }

    #[test]
    fn shrink_respects_its_budget() {
        let s =
            compose_schedule(&chaos_pool(&KvsTarget), 7, 1, &ComposeOptions::default()).unwrap();
        let (_, _, evals) = shrink(&s, 3, |_| Ok(false)).unwrap();
        assert!(evals <= 3);
    }

    #[test]
    fn scoring_separates_detected_missed_and_wrong_component() {
        use miniblock::target::DnTarget;
        use wdog_base::ids::CheckerId;
        use wdog_core::report::{FailureKind, FailureReport, FaultLocation};
        // A one-fault harmful schedule of `scenario` on `target`.
        let one_fault = |target: &dyn WatchdogTarget, scenario: &str| {
            let pool = chaos_pool(target);
            let mut s = compose_schedule(&pool, 11, 0, &ComposeOptions::default()).unwrap();
            s.faults.truncate(1);
            let sc = pool.into_iter().find(|c| c.id == scenario).unwrap();
            s.faults[0].scenario = sc.id;
            s.faults[0].blames = sc.expected.blames;
            s
        };
        let s = one_fault(&KvsTarget, "partial-disk-stuck");
        let onset = 1_000 + s.faults[0].spec.start_after.as_millis() as u64;
        let report = |component: &str, at_ms: u64| FailureReport {
            checker: CheckerId::new(format!("{component}.mimic")),
            kind: FailureKind::Stuck,
            location: FaultLocation::new(component, "op"),
            detail: String::new(),
            payload: Default::default(),
            observed_latency_ms: None,
            at_ms,
        };
        // Past every composed onset.
        let late = 1_000 + ComposeOptions::default().max_onset.as_millis() as u64;
        let at_op = |component: &str, op: &str| FailureReport {
            location: FaultLocation::new(component, "op").with_op(op),
            ..report(component, late)
        };

        let hit = score_schedule(&s, &traced(&[report("kvs.wal_loop", onset + 50)]), None);
        assert_eq!(hit.verdict, DETECTED);
        assert_eq!(
            hit.verdicts[0].checkers,
            vec!["kvs.wal_loop.mimic".to_owned()]
        );

        let silent = score_schedule(&s, &traced(&[]), None);
        assert_eq!(silent.verdict, MISSED);

        // Early reports (before onset) never count.
        let early = score_schedule(&s, &traced(&[report("kvs.wal_loop", onset - 200)]), None);
        assert_eq!(early.verdict, MISSED);

        let mislocated = score_schedule(
            &s,
            &traced(&[report("kvs.listener_loop", onset + 50)]),
            None,
        );
        assert_eq!(mislocated.verdict, WRONG_COMPONENT);
        assert_eq!(
            mislocated.verdicts[0].blamed,
            vec!["kvs.listener_loop".to_owned()]
        );

        // Blame is exact: a component that merely contains a blamed id is
        // someone else.
        let prefixed = score_schedule(&s, &traced(&[report("kvs.wal_loop2", onset + 50)]), None);
        assert_eq!(prefixed.verdict, WRONG_COMPONENT);

        // Signal-checker reports are load-coupled and never scored: an
        // in-window, component-matching signal report must not rescue a
        // miss, and must not pollute a detection's checker set.
        let signal = FailureReport {
            checker: CheckerId::new("kvs.signal.wal_queue"),
            ..report("kvs.wal_loop", onset + 50)
        };
        let unscored = score_schedule(&s, &traced(std::slice::from_ref(&signal)), None);
        assert_eq!(unscored.verdict, MISSED);
        let both = score_schedule(
            &s,
            &traced(&[signal.clone(), report("kvs.wal_loop", onset + 50)]),
            None,
        );
        assert_eq!(both.verdict, DETECTED);
        assert_eq!(
            both.verdicts[0].checkers,
            vec!["kvs.wal_loop.mimic".to_owned()]
        );

        // Where one component touches two resources, the operation decides:
        // compaction's lock does not detect an `sst/` fault, its read does,
        // and its checker joins the fault's checker set.
        let sst = one_fault(&KvsTarget, "disk-bit-rot");
        let lock = at_op("kvs.compaction_loop", "compact_once#compaction_lock");
        let read = at_op("kvs.compaction_loop", "compact_once#sst_read");
        assert_ne!(
            score_schedule(&sst, &traced(&[lock]), None).verdict,
            DETECTED
        );
        let read = score_schedule(&sst, &traced(&[read]), None);
        assert_eq!(read.verdict, DETECTED);
        assert_eq!(
            read.verdicts[0].checkers,
            vec!["kvs.compaction_loop.mimic".to_owned()]
        );

        // miniblock: `"block"` is a substring of every `miniblock.*` id,
        // yet a heartbeat report does not detect a `blocks/` fault; the
        // disk checker's volume sweep does.
        let disk = one_fault(&DnTarget, "disk-fail-slow");
        let heartbeat = report("miniblock.heartbeat_loop", late);
        assert_ne!(
            score_schedule(&disk, &traced(&[heartbeat]), None).verdict,
            DETECTED
        );
        let volumes = report("dn.volumes", late);
        assert_eq!(
            score_schedule(&disk, &traced(&[volumes]), None).verdict,
            DETECTED
        );

        // Benign schedules: silence is clean, any report is a false
        // positive.
        let mut b = s.clone();
        b.benign = true;
        for f in &mut b.faults {
            f.benign = true;
            f.expected_class.clear();
        }
        let quiet = score_schedule(&b, &traced(&[]), None);
        assert_eq!(quiet.verdict, CLEAN);
        let noisy = score_schedule(&b, &traced(&[report("kvs.listener_loop", 1_100)]), None);
        assert_eq!(noisy.verdict, FALSE_POSITIVE);
        assert_eq!(
            noisy.verdicts[0].checkers,
            vec!["kvs.listener_loop.mimic".to_owned()]
        );
        // …but a lone signal-checker blip under load is not a false
        // positive.
        let blip = score_schedule(&b, &traced(&[signal]), None);
        assert_eq!(blip.verdict, CLEAN);
    }

    #[test]
    fn exemplar_packages_the_first_outcome() {
        let s =
            compose_schedule(&chaos_pool(&KvsTarget), 13, 0, &ComposeOptions::default()).unwrap();
        let outcome = score_schedule(&s, &traced(&[]), None);
        let report = ChaosReport {
            target: "kvs".into(),
            seed: 13,
            outcomes: vec![outcome.clone()],
            summary: ChaosSummary::default(),
            reproducers: Vec::new(),
        };
        let rep = exemplar_reproducer(&report).unwrap();
        assert_eq!(rep.kind, "exemplar");
        assert_eq!(rep.schedule, outcome.schedule);
        assert_eq!(rep.verdict, outcome.verdict);
        // Reproducers round-trip through JSON byte-for-byte.
        let json = serde_json::to_string(&rep).unwrap();
        let back: Reproducer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
