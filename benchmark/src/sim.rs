//! The sim-clock phase: detection quality and simulator speed.
//!
//! Seeded chaos schedules are replayed one by one through
//! `harness::chaos::run_schedule` on a `SimClock`, then the recovery
//! campaign runs through `harness::recovery::run`, also on a `SimClock`.
//! Verdicts and virtual-time latencies are pure functions of (target, seed);
//! wall time per schedule is the simulator's speed.
//!
//! Like the rest of the benchmark it runs pinned to one CPU. The simulator
//! hands one run token from actor to actor through condvars, so exactly one
//! thread runs at a time; left to float over two cores, every hand-off is a
//! cross-core wake-up, and the same schedule was measured anywhere between
//! 16 ms and 4.7 s. Pinned, it is 25–90 ms and steady. The unpinned cost is
//! kept in sight as the layer metric `simio.sim_switch_unpinned_us`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use faults::schedule::{compose_schedule, ComposeOptions};
use harness::chaos::{
    chaos_pool, run_schedule, ChaosOptions, CLEAN, DETECTED, FALSE_POSITIVE, MISSED,
    WRONG_COMPONENT,
};
use harness::recovery::{self, RecoveryOptions};
use wdog_telemetry::{ChaosMetrics, TelemetryRegistry};

use crate::spans::Spans;
use crate::stats::median;
use crate::testbed::{Kind, Res};
use crate::tickets::sub_seed;

/// Which schedules of which target one sim phase replays.
#[derive(Debug, Clone, Copy)]
pub struct SimTarget {
    /// The target.
    pub kind: Kind,
    /// First schedule index.
    pub first: u64,
    /// How many schedules, from `first` on.
    pub count: u64,
}

/// What one sim phase measured.
#[derive(Debug, Default)]
pub struct SimResult {
    /// Median wall milliseconds of one `run_schedule`, per target.
    pub schedule_wall_ms: BTreeMap<&'static str, f64>,
    /// `(detected, faults)` per `(target, scenario)`, harmful schedules.
    pub detected: BTreeMap<(String, String), (u64, u64)>,
    /// Faults scored `wrong-component`.
    pub wrong_component: u64,
    /// Benign schedules that stayed silent.
    pub clean: u64,
    /// Benign schedules replayed.
    pub benign: u64,
    /// `(mean virtual ms, samples)` from fault onset to the first scored
    /// report, per `(target, fault kind)`.
    pub detect_vms: BTreeMap<(String, String), (f64, u64)>,
    /// Recovery scenarios run.
    pub scenarios: u64,
    /// Virtual `mttr_ms` of every verified-recovered run of each
    /// `(target, scenario)`.
    pub mttr_vms: BTreeMap<(String, String), Vec<f64>>,
    /// `run_schedule` and `recovery::run` calls made.
    pub calls: u64,
    /// Calls that returned `Err`, failed the replay-determinism check, or
    /// produced a verdict outside the `harness::chaos` vocabulary.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

impl SimResult {
    /// Faults injected by the harmful schedules.
    pub fn harmful_faults(&self) -> u64 {
        self.detected.values().map(|(_, n)| n).sum()
    }

    /// Recovery scenarios closed as `verified-recovered`.
    pub fn recovered(&self) -> u64 {
        self.mttr_vms.values().map(|runs| runs.len() as u64).sum()
    }

    /// Mean of the per-target median schedule wall times: robust against a
    /// slow outlier, yet a change on any one target moves it.
    pub fn schedule_wall_ms(&self) -> f64 {
        mean(self.schedule_wall_ms.values().copied())
    }

    /// Detection rate averaged over `(target, scenario)` strata. Averaging
    /// per scenario first takes the dice out: which scenarios a seed happens
    /// to draw more often no longer moves the number, only what the watchdog
    /// does with them.
    pub fn detected_frac(&self) -> f64 {
        mean(self.detected.values().map(|(d, n)| *d as f64 / *n as f64))
    }

    /// Share of harmful faults whose blame did not land on a wrong component.
    pub fn right_component_frac(&self) -> f64 {
        1.0 - self.wrong_component as f64 / self.harmful_faults() as f64
    }

    /// Share of benign near-miss schedules that raised no report.
    pub fn benign_clean_frac(&self) -> f64 {
        self.clean as f64 / self.benign as f64
    }

    /// Virtual milliseconds from fault onset to first scored report,
    /// averaged over `(target, fault kind)` strata.
    pub fn detect_mean_vms(&self) -> f64 {
        mean(self.detect_vms.values().map(|(m, _)| *m))
    }

    /// Share of recovery scenarios closed as verified-recovered.
    pub fn recovered_frac(&self) -> f64 {
        self.recovered() as f64 / self.scenarios as f64
    }

    /// Virtual milliseconds to repair: the median over campaigns of each
    /// `(target, scenario)` stratum's verified-recovered runs, averaged over
    /// strata. A scenario that verifies in one more campaign does not drag
    /// the number towards its own MTTR, and one campaign in which a slow disk
    /// needed a second rung does not drag its scenario.
    pub fn mttr_mean_vms(&self) -> f64 {
        mean(self.mttr_vms.values().map(|runs| median(runs)))
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Replays `targets`' schedules and `recovery_campaigns` recovery campaigns
/// per target, all on sim clocks.
pub fn run(
    targets: &[SimTarget],
    recovery_campaigns: u64,
    seed: u64,
    spans: &mut Spans,
) -> Res<SimResult> {
    let mut out = SimResult::default();
    for t in targets {
        let target = t.kind.target();
        let name = t.kind.name();
        let pool = chaos_pool(target.as_ref());
        let metrics = ChaosMetrics::new(Arc::new(TelemetryRegistry::new()));
        let opts = ChaosOptions {
            seed,
            sim: true,
            metrics: Some(metrics.clone()),
            ..ChaosOptions::default()
        };
        let mut walls = Vec::with_capacity(t.count as usize);
        for index in t.first..t.first + t.count {
            spans.next_group();
            let schedule = spans
                .scope("compose", |_| {
                    compose_schedule(&pool, seed, index, &ComposeOptions::default())
                })
                .ok_or_else(|| format!("{name}: empty chaos pool"))?;
            let t0 = Instant::now();
            let outcome = spans.scope("run_schedule", |_| {
                run_schedule(target.as_ref(), &schedule, &opts)
            });
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
            out.calls += 1;
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    out.fail(format!("{name} {}: {e}", schedule.id));
                    continue;
                }
            };

            if index == t.first {
                // Replay determinism: the same schedule scores byte-identically.
                let again = run_schedule(
                    target.as_ref(),
                    &schedule,
                    &ChaosOptions {
                        metrics: None,
                        ..opts.clone()
                    },
                );
                out.calls += 1;
                let same = again.as_ref().is_ok_and(|a| {
                    serde_json::to_string(a).ok() == serde_json::to_string(&outcome).ok()
                });
                if !same {
                    out.fail(format!("{name} {}: replay differs", schedule.id));
                }
            }

            if schedule.benign {
                out.benign += 1;
                match outcome.verdict.as_str() {
                    CLEAN => out.clean += 1,
                    FALSE_POSITIVE => {}
                    other => out.fail(format!("{name} {}: verdict {other:?}", schedule.id)),
                }
                continue;
            }
            for v in &outcome.verdicts {
                let stratum = out
                    .detected
                    .entry((name.to_owned(), v.scenario.clone()))
                    .or_default();
                stratum.1 += 1;
                match v.verdict.as_str() {
                    DETECTED => stratum.0 += 1,
                    WRONG_COMPONENT => out.wrong_component += 1,
                    MISSED => {}
                    other => out.fail(format!("{name} {}: verdict {other:?}", schedule.id)),
                }
            }
        }
        out.schedule_wall_ms.insert(name, median(&walls));
        for h in metrics.registry().snapshot().histograms {
            if h.name == wdog_telemetry::chaos::CHAOS_DETECTION_MS && h.summary.count > 0 {
                out.detect_vms.insert(
                    (name.to_owned(), h.label),
                    (h.summary.mean as f64, h.summary.count),
                );
            }
        }

        for c in 0..recovery_campaigns {
            spans.next_group();
            let opts = RecoveryOptions {
                sim: true,
                seed: sub_seed(seed, "recovery", c),
                ..RecoveryOptions::default()
            };
            out.calls += 1;
            match spans.scope("recovery.run", |_| {
                recovery::run(target.as_ref(), None, &opts)
            }) {
                Ok(campaign) => {
                    for s in &campaign.scenarios {
                        out.scenarios += 1;
                        if s.disposition == "verified-recovered" {
                            out.mttr_vms
                                .entry((name.to_owned(), s.scenario.clone()))
                                .or_default()
                                .push(s.mttr_ms.unwrap_or(0) as f64);
                        }
                    }
                }
                Err(e) => out.fail(format!("{name} recovery: {e}")),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_average_ignores_how_often_a_scenario_was_drawn() {
        let mut r = SimResult::default();
        r.detected.insert(("t".into(), "always".into()), (30, 30));
        r.detected.insert(("t".into(), "never".into()), (0, 2));
        assert_eq!(r.detected_frac(), 0.5);
        r.detect_vms.insert(("t".into(), "a".into()), (100.0, 50));
        r.detect_vms.insert(("t".into(), "b".into()), (300.0, 1));
        assert_eq!(r.detect_mean_vms(), 200.0);
        r.mttr_vms
            .insert(("t".into(), "a".into()), vec![90.0, 100.0, 900.0]);
        r.mttr_vms.insert(("t".into(), "b".into()), vec![500.0]);
        assert_eq!(r.mttr_mean_vms(), 300.0);
    }

    #[test]
    fn failures_are_counted_and_the_first_is_kept() {
        let mut r = SimResult::default();
        r.fail("first".into());
        r.fail("second".into());
        assert_eq!(r.failed, 2);
        assert_eq!(r.first_error.as_deref(), Some("first"));
    }

    #[test]
    fn a_tiny_phase_runs_clean_and_replays_identically() {
        let targets = [SimTarget {
            kind: Kind::Miniblock,
            first: 0,
            count: 4,
        }];
        let a = run(&targets, 1, 7, &mut Spans::new(false)).unwrap();
        let b = run(&targets, 1, 7, &mut Spans::new(false)).unwrap();
        assert_eq!(a.failed, 0, "{:?}", a.first_error);
        assert_eq!(a.calls, 4 + 1 + 1);
        assert_eq!(a.benign, 1);
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.detect_vms, b.detect_vms);
        assert_eq!(a.mttr_vms, b.mttr_vms);
        assert!(a.scenarios > 0 && a.recovered() > 0);
    }
}
