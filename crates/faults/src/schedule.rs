//! Seeded composition of multi-fault schedules for chaos campaigns.
//!
//! The hand-written catalogue ([`crate::catalog`]) only injects failures we
//! already thought of. A [`FaultSchedule`] instead *composes* randomized —
//! but fully reproducible — combinations of catalogue faults: a seeded PRNG
//! picks the target components, onset times, durations, severities, and
//! overlapping pairs, including benign *near-miss* schedules whose
//! severities sit well below every checker threshold and therefore should
//! not fire anything. Campaign engines replay schedules against a target
//! and score every checker for detection, false positives, and pinpoint
//! accuracy; failing schedules shrink (see
//! [`FaultSchedule::shrink_candidates`]) down to minimal reproducers that
//! round-trip through JSON byte-for-byte.
//!
//! Two composition invariants keep verdicts reproducible run-to-run on a
//! real clock:
//!
//! - severities are bimodal: harmful faults are orders of magnitude over
//!   the detection thresholds, benign near-misses orders of magnitude
//!   under them — nothing sits at the edge where scheduling noise could
//!   flip a verdict;
//! - harmful durations span many checking rounds, so a detectable fault is
//!   sampled repeatedly rather than raced against one round boundary.

use std::time::Duration;

use rand::Rng;
use serde::{Deserialize, Serialize};

use wdog_base::rng::{derive_seed, seeded};

use crate::catalog::Scenario;
use crate::spec::{FaultKind, FaultSpec};

/// One fault within a schedule, with the expectations scoring needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// The catalogue scenario this fault was derived from.
    pub scenario: String,
    /// The concrete fault and its timing.
    pub spec: FaultSpec,
    /// Failure-class label a correct detection carries (empty for benign
    /// near-misses, which should not be detected at all).
    pub expected_class: String,
    /// The exact component and operation ids a correct report blames.
    pub blames: Vec<String>,
    /// Whether this fault is a sub-threshold near-miss that must NOT fire
    /// any checker.
    pub benign: bool,
}

impl ScheduledFault {
    /// When the fault stops being armed, bounded by the horizon for
    /// until-end faults.
    pub fn end(&self, horizon: Duration) -> Duration {
        match self.spec.duration {
            Some(d) => (self.spec.start_after + d).min(horizon),
            None => horizon,
        }
    }
}

/// A composed multi-fault schedule: the unit a chaos campaign replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Stable id, e.g. `chaos-42-007`.
    pub id: String,
    /// The seed the target instance boots with when replaying this
    /// schedule — stored explicitly so a shrunk or archived schedule
    /// replays byte-for-byte without re-deriving anything.
    pub seed: u64,
    /// Whether every fault in the schedule is a benign near-miss.
    pub benign: bool,
    /// Observation window the schedule runs inside.
    pub horizon: Duration,
    /// The faults, in composition order.
    pub faults: Vec<ScheduledFault>,
}

/// Knobs for [`compose_schedule`].
#[derive(Debug, Clone)]
pub struct ComposeOptions {
    /// Observation window per schedule.
    pub horizon: Duration,
    /// Largest number of overlapping faults per schedule.
    pub max_faults: usize,
    /// Every `benign_every`-th schedule (1-based) is composed entirely of
    /// benign near-misses; `0` disables benign schedules.
    pub benign_every: u64,
    /// Latest onset for any fault.
    pub max_onset: Duration,
    /// Shortest bounded duration for a harmful fault — kept at several
    /// checking rounds so detection is never raced against one round.
    pub min_duration: Duration,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        Self {
            horizon: Duration::from_millis(2_500),
            max_faults: 2,
            benign_every: 4,
            max_onset: Duration::from_millis(600),
            min_duration: Duration::from_millis(1_200),
        }
    }
}

/// Harmful slow-down factors: far above any latency threshold. The floor
/// keeps factor × simulated-I/O base latency (tens of µs) well past the
/// campaign's 10ms slow threshold, never at the edge.
const HARMFUL_FACTOR: std::ops::Range<u64> = 2_000..6_000;
/// Harmful pause lengths (ms): several checker timeouts long.
const HARMFUL_PAUSE_MS: std::ops::Range<u64> = 3_000..8_000;
/// Benign near-miss slow-down factors: within latency noise.
const BENIGN_FACTOR_CENTIS: std::ops::Range<u64> = 105..140;
/// Benign near-miss pause lengths (ms): far below the slow threshold.
const BENIGN_PAUSE_MS: std::ops::Range<u64> = 1..5;

/// Picks `n` catalogue entries with pairwise-different blame lists.
fn pick_distinct<'a>(pool: &[&'a Scenario], n: usize, rng: &mut impl Rng) -> Vec<&'a Scenario> {
    let mut picked: Vec<&Scenario> = Vec::new();
    let mut attempts = 0;
    while picked.len() < n && attempts < 64 {
        attempts += 1;
        let cand = pool[rng.gen_range(0..pool.len())];
        if picked
            .iter()
            .all(|p| p.expected.blames != cand.expected.blames)
        {
            picked.push(cand);
        }
    }
    picked
}

/// Rescales a harmful fault's severity so it stays far over threshold while
/// still varying run shape.
fn amplify(kind: &FaultKind, rng: &mut impl Rng) -> FaultKind {
    match kind {
        FaultKind::DiskSlow { .. } | FaultKind::NetSlow { .. } => {
            kind.with_magnitude(rng.gen_range(HARMFUL_FACTOR) as f64)
        }
        FaultKind::RuntimePause { .. } => {
            kind.with_magnitude(rng.gen_range(HARMFUL_PAUSE_MS) as f64)
        }
        other => other.clone(),
    }
}

/// Derives the benign near-miss variant of a scalable fault.
fn attenuate(kind: &FaultKind, rng: &mut impl Rng) -> FaultKind {
    match kind {
        FaultKind::DiskSlow { .. } | FaultKind::NetSlow { .. } => {
            kind.with_magnitude(rng.gen_range(BENIGN_FACTOR_CENTIS) as f64 / 100.0)
        }
        FaultKind::RuntimePause { .. } => {
            kind.with_magnitude(rng.gen_range(BENIGN_PAUSE_MS) as f64)
        }
        other => other.clone(),
    }
}

/// Composes the `index`-th schedule of a campaign, deterministically from
/// `(seed, index)` over `catalog`.
///
/// The catalogue should already be filtered to faults the campaign can
/// score (e.g. no `ProcessCrash`, which kills the in-process watchdog).
/// Returns `None` when the catalogue offers nothing to compose from (for
/// benign schedules: no fault kind with a severity dial).
pub fn compose_schedule(
    catalog: &[Scenario],
    seed: u64,
    index: u64,
    opts: &ComposeOptions,
) -> Option<FaultSchedule> {
    let id = format!("chaos-{seed}-{index:03}");
    let mut rng = seeded(derive_seed(seed, &id));
    let benign = opts.benign_every > 0 && (index + 1).is_multiple_of(opts.benign_every);

    let pool: Vec<&Scenario> = if benign {
        catalog.iter().filter(|s| s.kind.has_magnitude()).collect()
    } else {
        catalog.iter().filter(|s| s.kind.is_gray()).collect()
    };
    if pool.is_empty() {
        return None;
    }

    let horizon_ms = opts.horizon.as_millis() as u64;
    let max_onset_ms = (opts.max_onset.as_millis() as u64).min(horizon_ms.saturating_sub(1));
    let min_duration_ms = opts.min_duration.as_millis() as u64;

    let want = if opts.max_faults >= 2 && pool.len() >= 2 && rng.gen_range(0..100u32) < 40 {
        2
    } else {
        1
    };
    let picked = pick_distinct(&pool, want, &mut rng);

    let mut faults = Vec::new();
    for (k, s) in picked.iter().enumerate() {
        let onset_ms = rng.gen_range(0..max_onset_ms.max(1));
        let kind = if benign {
            attenuate(&s.kind, &mut rng)
        } else {
            amplify(&s.kind, &mut rng)
        };
        // Harmful faults either run to the end of the window or for a
        // bounded stretch that still spans many checking rounds; benign
        // faults can be any length, nothing should fire regardless.
        let remaining = horizon_ms - onset_ms;
        let duration_ms = if benign {
            Some(rng.gen_range(100..remaining.max(101)).min(remaining))
        } else if remaining < min_duration_ms || rng.gen_range(0..100u32) < 30 {
            None
        } else {
            Some(rng.gen_range(min_duration_ms..remaining.max(min_duration_ms + 1)))
        };
        let mut spec = FaultSpec::new(
            format!("{}#{k}", s.id),
            kind,
            Duration::from_millis(onset_ms),
        );
        if let Some(d) = duration_ms {
            spec = spec.lasting(Duration::from_millis(d.max(1)));
        }
        faults.push(ScheduledFault {
            scenario: s.id.clone(),
            spec,
            expected_class: if benign {
                String::new()
            } else {
                s.expected.failure_class.clone()
            },
            blames: s.expected.blames.clone(),
            benign,
        });
    }

    Some(FaultSchedule {
        seed: derive_seed(seed, &format!("{id}-boot")),
        id,
        benign,
        horizon: opts.horizon,
        faults,
    })
}

impl FaultSchedule {
    /// Checks the structural invariants every composed, shrunk, or
    /// deserialized schedule must satisfy before it can run.
    pub fn validate(&self) -> Result<(), String> {
        if self.faults.is_empty() {
            return Err(format!("{}: schedule has no faults", self.id));
        }
        if self.horizon.is_zero() {
            return Err(format!("{}: zero horizon", self.id));
        }
        for f in &self.faults {
            if f.spec.name.is_empty() {
                return Err(format!("{}: unnamed fault", self.id));
            }
            if f.spec.start_after >= self.horizon {
                return Err(format!(
                    "{}: fault {} starts at {:?}, past the {:?} horizon",
                    self.id, f.spec.name, f.spec.start_after, self.horizon
                ));
            }
            if let Some(d) = f.spec.duration {
                if d.is_zero() {
                    return Err(format!(
                        "{}: fault {} has zero duration",
                        self.id, f.spec.name
                    ));
                }
                if f.spec.start_after + d > self.horizon {
                    return Err(format!(
                        "{}: fault {} runs past the horizon",
                        self.id, f.spec.name
                    ));
                }
            }
            if f.benign != self.benign {
                return Err(format!(
                    "{}: fault {} benign flag disagrees with the schedule's",
                    self.id, f.spec.name
                ));
            }
        }
        Ok(())
    }

    /// The timed arm/clear events of this schedule as a [`simio::Timeline`]:
    /// `arm:<i>` at each fault's onset, `clear:<i>` at its bounded end.
    /// Until-end faults get no clear event — the campaign clears every
    /// surface at teardown.
    pub fn timeline(&self) -> simio::Timeline {
        let mut t = simio::Timeline::new();
        for (i, f) in self.faults.iter().enumerate() {
            t.push(f.spec.start_after, format!("arm:{i}"));
            if let Some(d) = f.spec.duration {
                t.push(f.spec.start_after + d, format!("clear:{i}"));
            }
        }
        t
    }

    /// One-step shrink candidates for delta debugging, all structurally
    /// valid by construction: drop each fault (when more than one remains),
    /// bound each until-end fault to half the horizon, halve each bounded
    /// duration (flooring high enough to span checking rounds), pull each
    /// onset toward zero, and attenuate each harmful fault's scalar
    /// severity via [`FaultKind::with_magnitude`] (flooring inside the
    /// clearly-harmful band, so the bimodal invariant — and therefore the
    /// verdict being reproduced — survives shrinking).
    pub fn shrink_candidates(&self) -> Vec<FaultSchedule> {
        let mut out = Vec::new();
        let floor = Duration::from_millis(200);

        if self.faults.len() > 1 {
            for i in 0..self.faults.len() {
                let mut c = self.clone();
                c.faults.remove(i);
                out.push(c);
            }
        }
        for (i, f) in self.faults.iter().enumerate() {
            match f.spec.duration {
                None => {
                    let mut c = self.clone();
                    c.faults[i].spec.duration =
                        Some((self.horizon - f.spec.start_after).max(floor) / 2);
                    if c.faults[i].spec.duration.unwrap() >= floor {
                        out.push(c);
                    }
                }
                Some(d) if d / 2 >= floor => {
                    let mut c = self.clone();
                    c.faults[i].spec.duration = Some(d / 2);
                    out.push(c);
                }
                Some(_) => {}
            }
            if f.spec.start_after >= Duration::from_millis(100) {
                let mut c = self.clone();
                c.faults[i].spec.start_after = f.spec.start_after / 2;
                out.push(c);
            }
            // Severity attenuation: a reproducer is more minimal if it
            // still fails with a gentler fault. Benign near-misses are
            // left untouched (their magnitudes are already sub-threshold
            // and must stay that way).
            if !f.benign {
                if let Some(mag) = f.spec.kind.magnitude() {
                    let mag_floor = match f.spec.kind {
                        FaultKind::RuntimePause { .. } => HARMFUL_PAUSE_MS.start as f64,
                        _ => HARMFUL_FACTOR.start as f64,
                    };
                    let halved = mag / 2.0;
                    if halved >= mag_floor && halved < mag {
                        let mut c = self.clone();
                        c.faults[i].spec.kind = f.spec.kind.with_magnitude(halved);
                        out.push(c);
                    }
                }
            }
        }
        out.retain(|c| c.validate().is_ok());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{gray_failure_catalog, TargetProfile};

    fn catalog() -> Vec<Scenario> {
        gray_failure_catalog(&TargetProfile::default())
            .into_iter()
            .filter(|s| s.kind.is_gray())
            .collect()
    }

    #[test]
    fn composition_is_deterministic() {
        let cat = catalog();
        for i in 0..16 {
            let a = compose_schedule(&cat, 42, i, &ComposeOptions::default()).unwrap();
            let b = compose_schedule(&cat, 42, i, &ComposeOptions::default()).unwrap();
            assert_eq!(a, b, "schedule {i} not reproducible");
            a.validate().unwrap();
        }
    }

    #[test]
    fn different_seeds_compose_differently() {
        let cat = catalog();
        let a: Vec<_> = (0..8)
            .map(|i| compose_schedule(&cat, 1, i, &ComposeOptions::default()).unwrap())
            .collect();
        let b: Vec<_> = (0..8)
            .map(|i| compose_schedule(&cat, 2, i, &ComposeOptions::default()).unwrap())
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn benign_cadence_and_near_miss_magnitudes() {
        let cat = catalog();
        let opts = ComposeOptions::default();
        let mut benign_seen = 0;
        for i in 0..16 {
            let s = compose_schedule(&cat, 9, i, &opts).unwrap();
            assert_eq!(
                s.benign,
                (i + 1).is_multiple_of(opts.benign_every),
                "index {i}"
            );
            if s.benign {
                benign_seen += 1;
                for f in &s.faults {
                    assert!(f.benign && f.expected_class.is_empty());
                    let m = f.spec.kind.magnitude().expect("benign faults are scalable");
                    assert!(
                        m <= 5.0,
                        "near-miss magnitude {m} is not sub-threshold: {:?}",
                        f.spec.kind
                    );
                }
            } else {
                for f in &s.faults {
                    if let Some(m) = f.spec.kind.magnitude() {
                        assert!(
                            m >= 500.0,
                            "harmful magnitude {m} too mild: {:?}",
                            f.spec.kind
                        );
                    }
                }
            }
        }
        assert_eq!(benign_seen, 4);
    }

    #[test]
    fn overlapping_pairs_use_distinct_components() {
        let cat = catalog();
        let mut pairs = 0;
        for i in 0..32 {
            let s = compose_schedule(&cat, 5, i, &ComposeOptions::default()).unwrap();
            if s.faults.len() == 2 {
                pairs += 1;
                assert_ne!(s.faults[0].blames, s.faults[1].blames);
            }
        }
        assert!(pairs > 0, "no overlapping pairs in 32 schedules");
    }

    #[test]
    fn schedules_roundtrip_through_json() {
        let cat = catalog();
        let s = compose_schedule(&cat, 42, 0, &ComposeOptions::default()).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn shrink_candidates_stay_valid_and_get_smaller() {
        let cat = catalog();
        for i in 0..16 {
            let s = compose_schedule(&cat, 3, i, &ComposeOptions::default()).unwrap();
            for c in s.shrink_candidates() {
                c.validate().unwrap();
                let shrunk_faults = c.faults.len() < s.faults.len();
                let shrunk_time = c.faults.iter().zip(&s.faults).any(|(a, b)| {
                    a.spec.start_after < b.spec.start_after
                        || a.end(c.horizon) - a.spec.start_after
                            < b.end(s.horizon) - b.spec.start_after
                });
                let shrunk_magnitude = c.faults.iter().zip(&s.faults).any(|(a, b)| {
                    matches!(
                        (a.spec.kind.magnitude(), b.spec.kind.magnitude()),
                        (Some(ma), Some(mb)) if ma < mb
                    )
                });
                assert!(
                    shrunk_faults || shrunk_time || shrunk_magnitude,
                    "candidate did not reduce anything: {c:?}"
                );
            }
        }
    }

    #[test]
    fn shrink_attenuates_harmful_magnitudes_but_not_below_the_band() {
        let cat = catalog();
        let mut attenuated = 0;
        for i in 0..32 {
            let s = compose_schedule(&cat, 3, i, &ComposeOptions::default()).unwrap();
            for c in s.shrink_candidates() {
                if c.faults.len() != s.faults.len() {
                    // Drop candidates misalign the zip below.
                    continue;
                }
                for (a, b) in c.faults.iter().zip(&s.faults) {
                    let (Some(ma), Some(mb)) = (a.spec.kind.magnitude(), b.spec.kind.magnitude())
                    else {
                        continue;
                    };
                    if ma >= mb {
                        continue;
                    }
                    attenuated += 1;
                    // Benign near-misses are never touched; harmful
                    // magnitudes stay inside the clearly-harmful band.
                    assert!(!b.benign, "shrunk a benign near-miss: {a:?}");
                    let floor = match a.spec.kind {
                        FaultKind::RuntimePause { .. } => HARMFUL_PAUSE_MS.start as f64,
                        _ => HARMFUL_FACTOR.start as f64,
                    };
                    assert!(ma >= floor, "magnitude {ma} fell out of the harmful band");
                    assert_eq!(ma, mb / 2.0, "attenuation is a deterministic halving");
                }
            }
        }
        assert!(
            attenuated > 0,
            "no magnitude shrink candidates in 32 schedules"
        );
    }

    #[test]
    fn timeline_has_arm_and_clear_events_in_window() {
        let cat = catalog();
        let s = compose_schedule(&cat, 42, 1, &ComposeOptions::default()).unwrap();
        let events = s.timeline().into_sorted();
        let arms = events
            .iter()
            .filter(|e| e.label.starts_with("arm:"))
            .count();
        assert_eq!(arms, s.faults.len());
        for e in &events {
            assert!(e.at <= s.horizon, "event {e:?} past horizon");
        }
    }

    #[test]
    fn validate_rejects_broken_schedules() {
        let cat = catalog();
        let good = compose_schedule(&cat, 1, 0, &ComposeOptions::default()).unwrap();
        let mut empty = good.clone();
        empty.faults.clear();
        assert!(empty.validate().is_err());
        let mut late = good.clone();
        late.faults[0].spec.start_after = late.horizon + Duration::from_millis(1);
        assert!(late.validate().is_err());
        let mut overrun = good.clone();
        overrun.faults[0].spec.start_after = overrun.horizon - Duration::from_millis(10);
        overrun.faults[0].spec.duration = Some(Duration::from_millis(100));
        assert!(overrun.validate().is_err());
        let mut zero = good;
        zero.faults[0].spec.duration = Some(Duration::ZERO);
        assert!(zero.validate().is_err());
    }
}
