//! Invariant mining over trace journals.
//!
//! The miner replays [`TraceJournal`]s and proposes value-level invariants
//! the recorded executions never violated, each an [`InferredPredicate`]
//! over one context key with the observed (unwidened) bounds:
//!
//! * **Range** — a numeric context field stayed within `[min, max]`.
//! * **Len** — a string/bytes field never exceeded `max_len`.
//! * **Delta** — a numeric field never moved more than `max_step` between
//!   consecutive publishes of its key within one execution.
//! * **Order** — in every execution where both keys published, the
//!   prerequisite's first publish preceded the key's first publish.
//! * **Staleness** — a key never went longer than `max_gap_us` between
//!   publishes (including the tail gap to the end of the recording).
//!
//! Every invariant carries a *support* count (how many observations backed
//! it); [`MinerConfig`] sets the confidence floors below which candidates
//! are discarded. All aggregation is order-independent and the output is
//! sorted by [`MinedInvariant::id`], so mining is deterministic under any
//! reordering of the input journals.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wdog_checkers::inferred::{as_i64, len_of};
use wdog_checkers::InferredPredicate;
use wdog_core::CtxValue;

use crate::journal::TraceJournal;

/// Confidence floors for mined invariants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Minimum observation count for value invariants (range/len/delta).
    pub min_support: u64,
    /// Minimum number of co-appearing journals for an ordering.
    pub min_order_journals: u64,
    /// Minimum publishes of a key in *every* journal it appears in before a
    /// staleness window is proposed — one-shot keys have no cadence.
    pub min_staleness_publishes: u64,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_support: 3,
            min_order_journals: 1,
            min_staleness_publishes: 4,
        }
    }
}

/// One invariant the recorded executions never violated, without slack,
/// plus the evidence behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinedInvariant {
    /// The context key the invariant constrains (for an ordering, the key
    /// whose checker would fire).
    pub key: String,
    /// What held, with the observed bounds.
    pub predicate: InferredPredicate,
    /// Observation count: publishes seen (range/len), consecutive pairs
    /// (delta/staleness gaps), or co-appearing journals (order).
    pub support: u64,
}

impl MinedInvariant {
    /// Stable identifier used for sorting and corpus diffs:
    /// `{kind}.{key}[.{field}]`, and `order.{key}.{prerequisite}`.
    pub fn id(&self) -> String {
        let (kind, key) = (self.predicate.kind(), &self.key);
        match &self.predicate {
            InferredPredicate::Range { field, .. }
            | InferredPredicate::LenBound { field, .. }
            | InferredPredicate::Delta { field, .. } => format!("{kind}.{key}.{field}"),
            InferredPredicate::Order { prerequisite } => format!("{kind}.{key}.{prerequisite}"),
            InferredPredicate::Staleness { .. } => format!("{kind}.{key}"),
        }
    }
}

#[derive(Default)]
struct NumStat {
    min: i64,
    max: i64,
    count: u64,
}

#[derive(Default)]
struct LenStat {
    max_len: u64,
    count: u64,
}

#[derive(Default)]
struct DeltaStat {
    max_step: u64,
    pairs: u64,
}

#[derive(Default)]
struct GapStat {
    max_gap_us: u64,
    gaps: u64,
    /// Fewest publishes of the key in any journal where it appeared.
    min_publishes_per_journal: u64,
}

/// Mines every invariant the journals support at the configured floors,
/// sorted by [`MinedInvariant::id`].
pub fn mine(journals: &[TraceJournal], cfg: &MinerConfig) -> Vec<MinedInvariant> {
    let mut ranges: BTreeMap<(String, String), NumStat> = BTreeMap::new();
    let mut lens: BTreeMap<(String, String), LenStat> = BTreeMap::new();
    let mut deltas: BTreeMap<(String, String), DeltaStat> = BTreeMap::new();
    let mut gaps: BTreeMap<String, GapStat> = BTreeMap::new();
    // (first, then) -> journals where first's first publish preceded then's.
    let mut before: BTreeMap<(String, String), u64> = BTreeMap::new();

    for journal in journals {
        let end_us = journal.end_us();
        // Per-journal state for deltas, gaps and first-publish order.
        let mut last_value: BTreeMap<(String, String), i64> = BTreeMap::new();
        let mut last_at: BTreeMap<String, u64> = BTreeMap::new();
        let mut publish_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut first_at: BTreeMap<String, u64> = BTreeMap::new();

        for (event, fields) in journal.publishes() {
            // First publish by *virtual time*, not sequence number: two
            // program threads recording at the same frozen sim instant can
            // claim sequences in either order, so orderings built on `seq`
            // would wobble between same-seed recordings.
            let first = first_at.entry(event.key.clone()).or_insert(event.at_us);
            *first = (*first).min(event.at_us);
            *publish_counts.entry(event.key.clone()).or_insert(0) += 1;
            if let Some(prev_at) = last_at.insert(event.key.clone(), event.at_us) {
                let stat = gaps.entry(event.key.clone()).or_default();
                stat.max_gap_us = stat.max_gap_us.max(event.at_us.saturating_sub(prev_at));
                stat.gaps += 1;
            }
            for (field, value) in fields {
                let slot = (event.key.clone(), field.clone());
                if let Some(n) = as_i64(value) {
                    let stat = ranges.entry(slot.clone()).or_insert(NumStat {
                        min: n,
                        max: n,
                        count: 0,
                    });
                    stat.min = stat.min.min(n);
                    stat.max = stat.max.max(n);
                    stat.count += 1;
                    if let Some(prev) = last_value.insert(slot.clone(), n) {
                        let stat = deltas.entry(slot.clone()).or_default();
                        stat.max_step = stat.max_step.max(prev.abs_diff(n));
                        stat.pairs += 1;
                    }
                }
                if let Some(len) = len_of(value) {
                    let stat = lens.entry(slot).or_default();
                    stat.max_len = stat.max_len.max(len);
                    stat.count += 1;
                }
            }
        }

        // Charge each key's tail silence against its staleness window, so a
        // key that bursts early and then goes quiet gets a wide (harmless)
        // window instead of a tight false-positive one.
        for (key, at) in &last_at {
            if publish_counts.get(key).copied().unwrap_or(0) < 2 {
                continue;
            }
            let stat = gaps.entry(key.clone()).or_default();
            stat.max_gap_us = stat.max_gap_us.max(end_us.saturating_sub(*at));
        }
        for (key, count) in &publish_counts {
            let stat = gaps.entry(key.clone()).or_default();
            stat.min_publishes_per_journal = if stat.min_publishes_per_journal == 0 {
                *count
            } else {
                stat.min_publishes_per_journal.min(*count)
            };
        }

        let keys: Vec<&String> = first_at.keys().collect();
        for a in &keys {
            for b in &keys {
                if a >= b {
                    continue;
                }
                let (fa, fb) = (first_at[*a], first_at[*b]);
                if fa < fb {
                    *before.entry(((*a).clone(), (*b).clone())).or_insert(0) += 1;
                } else if fb < fa {
                    *before.entry(((*b).clone(), (*a).clone())).or_insert(0) += 1;
                } else {
                    // A virtual-time tie means no determined order: poison
                    // both directions so neither survives the
                    // consistency check below.
                    *before.entry(((*a).clone(), (*b).clone())).or_insert(0) += 1;
                    *before.entry(((*b).clone(), (*a).clone())).or_insert(0) += 1;
                }
            }
        }
    }

    let mut out = Vec::new();
    let mut push = |key: &str, predicate, support| {
        out.push(MinedInvariant {
            key: key.to_owned(),
            predicate,
            support,
        })
    };
    for ((key, field), stat) in &ranges {
        if stat.count >= cfg.min_support {
            let (field, min, max) = (field.clone(), stat.min, stat.max);
            push(
                key,
                InferredPredicate::Range { field, min, max },
                stat.count,
            );
        }
    }
    for ((key, field), stat) in &lens {
        if stat.count >= cfg.min_support {
            let (field, max_len) = (field.clone(), stat.max_len);
            push(
                key,
                InferredPredicate::LenBound { field, max_len },
                stat.count,
            );
        }
    }
    for ((key, field), stat) in &deltas {
        if stat.pairs >= cfg.min_support {
            let (field, max_step) = (field.clone(), stat.max_step);
            push(
                key,
                InferredPredicate::Delta { field, max_step },
                stat.pairs,
            );
        }
    }
    for (key, stat) in &gaps {
        if stat.gaps >= cfg.min_support
            && stat.min_publishes_per_journal >= cfg.min_staleness_publishes
        {
            let max_gap_us = stat.max_gap_us;
            push(key, InferredPredicate::Staleness { max_gap_us }, stat.gaps);
        }
    }
    for ((first, then), forward) in &before {
        let reverse = before
            .get(&(then.clone(), first.clone()))
            .copied()
            .unwrap_or(0);
        if reverse == 0 && *forward >= cfg.min_order_journals {
            let prerequisite = first.clone();
            push(then, InferredPredicate::Order { prerequisite }, *forward);
        }
    }

    out.sort_by_key(MinedInvariant::id);
    out
}

/// Returns whether `mined` holds on `journal`.
///
/// This is the ground-truth re-check the property tests lean on: anything
/// [`mine`] emits must hold on every journal it was mined from. Invariants
/// about keys or fields the journal never publishes hold vacuously.
pub fn holds_on(mined: &MinedInvariant, journal: &TraceJournal) -> bool {
    let key = mined.key.as_str();
    match &mined.predicate {
        InferredPredicate::Range { field, min, max } => field_values(journal, key, field)
            .filter_map(as_i64)
            .all(|n| n >= *min && n <= *max),
        InferredPredicate::LenBound { field, max_len } => field_values(journal, key, field)
            .filter_map(len_of)
            .all(|len| len <= *max_len),
        InferredPredicate::Delta { field, max_step } => {
            let values: Vec<i64> = field_values(journal, key, field)
                .filter_map(as_i64)
                .collect();
            values.windows(2).all(|w| w[0].abs_diff(w[1]) <= *max_step)
        }
        InferredPredicate::Order { prerequisite } => {
            let fa = first_publish_at(journal, prerequisite);
            let fb = first_publish_at(journal, key);
            match (fa, fb) {
                (Some(a), Some(b)) => a < b,
                _ => true,
            }
        }
        InferredPredicate::Staleness { max_gap_us } => {
            let times: Vec<u64> = journal
                .publishes()
                .filter(|(e, _)| e.key == key)
                .map(|(e, _)| e.at_us)
                .collect();
            if times.len() < 2 {
                return true;
            }
            let within = times
                .windows(2)
                .all(|w| w[1].saturating_sub(w[0]) <= *max_gap_us);
            let tail = journal.end_us().saturating_sub(*times.last().unwrap());
            within && tail <= *max_gap_us
        }
    }
}

fn field_values<'a>(
    journal: &'a TraceJournal,
    key: &'a str,
    field: &'a str,
) -> impl Iterator<Item = &'a CtxValue> {
    journal
        .publishes()
        .filter(move |(e, _)| e.key == key)
        .flat_map(move |(_, fields)| {
            fields
                .iter()
                .filter(move |(name, _)| name == field)
                .map(|(_, v)| v)
        })
}

fn first_publish_at(journal: &TraceJournal, key: &str) -> Option<u64> {
    journal
        .publishes()
        .filter(|(e, _)| e.key == key)
        .map(|(e, _)| e.at_us)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_core::{TraceEvent, TraceEventKind};

    fn publish(seq: u64, at_us: u64, key: &str, fields: Vec<(&str, CtxValue)>) -> TraceEvent {
        TraceEvent {
            seq,
            at_us,
            key: key.into(),
            kind: TraceEventKind::Publish {
                fields: fields.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
            },
        }
    }

    fn by_id<'a>(mined: &'a [MinedInvariant], id: &str) -> Option<&'a MinedInvariant> {
        mined.iter().find(|m| m.id() == id)
    }

    fn counter_journal(label: &str, values: &[u64]) -> TraceJournal {
        let events = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                publish(
                    i as u64 + 1,
                    (i as u64 + 1) * 1_000,
                    "flusher_loop",
                    vec![("entry_count", CtxValue::U64(*v))],
                )
            })
            .collect();
        TraceJournal::new("kvs", label, 1, events)
    }

    #[test]
    fn mines_range_delta_and_staleness_from_a_counter() {
        let set = mine(
            &[counter_journal("a", &[10, 12, 13, 17, 15])],
            &MinerConfig::default(),
        );
        let range = by_id(&set, "range.flusher_loop.entry_count").unwrap();
        assert_eq!(range.key, "flusher_loop");
        assert_eq!(
            range.predicate,
            InferredPredicate::Range {
                field: "entry_count".into(),
                min: 10,
                max: 17,
            }
        );
        assert_eq!(range.support, 5);
        let delta = by_id(&set, "delta.flusher_loop.entry_count").unwrap();
        assert_eq!(
            delta.predicate,
            InferredPredicate::Delta {
                field: "entry_count".into(),
                max_step: 4,
            }
        );
        let stale = by_id(&set, "staleness.flusher_loop").unwrap();
        assert_eq!(
            stale.predicate,
            InferredPredicate::Staleness { max_gap_us: 1_000 }
        );
    }

    #[test]
    fn mines_len_bounds_for_payload_fields() {
        let events = (1..=4)
            .map(|i| {
                publish(
                    i,
                    i * 500,
                    "wal_loop",
                    vec![("payload", CtxValue::Bytes(vec![0u8; 8 * i as usize]))],
                )
            })
            .collect();
        let set = mine(
            &[TraceJournal::new("kvs", "t", 1, events)],
            &MinerConfig::default(),
        );
        let len = by_id(&set, "len.wal_loop.payload").unwrap();
        assert_eq!(len.key, "wal_loop");
        assert_eq!(
            len.predicate,
            InferredPredicate::LenBound {
                field: "payload".into(),
                max_len: 32,
            }
        );
    }

    #[test]
    fn mines_orderings_only_when_direction_is_consistent() {
        let ab = TraceJournal::new(
            "kvs",
            "ab",
            1,
            vec![
                publish(1, 10, "a", vec![("v", CtxValue::U64(1))]),
                publish(2, 20, "b", vec![("v", CtxValue::U64(1))]),
            ],
        );
        let ba = TraceJournal::new(
            "kvs",
            "ba",
            2,
            vec![
                publish(1, 10, "b", vec![("v", CtxValue::U64(1))]),
                publish(2, 20, "c", vec![("v", CtxValue::U64(1))]),
            ],
        );
        let set = mine(&[ab.clone(), ba.clone()], &MinerConfig::default());
        let ab_order = by_id(&set, "order.b.a").expect("consistent pair kept");
        assert_eq!(ab_order.key, "b");
        assert_eq!(
            ab_order.predicate,
            InferredPredicate::Order {
                prerequisite: "a".into()
            }
        );
        assert!(by_id(&set, "order.c.b").is_some());
        // Flip b/c in a third journal: the pair becomes inconsistent.
        let cb = TraceJournal::new(
            "kvs",
            "cb",
            3,
            vec![
                publish(1, 10, "c", vec![("v", CtxValue::U64(1))]),
                publish(2, 20, "b", vec![("v", CtxValue::U64(1))]),
            ],
        );
        let set = mine(&[ab, ba, cb], &MinerConfig::default());
        assert!(by_id(&set, "order.c.b").is_none(), "inconsistent dropped");
        assert!(by_id(&set, "order.b.c").is_none());
    }

    #[test]
    fn virtual_time_ties_poison_orderings() {
        // Both keys first publish at the same virtual instant: there is no
        // determined order, whichever sequence numbers the threads drew.
        let tie = TraceJournal::new(
            "kvs",
            "tie",
            1,
            vec![
                publish(1, 10, "a", vec![("v", CtxValue::U64(1))]),
                publish(2, 10, "b", vec![("v", CtxValue::U64(1))]),
            ],
        );
        let set = mine(&[tie], &MinerConfig::default());
        assert!(by_id(&set, "order.b.a").is_none());
        assert!(by_id(&set, "order.a.b").is_none());
    }

    #[test]
    fn support_floor_discards_thin_evidence() {
        let set = mine(
            &[counter_journal("a", &[5, 6])],
            &MinerConfig {
                min_support: 3,
                ..MinerConfig::default()
            },
        );
        assert!(by_id(&set, "range.flusher_loop.entry_count").is_none());
        let set = mine(&[counter_journal("a", &[5, 6, 7])], &MinerConfig::default());
        assert!(by_id(&set, "range.flusher_loop.entry_count").is_some());
    }

    #[test]
    fn staleness_needs_cadence_in_every_journal() {
        let steady = counter_journal("steady", &[1, 2, 3, 4, 5, 6]);
        let one_shot = counter_journal("one-shot", &[9]);
        let set = mine(std::slice::from_ref(&steady), &MinerConfig::default());
        assert!(by_id(&set, "staleness.flusher_loop").is_some());
        let set = mine(&[steady, one_shot], &MinerConfig::default());
        assert!(
            by_id(&set, "staleness.flusher_loop").is_none(),
            "a journal where the key fired once kills the cadence claim"
        );
    }

    #[test]
    fn mining_is_deterministic_under_journal_reordering() {
        let a = counter_journal("a", &[10, 12, 13, 17]);
        let b = counter_journal("b", &[11, 14, 13, 12]);
        let forward = mine(&[a.clone(), b.clone()], &MinerConfig::default());
        let reversed = mine(&[b, a], &MinerConfig::default());
        assert_eq!(forward, reversed);
    }

    #[test]
    fn everything_mined_holds_on_its_source_journals() {
        let journals = vec![
            counter_journal("a", &[10, 12, 13, 17, 15]),
            counter_journal("b", &[11, 14, 13, 12, 20, 21]),
        ];
        let set = mine(&journals, &MinerConfig::default());
        assert!(!set.is_empty());
        for mined in &set {
            for journal in &journals {
                assert!(
                    holds_on(mined, journal),
                    "{} violated on {}",
                    mined.id(),
                    journal.label
                );
            }
        }
    }
}
