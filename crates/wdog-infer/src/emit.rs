//! Lowering mined invariants into registrable checker specs.
//!
//! The miner reports exact observed envelopes; running those raw as
//! checkers would flag the first execution that strays one unit past what
//! the recorded tests happened to do. The emitter folds in slack — wider
//! for looser invariant kinds — and tags each spec with the id and
//! component conventions the rest of the stack expects:
//!
//! * id: `{target}.inferred.{kind}.{key}[.{field}]`
//! * component: `{target}.{key}`, the component id of the loop that owns
//!   the key, which a scenario's blamed ids name exactly.
//!
//! All slack arithmetic is integer and saturating, which keeps the emitted
//! corpus byte-stable across runs and platforms.

use wdog_checkers::{InferredPredicate, InferredSpec};

use crate::miner::{Invariant, InvariantSet};

/// Range widens each side by `max(1, span / RANGE_SLACK_DIVISOR)`.
const RANGE_SLACK_DIVISOR: i64 = 4;
/// Len bound grows by `max(1, max_len / LEN_SLACK_DIVISOR)`.
const LEN_SLACK_DIVISOR: u64 = 4;
/// Allowed per-publish step is `observed * DELTA_MULTIPLIER + 1`.
const DELTA_MULTIPLIER: u64 = 2;
/// Allowed gap is `observed * STALENESS_MULTIPLIER + STALENESS_PAD_US`.
const STALENESS_MULTIPLIER: u64 = 4;
/// Absolute pad on staleness windows (microseconds).
const STALENESS_PAD_US: u64 = 250_000;

/// Lowers every mined invariant into an [`InferredSpec`] for `target`,
/// slack folded in.
///
/// Output order follows the input set's (id-sorted) order, so the emitted
/// corpus is deterministic whenever mining is.
pub fn emit(set: &InvariantSet, target: &str) -> Vec<InferredSpec> {
    set.invariants
        .iter()
        .map(|mined| {
            let key = mined.invariant.key().to_owned();
            let (id, predicate) = match &mined.invariant {
                Invariant::Range {
                    key,
                    field,
                    min,
                    max,
                } => {
                    let span = max.saturating_sub(*min);
                    let slack = (span / RANGE_SLACK_DIVISOR).max(1);
                    (
                        format!("{target}.inferred.range.{key}.{field}"),
                        InferredPredicate::Range {
                            field: field.clone(),
                            min: min.saturating_sub(slack),
                            max: max.saturating_add(slack),
                        },
                    )
                }
                Invariant::Len {
                    key,
                    field,
                    max_len,
                } => {
                    let slack = (max_len / LEN_SLACK_DIVISOR).max(1);
                    (
                        format!("{target}.inferred.len.{key}.{field}"),
                        InferredPredicate::LenBound {
                            field: field.clone(),
                            max_len: max_len.saturating_add(slack),
                        },
                    )
                }
                Invariant::Delta {
                    key,
                    field,
                    max_step,
                } => (
                    format!("{target}.inferred.delta.{key}.{field}"),
                    InferredPredicate::Delta {
                        field: field.clone(),
                        max_step: max_step.saturating_mul(DELTA_MULTIPLIER).saturating_add(1),
                    },
                ),
                Invariant::Order { first, then } => (
                    format!("{target}.inferred.order.{then}.{first}"),
                    InferredPredicate::Order {
                        prerequisite: first.clone(),
                    },
                ),
                Invariant::Staleness { key, max_gap_us } => (
                    format!("{target}.inferred.staleness.{key}"),
                    InferredPredicate::Staleness {
                        max_gap_us: max_gap_us
                            .saturating_mul(STALENESS_MULTIPLIER)
                            .saturating_add(STALENESS_PAD_US),
                    },
                ),
            };
            InferredSpec {
                id,
                component: format!("{target}.{key}"),
                key,
                support: mined.support,
                predicate,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MinedInvariant;

    #[test]
    fn emits_slacked_specs_with_id_and_component_conventions() {
        let set = InvariantSet {
            invariants: vec![
                MinedInvariant {
                    invariant: Invariant::Range {
                        key: "flusher_loop".into(),
                        field: "entry_count".into(),
                        min: 10,
                        max: 18,
                    },
                    support: 9,
                },
                MinedInvariant {
                    invariant: Invariant::Staleness {
                        key: "compaction_loop".into(),
                        max_gap_us: 100_000,
                    },
                    support: 4,
                },
                MinedInvariant {
                    invariant: Invariant::Order {
                        first: "wal_loop".into(),
                        then: "flusher_loop".into(),
                    },
                    support: 2,
                },
            ],
        };
        let specs = emit(&set, "kvs");
        assert_eq!(specs.len(), 3);

        assert_eq!(specs[0].id, "kvs.inferred.range.flusher_loop.entry_count");
        assert_eq!(specs[0].component, "kvs.flusher_loop");
        assert_eq!(specs[0].key, "flusher_loop");
        assert_eq!(specs[0].support, 9);
        // span 8 / divisor 4 = slack 2 each side.
        assert_eq!(
            specs[0].predicate,
            InferredPredicate::Range {
                field: "entry_count".into(),
                min: 8,
                max: 20,
            }
        );

        assert_eq!(specs[1].id, "kvs.inferred.staleness.compaction_loop");
        assert_eq!(
            specs[1].predicate,
            InferredPredicate::Staleness {
                max_gap_us: 650_000
            }
        );

        assert_eq!(specs[2].id, "kvs.inferred.order.flusher_loop.wal_loop");
        assert_eq!(specs[2].component, "kvs.flusher_loop");
        assert_eq!(
            specs[2].predicate,
            InferredPredicate::Order {
                prerequisite: "wal_loop".into()
            }
        );
    }

    #[test]
    fn tight_envelopes_still_get_minimum_slack() {
        let set = InvariantSet {
            invariants: vec![MinedInvariant {
                invariant: Invariant::Range {
                    key: "k".into(),
                    field: "f".into(),
                    min: 5,
                    max: 5,
                },
                support: 3,
            }],
        };
        let specs = emit(&set, "kvs");
        assert_eq!(
            specs[0].predicate,
            InferredPredicate::Range {
                field: "f".into(),
                min: 4,
                max: 6,
            }
        );
    }
}
