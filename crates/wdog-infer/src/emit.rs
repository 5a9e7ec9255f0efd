//! Lowering mined invariants into registrable checker specs.
//!
//! The miner reports exact observed envelopes; running those raw as
//! checkers would flag the first execution that strays one unit past what
//! the recorded tests happened to do. The emitter folds in slack — wider
//! for looser invariant kinds — and names each spec by the conventions the
//! rest of the stack expects:
//!
//! * id: `{target}.inferred.{id}`, where `{id}` is the mined invariant's
//!   [`MinedInvariant::id`];
//! * component: `{target}.{key}`, the component id of the loop that owns
//!   the key, which a scenario's blamed ids name exactly.
//!
//! All slack arithmetic is integer and saturating, which keeps the emitted
//! corpus byte-stable across runs and platforms.

use wdog_checkers::{InferredPredicate, InferredSpec};

use crate::miner::MinedInvariant;

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
/// Output order follows the input's (id-sorted) order, so the emitted
/// corpus is deterministic whenever mining is.
pub fn emit(mined: &[MinedInvariant], target: &str) -> Vec<InferredSpec> {
    mined
        .iter()
        .map(|m| InferredSpec {
            id: format!("{target}.inferred.{}", m.id()),
            component: format!("{target}.{}", m.key),
            key: m.key.clone(),
            support: m.support,
            predicate: widen(m.predicate.clone()),
        })
        .collect()
}

/// Folds slack into an observed predicate; an ordering has none to fold.
fn widen(observed: InferredPredicate) -> InferredPredicate {
    match observed {
        InferredPredicate::Range { field, min, max } => {
            let slack = (max.saturating_sub(min) / RANGE_SLACK_DIVISOR).max(1);
            InferredPredicate::Range {
                field,
                min: min.saturating_sub(slack),
                max: max.saturating_add(slack),
            }
        }
        InferredPredicate::LenBound { field, max_len } => InferredPredicate::LenBound {
            field,
            max_len: max_len.saturating_add((max_len / LEN_SLACK_DIVISOR).max(1)),
        },
        InferredPredicate::Delta { field, max_step } => InferredPredicate::Delta {
            field,
            max_step: max_step.saturating_mul(DELTA_MULTIPLIER).saturating_add(1),
        },
        InferredPredicate::Staleness { max_gap_us } => InferredPredicate::Staleness {
            max_gap_us: max_gap_us
                .saturating_mul(STALENESS_MULTIPLIER)
                .saturating_add(STALENESS_PAD_US),
        },
        order @ InferredPredicate::Order { .. } => order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mined(key: &str, predicate: InferredPredicate, support: u64) -> MinedInvariant {
        MinedInvariant {
            key: key.into(),
            predicate,
            support,
        }
    }

    #[test]
    fn emits_slacked_specs_with_id_and_component_conventions() {
        let set = vec![
            mined(
                "flusher_loop",
                InferredPredicate::Range {
                    field: "entry_count".into(),
                    min: 10,
                    max: 18,
                },
                9,
            ),
            mined(
                "compaction_loop",
                InferredPredicate::Staleness {
                    max_gap_us: 100_000,
                },
                4,
            ),
            mined(
                "flusher_loop",
                InferredPredicate::Order {
                    prerequisite: "wal_loop".into(),
                },
                2,
            ),
        ];
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
    fn spec_ids_are_the_target_prefix_and_the_mined_id() {
        let set = vec![
            mined(
                "wal_loop",
                InferredPredicate::LenBound {
                    field: "payload".into(),
                    max_len: 53,
                },
                6,
            ),
            mined(
                "compaction_loop",
                InferredPredicate::Order {
                    prerequisite: "flusher_loop".into(),
                },
                3,
            ),
        ];
        for (m, spec) in set.iter().zip(emit(&set, "kvs")) {
            assert_eq!(spec.id, format!("kvs.inferred.{}", m.id()));
        }
    }

    #[test]
    fn tight_envelopes_still_get_minimum_slack() {
        let set = vec![mined(
            "k",
            InferredPredicate::Range {
                field: "f".into(),
                min: 5,
                max: 5,
            },
            3,
        )];
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
