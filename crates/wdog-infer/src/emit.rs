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

use serde::{Deserialize, Serialize};
use wdog_checkers::{InferredPredicate, InferredSpec};

use crate::miner::{Invariant, InvariantSet};

/// Slack policy applied when lowering invariants to checker specs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmitConfig {
    /// Target name folded into spec ids and components.
    pub target: String,
    /// Range widens each side by `max(1, span / range_slack_divisor)`.
    pub range_slack_divisor: i64,
    /// Len bound grows by `max(1, max_len / len_slack_divisor)`.
    pub len_slack_divisor: u64,
    /// Allowed per-publish step is `observed * delta_multiplier + 1`.
    pub delta_multiplier: u64,
    /// Allowed gap is `observed * staleness_multiplier + staleness_pad_us`.
    pub staleness_multiplier: u64,
    /// Absolute pad on staleness windows (microseconds).
    pub staleness_pad_us: u64,
}

impl EmitConfig {
    /// Default slack policy for `target`.
    pub fn for_target(target: impl Into<String>) -> Self {
        Self {
            target: target.into(),
            range_slack_divisor: 4,
            len_slack_divisor: 4,
            delta_multiplier: 2,
            staleness_multiplier: 4,
            staleness_pad_us: 250_000,
        }
    }
}

/// Lowers every mined invariant into an [`InferredSpec`], slack folded in.
///
/// Output order follows the input set's (id-sorted) order, so the emitted
/// corpus is deterministic whenever mining is.
pub fn emit(set: &InvariantSet, cfg: &EmitConfig) -> Vec<InferredSpec> {
    set.invariants
        .iter()
        .map(|mined| {
            let t = &cfg.target;
            let key = mined.invariant.key().to_owned();
            let (id, predicate) = match &mined.invariant {
                Invariant::Range {
                    key,
                    field,
                    min,
                    max,
                } => {
                    let span = max.saturating_sub(*min);
                    let slack = (span / cfg.range_slack_divisor.max(1)).max(1);
                    (
                        format!("{t}.inferred.range.{key}.{field}"),
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
                    let slack = (max_len / cfg.len_slack_divisor.max(1)).max(1);
                    (
                        format!("{t}.inferred.len.{key}.{field}"),
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
                    format!("{t}.inferred.delta.{key}.{field}"),
                    InferredPredicate::Delta {
                        field: field.clone(),
                        max_step: max_step
                            .saturating_mul(cfg.delta_multiplier.max(1))
                            .saturating_add(1),
                    },
                ),
                Invariant::Order { first, then } => (
                    format!("{t}.inferred.order.{then}.{first}"),
                    InferredPredicate::Order {
                        prerequisite: first.clone(),
                    },
                ),
                Invariant::Staleness { key, max_gap_us } => (
                    format!("{t}.inferred.staleness.{key}"),
                    InferredPredicate::Staleness {
                        max_gap_us: max_gap_us
                            .saturating_mul(cfg.staleness_multiplier.max(1))
                            .saturating_add(cfg.staleness_pad_us),
                    },
                ),
            };
            InferredSpec {
                id,
                component: format!("{t}.{key}"),
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
        let specs = emit(&set, &EmitConfig::for_target("kvs"));
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
        let specs = emit(&set, &EmitConfig::for_target("kvs"));
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
