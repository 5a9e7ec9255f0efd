//! Inferred checkers: invariants mined from traced test executions.
//!
//! The paper's argument is that watchdogs must be *generated* to stay
//! comprehensive; program-logic reduction ([`crate::mimic`]) is one
//! generation axis. This module is the runtime half of a second, independent
//! axis (FlyCatcher-style): `wdog-infer` records what the instrumented
//! program publishes while its own tests run, mines value-level invariants
//! from the journals — numeric ranges, payload length bounds, per-publish
//! deltas, first-publish orderings, staleness windows — and lowers the
//! survivors into [`InferredSpec`]s. [`inferred_checker`] evaluates one such
//! spec against the live context table.
//!
//! [`InferredPredicate`] is the one list of invariant kinds: the miner
//! records each observation as one, with the observed bounds, and the
//! emitter widens it into the enforced spec.
//!
//! Inferred checkers are value-level where mimics are operation-level: a
//! wedged background loop whose mimic ops still succeed, a counter that
//! jumps, an oversized payload — these are invisible to a mimic but violate
//! a mined invariant. The family composes with the others: specs ride in
//! through the same `DriverBuilder` and are scored by chaos campaigns like
//! any other checker (their ids carry the `.inferred.` marker).

use serde::{Deserialize, Serialize};

use wdog_base::ids::{CheckerId, ComponentId};
use wdog_core::prelude::*;

/// One invariant kind with its bounds.
///
/// In a spec the bounds are the *enforced* ones, slack folded in by the
/// emitter; in the miner's record they are the raw observed extrema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InferredPredicate {
    /// Numeric field stays within `[min, max]`.
    Range { field: String, min: i64, max: i64 },
    /// String/bytes field never exceeds `max_len` bytes.
    LenBound { field: String, max_len: u64 },
    /// Numeric field moves at most `max_step` per publish (checked across
    /// poll intervals by scaling with the observed version delta).
    Delta { field: String, max_step: u64 },
    /// The key is republished at least every `max_gap_us` of virtual time.
    Staleness { max_gap_us: u64 },
    /// `prerequisite` is always published before this key first publishes.
    Order { prerequisite: String },
}

impl InferredPredicate {
    /// Short label naming the invariant kind, used in ids and locations.
    pub fn kind(&self) -> &'static str {
        match self {
            InferredPredicate::Range { .. } => "range",
            InferredPredicate::LenBound { .. } => "len",
            InferredPredicate::Delta { .. } => "delta",
            InferredPredicate::Staleness { .. } => "staleness",
            InferredPredicate::Order { .. } => "order",
        }
    }
}

/// A registrable inferred checker: identity plus the mined predicate.
///
/// Produced by the `wdog-infer` emitter, archived in its corpus, and
/// instantiated by each target's `build_watchdog` when the inferred family
/// is enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferredSpec {
    /// Checker id, e.g. `kvs.inferred.staleness.compaction_loop`.
    pub id: String,
    /// Component blamed on violation, e.g. `kvs.compaction_loop`.
    pub component: String,
    /// The context key the invariant is over.
    pub key: String,
    /// How many trace events supported the invariant when it was mined.
    pub support: u64,
    /// The invariant itself.
    pub predicate: InferredPredicate,
}

/// Extracts a numeric field as `i64`, the common numeric domain of the
/// miner and the checker.
pub fn as_i64(value: &CtxValue) -> Option<i64> {
    match value {
        CtxValue::U64(v) => Some((*v).min(i64::MAX as u64) as i64),
        CtxValue::I64(v) => Some(*v),
        _ => None,
    }
}

/// Extracts a length-bearing field's length in bytes.
pub fn len_of(value: &CtxValue) -> Option<u64> {
    match value {
        CtxValue::Str(s) => Some(s.len() as u64),
        CtxValue::Bytes(b) => Some(b.len() as u64),
        _ => None,
    }
}

/// Builds the checker that evaluates `spec` against the live context table
/// read through `reader`.
///
/// Follows the mimic family's readiness discipline: a missing key, a missing
/// field, or an unexpectedly-typed value is `NotReady`, never a failure —
/// inferred checkers must not report failures that do not exist in the main
/// program.
pub fn inferred_checker(
    spec: InferredSpec,
    reader: ContextReader,
) -> FnChecker<impl FnMut() -> CheckStatus + Send> {
    let id = CheckerId::from(spec.id.as_str());
    let component = ComponentId::from(spec.component.as_str());
    let location = FaultLocation::new(
        component.clone(),
        format!("inferred:{}:{}", spec.predicate.kind(), spec.key),
    );
    // Last `(version, value)` a delta predicate compared against.
    let mut last: Option<(u64, i64)> = None;
    FnChecker::new(id, component, move || {
        let Some(snapshot) = reader.read(&spec.key) else {
            return CheckStatus::NotReady;
        };
        let fail = |kind, msg: String| {
            CheckStatus::Fail(
                CheckFailure::new(kind, location.clone(), msg)
                    .with_payload(snapshot.render_payload()),
            )
        };
        match &spec.predicate {
            InferredPredicate::Range { field, min, max } => {
                let Some(v) = snapshot.get(field).and_then(as_i64) else {
                    return CheckStatus::NotReady;
                };
                if v < *min || v > *max {
                    return fail(
                        FailureKind::AssertViolation,
                        format!("{field} = {v} outside inferred range [{min}, {max}]"),
                    );
                }
            }
            InferredPredicate::LenBound { field, max_len } => {
                let Some(len) = snapshot.get(field).and_then(len_of) else {
                    return CheckStatus::NotReady;
                };
                if len > *max_len {
                    return fail(
                        FailureKind::AssertViolation,
                        format!("{field} is {len} B, above inferred bound {max_len} B"),
                    );
                }
            }
            InferredPredicate::Delta { field, max_step } => {
                let Some(v) = snapshot.get(field).and_then(as_i64) else {
                    return CheckStatus::NotReady;
                };
                let prev = last.replace((snapshot.version, v));
                if let Some((prev_version, prev_v)) = prev {
                    let publishes = snapshot.version.saturating_sub(prev_version);
                    if publishes > 0 {
                        // If each publish moves the field at most `max_step`,
                        // `publishes` of them move it at most the product.
                        let allowed = (*max_step as i128) * (publishes as i128);
                        let step = (v as i128 - prev_v as i128).abs();
                        if step > allowed {
                            return fail(
                                FailureKind::AssertViolation,
                                format!(
                                    "{field} jumped {step} over {publishes} publishes \
                                     (inferred step bound {max_step}/publish)"
                                ),
                            );
                        }
                    }
                }
            }
            InferredPredicate::Staleness { max_gap_us } => {
                let age_us = snapshot.age.as_micros() as u64;
                if age_us > *max_gap_us {
                    return fail(
                        FailureKind::Stuck,
                        format!(
                            "{} stale for {age_us} us (inferred republish window {max_gap_us} us)",
                            spec.key
                        ),
                    );
                }
            }
            InferredPredicate::Order { prerequisite } => {
                if !reader.is_ready(prerequisite) {
                    return fail(
                        FailureKind::AssertViolation,
                        format!(
                            "{} published before its inferred prerequisite {prerequisite}",
                            spec.key
                        ),
                    );
                }
            }
        }
        CheckStatus::Pass
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::SimClock;
    use std::sync::Arc;
    use std::time::Duration;
    use wdog_core::context::ContextTable;

    fn spec(key: &str, predicate: InferredPredicate) -> InferredSpec {
        InferredSpec {
            id: format!("t.inferred.{}.{key}", predicate.kind()),
            component: format!("t.{key}"),
            key: key.into(),
            support: 10,
            predicate,
        }
    }

    fn table() -> Arc<ContextTable> {
        ContextTable::new(SimClock::shared())
    }

    #[test]
    fn identity_and_location_come_from_the_spec() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::Range {
                    field: "n".into(),
                    min: 0,
                    max: 5,
                },
            ),
            t.reader(),
        );
        assert_eq!(c.id().as_str(), "t.inferred.range.k");
        assert_eq!(c.component().as_str(), "t.k");
        t.publish("k", vec![("n".into(), CtxValue::U64(6))]);
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected range violation");
        };
        assert_eq!(f.location.component.as_str(), "t.k");
        assert_eq!(f.location.function, "inferred:range:k");
        assert_eq!(f.detail, "n = 6 outside inferred range [0, 5]");
    }

    #[test]
    fn unpublished_key_is_not_ready() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::Range {
                    field: "n".into(),
                    min: 0,
                    max: 5,
                },
            ),
            t.reader(),
        );
        assert_eq!(c.check(), CheckStatus::NotReady);
    }

    #[test]
    fn range_passes_inside_and_fails_outside() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::Range {
                    field: "n".into(),
                    min: 0,
                    max: 5,
                },
            ),
            t.reader(),
        );
        t.publish("k", vec![("n".into(), CtxValue::U64(5))]);
        assert!(c.check().is_pass());
        t.publish("k", vec![("n".into(), CtxValue::U64(6))]);
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected range violation");
        };
        assert_eq!(f.kind, FailureKind::AssertViolation);
        assert!(f.location.function.contains("inferred:range"));
    }

    #[test]
    fn missing_or_mistyped_field_is_not_ready() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::Range {
                    field: "n".into(),
                    min: 0,
                    max: 5,
                },
            ),
            t.reader(),
        );
        t.publish("k", vec![("other".into(), CtxValue::U64(1))]);
        assert_eq!(c.check(), CheckStatus::NotReady);
        t.publish("k", vec![("n".into(), CtxValue::Str("oops".into()))]);
        assert_eq!(c.check(), CheckStatus::NotReady);
    }

    #[test]
    fn len_bound_checks_strings_and_bytes() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::LenBound {
                    field: "payload".into(),
                    max_len: 3,
                },
            ),
            t.reader(),
        );
        t.publish("k", vec![("payload".into(), CtxValue::Bytes(vec![0; 3]))]);
        assert!(c.check().is_pass());
        t.publish("k", vec![("payload".into(), CtxValue::Bytes(vec![0; 4]))]);
        assert!(matches!(c.check(), CheckStatus::Fail(_)));
    }

    #[test]
    fn delta_scales_with_publish_count() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::Delta {
                    field: "n".into(),
                    max_step: 2,
                },
            ),
            t.reader(),
        );
        t.publish("k", vec![("n".into(), CtxValue::U64(10))]);
        assert!(c.check().is_pass(), "first observation only seeds state");
        // Two publishes later the value moved 4 <= 2*2: within bound.
        t.publish("k", vec![("n".into(), CtxValue::U64(12))]);
        t.publish("k", vec![("n".into(), CtxValue::U64(14))]);
        assert!(c.check().is_pass());
        // One publish that jumps by 7 > 2: violation.
        t.publish("k", vec![("n".into(), CtxValue::U64(21))]);
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected delta violation");
        };
        assert_eq!(f.kind, FailureKind::AssertViolation);
    }

    #[test]
    fn staleness_fires_once_age_exceeds_window() {
        let clock = SimClock::shared();
        let t = ContextTable::new(clock.clone());
        let mut c = inferred_checker(
            spec(
                "k",
                InferredPredicate::Staleness {
                    max_gap_us: 100_000,
                },
            ),
            t.reader(),
        );
        assert_eq!(c.check(), CheckStatus::NotReady, "never published");
        t.publish("k", vec![]);
        clock.sleep(Duration::from_millis(50));
        assert!(c.check().is_pass());
        clock.sleep(Duration::from_millis(200));
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected staleness violation");
        };
        assert_eq!(f.kind, FailureKind::Stuck);
    }

    #[test]
    fn order_fires_only_when_prerequisite_missing() {
        let t = table();
        let mut c = inferred_checker(
            spec(
                "b",
                InferredPredicate::Order {
                    prerequisite: "a".into(),
                },
            ),
            t.reader(),
        );
        assert_eq!(c.check(), CheckStatus::NotReady, "b not yet published");
        t.publish("b", vec![]);
        assert!(matches!(c.check(), CheckStatus::Fail(_)), "a missing");
        t.publish("a", vec![]);
        assert!(c.check().is_pass());
    }

    #[test]
    fn specs_serialize_round_trip() {
        let s = spec(
            "k",
            InferredPredicate::Delta {
                field: "n".into(),
                max_step: 3,
            },
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: InferredSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.predicate.kind(), "delta");
    }
}
