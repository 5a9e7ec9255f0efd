//! Property coverage for the invariant miner:
//!
//! 1. every mined invariant holds on every journal it was mined from;
//! 2. mining is deterministic under any reordering of the input journals;
//! 3. invariant sets only shrink under trace union — more evidence can
//!    kill an invariant, never invent one;
//! 4. emitted specs never tighten the mined envelope, keep its kind, key
//!    and support, and are named `{target}.inferred.{mined id}`.

use proptest::prelude::*;

use wdog_core::{CtxValue, TraceEvent, TraceEventKind};
use wdog_infer::emit::emit;
use wdog_infer::journal::TraceJournal;
use wdog_infer::miner::{holds_on, mine, MinerConfig};

const KEYS: [&str; 3] = ["alpha_loop", "beta_loop", "gamma_loop"];

/// One raw publish draw: key index, virtual-time gap to the previous
/// event, a numeric field value, and an optional payload length.
fn event_strategy() -> impl Strategy<Value = (usize, u64, u64, Option<usize>)> {
    (
        0..KEYS.len(),
        0..2_000u64,
        0..60u64,
        prop_oneof![Just(None), (0..24usize).prop_map(Some)],
    )
}

fn journal_strategy() -> impl Strategy<Value = TraceJournal> {
    (
        proptest::collection::vec(event_strategy(), 1..40),
        0..1_000_000u64,
    )
        .prop_map(|(draws, seed)| {
            let mut at_us = 0u64;
            let events = draws
                .into_iter()
                .enumerate()
                .map(|(i, (key, gap, n, payload))| {
                    at_us += gap;
                    let mut fields = vec![("n".to_owned(), CtxValue::U64(n))];
                    if let Some(len) = payload {
                        fields.push(("payload".to_owned(), CtxValue::Bytes(vec![0u8; len])));
                    }
                    TraceEvent {
                        seq: i as u64 + 1,
                        at_us,
                        key: KEYS[key].to_owned(),
                        kind: TraceEventKind::Publish { fields },
                    }
                })
                .collect();
            TraceJournal::new("prop", format!("j{seed}"), seed, events)
        })
}

/// Floors low enough that every invariant family gets exercised.
fn low_floors() -> MinerConfig {
    MinerConfig {
        min_support: 1,
        min_order_journals: 1,
        min_staleness_publishes: 2,
    }
}

fn ids(journals: &[TraceJournal], cfg: &MinerConfig) -> Vec<String> {
    mine(journals, cfg).iter().map(|m| m.id()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mined_invariants_hold_on_their_sources(
        journals in proptest::collection::vec(journal_strategy(), 1..4),
    ) {
        let set = mine(&journals, &low_floors());
        for mined in &set {
            for journal in &journals {
                prop_assert!(
                    holds_on(mined, journal),
                    "{} violated on source journal {}",
                    mined.id(),
                    journal.label,
                );
            }
        }
    }

    #[test]
    fn mining_is_deterministic_under_reordering(
        journals in proptest::collection::vec(journal_strategy(), 1..5),
        rotation in 0..5usize,
    ) {
        let baseline = mine(&journals, &low_floors());
        let mut rotated = journals.clone();
        rotated.rotate_left(rotation % journals.len().max(1));
        prop_assert_eq!(&mine(&rotated, &low_floors()), &baseline);
        let mut reversed = journals;
        reversed.reverse();
        prop_assert_eq!(&mine(&reversed, &low_floors()), &baseline);
    }

    #[test]
    fn union_of_traces_only_shrinks_the_invariant_set(
        a in proptest::collection::vec(journal_strategy(), 1..3),
        b in proptest::collection::vec(journal_strategy(), 1..3),
    ) {
        // At floor 1 the property is exact: every observation in the union
        // came from one of the parts, so an invariant consistent with the
        // union is consistent with (and mined from) at least one part.
        // Support floors above 1 deliberately break this — pooled support
        // can cross the floor — which is why they are confidence knobs,
        // not soundness ones. Per-journal guards (staleness cadence) and
        // direction consistency (orders) stay union-safe at any setting.
        let cfg = low_floors();
        let part_ids: Vec<String> = ids(&a, &cfg)
            .into_iter()
            .chain(ids(&b, &cfg))
            .collect();
        let union: Vec<TraceJournal> = a.into_iter().chain(b).collect();
        for id in ids(&union, &cfg) {
            prop_assert!(
                part_ids.contains(&id),
                "union invented {id}, absent from both parts",
            );
        }
    }

    #[test]
    fn emitted_specs_never_tighten_the_mined_envelope(
        journals in proptest::collection::vec(journal_strategy(), 1..4),
    ) {
        let set = mine(&journals, &low_floors());
        let specs = emit(&set, "prop");
        prop_assert_eq!(specs.len(), set.len());
        for (mined, spec) in set.iter().zip(&specs) {
            prop_assert_eq!(&spec.id, &format!("prop.inferred.{}", mined.id()));
            prop_assert_eq!(&spec.key, &mined.key);
            prop_assert_eq!(spec.support, mined.support);
            use wdog_checkers::InferredPredicate as P;
            match (&mined.predicate, &spec.predicate) {
                (P::Range { field, min, max }, P::Range { field: efield, min: emin, max: emax }) => {
                    prop_assert_eq!(efield, field);
                    prop_assert!(emin < min && emax > max);
                }
                (P::LenBound { field, max_len }, P::LenBound { field: efield, max_len: elen }) => {
                    prop_assert_eq!(efield, field);
                    prop_assert!(elen > max_len);
                }
                (P::Delta { field, max_step }, P::Delta { field: efield, max_step: estep }) => {
                    prop_assert_eq!(efield, field);
                    prop_assert!(estep > max_step);
                }
                (P::Staleness { max_gap_us }, P::Staleness { max_gap_us: egap }) => {
                    prop_assert!(egap > max_gap_us);
                }
                (P::Order { .. }, P::Order { .. }) => {
                    prop_assert_eq!(&spec.predicate, &mined.predicate);
                }
                (inv, pred) => prop_assert!(false, "kind mismatch: {:?} vs {:?}", inv, pred),
            }
        }
    }
}
