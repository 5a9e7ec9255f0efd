//! Property tests for the context table (paper §3.1 / §5.1).
//!
//! Three invariants the watchdog's correctness rests on, checked over
//! random operation sequences rather than hand-picked cases:
//!
//! 1. **Version monotonicity** — a slot's version equals the number of
//!    publishes it received, never decreases across interleaved reads, and
//!    stays 0 until the first publish.
//! 2. **One-way flow / snapshot isolation** — a checker mutating its
//!    [`ContextSnapshot`] (a deep copy) can never alter what the table or
//!    any later reader sees.
//! 3. **Model equivalence** — the table is observationally identical to a
//!    plain `HashMap` model on any sequential publish/read sequence.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use simio::SimClock;
use wdog_core::context::{ContextTable, CtxValue};

const KEYS: [&str; 4] = ["flush", "compact", "replicate", "scan"];
const FIELDS: [&str; 3] = ["path", "len", "seq"];

/// One randomly generated table operation.
#[derive(Debug, Clone)]
enum Op {
    /// Publish `(field, value)` into `KEYS[key]`.
    Publish {
        key: usize,
        field: usize,
        value: u64,
    },
    /// Read `KEYS[key]` and check it against the model.
    Read { key: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            (0..KEYS.len(), 0..FIELDS.len(), any::<u64>())
                .prop_map(|(key, field, value)| Op::Publish { key, field, value }),
            (0..KEYS.len()).prop_map(|key| Op::Read { key }),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn versions_are_monotonic_and_count_publishes(ops in ops()) {
        let table = ContextTable::new(SimClock::shared());
        // Model: per-key publish count and last version seen by a read.
        let mut published: HashMap<usize, u64> = HashMap::new();
        let mut last_seen: HashMap<usize, u64> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Publish { key, field, value } => {
                    table.publish(
                        KEYS[key],
                        vec![(FIELDS[field].to_owned(), CtxValue::U64(value))],
                    );
                    *published.entry(key).or_default() += 1;
                }
                Op::Read { key } => {
                    let count = published.get(&key).copied().unwrap_or(0);
                    match table.read(KEYS[key]) {
                        None => prop_assert_eq!(count, 0, "slot readable before any publish"),
                        Some(snap) => {
                            prop_assert_eq!(snap.version, count);
                            let floor = last_seen.get(&key).copied().unwrap_or(0);
                            prop_assert!(snap.version >= floor, "version went backwards");
                            last_seen.insert(key, snap.version);
                        }
                    }
                }
            }
        }
        for (key, count) in &published {
            prop_assert_eq!(table.read(KEYS[*key]).unwrap().version, *count);
        }
    }

    #[test]
    fn snapshot_mutation_never_flows_back(ops in ops(), victim in 0..KEYS.len()) {
        let table = ContextTable::new(SimClock::shared());
        for op in &ops {
            if let Op::Publish { key, field, value } = *op {
                table.publish(
                    KEYS[key],
                    vec![(FIELDS[field].to_owned(), CtxValue::U64(value))],
                );
            }
        }
        let reader = table.reader();
        // Skip cases where nothing was published into the victim slot.
        if let Some(mut snap) = reader.read(KEYS[victim]) {
            let before = reader.read(KEYS[victim]).unwrap();
            // A buggy checker scribbling all over its snapshot...
            snap.fields.clear();
            snap.fields
                .insert("injected".into(), CtxValue::Bytes(vec![0xde, 0xad]));
            snap.version = u64::MAX;
            // ...must be invisible to the table and every later reader.
            let after = reader.read(KEYS[victim]).unwrap();
            prop_assert_eq!(after.version, before.version);
            prop_assert_eq!(&after.fields, &before.fields);
            prop_assert!(!after.fields.contains_key("injected"));
        }
    }

    #[test]
    fn table_is_observationally_equal_to_a_map_model(ops in ops()) {
        let table = ContextTable::new(SimClock::shared());
        // Model: key → (fields, number of publishes).
        let mut model: HashMap<usize, (HashMap<String, CtxValue>, u64)> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Publish { key, field, value } => {
                    table.publish(
                        KEYS[key],
                        vec![(FIELDS[field].to_owned(), CtxValue::U64(value))],
                    );
                    let (fields, version) = model.entry(key).or_default();
                    fields.insert(FIELDS[field].to_owned(), CtxValue::U64(value));
                    *version += 1;
                }
                Op::Read { key } => {
                    let (got, want) = (table.read(KEYS[key]), model.get(&key));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some((fields, version))) = (got, want) {
                        prop_assert_eq!(got.version, *version);
                        prop_assert_eq!(&got.fields, fields);
                    }
                    prop_assert_eq!(table.is_ready(KEYS[key]), want.is_some());
                }
            }
        }
    }

    #[test]
    fn concurrent_publishes_keep_per_slot_counts(
        per_thread in 1..200usize,
        threads in 1..4usize,
    ) {
        // Every (thread, slot) pair publishes `per_thread` times; slots are
        // disjoint per thread, so each slot's final version must equal
        // exactly its own publish count — no lost updates across slots.
        let table = ContextTable::new(SimClock::shared());
        let slots: Vec<_> = (0..threads)
            .map(|t| table.register(&format!("slot-{t}")))
            .collect();
        std::thread::scope(|scope| {
            for slot in &slots {
                let slot = Arc::clone(slot);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        slot.begin_publish().set("i", i as u64);
                    }
                });
            }
        });
        for slot in &slots {
            let snap = slot.snapshot().unwrap();
            prop_assert_eq!(snap.version, per_thread as u64);
            prop_assert_eq!(
                snap.get("i").unwrap().as_u64(),
                Some(per_thread as u64 - 1)
            );
        }
    }
}
