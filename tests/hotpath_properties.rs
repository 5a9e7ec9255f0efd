//! Property-based tests over the hook hot path: a site's fire count (its
//! slot's version) must never lose a count, and the context slot must stay a
//! latest-writer-wins register, read at one point in time, under any publish
//! interleaving.
//!
//! Two shapes per structure: a randomized sequential interleaving driven by
//! proptest (exact model comparison), and a threaded stress test (weaker
//! invariants that survive true concurrency).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use wdog_base::clock::RealClock;
use wdog_core::context::{ContextTable, CtxValue};
use wdog_core::hooks::Hooks;

/// One step of a randomized hook-lifecycle interleaving.
#[derive(Clone, Copy, Debug)]
enum HookOp {
    /// Fire site `0..SITES`.
    Fire(usize),
    /// Disable every site.
    Disarm,
    /// Re-enable every site.
    Arm,
    /// Read every site's slot.
    Snapshot,
}

const SITES: usize = 3;

fn hook_op() -> impl Strategy<Value = HookOp> {
    prop_oneof![
        (0..SITES).prop_map(HookOp::Fire),
        (0..SITES).prop_map(HookOp::Fire),
        (0..SITES).prop_map(HookOp::Fire),
        Just(HookOp::Disarm),
        Just(HookOp::Arm),
        Just(HookOp::Snapshot),
    ]
}

/// One step of a randomized slot-publish interleaving: (field, value, also
/// set the shared field).
fn publish_op() -> impl Strategy<Value = (usize, u64, bool)> {
    (0..4usize, 0..1_000_000u64, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fire-count exactness: under any interleaving of fire, arm, disarm and
    /// slot read, each site's slot version equals a direct per-site
    /// model count of the fires that ran while hooks were enabled — no fire
    /// is dropped or doubled, and disarmed fires never leak into the counts.
    #[test]
    fn fire_counters_lose_no_fires(ops in proptest::collection::vec(hook_op(), 1..120)) {
        let table = ContextTable::new(RealClock::shared());
        let hooks = Hooks::new(table);
        let sites: Vec<_> = (0..SITES).map(|i| hooks.site(format!("prop-site-{i}"))).collect();

        let mut model = [0u64; SITES];
        let mut enabled = true;
        for op in &ops {
            match *op {
                HookOp::Fire(i) => {
                    sites[i].fire_kv("n", model[i]);
                    if enabled {
                        model[i] += 1;
                    }
                }
                HookOp::Disarm => {
                    hooks.set_enabled(false);
                    enabled = false;
                }
                HookOp::Arm => {
                    hooks.set_enabled(true);
                    enabled = true;
                }
                HookOp::Snapshot => {
                    sites.iter().for_each(|site| {
                        let _ = site.slot().snapshot();
                    });
                }
            }
        }

        for (i, site) in sites.iter().enumerate() {
            let counted = site.slot().version();
            prop_assert_eq!(
                counted, model[i],
                "site {} counted {} fires, model says {}", i, counted, model[i]
            );
        }
        prop_assert_eq!(hooks.fired_count(), model.iter().sum::<u64>());
    }

    /// Slot read consistency: any sequence of publishes — each on its own
    /// thread — reads back as exactly the per-field latest write. The slot
    /// must behave as a plain last-writer-wins map whichever thread wrote.
    #[test]
    fn slot_reads_back_the_latest_writer(ops in proptest::collection::vec(publish_op(), 1..40)) {
        let table = ContextTable::new(RealClock::shared());
        let slot = table.register("prop-slot");

        let mut model: HashMap<String, u64> = HashMap::new();
        for (i, &(field, value, shared)) in ops.iter().enumerate() {
            let name = format!("f{field}");
            // Each publish on a fresh thread, joined before the next, so
            // program order fixes the winner while the writer varies.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut publish = slot.begin_publish();
                    publish.set(&name, value);
                    if shared {
                        publish.set("shared", i as u64);
                    }
                });
            });
            model.insert(name, value);
            if shared {
                model.insert("shared".to_owned(), i as u64);
            }
        }

        let snap = slot.snapshot().expect("published slot must be readable");
        prop_assert_eq!(snap.fields.len(), model.len());
        for (name, want) in &model {
            prop_assert_eq!(
                snap.fields.get(name),
                Some(&CtxValue::U64(*want)),
                "field {} lost the latest write", name
            );
        }
        prop_assert_eq!(snap.version, ops.len() as u64);
    }
}

/// Threaded losslessness: worker threads hammer one site while another
/// thread toggles the enable flag and reads the slot concurrently. The
/// interleaving is nondeterministic, so the model is observational: every
/// fire that returned a guard must appear in the slot version — exactly
/// once — no matter how reads raced the fires.
#[test]
fn concurrent_fires_snapshots_and_toggles_lose_nothing() {
    const WORKERS: usize = 4;
    const FIRES_PER_WORKER: usize = 20_000;

    let table = ContextTable::new(RealClock::shared());
    let hooks = Hooks::new(table);
    let site = hooks.site("stress-site");
    let stop = AtomicBool::new(false);

    let published: u64 = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..WORKERS {
            let site = site.clone();
            handles.push(s.spawn(move || {
                let mut mine = 0u64;
                for i in 0..FIRES_PER_WORKER {
                    if let Some(mut fire) = site.fire() {
                        fire.field("n", (t * FIRES_PER_WORKER + i) as u64);
                        mine += 1;
                    }
                }
                mine
            }));
        }
        // The antagonist: disarm/rearm windows plus concurrent slot reads,
        // racing the workers the whole way.
        s.spawn(|| {
            let mut on = true;
            while !stop.load(Ordering::Relaxed) {
                on = !on;
                hooks.set_enabled(on);
                let _ = site.slot().snapshot();
                std::thread::yield_now();
            }
            hooks.set_enabled(true);
        });
        let total = handles.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        total
    });

    let counted = site.slot().version();
    assert_eq!(
        counted, published,
        "fire count diverged from the fires that actually published"
    );
    assert_eq!(hooks.fired_count(), published);
}

/// Threaded slot consistency: each writer owns a field it publishes with
/// strictly increasing values while a reader snapshots continuously. Every
/// snapshot must show (a) a non-decreasing slot version and (b) per-field
/// values that never run backwards — the slot must never expose a torn or
/// stale-after-fresh read.
#[test]
fn concurrent_slot_readers_never_observe_regression() {
    const WRITERS: usize = 3;
    const PUBLISHES: u64 = 5_000;

    let table = ContextTable::new(RealClock::shared());
    let slot = table.register("stress-slot");
    let reader = table.reader();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for t in 0..WRITERS {
            let slot = Arc::clone(&slot);
            writers.push(s.spawn(move || {
                let field = format!("w{t}");
                for v in 1..=PUBLISHES {
                    slot.begin_publish().set(&field, v);
                }
            }));
        }
        {
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last_version = 0u64;
                let mut last_seen: HashMap<String, u64> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let Some(snap) = reader.read("stress-slot") else {
                        continue;
                    };
                    assert!(
                        snap.version >= last_version,
                        "slot version ran backwards: {} after {}",
                        snap.version,
                        last_version
                    );
                    last_version = snap.version;
                    for (name, value) in &snap.fields {
                        let &CtxValue::U64(v) = value else {
                            panic!("unexpected non-u64 field {name}");
                        };
                        let prev = last_seen.entry(name.clone()).or_insert(0);
                        assert!(v >= *prev, "field {name} ran backwards: {v} after {prev}");
                        *prev = v;
                    }
                }
            });
        }
        // Keep the reader racing until every writer is done, then release it.
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let snap = slot.snapshot().expect("slot published");
    for t in 0..WRITERS {
        assert_eq!(
            snap.fields.get(&format!("w{t}")),
            Some(&CtxValue::U64(PUBLISHES)),
            "writer {t}'s final publish lost"
        );
    }
    assert_eq!(snap.version, WRITERS as u64 * PUBLISHES);
}

/// Point-in-time exactness: writers take `n` from a shared counter bumped
/// *inside* the open fire, so the slot lock orders the bumps and the publish
/// that sets `n` is the slot's `n + 1`-th. A snapshot that is one coherent
/// copy therefore always satisfies `n + 1 == version`; one that mixed the
/// fields of one publish with the version of a later one would not.
#[test]
fn concurrent_snapshots_are_exact_points_in_time() {
    const WRITERS: usize = 3;
    const FIRES_PER_WRITER: usize = 5_000;

    let table = ContextTable::new(RealClock::shared());
    let hooks = Hooks::new(Arc::clone(&table));
    let site = hooks.site("exact-site");
    let reader = table.reader();
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..FIRES_PER_WRITER {
                        let mut fire = site.fire().expect("hooks stay enabled");
                        fire.field("n", next.fetch_add(1, Ordering::Relaxed));
                    }
                })
            })
            .collect();
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let Some(snap) = reader.read("exact-site") else {
                    continue;
                };
                let n = snap.get("n").and_then(CtxValue::as_u64).expect("n is set");
                assert_eq!(n + 1, snap.version, "snapshot mixed two publishes");
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let snap = reader.read("exact-site").expect("site fired");
    assert_eq!(snap.version, (WRITERS * FIRES_PER_WRITER) as u64);
    assert_eq!(
        snap.get("n").and_then(CtxValue::as_u64),
        Some(snap.version - 1)
    );
}
