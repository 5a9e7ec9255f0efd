//! Property coverage for the fault taxonomy and schedule composition
//! (ISSUE 5 satellite): specs and schedules survive JSON round-trips, and
//! delta-debugging shrink steps never produce an invalid schedule.

use std::time::Duration;

use proptest::prelude::*;

use faults::catalog::{gray_failure_catalog, ids, Cooperative, Scenario, TargetProfile};
use faults::schedule::{compose_schedule, ComposeOptions, FaultSchedule};
use faults::spec::{FaultKind, FaultSpec};

/// The catalogue on a kvs-like layout, every scenario family included.
fn catalog() -> Vec<Scenario> {
    gray_failure_catalog(&TargetProfile {
        wal_prefix: "wal/".into(),
        sst_prefix: "sst/".into(),
        replica_src: "primary".into(),
        replica_dst: "replica".into(),
        wal_blames: ids(&["wal_loop"]),
        sst_blames: ids(&["sst"]),
        replication_blames: ids(&["replication_loop"]),
        process_blames: ids(&["api"]),
        cooperative: Some(Cooperative {
            stuck_task_toggle: "stuck".into(),
            busy_loop_toggle: "busyloop".into(),
            corruption_toggle: "corrupt".into(),
            leak_toggle: "leak".into(),
            compaction_blames: ids(&["compaction_loop"]),
            index_blames: ids(&["index"]),
            memory_blames: ids(&["api"]),
        }),
    })
}

fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::ProcessCrash),
        "[a-z]{0,8}/".prop_map(|path_prefix| FaultKind::DiskStuck { path_prefix }),
        ("[a-z]{0,8}/", 2..4000u64).prop_map(|(path_prefix, f)| FaultKind::DiskSlow {
            path_prefix,
            factor: f as f64,
        }),
        "[a-z]{0,8}/".prop_map(|path_prefix| FaultKind::DiskError { path_prefix }),
        "[a-z]{0,8}/".prop_map(|path_prefix| FaultKind::DiskCorruptWrites { path_prefix }),
        ("[a-z]{1,8}", "[a-z]{1,8}").prop_map(|(src, dst)| FaultKind::NetBlockSend { src, dst }),
        ("[a-z]{1,8}", "[a-z]{1,8}").prop_map(|(src, dst)| FaultKind::NetDrop { src, dst }),
        ("[a-z]{1,8}", "[a-z]{1,8}", 2..4000u64).prop_map(|(src, dst, f)| FaultKind::NetSlow {
            src,
            dst,
            factor: f as f64,
        }),
        (1..10_000u64).prop_map(|millis| FaultKind::RuntimePause { millis }),
        "[a-z]{1,6}\\.[a-z]{1,6}".prop_map(|toggle| FaultKind::TaskStuck { toggle }),
        "[a-z]{1,6}\\.[a-z]{1,6}".prop_map(|toggle| FaultKind::TaskBusyLoop { toggle }),
        "[a-z]{1,6}\\.[a-z]{1,6}".prop_map(|toggle| FaultKind::LogicCorruption { toggle }),
        "[a-z]{1,6}\\.[a-z]{1,6}".prop_map(|toggle| FaultKind::MemoryLeak { toggle }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        "[a-z][a-z0-9-]{0,15}",
        kind_strategy(),
        0..5_000u64,
        0..3u64,
        1..5_000u64,
    )
        .prop_map(|(name, kind, start_ms, bounded, dur_ms)| {
            let spec = FaultSpec::new(name, kind, Duration::from_millis(start_ms));
            if bounded == 0 {
                spec
            } else {
                spec.lasting(Duration::from_millis(dur_ms))
            }
        })
}

/// Recursively shrinks through every candidate for a few levels, checking
/// validity at each step.
fn assert_shrink_closure(schedule: &FaultSchedule, depth: usize) {
    if depth == 0 {
        return;
    }
    for c in schedule.shrink_candidates() {
        c.validate()
            .unwrap_or_else(|e| panic!("invalid shrink of {}: {e}", schedule.id));
        assert_shrink_closure(&c, depth - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_specs_roundtrip_through_json(spec in spec_strategy()) {
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn kind_labels_are_stable_across_roundtrip(kind in kind_strategy()) {
        let json = serde_json::to_string(&kind).unwrap();
        let back: FaultKind = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.label(), kind.label());
        prop_assert_eq!(back.is_gray(), kind.is_gray());
    }

    #[test]
    fn magnitude_roundtrips_where_supported(kind in kind_strategy(), m in 1..5_000u64) {
        let scaled = kind.with_magnitude(m as f64);
        if kind.has_magnitude() {
            prop_assert_eq!(scaled.magnitude(), Some(m as f64));
        } else {
            prop_assert_eq!(&scaled, &kind);
        }
        // Scaling never changes the kind's identity.
        prop_assert_eq!(scaled.label(), kind.label());
    }

    #[test]
    fn composed_schedules_are_valid_deterministic_and_roundtrip(
        seed in 0..1_000_000u64,
        index in 0..64u64,
    ) {
        let catalog = catalog();
        let opts = ComposeOptions::default();
        let s = compose_schedule(&catalog, seed, index, &opts).unwrap();
        s.validate().unwrap();
        prop_assert_eq!(&compose_schedule(&catalog, seed, index, &opts).unwrap(), &s);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn shrinking_never_produces_an_invalid_schedule(
        seed in 0..1_000_000u64,
        index in 0..64u64,
    ) {
        let catalog = catalog();
        let s = compose_schedule(&catalog, seed, index, &ComposeOptions::default()).unwrap();
        assert_shrink_closure(&s, 3);
    }
}
