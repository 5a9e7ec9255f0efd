//! Property-based tests over the core data structures and the reduction
//! pipeline, run on randomly generated programs and inputs.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use wdog_base::ids::OpId;
use wdog_core::context::{ContextTable, CtxValue};
use wdog_gen::ir::{OpKind, ProgramBuilder, ProgramIr};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::{reduce_program, ReductionConfig};
use wdog_gen::vulnerable::is_vulnerable;

/// Strategy: one random operation kind (excluding calls).
fn op_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::DiskRead),
        Just(OpKind::DiskWrite),
        Just(OpKind::DiskSync),
        Just(OpKind::NetSend),
        Just(OpKind::NetRecv),
        Just(OpKind::LockAcquire),
        Just(OpKind::LockRelease),
        Just(OpKind::CondWait),
        Just(OpKind::Alloc),
        Just(OpKind::Compute),
    ]
}

/// Strategy: a random program as a DAG of up to 8 functions.
///
/// Function `fi` may call only higher-numbered functions, so call graphs are
/// acyclic by construction (cycles are separately covered by unit tests).
fn program() -> impl Strategy<Value = ProgramIr> {
    let func_count = 2..8usize;
    func_count
        .prop_flat_map(|n| {
            let ops_per_fn =
                proptest::collection::vec(proptest::collection::vec((op_kind(), 0..4u8), 0..6), n);
            let long_running = proptest::collection::vec(any::<bool>(), n);
            let calls = proptest::collection::vec(proptest::collection::vec(0..n, 0..3), n);
            (Just(n), ops_per_fn, long_running, calls)
        })
        .prop_map(|(n, ops_per_fn, long_running, calls)| {
            let mut builder = ProgramBuilder::new("prop");
            for (i, ops) in ops_per_fn.iter().enumerate() {
                let is_entry = long_running[i] || i == 0;
                if is_entry {
                    builder = builder.fires(format!("f{i}"), &["x"]);
                }
                let callees: Vec<String> = calls[i]
                    .iter()
                    .filter(|&&c| c > i && c < n)
                    .map(|c| format!("f{c}"))
                    .collect();
                let ops = ops.clone();
                builder = builder.function(format!("f{i}"), move |mut f| {
                    if is_entry {
                        f = f.long_running();
                    }
                    for (j, (kind, res)) in ops.iter().enumerate() {
                        let resource = format!("r{res}");
                        f = f.op(format!("op{j}"), kind.clone(), |o| o.resource(resource));
                    }
                    for c in &callees {
                        f = f.call(c.clone());
                    }
                    f
                });
            }
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every op retained by reduction is vulnerable.
    #[test]
    fn retained_ops_are_vulnerable(ir in program()) {
        let config = ReductionConfig::default();
        let reduced = reduce_program(&ir, &config);
        for rf in &reduced.functions {
            for op in &rf.kept_ops {
                prop_assert!(is_vulnerable(op));
            }
        }
    }

    /// With dedup on, every vulnerable (kind, resource) class that appears
    /// in some region is represented by at least one retained op.
    #[test]
    fn every_vulnerable_class_is_represented(ir in program()) {
        let config = ReductionConfig::default();
        let reduced = reduce_program(&ir, &config);
        let mut region_classes = BTreeSet::new();
        for region in &reduced.regions {
            for fname in &region.functions {
                let f = ir.function(fname).unwrap();
                for op in &f.ops {
                    if is_vulnerable(op) {
                        region_classes.insert(op.similarity_key());
                    }
                }
            }
        }
        let mut retained_classes = BTreeSet::new();
        for rf in &reduced.functions {
            for op in &rf.kept_ops {
                retained_classes.insert(op.similarity_key());
            }
        }
        prop_assert_eq!(region_classes, retained_classes);
    }

    /// Every vulnerable op of every region is kept exactly once, or is
    /// dropped naming a kept op of its similarity class reduced before it.
    #[test]
    fn every_vulnerable_op_is_kept_once_or_covered_by_an_earlier_kept_op(ir in program()) {
        let reduced = reduce_program(&ir, &ReductionConfig::default());
        let mut kept_before: BTreeMap<OpId, (String, Option<String>)> = BTreeMap::new();
        let mut reduced_fns = BTreeSet::new();
        for rf in &reduced.functions {
            prop_assert!(reduced_fns.insert(rf.name.as_str()), "{} reduced twice", rf.name);
            let f = ir.function(&rf.name).expect("reduced functions exist");
            for op in f.ops.iter().filter(|o| !o.kind.is_call() && is_vulnerable(o)) {
                let id = op.id_in(&rf.name);
                let kept = rf.kept_ops.iter().any(|k| k.name == op.name);
                let covers: Vec<&OpId> = rf
                    .dropped_vulnerable
                    .iter()
                    .filter(|(d, _)| *d == id)
                    .map(|(_, by)| by)
                    .collect();
                match (kept, covers.as_slice()) {
                    (true, []) => {
                        prop_assert!(kept_before.insert(id, op.similarity_key()).is_none());
                    }
                    (false, [by]) => {
                        prop_assert_eq!(kept_before.get(*by), Some(&op.similarity_key()), "{}", id);
                    }
                    _ => prop_assert!(false, "{} kept: {}, covered by {:?}", id, kept, covers),
                }
            }
        }
        for region in &reduced.regions {
            for fname in &region.functions {
                prop_assert!(reduced_fns.contains(fname.as_str()), "{} never reduced", fname);
            }
        }
    }

    /// Without dedup, reduction drops no vulnerable op.
    #[test]
    fn no_dedup_drops_nothing(ir in program()) {
        let reduced = reduce_program(&ir, &ReductionConfig { dedup: false });
        for rf in &reduced.functions {
            prop_assert!(rf.dropped_vulnerable.is_empty(), "{}: {:?}", rf.name, rf.dropped_vulnerable);
        }
    }

    /// Disabling dedup never retains fewer ops.
    #[test]
    fn dedup_is_monotone(ir in program()) {
        let full = reduce_program(&ir, &ReductionConfig::default());
        let off = reduce_program(&ir, &ReductionConfig { dedup: false });
        prop_assert!(off.stats.ops_retained >= full.stats.ops_retained);
    }

    /// Reduction is deterministic.
    #[test]
    fn reduction_is_deterministic(ir in program()) {
        let a = reduce_program(&ir, &ReductionConfig::default());
        let b = reduce_program(&ir, &ReductionConfig::default());
        prop_assert_eq!(a, b);
    }

    /// Generated plans are internally consistent: ops exist in the IR,
    /// each checker runs every op its region retained, and requires the
    /// fields the IR fires into its context key.
    #[test]
    fn plans_are_internally_consistent(ir in program()) {
        let plan = generate_plan(&ir, &ReductionConfig::default());
        for checker in &plan.checkers {
            prop_assert!(!checker.ops.is_empty());
            for op in &checker.ops {
                let f = ir.function(&op.function).expect("function exists");
                prop_assert!(f.ops.iter().any(|o| o.name == op.name));
            }
            let kept: usize = plan
                .reduced
                .functions_in(&checker.context_key)
                .iter()
                .map(|f| f.kept_ops.len())
                .sum();
            prop_assert_eq!(checker.ops.len(), kept);
            prop_assert_eq!(
                &checker.required_fields,
                &ir.regions_fired[&checker.context_key].iter().cloned().collect::<Vec<_>>()
            );
        }
    }

    /// Context versions grow monotonically under arbitrary publishes, and
    /// reads always observe the latest value per field.
    #[test]
    fn context_versions_are_monotonic(
        publishes in proptest::collection::vec((0..4u8, 0..1000u64), 1..40)
    ) {
        let table = ContextTable::new(simio::SimClock::shared());
        let mut last_version = 0;
        let mut last_value = std::collections::HashMap::new();
        for (field, value) in publishes {
            let name = format!("field{field}");
            table.publish("slot", vec![(name.clone(), CtxValue::U64(value))]);
            last_value.insert(name, value);
            let snap = table.read("slot").unwrap();
            prop_assert!(snap.version > last_version);
            last_version = snap.version;
        }
        let snap = table.read("slot").unwrap();
        for (name, value) in last_value {
            prop_assert_eq!(snap.get(&name).unwrap().as_u64(), Some(value));
        }
    }

    /// WAL replay returns exactly the appended records, regardless of
    /// content (framing is content-agnostic).
    #[test]
    fn wal_replay_is_lossless(records in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 0..20)
    ) {
        let disk = simio::disk::SimDisk::for_tests();
        let mut wal = kvs::wal::Wal::new(std::sync::Arc::clone(&disk), "wal/p");
        for r in &records {
            wal.append_record(r).unwrap();
        }
        let replayed = kvs::wal::Wal::replay(&disk, "wal/p").unwrap();
        prop_assert_eq!(replayed, records);
    }

    /// SSTable write/read round-trips arbitrary sorted entries and the
    /// checksum rejects any single-byte flip in the payload region.
    #[test]
    fn sstable_roundtrip_and_integrity(
        mut entries in proptest::collection::vec(("[a-z]{1,8}", "[ -~]{0,16}"), 0..20),
        flip in any::<u16>(),
    ) {
        entries.sort();
        entries.dedup_by(|a, b| a.0 == b.0);
        let disk = simio::disk::SimDisk::for_tests();
        kvs::sstable::write_sstable(&disk, "sst/p", &entries).unwrap();
        prop_assert_eq!(kvs::sstable::read_sstable(&disk, "sst/p").unwrap(), entries);
        // Flip one byte somewhere in the file; reading must not silently
        // succeed with different data.
        let mut raw = disk.read("sst/p").unwrap();
        let idx = (flip as usize) % raw.len();
        raw[idx] ^= 0x40;
        disk.write_all("sst/p", &raw).unwrap();
        if let Ok(read_back) = kvs::sstable::read_sstable(&disk, "sst/p") {
            // A flip inside the stored checksum itself cannot corrupt data;
            // any successful read must return the original entries... which
            // is impossible since the checksum no longer matches. A flip in
            // the payload must be caught.
            prop_assert!(read_back.is_empty() && raw.len() <= 6,
                "corrupted sstable read back silently");
        }
    }

    /// The histogram never loses samples and percentiles are ordered.
    #[test]
    fn histogram_invariants(samples in proptest::collection::vec(any::<u64>(), 1..200)) {
        let h = wdog_telemetry::AtomicHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let s = h.summarize();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(s.max, *samples.iter().max().unwrap());
        prop_assert_eq!(s.min, *samples.iter().min().unwrap());
        prop_assert!(s.p50 <= s.p95);
        prop_assert!(s.p95 <= s.p99);
        prop_assert!(s.p99 <= s.max);
    }
}
