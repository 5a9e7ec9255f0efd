//! Property-based tests over the core data structures and the reduction
//! pipeline, run on randomly generated programs and inputs.

use proptest::prelude::*;

use wdog_core::context::{ContextTable, CtxValue};
use wdog_gen::ir::{ArgType, OpKind, ProgramBuilder, ProgramIr};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::{reduce_program, ReductionConfig};
use wdog_gen::vulnerable::VulnerabilityRules;

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
            let ops_per_fn = proptest::collection::vec(
                proptest::collection::vec((op_kind(), 0..4u8, any::<bool>()), 0..6),
                n,
            );
            let long_running = proptest::collection::vec(any::<bool>(), n);
            let calls = proptest::collection::vec(proptest::collection::vec(0..n, 0..3), n);
            (Just(n), ops_per_fn, long_running, calls)
        })
        .prop_map(|(n, ops_per_fn, long_running, calls)| {
            let mut builder = ProgramBuilder::new("prop");
            for (i, ops) in ops_per_fn.iter().enumerate() {
                let is_entry = long_running[i] || i == 0;
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
                    for (j, (kind, res, in_loop)) in ops.iter().enumerate() {
                        let resource = format!("r{res}");
                        let in_loop = *in_loop;
                        f = f.op(format!("op{j}"), kind.clone(), move |mut o| {
                            o = o.resource(resource).arg("x", ArgType::U64);
                            if in_loop {
                                o = o.in_loop();
                            }
                            o
                        });
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

    /// Every op retained by reduction is vulnerable under the rules.
    #[test]
    fn retained_ops_are_vulnerable(ir in program()) {
        let config = ReductionConfig::default();
        let reduced = reduce_program(&ir, &config);
        for rf in &reduced.functions {
            for op in &rf.kept_ops {
                prop_assert!(config.rules.is_vulnerable(op));
            }
        }
    }

    /// With dedup on, every vulnerable (kind, resource) class that appears
    /// in some region is represented by at least one retained op.
    #[test]
    fn every_vulnerable_class_is_represented(ir in program()) {
        let config = ReductionConfig::default();
        let reduced = reduce_program(&ir, &config);
        let rules = VulnerabilityRules::all();
        let mut region_classes = std::collections::BTreeSet::new();
        for region in &reduced.regions {
            for fname in &region.functions {
                let f = ir.function(fname).unwrap();
                for op in &f.ops {
                    if rules.is_vulnerable(op) {
                        region_classes.insert(op.similarity_key());
                    }
                }
            }
        }
        let mut retained_classes = std::collections::BTreeSet::new();
        for rf in &reduced.functions {
            for op in &rf.kept_ops {
                retained_classes.insert(op.similarity_key());
            }
        }
        prop_assert_eq!(region_classes, retained_classes);
    }

    /// Disabling dedup never retains fewer ops.
    #[test]
    fn dedup_is_monotone(ir in program()) {
        let full = reduce_program(&ir, &ReductionConfig::default());
        let off = reduce_program(&ir, &ReductionConfig {
            dedupe_similar: false,
            global_reduction: false,
            ..ReductionConfig::default()
        });
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
    /// hooks point at retained ops, required fields cover op args.
    #[test]
    fn plans_are_internally_consistent(ir in program()) {
        let plan = generate_plan(&ir, &ReductionConfig::default());
        for checker in &plan.checkers {
            prop_assert!(!checker.ops.is_empty());
            for op in &checker.ops {
                let f = ir.function(&op.function).expect("function exists");
                prop_assert!(f.ops.iter().any(|o| o.name == op.name));
                for arg in &op.args {
                    prop_assert!(checker
                        .required_fields
                        .iter()
                        .any(|a| a.name == arg.name));
                }
            }
        }
        for hook in &plan.hooks {
            let f = ir.function(&hook.function).expect("hook function exists");
            prop_assert!(f.ops.iter().any(|o| o.name == hook.before_op));
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
