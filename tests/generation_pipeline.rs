//! Cross-crate checks on the AutoWatchdog pipeline: every target system's
//! IR, plan and op table must stay mutually consistent.

use std::sync::Arc;

use simio::disk::SimDisk;
use simio::net::SimNet;
use wdog_analyze::{extract_model, CrateModel, SourceFile};
use wdog_base::clock::{RealClock, SharedClock};
use wdog_gen::interp::{instantiate, InstantiateOptions};
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::reduce::ReductionConfig;
use wdog_target::WatchdogTarget;

fn targets() -> [&'static dyn WatchdogTarget; 3] {
    [
        &kvs::target::KvsTarget,
        &minizk::target::ZkTarget,
        &miniblock::target::DnTarget,
    ]
}

/// The default configuration and the E6c ablation without either dedup.
fn configs() -> [ReductionConfig; 2] {
    [ReductionConfig::default(), ReductionConfig { dedup: false }]
}

fn plans() -> Vec<(wdog_gen::ir::ProgramIr, WatchdogPlan)> {
    targets()
        .into_iter()
        .map(|t| {
            let ir = t.describe_ir();
            let plan = generate_plan(&ir, &ReductionConfig::default());
            (ir, plan)
        })
        .collect()
}

#[test]
fn irs_have_no_dangling_callees() {
    for (ir, _) in plans() {
        assert!(
            ir.dangling_callees().is_empty(),
            "{}: {:?}",
            ir.name,
            ir.dangling_callees()
        );
    }
}

#[test]
fn every_planned_op_exists_in_its_ir_function() {
    for (ir, plan) in plans() {
        for checker in &plan.checkers {
            for op in &checker.ops {
                let func = ir
                    .function(&op.function)
                    .unwrap_or_else(|| panic!("{}: missing function {}", ir.name, op.function));
                assert!(
                    func.ops.iter().any(|o| o.name == op.name),
                    "{}: op {} not found in {}",
                    ir.name,
                    op.name,
                    op.function
                );
            }
        }
    }
}

#[test]
fn retained_ops_are_all_vulnerable() {
    for (ir, plan) in plans() {
        for checker in &plan.checkers {
            for op in &checker.ops {
                let func = ir.function(&op.function).unwrap();
                let ir_op = func.ops.iter().find(|o| o.name == op.name).unwrap();
                assert!(
                    wdog_gen::is_vulnerable(ir_op),
                    "{}: retained op {} is not vulnerable",
                    ir.name,
                    op.op_id
                );
            }
        }
    }
}

/// Paper §4.1 excludes initialization code from checking. Extraction does
/// it by structure: only functions a spawned (or hook-firing) entry
/// reaches enter the IR, so the manifest write and the lock `start` takes
/// before it spawns `worker_loop` reach no IR and no plan.
#[test]
fn no_initialization_code_is_ever_checked() {
    let src = r#"
pub fn start(shared: Arc<Shared>) -> JoinHandle<()> {
    shared.disk.write_all("meta/manifest", &manifest);
    let _g = shared.state.lock();
    std::thread::spawn(move || worker_loop(shared))
}

pub fn worker_loop(shared: Arc<Shared>) {
    let hook = shared.hooks.site("worker_loop");
    while shared.running() {
        shared.disk.append("wal/log", &frame);
    }
}
"#;
    let model = CrateModel::build(vec![SourceFile::parse("src/worker.rs", src, false)]);
    let ir = extract_model("init", model).ir;
    let ops: Vec<String> = ir
        .functions
        .values()
        .flat_map(|f| f.ops.iter().map(|o| o.id_in(&f.name).to_string()))
        .collect();
    assert!(ops.contains(&"worker_loop#append".to_owned()), "{ops:?}");
    assert!(
        !ops.iter()
            .any(|o| o.ends_with("#write_all") || o.ends_with("#lock")),
        "{ops:?}"
    );
    for config in configs() {
        let plan = generate_plan(&ir, &config);
        let planned: Vec<&str> = plan
            .checkers
            .iter()
            .flat_map(|c| c.ops.iter().map(|o| o.op_id.as_str()))
            .collect();
        assert_eq!(planned, ["worker_loop#append"], "{config:?}");
    }
}

#[test]
fn checker_required_fields_equal_the_fields_source_fires() {
    for (ir, plan) in plans() {
        for checker in &plan.checkers {
            let fired: Vec<String> = ir
                .regions_fired
                .get(&checker.context_key)
                .into_iter()
                .flatten()
                .cloned()
                .collect();
            assert_eq!(checker.required_fields, fired, "{}", checker.name);
        }
    }
}

#[test]
fn both_targets_generate_multiple_checkers_and_hooks() {
    for (ir, plan) in plans() {
        assert!(
            plan.checkers.len() >= 3,
            "{}: only {} checkers",
            ir.name,
            plan.checkers.len()
        );
        // Source hooks feed the checkers' contexts.
        assert!(
            plan.checkers.iter().any(|c| !c.required_fields.is_empty()),
            "{}: no checker reads a hooked context",
            ir.name
        );
        // The reduction thesis: well under half of all ops survive.
        assert!(plan.reduced.stats.retention_ratio() < 0.5, "{}", ir.name);
    }
}

#[test]
fn dedup_ablation_strictly_increases_retained_ops() {
    let [full, off] = configs();
    for t in targets() {
        let ir = t.describe_ir();
        let a = generate_plan(&ir, &full).reduced.stats.ops_retained;
        let b = generate_plan(&ir, &off).reduced.stats.ops_retained;
        assert!(b > a, "{}: dedup had no effect ({a} vs {b})", ir.name);
    }
}

/// The one vulnerable op per target that reduction drops because another
/// region's checker keeps a similar op, and the checker that covers it.
#[test]
fn each_target_covers_one_op_for_another_region() {
    let pinned = [
        (
            "kvs",
            "compaction_loop_checker",
            "write_sstable#write_all",
            "compact_once#sst_merge_write",
        ),
        (
            "minizk",
            "request_processor_loop_checker",
            "serialize_snapshot#lock",
            "final_apply#tree_write_lock",
        ),
        (
            "miniblock",
            "heartbeat_loop_checker",
            "report_loop#send",
            "heartbeat_loop#send",
        ),
    ];
    for ((ir, plan), (name, checker, op, by)) in plans().into_iter().zip(pinned) {
        assert_eq!(ir.name, name);
        let rows: Vec<(&str, String, String)> = plan
            .checkers
            .iter()
            .flat_map(|c| {
                plan.reduced
                    .covered_for_others(&c.context_key)
                    .into_iter()
                    .map(|(o, _, b)| (c.name.as_str(), o.to_string(), b.to_string()))
            })
            .collect();
        assert_eq!(
            rows,
            vec![(checker, op.to_owned(), by.to_owned())],
            "{name}"
        );
    }
}

/// Every target's plan, in both reduction configurations, instantiates
/// against the op table of a live system: no planned op lacks its real
/// implementation.
#[test]
fn op_tables_cover_plans_for_running_systems() {
    let clock: SharedClock = RealClock::shared();
    let server = kvs::KvsServer::for_tests();
    let cluster = minizk::Cluster::for_tests();
    let dn = miniblock::DataNode::start(
        miniblock::DataNodeConfig::default(),
        Arc::clone(&clock),
        SimDisk::for_tests(),
        SimNet::for_tests(),
    )
    .expect("datanode boots");
    let live = [
        (
            kvs::wd::describe_ir(),
            kvs::wd::op_table(&server),
            server.context(),
        ),
        (
            minizk::wd::describe_ir(),
            minizk::wd::op_table(&cluster),
            cluster.context(),
        ),
        (
            miniblock::wd::describe_ir(),
            miniblock::wd::op_table(&dn),
            dn.context(),
        ),
    ];
    for (ir, table, context) in live {
        for config in configs() {
            let plan = generate_plan(&ir, &config);
            let opts = InstantiateOptions::default();
            let checkers = instantiate(&plan, &table, &context.reader(), &clock, &opts)
                .unwrap_or_else(|e| panic!("{} {config:?}: {e}", ir.name));
            assert_eq!(checkers.len(), plan.checkers.len(), "{}", ir.name);
        }
    }
}
