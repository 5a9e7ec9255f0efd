//! Cross-crate checks on the AutoWatchdog pipeline: every target system's
//! IR, plan, op table, and hook wiring must stay mutually consistent.

use std::collections::BTreeSet;

use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::ReductionConfig;

fn plans() -> Vec<(wdog_gen::ir::ProgramIr, wdog_gen::plan::WatchdogPlan)> {
    let config = ReductionConfig::default();
    vec![
        (
            kvs::wd::describe_ir(),
            generate_plan(&kvs::wd::describe_ir(), &config),
        ),
        (
            minizk::wd::describe_ir(),
            generate_plan(&minizk::wd::describe_ir(), &config),
        ),
    ]
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
fn every_hook_sits_before_a_retained_op_with_matching_fields() {
    for (ir, plan) in plans() {
        for hook in &plan.hooks {
            let func = ir.function(&hook.function).expect("hook function exists");
            let op = func
                .ops
                .iter()
                .find(|o| o.name == hook.before_op)
                .expect("hook target op exists");
            let op_args: BTreeSet<&str> = op.args.iter().map(|a| a.name.as_str()).collect();
            for field in &hook.publishes {
                assert!(
                    op_args.contains(field.name.as_str()),
                    "{}: hook before {} publishes {} which the op does not take",
                    ir.name,
                    hook.before_op,
                    field.name
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

#[test]
fn no_initialization_code_is_ever_checked() {
    for (ir, plan) in plans() {
        for checker in &plan.checkers {
            for op in &checker.ops {
                let func = ir.function(&op.function).unwrap();
                assert!(
                    !func.init_only,
                    "{}: init code checked: {}",
                    ir.name, op.op_id
                );
            }
        }
    }
}

#[test]
fn checker_required_fields_cover_every_op_arg() {
    for (_, plan) in plans() {
        for checker in &plan.checkers {
            let required: BTreeSet<&str> = checker
                .required_fields
                .iter()
                .map(|a| a.name.as_str())
                .collect();
            for op in &checker.ops {
                for arg in &op.args {
                    assert!(
                        required.contains(arg.name.as_str()),
                        "{}: arg {} of {} missing from required fields",
                        checker.name,
                        arg.name,
                        op.op_id
                    );
                }
            }
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
        assert!(!plan.hooks.is_empty(), "{}: no hooks", ir.name);
        // The reduction thesis: well under half of all ops survive.
        assert!(plan.reduced.stats.retention_ratio() < 0.5, "{}", ir.name);
    }
}

#[test]
fn dedup_ablation_strictly_increases_retained_ops() {
    let full = ReductionConfig::default();
    let off = ReductionConfig {
        dedupe_similar: false,
        global_reduction: false,
    };
    for ir in [kvs::wd::describe_ir(), minizk::wd::describe_ir()] {
        let a = generate_plan(&ir, &full).reduced.stats.ops_retained;
        let b = generate_plan(&ir, &off).reduced.stats.ops_retained;
        assert!(b > a, "{}: dedup had no effect ({a} vs {b})", ir.name);
    }
}

#[test]
fn op_tables_cover_plans_for_running_systems() {
    // kvs.
    let server = kvs::KvsServer::for_tests();
    let table = kvs::wd::op_table(&server);
    let plan = generate_plan(&kvs::wd::describe_ir(), &ReductionConfig::default());
    for c in &plan.checkers {
        for op in &c.ops {
            assert!(
                table.get(op.op_id.as_str()).is_some(),
                "kvs missing {}",
                op.op_id
            );
        }
    }
    // minizk.
    let cluster = minizk::Cluster::for_tests();
    let table = minizk::wd::op_table(&cluster);
    let plan = generate_plan(&minizk::wd::describe_ir(), &ReductionConfig::default());
    for c in &plan.checkers {
        for op in &c.ops {
            assert!(
                table.get(op.op_id.as_str()).is_some(),
                "minizk missing {}",
                op.op_id
            );
        }
    }
}
