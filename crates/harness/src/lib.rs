//! Experiment harness: one module (and one binary) per paper artifact.
//!
//! | Module | Paper artifact | Binary |
//! |---|---|---|
//! | [`table1`] | Table 1 — detection matrix across abstractions | `table1` |
//! | [`table2`] | Table 2 — probe vs signal vs mimic | `table2` |
//! | [`reduction`] | Figures 2–3 — program logic reduction | `reduction` |
//! | [`zk2201`] | §4.2 — the ZOOKEEPER-2201 reproduction | `zk2201` |
//! | [`ablations`] | §3.1/§3.3 design choices (E6) | `ablations` |
//! | [`recovery`] | §5.2 — closed-loop recovery campaign | `wdog-recovery` |
//! | [`chaos`] | randomized fault-schedule fuzzing of the checkers | `wdog-chaos` |
//! | [`infer`] | trace-driven checker inference (record→mine→emit→score) | `wdog-infer` |
//!
//! Each experiment returns a serde-serializable result struct; binaries
//! print the paper-style table *and* write the raw JSON next to it (under
//! `results/`) so EXPERIMENTS.md numbers are regenerable.

pub mod ablations;
pub mod chaos;
pub mod cli;
pub mod fmt;
pub mod infer;
pub mod lint;
pub mod recovery;
pub mod reduction;
pub mod scenario;
pub mod session;
pub mod table1;
pub mod table2;
pub mod zk2201;

use wdog_target::WatchdogTarget;

/// Resolves a `--target` flag value to campaign targets.
///
/// Accepts the name of any registered target or `all`; returns `None` for
/// unknown names so binaries can print usage.
pub fn select_targets(name: &str) -> Option<Vec<Box<dyn WatchdogTarget>>> {
    match name {
        "kvs" => Some(vec![Box::new(kvs::target::KvsTarget)]),
        "minizk" => Some(vec![Box::new(minizk::target::ZkTarget)]),
        "miniblock" => Some(vec![Box::new(miniblock::target::DnTarget)]),
        "all" => Some(vec![
            Box::new(kvs::target::KvsTarget),
            Box::new(minizk::target::ZkTarget),
            Box::new(miniblock::target::DnTarget),
        ]),
        _ => None,
    }
}

/// The JSON artifact name for a campaign result: the bare experiment name
/// for the historical kvs default, suffixed for other targets.
pub fn result_name(experiment: &str, target: &str) -> String {
    if target == "kvs" {
        experiment.to_owned()
    } else {
        format!("{experiment}-{target}")
    }
}

/// Writes `text` to `<dir>/<file>`, creating `dir`. Failures are reported
/// but non-fatal: printing the table matters more than archiving it.
fn write_under(dir: &std::path::Path, file: &str, text: &str) -> bool {
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Writes an experiment result as pretty JSON to `<dir>/<name>.json` (the
/// campaign binaries' `--out` root).
pub fn write_json_under(dir: &std::path::Path, name: &str, value: &impl serde::Serialize) {
    let file = format!("{name}.json");
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if write_under(dir, &file, &json) {
                println!("\n[raw results written to {}]", dir.join(file).display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Removes a stale `<dir>/<name>.err` sidecar after a successful run.
///
/// `.err` files are stderr redirects external runners leave next to the
/// JSON artifacts when a bin fails (no bin writes one itself), so nothing
/// deleted them either — a sidecar from a long-fixed failure could sit
/// beside a fresh, successful artifact forever. Every artifact bin calls
/// this on success so a committed sidecar always describes the *latest*
/// run; CI additionally refuses to pass while any `.err` is tracked in the
/// repo.
pub fn clear_err_sidecar_under(dir: &std::path::Path, name: &str) {
    let path = dir.join(format!("{name}.err"));
    if !path.exists() {
        return;
    }
    match std::fs::remove_file(&path) {
        Ok(()) => println!("[removed stale error sidecar {}]", path.display()),
        Err(e) => eprintln!("warning: cannot remove {}: {e}", path.display()),
    }
}

/// An experiment's shape check: the violations of a result, and the note
/// printed after `shape check: OK` when there are none.
pub type ShapeCheck<'a, R> = (fn(&R) -> Vec<String>, &'a str);

/// What every table binary does with one finished experiment: print the
/// rendered table and the shape verdict when the experiment has one, and
/// archive both as `<out>/<name>.txt` and the raw result as
/// `<out>/<name>.json`. Returns whether the experiment ran and its shape
/// held; a failed run is reported on stderr.
fn emit_table<R: serde::Serialize>(
    out: &std::path::Path,
    name: &str,
    outcome: wdog_base::error::BaseResult<R>,
    render: fn(&R) -> String,
    shape: Option<ShapeCheck<'_, R>>,
) -> bool {
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{name} failed: {e}");
            return false;
        }
    };
    let mut text = format!("{}\n", render(&result));
    let violations = shape.map_or_else(Vec::new, |(violations, ok_note)| {
        let violations = violations(&result);
        if violations.is_empty() {
            text.push_str(&format!("shape check: OK{ok_note}\n"));
        } else {
            text.push_str("shape check: VIOLATIONS\n");
            for v in &violations {
                text.push_str(&format!("  - {v}\n"));
            }
        }
        violations
    });
    print!("{text}");
    write_under(out, &format!("{name}.txt"), &text);
    write_json_under(out, name, &result);
    violations.is_empty()
}

/// The whole of a per-target scenario-table binary (`table1`, `table2`): for
/// every `--target`, run the experiment and `emit_table` it as
/// `<bin>[-<target>]`. The shape verdict applies to kvs only — the target
/// the catalogue's expectations were calibrated on.
pub fn table_campaign<R: serde::Serialize>(
    bin: &'static str,
    run: impl Fn(&dyn WatchdogTarget, &scenario::RunnerOptions) -> wdog_base::error::BaseResult<R>,
    render: fn(&R) -> String,
    shape: ShapeCheck<'_, R>,
) {
    let usage = "[--target {kvs|minizk|miniblock|all}] [--seed N] [--out DIR]";
    let cli = cli::CampaignCli::parse(bin, usage, &["--target", "--seed", "--out"]);
    let out = cli.out_dir();
    let mut failed = false;
    for target in cli.targets("kvs") {
        let name = target.name();
        let opts = scenario::RunnerOptions {
            seed: cli.seed(),
            ..Default::default()
        };
        let ran = emit_table(
            &out,
            &result_name(bin, name),
            run(target.as_ref(), &opts),
            render,
            (name == "kvs").then_some(shape),
        );
        failed |= !ran;
    }
    close_tables(&out, bin, failed);
}

/// The whole of a one-subject table binary (`reduction`, `zk2201`,
/// `ablations`): run, `emit_table` as `<out>/<bin>.json`, close.
pub fn single_table<R: serde::Serialize>(
    bin: &'static str,
    run: impl FnOnce() -> wdog_base::error::BaseResult<R>,
    render: fn(&R) -> String,
    shape: ShapeCheck<'_, R>,
) {
    let cli = cli::CampaignCli::parse(bin, "[--out DIR]", &["--out"]);
    let out = cli.out_dir();
    let ran = emit_table(&out, bin, run(), render, Some(shape));
    close_tables(&out, bin, !ran);
}

/// Closes a table binary's run: exits [`cli::EXIT_GATE`] if any experiment
/// failed, otherwise clears the binary's stale `<out>/<bin>.err` sidecar.
fn close_tables(out: &std::path::Path, bin: &str, failed: bool) {
    if failed {
        std::process::exit(cli::EXIT_GATE);
    }
    clear_err_sidecar_under(out, bin);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearing_a_sidecar_leaves_other_directories_alone() {
        let root = std::env::temp_dir().join(format!("harness-sidecar-{}", std::process::id()));
        let (archive, scratch) = (root.join("results"), root.join("scratch"));
        for (dir, text) in [
            (&archive, "archived run failed"),
            (&scratch, "scratch run failed"),
        ] {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join("recovery.err"), text).unwrap();
        }

        clear_err_sidecar_under(&scratch, "recovery");

        assert!(!scratch.join("recovery.err").exists());
        assert!(archive.join("recovery.err").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_shape_violation_fails_the_table_and_is_archived() {
        let out = std::env::temp_dir().join(format!("harness-shape-{}", std::process::id()));
        let shape: ShapeCheck<'_, u32> = (|_| vec!["the paper's claim broke".into()], "");

        assert!(!emit_table(
            &out,
            "claim",
            Ok(7),
            |n| format!("{n}\n"),
            Some(shape)
        ));

        let text = std::fs::read_to_string(out.join("claim.txt")).unwrap();
        assert_eq!(
            text,
            "7\n\nshape check: VIOLATIONS\n  - the paper's claim broke\n"
        );
        std::fs::remove_dir_all(&out).unwrap();
    }
}
