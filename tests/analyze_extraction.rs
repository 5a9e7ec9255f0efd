//! Golden tests for the `wdog-analyze` extraction pipeline.
//!
//! Four guarantees, layered:
//!
//! 1. **Snapshots** — the extracted [`wdog_analyze::ExtractedProgram`] for
//!    each target matches the JSON committed under `tests/snapshots/`.
//!    Any change to a target's source or to the extractor shows up as a
//!    reviewable snapshot diff. Regenerate with
//!    `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test analyze_extraction`.
//!    Each target's `describe_ir()` returns the snapshot's `ir`, so this
//!    test is what keeps the shipped watchdog equal to its source.
//! 2. **The shipped watchdog** — each target's default plan has exactly the
//!    checkers and op ids pinned below, every checker requires exactly the
//!    fields source fires into its context key, and every hook site source
//!    declares is a region the extractor saw fire.
//! 3. **The plan follows source** — dropping a `// wdog:` directive from a
//!    target's source moves the plan generated from it.
//! 4. **Line independence** — ops are named by callee + ordinal, never by
//!    line: shifting every function of a target down by two lines leaves
//!    every serialized analysis output byte-equal.

use std::collections::BTreeSet;
use std::path::PathBuf;

use harness::lint::run_analysis;
use wdog_analyze::extract::read_sources;
use wdog_analyze::{extract_model, extract_target, target_named, TargetConfig, TARGETS};
use wdog_gen::ir::OpKind;
use wdog_gen::plan::{generate_plan, WatchdogPlan};
use wdog_gen::reduce::ReductionConfig;
use wdog_target::WatchdogTarget;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.json"))
}

#[test]
fn extraction_matches_committed_snapshots() {
    for cfg in TARGETS {
        let name = cfg.name;
        let extracted = extract_target(cfg).expect("workspace sources readable");
        let mut rendered = serde_json::to_string_pretty(&extracted).expect("extraction serializes");
        rendered.push('\n');
        let path = snapshot_path(name);
        if std::env::var_os("WDOG_UPDATE_SNAPSHOTS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read snapshot {}: {e}\n\
                 regenerate with `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test analyze_extraction`",
                path.display()
            )
        });
        assert_eq!(
            committed,
            rendered,
            "extraction for `{name}` drifted from {}\n\
             review the change, then regenerate with \
             `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test analyze_extraction`",
            path.display()
        );
    }
}

/// A checker's name and its op ids, in the order it runs them.
type Checker = (&'static str, &'static [&'static str]);

/// Each target's default checkers, in plan order.
const SHIPPED: &[(&str, &[Checker])] = &[
    (
        "kvs",
        &[
            (
                "compaction_loop_checker",
                &[
                    "compact_once#lock",
                    "read_sstable#read",
                    "compact_once#sst_merge_write",
                ],
            ),
            ("flusher_loop_checker", &["write_sstable#fsync"]),
            ("listener_loop_checker", &["handle_request#index_put"]),
            ("replication_loop_checker", &["replication_loop#send"]),
            (
                "wal_loop_checker",
                &[
                    "wal_loop#lock",
                    "append_record#append",
                    "append_record#fsync",
                ],
            ),
        ],
    ),
    (
        "minizk",
        &[
            ("broadcast_loop_checker", &["broadcast_loop#send"]),
            (
                "request_processor_loop_checker",
                &[
                    "sync_txn#append",
                    "sync_txn#fsync",
                    "final_apply#tree_write_lock",
                ],
            ),
            (
                "snapshot_sync_loop_checker",
                &["with_locked_data#lock", "serialize_snapshot#write_record"],
            ),
        ],
    ),
    (
        "miniblock",
        &[
            ("heartbeat_loop_checker", &["heartbeat_loop#send"]),
            (
                "ingest_loop_checker",
                &["write_block#write_all", "write_block#fsync"],
            ),
            ("scanner_loop_checker", &["validate_path#read"]),
        ],
    ),
];

fn shipped_targets() -> [&'static dyn WatchdogTarget; 3] {
    [
        &kvs::target::KvsTarget,
        &minizk::target::ZkTarget,
        &miniblock::target::DnTarget,
    ]
}

/// `plan`'s checkers as `(name, op ids)`.
fn checker_ops(plan: &WatchdogPlan) -> Vec<(&str, Vec<&str>)> {
    plan.checkers
        .iter()
        .map(|c| {
            let ids = c.ops.iter().map(|o| o.op_id.as_str()).collect();
            (c.name.as_str(), ids)
        })
        .collect()
}

#[test]
fn default_plans_ship_the_pinned_checkers_reading_what_source_fires() {
    for target in shipped_targets() {
        let ir = target.describe_ir();
        let plan = generate_plan(&ir, &ReductionConfig::default());
        let (_, pinned) = SHIPPED
            .iter()
            .find(|(name, _)| *name == target.name())
            .expect("every target is pinned");
        let pinned: Vec<(&str, Vec<&str>)> =
            pinned.iter().map(|(c, ops)| (*c, ops.to_vec())).collect();
        assert_eq!(checker_ops(&plan), pinned, "{}", target.name());
        for c in &plan.checkers {
            let fired: Vec<&str> = ir
                .regions_fired
                .get(&c.context_key)
                .into_iter()
                .flatten()
                .map(String::as_str)
                .collect();
            assert_eq!(c.required_fields, fired, "{}.{}", target.name(), c.name);
        }
    }
}

/// The context keys `src` passes to `.site("…")`.
fn site_keys(src: &str) -> impl Iterator<Item = &str> {
    src.split(".site(\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
}

#[test]
fn every_hook_site_in_source_is_a_fired_region() {
    // The extractor skips macro bodies: a site fired only where it cannot
    // see would drop its region, and its checker, from the watchdog.
    for target in shipped_targets() {
        let cfg = target_named(target.name()).unwrap();
        let sources = read_sources(cfg).expect("workspace sources readable");
        let declared: BTreeSet<&str> = sources.iter().flat_map(|(_, src)| site_keys(src)).collect();
        let ir = target.describe_ir();
        let fired: BTreeSet<&str> = ir.regions_fired.keys().map(String::as_str).collect();
        assert_eq!(declared, fired, "{}", target.name());
    }
}

#[test]
fn kvs_binds_cover_exactly_the_ops_they_are_written_for() {
    // kvs's index body and E6's `op_table_unsynced` read body are bound to
    // a `(kind, resource)`: each must match exactly the one op it copies.
    let ir = kvs::wd::describe_ir();
    let ops_on = |kind: OpKind, resource: &str| -> Vec<String> {
        ir.functions
            .values()
            .flat_map(|f| f.ops.iter().map(move |o| (f, o)))
            .filter(|(_, o)| o.kind == kind && o.resource.as_deref() == Some(resource))
            .map(|(f, o)| format!("{}#{}", f.name, o.name))
            .collect()
    };
    assert_eq!(
        ops_on(OpKind::Compute, "index"),
        ["handle_request#index_put"]
    );
    assert_eq!(ops_on(OpKind::DiskRead, "sst/"), ["read_sstable#read"]);
}

/// `target`'s sources with every line containing `needle` dropped from
/// the file ending in `file`.
fn without_line(target: &TargetConfig, file: &str, needle: &str) -> Vec<(String, String)> {
    let mut sources = read_sources(target).expect("workspace sources readable");
    let (_, src) = sources
        .iter_mut()
        .find(|(path, _)| path.ends_with(file))
        .unwrap_or_else(|| panic!("{}: no {file}", target.name));
    let kept: Vec<&str> = src.lines().filter(|l| !l.contains(needle)).collect();
    assert!(
        kept.len() < src.lines().count(),
        "{file}: no line has {needle:?}"
    );
    *src = kept.join("\n");
    sources
}

/// The op ids of `checker` in the default plan of `target` over `sources`.
fn ops_of(target: &TargetConfig, sources: &[(String, String)], checker: &str) -> Vec<String> {
    let extracted = extract_model(target.name, target.model(sources, true));
    let plan = generate_plan(&extracted.ir, &ReductionConfig::default());
    let c = plan.checkers.iter().find(|c| c.name == checker);
    c.map(|c| c.ops.iter().map(|o| o.op_id.to_string()).collect())
        .unwrap_or_default()
}

#[test]
fn the_2201_lock_comes_from_its_directive() {
    // Without its directive, extraction sees no lock in `final_apply`
    // (`create`/`set_data` are ambiguous names), so the request path's
    // checker loses the ZOOKEEPER-2201 detector.
    let zk = target_named("minizk").unwrap();
    let checker = "request_processor_loop_checker";
    let lock = "final_apply#tree_write_lock";
    let ops = ops_of(zk, &read_sources(zk).unwrap(), checker);
    assert!(ops.iter().any(|o| o == lock), "{ops:?}");
    let sources = without_line(zk, "processors.rs", "wdog: vulnerable name=tree_write_lock");
    let ops = ops_of(zk, &sources, checker);
    assert!(!ops.iter().any(|o| o == lock), "{ops:?}");
}

#[test]
fn the_wal_checker_keeps_its_ops_through_the_flushers_ignore_directives() {
    // The flusher's region sorts before `wal_loop`: without the directive
    // on its WAL rotation, global dedup hands the WAL write to it.
    let kvs = target_named("kvs").unwrap();
    let before = ops_of(kvs, &read_sources(kvs).unwrap(), "wal_loop_checker");
    let sources = without_line(kvs, "flusher.rs", "wdog: ignore -- WAL rotation;");
    let after = ops_of(kvs, &sources, "wal_loop_checker");
    assert_eq!(after.len(), before.len() - 1, "{before:?} -> {after:?}");
}

/// `src` with a blank line and a `// shifted` comment inserted at the top
/// and above every `fn` (above its doc comments, attributes and `// wdog:`
/// directives, which stay adjacent to it).
fn shifted(src: &str) -> String {
    const SHIFT: &str = "\n// shifted\n";
    let lines: Vec<&str> = src.lines().collect();
    let is_decl = |line: &str| {
        let mut words = line
            .split_whitespace()
            .skip_while(|w| w.starts_with("pub") || ["const", "async", "unsafe"].contains(w));
        words.next() == Some("fn")
    };
    let is_prefix = |line: &str| {
        let t = line.trim_start();
        t.starts_with("//") || t.starts_with("#[")
    };
    let mut marks = BTreeSet::from([0]);
    for (i, line) in lines.iter().enumerate() {
        if is_decl(line) {
            let mut j = i;
            while j > 0 && is_prefix(lines[j - 1]) {
                j -= 1;
            }
            marks.insert(j);
        }
    }
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if marks.contains(&i) {
            out.push_str(SHIFT);
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn analysis_is_invariant_under_line_shifts() {
    for t in TARGETS {
        let sources = read_sources(t).expect("workspace sources readable");
        let moved: Vec<(String, String)> = sources
            .iter()
            .map(|(path, src)| (path.clone(), shifted(src)))
            .collect();
        assert_ne!(sources, moved, "{}: the shift moved no line", t.name);
        let render = |sources: &[(String, String)]| {
            let b = run_analysis(t, sources);
            let extracted = extract_model(t.name, t.model(sources, true));
            [
                ("extraction", serde_json::to_string_pretty(&extracted)),
                ("safety", serde_json::to_string_pretty(&b.safety)),
                ("locks", serde_json::to_string_pretty(&b.locks)),
            ]
            .map(|(what, json)| (what, json.expect("analysis output serializes")))
        };
        for ((what, before), (_, after)) in render(&sources).into_iter().zip(render(&moved)) {
            assert_eq!(
                before, after,
                "{}: {what} moved with the source lines",
                t.name
            );
        }
    }
}
