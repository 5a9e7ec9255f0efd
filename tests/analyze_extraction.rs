//! Golden tests for the `wdog-analyze` extraction pipeline.
//!
//! Four guarantees, layered:
//!
//! 1. **Snapshots** — the extracted [`wdog_analyze::ExtractedProgram`] for
//!    each target matches the JSON committed under `tests/snapshots/`.
//!    Any change to a target's source or to the extractor shows up as a
//!    reviewable snapshot diff. Regenerate with
//!    `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test analyze_extraction`.
//! 2. **Reduction parity** — reducing the extracted IR yields the same
//!    per-class vulnerable-op counts as reducing the hand-written
//!    `describe_ir()`. The two IR sources agree not just op by op but
//!    through the whole pipeline.
//! 3. **The coverage gate** — deleting an op from a `describe_ir()` leaves
//!    real source sites uncovered, and deleting the directive that names
//!    minizk's request-path lock leaves the described lock unmatched in
//!    its region: either makes `wdog-lint` exit non-zero in CI.
//! 4. **Line independence** — ops are named by callee + ordinal, never by
//!    line: shifting every function of a target down by two lines leaves
//!    every serialized analysis output byte-equal.

use std::collections::BTreeSet;
use std::path::PathBuf;

use harness::lint::{lint_targets, load_blind_spots, run_analysis, LintTarget};
use wdog_analyze::{coverage_matrix, extract_model, extract_target, target_named, CoverageStatus};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::{class_counts, reduce_program, ReductionConfig};

const TARGETS: &[&str] = &["kvs", "minizk", "miniblock"];

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.json"))
}

#[test]
fn extraction_matches_committed_snapshots() {
    for name in TARGETS {
        let cfg = target_named(name).expect("builtin target");
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

#[test]
fn extracted_and_described_irs_reduce_to_the_same_class_counts() {
    let cfg = ReductionConfig::default();
    for t in lint_targets() {
        let described = (t.describe)();
        let extracted = extract_target(target_named(t.name).unwrap()).unwrap();
        let described_counts = class_counts(&reduce_program(&described, &cfg));
        let extracted_counts = class_counts(&reduce_program(&extracted.ir, &cfg));
        assert_eq!(
            described_counts, extracted_counts,
            "per-class reduced op counts diverge for `{}`",
            t.name
        );
    }
}

#[test]
fn deleting_a_described_op_names_the_missing_source_site() {
    let mut described = kvs::wd::describe_ir();
    let f = described
        .functions
        .get_mut("wal_write_record")
        .expect("kvs describes wal_write_record");
    let before = f.ops.len();
    f.ops.retain(|o| o.name != "wal_append");
    assert_eq!(f.ops.len(), before - 1, "wal_append was described");

    let plan = generate_plan(&described, &ReductionConfig::default());
    let extracted = extract_target(target_named("kvs").unwrap()).unwrap();
    let matrix = coverage_matrix(&extracted, &plan, &[]);

    let uncovered: Vec<&str> = matrix
        .regions
        .iter()
        .flat_map(|r| &r.ops)
        .filter(|o| o.status == CoverageStatus::Uncovered)
        .map(|o| o.op_id.as_str())
        .collect();
    assert!(
        !uncovered.is_empty(),
        "deleted op must leave source uncovered"
    );
    let violations = matrix.violations();
    for op in uncovered {
        let site = extracted
            .sites
            .get(op)
            .unwrap_or_else(|| panic!("uncovered row `{op}` keys no source site"));
        assert!(
            site.file.starts_with("crates/kvs/src/"),
            "source site should be in the kvs crate, got {}",
            site.file
        );
        assert!(
            violations.iter().any(|v| v.contains(op)),
            "the gate names `{op}`: {violations:?}"
        );
    }
}

/// `target`'s sources with every line containing `needle` dropped from
/// the file ending in `file`.
fn without_line(target: &LintTarget, file: &str, needle: &str) -> Vec<(String, String)> {
    let mut sources = target.sources().expect("workspace sources readable");
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

fn minizk() -> LintTarget {
    lint_targets()
        .into_iter()
        .find(|t| t.name == "minizk")
        .expect("minizk is a lint target")
}

#[test]
fn the_2201_lock_must_be_matched_in_its_own_region() {
    // Without its directive, extraction sees no lock in `final_apply`
    // (`create`/`set_data` are ambiguous names). The snapshot region's
    // `write_lock` acquisition must not stand in for it.
    let t = minizk();
    let sources = without_line(&t, "processors.rs", "wdog: vulnerable name=tree_write_lock");
    let violations = run_analysis(&t, &sources, &[]).coverage.violations();
    assert_eq!(
        violations,
        [
            "request_processor_loop: described op final_apply#tree_write_lock has no same-kind, \
          same-resource op in the region's source"
        ]
    );
}

#[test]
fn an_undescribed_source_region_fails_the_gate() {
    let t = minizk();
    let sources = without_line(&t, "quorum.rs", "wdog: ignore -- liveness responder");
    let coverage = run_analysis(&t, &sources, &[]).coverage;
    assert_eq!(coverage.not_described, ["responder_loop"]);
    let violations = coverage.violations();
    assert!(
        violations.contains(&"source region `responder_loop` is not described".to_owned()),
        "{violations:?}"
    );
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
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/chaos_corpus");
    for t in lint_targets() {
        let cfg = target_named(t.name).expect("builtin target");
        let sources = t.sources().expect("workspace sources readable");
        let moved: Vec<(String, String)> = sources
            .iter()
            .map(|(path, src)| (path.clone(), shifted(src)))
            .collect();
        assert_ne!(sources, moved, "{}: the shift moved no line", t.name);
        let spots = load_blind_spots(&corpus, t.name).expect("corpus parses");
        let render = |sources: &[(String, String)]| {
            let b = run_analysis(&t, sources, &spots);
            let extracted = extract_model(cfg.name, cfg.model(sources, true));
            [
                ("extraction", serde_json::to_string_pretty(&extracted)),
                ("safety", serde_json::to_string_pretty(&b.safety)),
                ("locks", serde_json::to_string_pretty(&b.locks)),
                ("coverage", serde_json::to_string_pretty(&b.coverage)),
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
