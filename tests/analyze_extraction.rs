//! Golden tests for the `wdog-analyze` extraction pipeline.
//!
//! Three guarantees, layered:
//!
//! 1. **Snapshots** — the extracted [`wdog_analyze::ExtractedProgram`] for
//!    each target matches the JSON committed under `tests/snapshots/`.
//!    Any change to a target's source or to the extractor shows up as a
//!    reviewable snapshot diff. Regenerate with
//!    `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test analyze_extraction`.
//! 2. **Reduction parity** — reducing the extracted IR (restricted to the
//!    described regions) yields the same per-class vulnerable-op counts as
//!    reducing the hand-written `describe_ir()`. The two IR sources agree
//!    not just at the drift-key level but through the whole pipeline.
//! 3. **Deletion detection** — removing one op from a `describe_ir()`
//!    produces a denied `missing-from-description` finding that names the
//!    real source site, which is exactly what makes `wdog-lint` exit
//!    non-zero in CI.
//! 4. **Line independence** — ops are named by callee + ordinal, never by
//!    line: shifting every function of a target down by two lines leaves
//!    every serialized analysis output byte-equal.

use std::collections::BTreeSet;
use std::path::PathBuf;

use harness::lint::{lint_targets, load_blind_spots, run_analysis, run_lint};
use wdog_analyze::{compare, extract_model, extract_target, restrict_to_regions, target_named};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::{class_counts, reduce_program, ReductionConfig};
use wdog_gen::vulnerable::VulnerabilityRules;
use wdog_gen::DriftKind;

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
    let rules = VulnerabilityRules::default();
    let cfg = ReductionConfig::default();
    for t in lint_targets() {
        let described = (t.describe)();
        let extracted = extract_target(target_named(t.name).unwrap()).unwrap();
        // Restrict to the described regions: regions only the extractor
        // sees are drift findings, not reduction inputs.
        let entries: BTreeSet<String> = described
            .functions
            .values()
            .filter(|f| f.long_running)
            .map(|f| f.name.clone())
            .collect();
        let restricted = restrict_to_regions(&extracted.ir, &entries);
        let described_counts = class_counts(&reduce_program(&described, &cfg), &rules);
        let extracted_counts = class_counts(&reduce_program(&restricted, &cfg), &rules);
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
    let mut report = compare(
        &described,
        &plan,
        &extracted,
        &VulnerabilityRules::default(),
    );
    report.apply_allowlist(&kvs::wd::drift_allowlist());

    assert!(!report.is_clean(), "deleted op must be denied drift");
    let finding = report
        .denied()
        .into_iter()
        .find(|f| f.kind == DriftKind::MissingFromDescription)
        .expect("deletion surfaces as missing-from-description");
    let src = finding
        .source
        .as_ref()
        .expect("finding points at the real source site");
    // Drift keys match globally, so the representative site may be any
    // WAL-writing call — `Wal::append_record` itself or the flusher's
    // rotation path. Either way it names real kvs source.
    assert!(
        src.file.starts_with("crates/kvs/src/"),
        "source site should be in the kvs crate, got {}",
        src.file
    );
    assert!(
        extracted.sites.get(&finding.subject) == Some(src),
        "the finding's op id `{}` keys its source site",
        finding.subject
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
            let drift = run_lint(&t, sources);
            [
                ("extraction", serde_json::to_string_pretty(&extracted)),
                ("safety", serde_json::to_string_pretty(&b.safety)),
                ("locks", serde_json::to_string_pretty(&b.locks)),
                ("coverage", serde_json::to_string_pretty(&b.coverage)),
                ("drift", serde_json::to_string_pretty(&drift)),
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
