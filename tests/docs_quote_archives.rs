//! The docs quote their archives instead of copying them by hand.
//!
//! A fenced block tagged `archive:results/<file>.txt` in a doc holds lines
//! of that archive verbatim, and they must occur in it as one contiguous
//! run of lines: a table that drifts from the run that produced it fails
//! here, not in a reader's hands. README's `wdog-infer` console lines are
//! rendered again from the inference archive and compared.

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The archives EXPERIMENTS quotes its E1, E2, E3b, E4 and E6 tables from.
const QUOTED: [&str; 5] = [
    "results/table1.txt",
    "results/table2.txt",
    "results/reduction.txt",
    "results/zk2201.txt",
    "results/ablations.txt",
];

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Every `archive:` block of `text`: the archive it names and its lines.
fn archive_blocks(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut blocks = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if let Some(archive) = line.trim_start().strip_prefix("```archive:") {
            let body = lines
                .by_ref()
                .take_while(|l| !l.trim_start().starts_with("```"));
            blocks.push((archive.trim(), body.collect()));
        }
    }
    blocks
}

#[test]
fn quoted_archive_blocks_occur_verbatim_in_their_archives() {
    let mut quoted = Vec::new();
    let mut drifted = Vec::new();
    for doc in DOCS {
        let doc_text = read(doc);
        for (archive, block) in archive_blocks(&doc_text) {
            let text = read(archive);
            let lines: Vec<&str> = text.lines().collect();
            if block.is_empty() || !lines.windows(block.len()).any(|w| w == block.as_slice()) {
                drifted.push(format!("{doc}: block quoting {archive}"));
            }
            quoted.push(archive.to_owned());
        }
    }
    assert!(
        drifted.is_empty(),
        "doc blocks that are not a run of their archive's lines: {drifted:#?}"
    );
    for archive in QUOTED {
        assert!(
            quoted.iter().any(|q| q == archive),
            "no doc quotes {archive}"
        );
    }
}

/// README's `[wdog-infer] <target>: …` console lines, rendered again from
/// `results/inferred/inferred_<target>.json`: every number they quote is
/// the archive's.
#[test]
fn readme_quotes_the_inference_archive() {
    let readme = read("README.md");
    let mut quoted = 0;
    for line in readme.lines() {
        let Some((_, rest)) = line.split_once("[wdog-infer] ") else {
            continue;
        };
        let (target, text) = rest
            .split_once(": ")
            .unwrap_or_else(|| panic!("README line without `<target>: `: {line}"));
        let archive = format!("results/inferred/inferred_{target}.json");
        let artifact: harness::infer::InferArtifact = serde_json::from_str(&read(&archive))
            .unwrap_or_else(|e| panic!("{archive} does not parse: {e}"));
        let inference = &artifact.inference;
        let mut lines = vec![format!(
            "{} events -> {} invariants -> {} specs",
            inference.events,
            inference.mined.len(),
            inference.specs.len()
        )];
        if let Some(score) = &artifact.score {
            lines.push(format!(
                "{} missed schedules archived, {} rescored, {} fault flips",
                score.missed_schedules,
                score.rescored,
                score.flips.len()
            ));
        }
        assert!(
            lines.iter().any(|l| l == text),
            "README quotes `{text}` for {target}; {archive} renders {lines:#?}"
        );
        quoted += 1;
    }
    assert!(quoted > 0, "README quotes no `[wdog-infer]` line");
}
