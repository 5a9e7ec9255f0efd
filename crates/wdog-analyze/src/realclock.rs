//! The real-clock lint: no raw time calls in simulated code.
//!
//! The virtual-time substrate only delivers determinism if every sleep,
//! deadline, and timestamp in driver, recovery, and target-loop code goes
//! through the [`Clock`](wdog_base::clock::Clock) abstraction. A single raw
//! `Instant::now()` in a checker executor re-couples verdicts to host load;
//! a single raw `thread::sleep` freezes a discrete-event run (the clock
//! cannot see the block, so no actor can advance time past it).
//!
//! This pass token-scans production code (`#[cfg(test)]` modules are
//! skipped — tests may drive real threads) for the three escape hatches:
//! `Instant::now`, `SystemTime::now`, and `thread::sleep`. Files that are
//! *supposed* to touch real time — the `RealClock` implementation itself,
//! wall-clock teardown joins, the telemetry sidecar's overhead probe — are
//! allowlisted, each with a documented reason that the report carries.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::lexer::lex;

/// One raw time call in production code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RealClockFinding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the call.
    pub line: u32,
    /// The flagged pattern, e.g. `Instant::now`.
    pub pattern: String,
}

/// A file exempted from the lint, with the reason it may touch real time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RealClockExemption {
    /// Path suffix that identifies the file (e.g. `wdog-base/src/clock.rs`).
    pub suffix: String,
    /// Why this file legitimately reads the real clock.
    pub reason: String,
}

/// The full scan result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RealClockReport {
    /// Files scanned (after exemptions).
    pub scanned_files: usize,
    /// Raw time calls found outside test modules and exemptions.
    pub findings: Vec<RealClockFinding>,
    /// Exempted files that were actually skipped, with reasons.
    pub exempted: Vec<RealClockExemption>,
}

/// The documented set of files allowed to touch real time.
pub fn real_clock_exemptions() -> Vec<RealClockExemption> {
    let entry = |suffix: &str, reason: &str| RealClockExemption {
        suffix: suffix.to_owned(),
        reason: reason.to_owned(),
    };
    vec![
        entry(
            "wdog-base/src/clock.rs",
            "the RealClock implementation is the one sanctioned wrapper over raw time",
        ),
        entry(
            "wdog-base/src/join.rs",
            "teardown joins bound wedged OS threads in wall time, outside any virtual run",
        ),
        entry(
            "simio/src/vclock.rs",
            "the stall monitor watches a frozen virtual clock, so it must run on the real one",
        ),
        entry(
            "wdog-core/src/hooks.rs",
            "the telemetry sidecar's sampled hook-fire probe measures real overhead by design",
        ),
    ]
}

const PATTERNS: [(&str, &str); 3] = [
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("thread", "sleep"),
];

/// Scans one file's source for raw time calls outside `#[cfg(test)]`
/// blocks. The lexer already drops comments and keeps string literals as
/// opaque tokens, so doc text never false-positives.
pub fn scan_source(file: &str, src: &str) -> Vec<RealClockFinding> {
    let (tokens, _) = lex(src);
    let mut findings = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // `#[cfg(test)]` — skip the attached item's braced block.
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).and_then(|t| t.ident()) == Some("cfg")
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).and_then(|t| t.ident()) == Some("test")
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(']'))
        {
            i += 7;
            // Find the block opener, then skip to its matching brace.
            while i < tokens.len() && !tokens[i].is_punct('{') {
                i += 1;
            }
            let mut depth = 0usize;
            while i < tokens.len() {
                if tokens[i].is_punct('{') {
                    depth += 1;
                } else if tokens[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            continue;
        }
        if let Some(first) = tokens[i].ident() {
            for (head, tail) in PATTERNS {
                if first == head
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 3).and_then(|t| t.ident()) == Some(tail)
                {
                    findings.push(RealClockFinding {
                        file: file.to_owned(),
                        line: tokens[i].line,
                        pattern: format!("{head}::{tail}"),
                    });
                }
            }
        }
        i += 1;
    }
    findings
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every `.rs` file under the given crate roots. Paths in findings
/// are reported relative to `base` when possible.
pub fn scan_real_clock(base: &Path, roots: &[&str]) -> std::io::Result<RealClockReport> {
    let exemptions = real_clock_exemptions();
    let mut files = Vec::new();
    for root in roots {
        let dir = base.join(root);
        if dir.is_dir() {
            rust_files(&dir, &mut files)?;
        }
    }
    let mut report = RealClockReport {
        scanned_files: 0,
        findings: Vec::new(),
        exempted: Vec::new(),
    };
    for path in files {
        let label = path
            .strip_prefix(base)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if let Some(ex) = exemptions.iter().find(|e| label.ends_with(&e.suffix)) {
            report.exempted.push(ex.clone());
            continue;
        }
        report.scanned_files += 1;
        let src = std::fs::read_to_string(&path)?;
        report.findings.extend(scan_source(&label, &src));
    }
    Ok(report)
}

/// The production crate roots the lint covers: everything that can run
/// inside a virtual-time campaign.
pub const REAL_CLOCK_ROOTS: [&str; 9] = [
    "crates/wdog-base/src",
    "crates/simio/src",
    "crates/wdog-core/src",
    "crates/wdog-recover/src",
    "crates/wdog-target/src",
    "crates/faults/src",
    "crates/kvs/src",
    "crates/minizk/src",
    "crates/miniblock/src",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_each_pattern_with_lines() {
        let src = "fn f() {\n    let t = Instant::now();\n    std::thread::sleep(d);\n    let s = SystemTime::now();\n}\n";
        let found = scan_source("x.rs", src);
        let got: Vec<(u32, &str)> = found.iter().map(|f| (f.line, f.pattern.as_str())).collect();
        assert_eq!(
            got,
            vec![
                (2, "Instant::now"),
                (3, "thread::sleep"),
                (4, "SystemTime::now")
            ]
        );
    }

    #[test]
    fn skips_cfg_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::thread::sleep(d); }\n}\nfn h() { Instant::now(); }\n";
        let found = scan_source("x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].pattern, "Instant::now");
        assert_eq!(found[0].line, 6);
    }

    #[test]
    fn comments_and_strings_do_not_trip() {
        let src = "// calls Instant::now eventually\nfn f() { let s = \"thread::sleep\"; }\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn workspace_is_clean() {
        // The lint's own acceptance test: the production tree has no raw
        // time calls outside the documented exemptions.
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = scan_real_clock(&base, &REAL_CLOCK_ROOTS).unwrap();
        assert!(
            report.findings.is_empty(),
            "raw time calls in production code: {:?}",
            report.findings
        );
        assert!(report.scanned_files > 50, "scan missed most of the tree");
    }
}
