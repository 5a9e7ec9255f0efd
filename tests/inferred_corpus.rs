//! Golden tests for the `wdog-infer` corpus.
//!
//! Each target gets a fixed synthetic trace-set — deterministic journals
//! shaped like that target's loops — and the [`InferenceReport`] mined
//! from it must match the JSON committed under
//! `tests/snapshots/inferred_<target>.json`, byte for byte. Any change to
//! the miner, the emitter's slack policy, or the `wdog-infer/v1` schema
//! shows up as a reviewable snapshot diff. Regenerate with
//! `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test inferred_corpus`.
//!
//! The live-recording analogue of the byte-stability claim (same seed →
//! same corpus from an actual simulated run) is covered by
//! `harness::infer`'s unit tests and the ci.sh double-run gate; this file
//! pins the pure record→mine→emit function.

use std::path::PathBuf;

use wdog_core::{CtxValue, TraceEvent, TraceEventKind};
use wdog_infer::{infer, InferenceReport, MinerConfig, TraceJournal, SCHEMA};

/// Per-target loop keys the synthetic traces publish under.
fn keys_for(target: &str) -> &'static [&'static str] {
    match target {
        "kvs" => &["wal_loop", "flusher_loop", "compaction_loop"],
        "minizk" => &[
            "request_processor_loop",
            "broadcast_loop",
            "snapshot_sync_loop",
        ],
        "miniblock" => &["report_loop", "scanner_loop", "ingest_loop"],
        _ => unreachable!("unknown target {target}"),
    }
}

/// Tiny deterministic LCG so the fixture needs no RNG dependency.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One synthetic journal: every key publishes on its own cadence with a
/// monotone counter, a bounded gauge, and a bounded payload — enough to
/// exercise range, len, delta, order, and staleness mining at once.
fn synthetic_journal(target: &str, run: u64) -> TraceJournal {
    let keys = keys_for(target);
    let mut state = run * 1_000_003 + 17;
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut counters = vec![0u64; keys.len()];
    for tick in 1..=60u64 {
        let at_us = tick * 5_000;
        for (k, key) in keys.iter().enumerate() {
            // Staggered cadences: key k publishes every k+1 ticks, so
            // later keys have wider (but still bounded) staleness gaps.
            if tick % (k as u64 + 1) != 0 {
                continue;
            }
            counters[k] += 1 + lcg(&mut state) % 3;
            seq += 1;
            events.push(TraceEvent {
                seq,
                at_us: at_us + k as u64,
                key: (*key).to_owned(),
                kind: TraceEventKind::Publish {
                    fields: vec![
                        ("ticks".to_owned(), CtxValue::U64(counters[k])),
                        (
                            "backlog".to_owned(),
                            CtxValue::I64((lcg(&mut state) % 40) as i64 - 8),
                        ),
                        (
                            "last_key".to_owned(),
                            CtxValue::Str(format!("n{}", lcg(&mut state) % 100)),
                        ),
                    ],
                },
            });
        }
    }
    TraceJournal::new(target, format!("synthetic-{run:03}"), run, events)
}

fn synthetic_journals(target: &str) -> Vec<TraceJournal> {
    (1..=3).map(|run| synthetic_journal(target, run)).collect()
}

fn report_for(target: &str) -> InferenceReport {
    infer(target, &synthetic_journals(target), &MinerConfig::default())
}

fn snapshot_path(target: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("inferred_{target}.json"))
}

const TARGETS: &[&str] = &["kvs", "minizk", "miniblock"];

#[test]
fn inferred_corpus_matches_committed_snapshots() {
    for target in TARGETS {
        let report = report_for(target);
        assert_eq!(report.schema, SCHEMA);
        let mut rendered = serde_json::to_string_pretty(&report).expect("report serializes");
        rendered.push('\n');
        let path = snapshot_path(target);
        if std::env::var_os("WDOG_UPDATE_SNAPSHOTS").is_some() {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read snapshot {}: {e}\n\
                 regenerate with `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test inferred_corpus`",
                path.display()
            )
        });
        assert_eq!(
            committed,
            rendered,
            "inferred corpus for `{target}` drifted from {}\n\
             review the diff, then regenerate with \
             `WDOG_UPDATE_SNAPSHOTS=1 cargo test --test inferred_corpus`",
            path.display()
        );
    }
}

#[test]
fn corpus_is_byte_stable_and_covers_every_invariant_family() {
    for target in TARGETS {
        let a = serde_json::to_vec(&report_for(target)).unwrap();
        let b = serde_json::to_vec(&report_for(target)).unwrap();
        assert_eq!(a, b, "corpus for `{target}` not byte-stable");

        let report = report_for(target);
        for kind in ["range", "len", "delta", "order", "staleness"] {
            assert!(
                report
                    .specs
                    .iter()
                    .any(|s| s.id.starts_with(&format!("{target}.inferred.{kind}."))),
                "synthetic trace-set for `{target}` mined no {kind} invariant",
            );
        }
        assert!(
            report.mined.len() >= 10,
            "only {} invariants for `{target}`",
            report.mined.len()
        );
        for (mined, spec) in report.mined.iter().zip(&report.specs) {
            assert_eq!(spec.id, format!("{target}.inferred.{}", mined.id()));
        }
    }
}
