//! The gray-failure scenario catalogue driving experiments E1 and E2.
//!
//! Each scenario names a failure from the paper's motivation — partial disk
//! failure, limplock/fail-slow, state corruption, stuck
//! background tasks, runtime pauses — together with where it is injected and
//! what a detector should say about it (failure class and the exact ids a
//! correct report blames). Campaign runners iterate this list; scoring
//! compares detector reports against [`ExpectedDetection`].

use serde::{Deserialize, Serialize};

use crate::spec::FaultKind;

/// What a correct detector should report for a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedDetection {
    /// The failure class label a report should carry
    /// (`stuck`/`slow`/`error`/`corruption`/`assert`).
    pub failure_class: String,
    /// The exact component and operation ids a correct report blames: a
    /// report blames the fault when its location's component or operation
    /// is one of them.
    pub blames: Vec<String>,
}

/// One named fault scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Stable id used in tables, e.g. `partial-disk-stuck`.
    pub id: String,
    /// Human description.
    pub description: String,
    /// The paper or system the failure class comes from.
    pub citation: String,
    /// What to inject.
    pub kind: FaultKind,
    /// What a correct detection looks like.
    pub expected: ExpectedDetection,
}

/// Where in a target system faults land, and which faults it takes.
///
/// Every target boots on the simulated disk and network and has a crash
/// hook, so the substrate scenarios and the crash baseline apply to all of
/// them; the cooperative ones only to a target whose profile has a
/// [`Cooperative`] section. Each target's `target.rs` builds its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetProfile {
    /// WAL path prefix on the target's disk.
    pub wal_prefix: String,
    /// SSTable/partition path prefix.
    pub sst_prefix: String,
    /// Replication link source address.
    pub replica_src: String,
    /// Replication link destination address.
    pub replica_dst: String,
    /// Ids a WAL-volume fault is blamed on.
    pub wal_blames: Vec<String>,
    /// Ids a data-volume (SSTable) fault is blamed on.
    pub sst_blames: Vec<String>,
    /// Ids a replication-link fault is blamed on.
    pub replication_blames: Vec<String>,
    /// Ids a whole-process fault is blamed on: every component the
    /// target's recovery map holds.
    pub process_blames: Vec<String>,
    /// The target's cooperative fault surface, `None` when its code polls
    /// no fault toggles and has no stall point.
    pub cooperative: Option<Cooperative>,
}

/// Fault toggles a target's own code polls, with the ids each fault is
/// blamed on; a target with this section also wires a process stall point
/// (the runtime-pause analog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cooperative {
    /// Toggle name for the stuck-background-task scenario.
    pub stuck_task_toggle: String,
    /// Toggle name for the busy-loop scenario.
    pub busy_loop_toggle: String,
    /// Toggle name for the logic-corruption scenario.
    pub corruption_toggle: String,
    /// Toggle name for the memory-leak scenario.
    pub leak_toggle: String,
    /// Ids a compaction fault is blamed on.
    pub compaction_blames: Vec<String>,
    /// Ids an index-corruption fault is blamed on.
    pub index_blames: Vec<String>,
    /// Ids a memory leak is blamed on.
    pub memory_blames: Vec<String>,
}

/// Owned copies of `ids`, for a profile's blame lists.
pub fn ids(list: &[&str]) -> Vec<String> {
    list.iter().map(|&id| id.to_owned()).collect()
}

/// Builds the gray-failure catalogue for a target: the substrate
/// scenarios, then the cooperative ones when `p` has that section, then the
/// crash baseline.
pub fn gray_failure_catalog(p: &TargetProfile) -> Vec<Scenario> {
    let mut catalog = vec![
        Scenario {
            id: "partial-disk-stuck".into(),
            description: "WAL volume I/O hangs; data volume healthy".into(),
            citation: "IRON file systems (SOSP '05); gray failure (HotOS '17)".into(),
            kind: FaultKind::DiskStuck {
                path_prefix: p.wal_prefix.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "stuck".into(),
                blames: p.wal_blames.clone(),
            },
        },
        Scenario {
            id: "disk-fail-slow".into(),
            description: "SSTable volume 2000x slower (limplock precursor)".into(),
            citation: "limplock (SoCC '13); fail-slow at scale (FAST '18)".into(),
            kind: FaultKind::DiskSlow {
                path_prefix: p.sst_prefix.clone(),
                factor: 2000.0,
            },
            expected: ExpectedDetection {
                failure_class: "slow".into(),
                blames: p.sst_blames.clone(),
            },
        },
        Scenario {
            id: "disk-error".into(),
            description: "WAL writes return explicit I/O errors".into(),
            citation: "IRON file systems (SOSP '05)".into(),
            kind: FaultKind::DiskError {
                path_prefix: p.wal_prefix.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "error".into(),
                blames: p.wal_blames.clone(),
            },
        },
        Scenario {
            id: "disk-bit-rot".into(),
            description: "SSTable writes silently corrupted".into(),
            citation: "practical hardening of crash-tolerant systems (ATC '12)".into(),
            kind: FaultKind::DiskCorruptWrites {
                path_prefix: p.sst_prefix.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "corruption".into(),
                blames: p.sst_blames.clone(),
            },
        },
        Scenario {
            id: "replication-link-wedged".into(),
            description: "sends to the replica block indefinitely".into(),
            citation: "ZOOKEEPER-2201; gray failure (HotOS '17)".into(),
            kind: FaultKind::NetBlockSend {
                src: p.replica_src.clone(),
                dst: p.replica_dst.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "stuck".into(),
                blames: p.replication_blames.clone(),
            },
        },
        Scenario {
            id: "replication-fail-slow".into(),
            description: "replica link 1000x slower".into(),
            citation: "fail-slow at scale (FAST '18)".into(),
            kind: FaultKind::NetSlow {
                src: p.replica_src.clone(),
                dst: p.replica_dst.clone(),
                factor: 1000.0,
            },
            expected: ExpectedDetection {
                failure_class: "slow".into(),
                blames: p.replication_blames.clone(),
            },
        },
    ];
    if let Some(c) = &p.cooperative {
        catalog.extend([
            Scenario {
                id: "background-task-stuck".into(),
                description: "compaction silently stops making progress".into(),
                citation: "paper §1 (Cassandra SSTable compaction stuck)".into(),
                kind: FaultKind::TaskStuck {
                    toggle: c.stuck_task_toggle.clone(),
                },
                expected: ExpectedDetection {
                    failure_class: "stuck".into(),
                    blames: c.compaction_blames.clone(),
                },
            },
            Scenario {
                id: "busy-loop".into(),
                description: "compaction spins in an infinite loop".into(),
                citation: "paper §2 (WDT error targets)".into(),
                kind: FaultKind::TaskBusyLoop {
                    toggle: c.busy_loop_toggle.clone(),
                },
                expected: ExpectedDetection {
                    failure_class: "stuck".into(),
                    blames: c.compaction_blames.clone(),
                },
            },
            Scenario {
                id: "state-corruption".into(),
                description: "indexer starts writing corrupt entries".into(),
                citation: "practical hardening (ATC '12); CFI (CCS '05)".into(),
                kind: FaultKind::LogicCorruption {
                    toggle: c.corruption_toggle.clone(),
                },
                expected: ExpectedDetection {
                    failure_class: "corruption".into(),
                    blames: c.index_blames.clone(),
                },
            },
            Scenario {
                id: "memory-leak".into(),
                description: "request path leaks allocations".into(),
                citation: "HBASE-21228".into(),
                kind: FaultKind::MemoryLeak {
                    toggle: c.leak_toggle.clone(),
                },
                expected: ExpectedDetection {
                    failure_class: "assert".into(),
                    blames: c.memory_blames.clone(),
                },
            },
            Scenario {
                id: "runtime-pause".into(),
                description: "8-second stop-the-world pause (GC analog)".into(),
                citation: "IGNITE-6171; paper §3.3".into(),
                kind: FaultKind::RuntimePause { millis: 8_000 },
                expected: ExpectedDetection {
                    failure_class: "slow".into(),
                    blames: p.process_blames.clone(),
                },
            },
        ]);
    }
    catalog.push(Scenario {
        id: "process-crash".into(),
        description: "whole process stops (fail-stop baseline)".into(),
        citation: "Chandra-Toueg failure detectors (JACM '96)".into(),
        kind: FaultKind::ProcessCrash,
        expected: ExpectedDetection {
            failure_class: "stuck".into(),
            blames: p.process_blames.clone(),
        },
    });
    catalog
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A profile on a kvs-like layout, with or without a cooperative
    /// section.
    pub(crate) fn profile(cooperative: bool) -> TargetProfile {
        TargetProfile {
            wal_prefix: "wal/".into(),
            sst_prefix: "sst/".into(),
            replica_src: "primary".into(),
            replica_dst: "replica".into(),
            wal_blames: ids(&["wal_loop"]),
            sst_blames: ids(&["write_sstable#fsync"]),
            replication_blames: ids(&["replication_loop"]),
            process_blames: ids(&["api", "wal_loop"]),
            cooperative: cooperative.then(|| Cooperative {
                stuck_task_toggle: "compaction.stuck".into(),
                busy_loop_toggle: "compaction.busyloop".into(),
                corruption_toggle: "indexer.corrupt".into(),
                leak_toggle: "listener.leak".into(),
                compaction_blames: ids(&["compaction_loop"]),
                index_blames: ids(&["listener_loop"]),
                memory_blames: ids(&["api"]),
            }),
        }
    }

    fn scenario_ids(p: &TargetProfile) -> Vec<String> {
        gray_failure_catalog(p).into_iter().map(|s| s.id).collect()
    }

    const SUBSTRATE: [&str; 6] = [
        "partial-disk-stuck",
        "disk-fail-slow",
        "disk-error",
        "disk-bit-rot",
        "replication-link-wedged",
        "replication-fail-slow",
    ];

    #[test]
    fn without_a_cooperative_section_only_substrate_and_crash_remain() {
        let mut expected = SUBSTRATE.to_vec();
        // The crash baseline applies to every target.
        expected.push("process-crash");
        assert_eq!(scenario_ids(&profile(false)), expected);
    }

    #[test]
    fn a_cooperative_section_adds_its_five_before_the_crash() {
        let mut expected = SUBSTRATE.to_vec();
        expected.extend([
            "background-task-stuck",
            "busy-loop",
            "state-corruption",
            "memory-leak",
            "runtime-pause",
            "process-crash",
        ]);
        assert_eq!(scenario_ids(&profile(true)), expected);
    }

    #[test]
    fn catalogue_has_all_failure_families() {
        let cat = gray_failure_catalog(&profile(true));
        let labels: Vec<&str> = cat.iter().map(|s| s.kind.label()).collect();
        for family in [
            "disk-stuck",
            "disk-slow",
            "disk-error",
            "disk-corrupt",
            "net-block",
            "net-slow",
            "task-stuck",
            "busy-loop",
            "logic-corrupt",
            "memory-leak",
            "runtime-pause",
            "crash",
        ] {
            assert!(labels.contains(&family), "missing {family}");
        }
    }

    #[test]
    fn exactly_one_non_gray_scenario() {
        for cooperative in [false, true] {
            let cat = gray_failure_catalog(&profile(cooperative));
            let non_gray = cat.iter().filter(|s| !s.kind.is_gray()).count();
            assert_eq!(non_gray, 1, "only the crash baseline is non-gray");
        }
    }

    #[test]
    fn profile_reaches_into_scenarios() {
        let p = TargetProfile {
            wal_prefix: "journal/".into(),
            ..profile(true)
        };
        let cat = gray_failure_catalog(&p);
        let stuck = cat.iter().find(|s| s.id == "partial-disk-stuck").unwrap();
        assert_eq!(
            stuck.kind,
            FaultKind::DiskStuck {
                path_prefix: "journal/".into()
            }
        );
        let leak = cat.iter().find(|s| s.id == "memory-leak").unwrap();
        assert_eq!(leak.expected.blames, ["api"]);
    }

    #[test]
    fn scenarios_serialize_roundtrip() {
        let cat = gray_failure_catalog(&profile(true));
        let json = serde_json::to_string(&cat).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }
}
