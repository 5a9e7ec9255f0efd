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
    /// Whether the fault is liveness-flavoured (never signals explicitly).
    pub liveness: bool,
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

/// Where in the target system faults should land.
///
/// Defaults match the `kvs` target; the `minizk` experiments construct their
/// own profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetProfile {
    /// WAL path prefix on the target's disk.
    pub wal_prefix: String,
    /// SSTable/partition path prefix.
    pub sst_prefix: String,
    /// Replication link source address.
    pub replica_src: String,
    /// Replication link destination address.
    pub replica_dst: String,
    /// Toggle name for the stuck-background-task scenario.
    pub stuck_task_toggle: String,
    /// Toggle name for the busy-loop scenario.
    pub busy_loop_toggle: String,
    /// Toggle name for the logic-corruption scenario.
    pub corruption_toggle: String,
    /// Toggle name for the memory-leak scenario.
    pub leak_toggle: String,
    /// Ids a WAL-volume fault is blamed on.
    pub wal_blames: Vec<String>,
    /// Ids a data-volume (SSTable) fault is blamed on.
    pub sst_blames: Vec<String>,
    /// Ids a replication-link fault is blamed on.
    pub replication_blames: Vec<String>,
    /// Ids a compaction fault is blamed on.
    pub compaction_blames: Vec<String>,
    /// Ids an index-corruption fault is blamed on.
    pub index_blames: Vec<String>,
    /// Ids a memory leak is blamed on.
    pub memory_blames: Vec<String>,
    /// Ids a whole-process fault is blamed on: every component the
    /// target's recovery map holds.
    pub process_blames: Vec<String>,
}

/// Owned copies of `ids`, for a profile's blame lists.
pub fn ids(list: &[&str]) -> Vec<String> {
    list.iter().map(|&id| id.to_owned()).collect()
}

impl Default for TargetProfile {
    fn default() -> Self {
        Self {
            wal_prefix: "wal/".into(),
            sst_prefix: "sst/".into(),
            replica_src: "kvs-primary".into(),
            replica_dst: "kvs-replica".into(),
            stuck_task_toggle: "kvs.compaction.stuck".into(),
            busy_loop_toggle: "kvs.compaction.busyloop".into(),
            corruption_toggle: "kvs.indexer.corrupt".into(),
            leak_toggle: "kvs.listener.leak".into(),
            wal_blames: ids(&["kvs.wal_loop", "kvs.flusher"]),
            sst_blames: ids(&[
                "flush_once#sst_sync",
                "compact_once#sst_read",
                "compact_once#sst_merge_write",
            ]),
            replication_blames: ids(&["kvs.replication_loop", "kvs.replication"]),
            compaction_blames: ids(&["kvs.compaction_loop"]),
            index_blames: ids(&["kvs.listener_loop"]),
            memory_blames: ids(&["kvs"]),
            process_blames: ids(&[
                "kvs",
                "kvs.api",
                "kvs.compaction_loop",
                "kvs.flusher",
                "kvs.flusher_loop",
                "kvs.listener",
                "kvs.listener_loop",
                "kvs.replication",
                "kvs.replication_loop",
                "kvs.wal_loop",
            ]),
        }
    }
}

/// Builds the standard gray-failure catalogue for a target.
pub fn gray_failure_catalog(p: &TargetProfile) -> Vec<Scenario> {
    vec![
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
                liveness: true,
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
                liveness: true,
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
                liveness: false,
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
                liveness: false,
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
                liveness: true,
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
                liveness: true,
            },
        },
        Scenario {
            id: "background-task-stuck".into(),
            description: "compaction silently stops making progress".into(),
            citation: "paper §1 (Cassandra SSTable compaction stuck)".into(),
            kind: FaultKind::TaskStuck {
                toggle: p.stuck_task_toggle.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "stuck".into(),
                blames: p.compaction_blames.clone(),
                liveness: true,
            },
        },
        Scenario {
            id: "busy-loop".into(),
            description: "compaction spins in an infinite loop".into(),
            citation: "paper §2 (WDT error targets)".into(),
            kind: FaultKind::TaskBusyLoop {
                toggle: p.busy_loop_toggle.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "stuck".into(),
                blames: p.compaction_blames.clone(),
                liveness: true,
            },
        },
        Scenario {
            id: "state-corruption".into(),
            description: "indexer starts writing corrupt entries".into(),
            citation: "practical hardening (ATC '12); CFI (CCS '05)".into(),
            kind: FaultKind::LogicCorruption {
                toggle: p.corruption_toggle.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "corruption".into(),
                blames: p.index_blames.clone(),
                liveness: false,
            },
        },
        Scenario {
            id: "memory-leak".into(),
            description: "request path leaks allocations".into(),
            citation: "HBASE-21228".into(),
            kind: FaultKind::MemoryLeak {
                toggle: p.leak_toggle.clone(),
            },
            expected: ExpectedDetection {
                failure_class: "assert".into(),
                blames: p.memory_blames.clone(),
                liveness: false,
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
                liveness: true,
            },
        },
        Scenario {
            id: "process-crash".into(),
            description: "whole process stops (fail-stop baseline)".into(),
            citation: "Chandra-Toueg failure detectors (JACM '96)".into(),
            kind: FaultKind::ProcessCrash,
            expected: ExpectedDetection {
                failure_class: "stuck".into(),
                blames: p.process_blames.clone(),
                liveness: true,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_all_failure_families() {
        let cat = gray_failure_catalog(&TargetProfile::default());
        assert!(cat.len() >= 10, "catalogue too small: {}", cat.len());
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
    fn ids_are_unique() {
        let cat = gray_failure_catalog(&TargetProfile::default());
        let mut ids: Vec<&str> = cat.iter().map(|s| s.id.as_str()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn exactly_one_non_gray_scenario() {
        let cat = gray_failure_catalog(&TargetProfile::default());
        let non_gray = cat.iter().filter(|s| !s.kind.is_gray()).count();
        assert_eq!(non_gray, 1, "only the crash baseline is non-gray");
    }

    #[test]
    fn liveness_scenarios_have_liveness_classes() {
        let cat = gray_failure_catalog(&TargetProfile::default());
        for s in &cat {
            if s.expected.liveness {
                assert!(
                    s.expected.failure_class == "stuck" || s.expected.failure_class == "slow",
                    "{}: liveness scenario with class {}",
                    s.id,
                    s.expected.failure_class
                );
            }
        }
    }

    #[test]
    fn profile_reaches_into_scenarios() {
        let p = TargetProfile {
            wal_prefix: "journal/".into(),
            ..TargetProfile::default()
        };
        let cat = gray_failure_catalog(&p);
        let stuck = cat.iter().find(|s| s.id == "partial-disk-stuck").unwrap();
        assert_eq!(
            stuck.kind,
            FaultKind::DiskStuck {
                path_prefix: "journal/".into()
            }
        );
    }

    #[test]
    fn scenarios_serialize_roundtrip() {
        let cat = gray_failure_catalog(&TargetProfile::default());
        let json = serde_json::to_string(&cat).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }
}
