//! The HDFS disk-checker evolution (paper Table 2's case study).
//!
//! Two generations of the same checker, as a before/after of the mimic
//! principle:
//!
//! - [`LegacyDiskChecker`] — what HDFS shipped first: "only checked
//!   directory permissions". It inspects volume *metadata* (the `.volume`
//!   marker exists, the namespace lists) and never touches the data path —
//!   so a wedged, erroring, or silently corrupting volume that still has
//!   intact metadata looks perfectly healthy.
//! - [`EnhancedDiskChecker`] — HADOOP-13738: "create some files and invoke
//!   functions from the DataNode main program to do real I/O in a similar
//!   way". It writes a probe block through the same [`BlockStore`] code on
//!   the same volume, syncs, reads back, validates the checksum, and
//!   deletes — catching stuck, slow, erroring, and bit-rotting volumes,
//!   and naming the volume in the report.

use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::ids::{CheckerId, ComponentId};

use wdog_core::prelude::*;

use crate::block::BlockStore;

/// The metadata-only volume checker (pre-HADOOP-13738).
pub struct LegacyDiskChecker {
    store: Arc<BlockStore>,
}

impl LegacyDiskChecker {
    /// Creates the legacy checker over `store`.
    pub fn new(store: Arc<BlockStore>) -> Self {
        Self { store }
    }
}

impl Checker for LegacyDiskChecker {
    fn id(&self) -> CheckerId {
        CheckerId::new("dn.disk_checker.legacy")
    }

    fn component(&self) -> ComponentId {
        ComponentId::new("dn.volumes")
    }

    fn check(&mut self) -> CheckStatus {
        for v in self.store.volumes() {
            // Metadata only: marker exists and the volume namespace lists.
            let marker = format!("blocks/{v}/.volume");
            if !self.store.disk().exists(&marker) {
                return CheckStatus::Fail(CheckFailure::new(
                    FailureKind::Error,
                    FaultLocation::new("dn.volumes", format!("indicator:volume:{v}")),
                    format!("volume marker missing for {v}"),
                ));
            }
            let _ = self.store.list_volume(v);
        }
        CheckStatus::Pass
    }
}

/// The real-I/O mimic-type volume checker (HADOOP-13738).
pub struct EnhancedDiskChecker {
    store: Arc<BlockStore>,
    clock: SharedClock,
    slow_threshold: Duration,
    probe: Option<ExecutionProbe>,
    round: u64,
}

impl EnhancedDiskChecker {
    /// Creates the enhanced checker over `store`.
    pub fn new(store: Arc<BlockStore>, clock: SharedClock, slow_threshold: Duration) -> Self {
        Self {
            store,
            clock,
            slow_threshold,
            probe: None,
            round: 0,
        }
    }

    // CheckFailure is a large-but-cold error: it exists only on the failure
    // path, where allocation cost is irrelevant next to reporting.
    #[allow(clippy::result_large_err)]
    fn probe_volume(&self, volume: &str) -> Result<(), CheckFailure> {
        let disk = self.store.disk();
        let path = format!("blocks/{volume}/__wd_probe_enhanced");
        let payload = format!("probe-round-{}", self.round);
        let location = |op: &str| {
            FaultLocation::new("dn.volumes", "volume_probe")
                .with_op(format!("volume_probe#{op}:{volume}"))
        };
        let started = self.clock.now();

        // The real write path: write, sync, read back, validate, delete —
        // the same operations DataNode block ingest performs.
        let mut file = Vec::with_capacity(4 + payload.len());
        file.extend_from_slice(&wdog_base::checksum::crc32(payload.as_bytes()).to_le_bytes());
        file.extend_from_slice(payload.as_bytes());
        if let Some(p) = &self.probe {
            p.enter(location("write"));
        }
        disk.write_all(&path, &file).map_err(|e| {
            CheckFailure::new(
                FailureKind::from_error(&e),
                location("write"),
                e.to_string(),
            )
        })?;
        if let Some(p) = &self.probe {
            p.enter(location("sync"));
        }
        disk.fsync(&path).map_err(|e| {
            CheckFailure::new(FailureKind::from_error(&e), location("sync"), e.to_string())
        })?;
        if let Some(p) = &self.probe {
            p.enter(location("read"));
        }
        self.store.validate_path(&path).map_err(|e| {
            CheckFailure::new(FailureKind::from_error(&e), location("read"), e.to_string())
        })?;
        let _ = disk.remove(&path);
        if let Some(p) = &self.probe {
            p.exit();
        }

        let elapsed = self.clock.now().saturating_sub(started);
        if elapsed > self.slow_threshold {
            return Err(CheckFailure::new(
                FailureKind::Slow,
                location("write"),
                format!(
                    "volume probe took {} ms (threshold {} ms)",
                    elapsed.as_millis(),
                    self.slow_threshold.as_millis()
                ),
            )
            .with_latency_ms(elapsed.as_millis() as u64));
        }
        Ok(())
    }
}

impl Checker for EnhancedDiskChecker {
    fn id(&self) -> CheckerId {
        CheckerId::new("dn.disk_checker.enhanced")
    }

    fn component(&self) -> ComponentId {
        ComponentId::new("dn.volumes")
    }

    fn attach_probe(&mut self, probe: ExecutionProbe) {
        self.probe = Some(probe);
    }

    fn check(&mut self) -> CheckStatus {
        self.round += 1;
        for v in self.store.volumes().to_vec() {
            if let Err(f) = self.probe_volume(&v) {
                return CheckStatus::Fail(f);
            }
        }
        CheckStatus::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::disk::{DiskFault, DiskOpKind, FaultRule, SimDisk};
    use wdog_base::clock::RealClock;

    fn store_with_markers() -> Arc<BlockStore> {
        let store = Arc::new(BlockStore::new(SimDisk::for_tests(), 2));
        for v in store.volumes().to_vec() {
            store
                .disk()
                .write_all(&format!("blocks/{v}/.volume"), b"ok")
                .unwrap();
        }
        store
    }

    fn data_fault(volume: &str, fault: DiskFault) -> FaultRule {
        FaultRule::scoped(
            format!("blocks/{volume}/"),
            vec![DiskOpKind::Read, DiskOpKind::Write, DiskOpKind::Sync],
            fault,
        )
    }

    #[test]
    fn both_checkers_pass_on_healthy_volumes() {
        let store = store_with_markers();
        let mut legacy = LegacyDiskChecker::new(Arc::clone(&store));
        let mut enhanced =
            EnhancedDiskChecker::new(store, RealClock::shared(), Duration::from_millis(200));
        assert!(legacy.check().is_pass());
        assert!(enhanced.check().is_pass());
    }

    #[test]
    fn legacy_misses_data_path_errors_enhanced_catches_them() {
        let store = store_with_markers();
        store.disk().inject(data_fault(
            "vol0",
            DiskFault::Error {
                message: "dead platter".into(),
            },
        ));
        let mut legacy = LegacyDiskChecker::new(Arc::clone(&store));
        let mut enhanced = EnhancedDiskChecker::new(
            Arc::clone(&store),
            RealClock::shared(),
            Duration::from_millis(200),
        );
        // The paper's point, in one assertion pair.
        assert!(legacy.check().is_pass(), "legacy checker saw the fault?!");
        let CheckStatus::Fail(f) = enhanced.check() else {
            panic!("enhanced checker missed a dead volume");
        };
        assert_eq!(f.kind, FailureKind::Error);
        assert_eq!(probed_volume(&f), Some("vol0"), "{}", f.location);
    }

    /// The volume a probe failure blames, from its `volume_probe#<op>:<volume>`
    /// operation.
    fn probed_volume(f: &CheckFailure) -> Option<&str> {
        let op = f.location.operation.as_ref()?.as_str();
        op.rsplit_once(':').map(|(_, volume)| volume)
    }

    #[test]
    fn legacy_misses_silent_corruption_enhanced_catches_it() {
        let store = store_with_markers();
        store
            .disk()
            .inject(data_fault("vol1", DiskFault::CorruptWrites));
        let mut legacy = LegacyDiskChecker::new(Arc::clone(&store));
        let mut enhanced = EnhancedDiskChecker::new(
            Arc::clone(&store),
            RealClock::shared(),
            Duration::from_millis(200),
        );
        assert!(legacy.check().is_pass());
        let CheckStatus::Fail(f) = enhanced.check() else {
            panic!("enhanced checker missed bit rot");
        };
        assert_eq!(f.kind, FailureKind::Corruption);
        assert_eq!(probed_volume(&f), Some("vol1"), "{}", f.location);
    }

    #[test]
    fn legacy_catches_only_metadata_damage() {
        let store = store_with_markers();
        store.disk().remove("blocks/vol0/.volume").unwrap();
        let mut legacy = LegacyDiskChecker::new(store);
        assert!(legacy.check().is_fail());
    }

    #[test]
    fn enhanced_flags_fail_slow_volumes() {
        // Slow detection needs a latency-modelled disk (a slow-down factor
        // over zero base latency is still zero).
        let clock = RealClock::shared();
        let disk = SimDisk::new(
            1 << 30,
            simio::LatencyModel::new(30.0, 9),
            Arc::clone(&clock),
        );
        let store = Arc::new(BlockStore::new(disk, 1));
        store
            .disk()
            .write_all("blocks/vol0/.volume", b"ok")
            .unwrap();
        store.disk().inject(FaultRule::scoped(
            "blocks/vol0/",
            vec![DiskOpKind::Write, DiskOpKind::Sync, DiskOpKind::Read],
            DiskFault::Slow { factor: 3000.0 },
        ));
        let mut enhanced = EnhancedDiskChecker::new(store, clock, Duration::from_millis(20));
        let CheckStatus::Fail(f) = enhanced.check() else {
            panic!("enhanced checker missed the fail-slow volume");
        };
        assert_eq!(f.kind, FailureKind::Slow);
    }
}
