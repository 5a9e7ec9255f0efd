//! The minizk recovery map: broadcast restarts, shedding, and verification
//! re-checks for the closed-loop recovery coordinator.
//!
//! The restartable component is the commit broadcaster — the one leader
//! loop that owns no irreplaceable state (its queue outlives it), so §5.2
//! component restart applies cleanly. The snapshot-sync and txn-pipeline
//! components cannot be unilaterally respawned (a wedged sync holds real
//! node locks), so their recovery path is retry-and-verify: each verifier
//! exercises the same substrate resource (the follower link, the txnlog
//! volume, the full write pipeline) the blaming checker watched, and passes
//! only once the fault is actually gone.

use std::sync::Arc;

use wdog_base::error::BaseError;
use wdog_base::isolation::PROBE_FRAME;

use wdog_target::{Handle, RecoveryMap, Verifier};

use crate::quorum::{follower_addr, Cluster, LEADER_ADDR};
use crate::wd::TXNLOG_PROBE_PATH;

/// Node the recovery verifier round-trips through (created on demand).
const RECOVER_PROBE_NODE: &str = "/__wd_recover";

/// Builds the recovery map of a running cluster.
pub fn recovery_map(cluster: &Arc<Cluster>) -> RecoveryMap {
    let (c, shared) = (Arc::clone(cluster), Arc::clone(cluster.shared()));
    let restart = Handle::new("broadcast", move || c.restart_broadcast());
    let c = Arc::clone(cluster);
    let shed = Handle::new("broadcast", move || c.degrade_broadcast());

    // Both the broadcaster and the snapshot sync ship frames to followers
    // over the same simulated network; a probe frame fate-shares with a
    // blocked or erroring link.
    let link = Verifier::new("minizk.verify.link", move || {
        shared
            .net
            .send(LEADER_ADDR, &follower_addr(0), PROBE_FRAME.into())
    });
    // The pipeline's vulnerable ops are the txnlog append + fsync; a probe
    // write on the same volume wedges or errors while the disk fault is
    // still armed.
    let shared = Arc::clone(cluster.shared());
    let txnlog = Verifier::new("minizk.verify.txnlog", move || {
        shared
            .disk
            .append(TXNLOG_PROBE_PATH, b"rv")
            .and_then(|()| shared.disk.fsync(TXNLOG_PROBE_PATH))
    });
    // Process-level blame: the shallow ruok plus a full write round trip
    // through the pipeline (which a wedged processor fails).
    let c = Arc::clone(cluster);
    let process = Verifier::new("minizk.verify.process", move || {
        if c.admin_ruok() != "imok" {
            return Err(BaseError::InvalidState("ruok got no imok".into()));
        }
        let _ = c.create(RECOVER_PROBE_NODE, b"rv");
        c.set_data(RECOVER_PROBE_NODE, b"rv")?;
        match c.get_data(RECOVER_PROBE_NODE)? {
            v if v == b"rv" => Ok(()),
            v => Err(BaseError::Corruption(format!(
                "round trip read back {} B",
                v.len()
            ))),
        }
    });

    RecoveryMap::new(Arc::clone(&cluster.shared().clock))
        .with(
            &["minizk.broadcast_loop", "minizk.quorum"],
            Some(&restart),
            Some(&shed),
            &link,
        )
        .with(&["minizk.snapshot_sync_loop"], None, None, &link)
        .with(
            &["minizk.request_processor_loop", "minizk.processors"],
            None,
            None,
            &txnlog,
        )
        .with(&["minizk.api"], None, None, &process)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wdog_base::ids::ComponentId;

    fn wait_for(mut pred: impl FnMut() -> bool, what: &str) {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn broadcast_restart_spawns_fresh_generation() {
        let cluster = Arc::new(Cluster::for_tests());
        cluster.create("/a", b"1").unwrap();
        let surface = recovery_map(&cluster).surface();
        surface
            .restart
            .restart(&ComponentId::new("minizk.broadcast_loop"));
        assert_eq!(cluster.broadcast_restarts(), 1);
        // The fresh generation keeps shipping commits to followers.
        let before = cluster.stats().commits_broadcast;
        cluster.set_data("/a", b"2").unwrap();
        wait_for(
            || cluster.stats().commits_broadcast > before,
            "fresh broadcast generation to ship a commit",
        );
    }

    #[test]
    fn degrade_sheds_broadcast_but_leader_keeps_serving() {
        let cluster = Arc::new(Cluster::for_tests());
        cluster.create("/a", b"1").unwrap();
        let surface = recovery_map(&cluster).surface();
        surface.degrade.degrade(&ComponentId::new("minizk.quorum"));
        assert!(cluster.broadcast_degraded());
        cluster.set_data("/a", b"2").unwrap();
        assert_eq!(cluster.get_data("/a").unwrap(), b"2");
    }

    #[test]
    fn verifiers_cover_every_blamable_component() {
        let cluster = Arc::new(Cluster::for_tests());
        let map = recovery_map(&cluster);
        let ids: Vec<ComponentId> = map.ids().cloned().collect();
        let factory = map.surface().verifier;
        for c in &ids {
            let mut checker = factory(c).unwrap_or_else(|| panic!("no verifier for {c}"));
            assert!(checker.check().is_pass(), "healthy verify failed for {c}");
        }
        // The substring aliases that used to resolve are gone.
        for c in ["something.else", "minizk", "minizk.commit"] {
            assert!(
                factory(&ComponentId::new(c)).is_none(),
                "{c} has a verifier"
            );
        }
    }

    #[test]
    fn txnlog_verifier_fails_while_disk_errors() {
        use simio::disk::{DiskFault, DiskOpKind, FaultRule};
        let cluster = Arc::new(Cluster::for_tests());
        let disk = Arc::clone(&cluster.shared().disk);
        let handle = disk.inject(FaultRule::scoped(
            "txnlog/",
            vec![DiskOpKind::Write],
            DiskFault::Error {
                message: "verify-probe".into(),
            },
        ));
        let factory = recovery_map(&cluster).surface().verifier;
        let mut checker = factory(&ComponentId::new("minizk.request_processor_loop")).unwrap();
        assert!(!checker.check().is_pass());
        disk.clear(handle);
        assert!(checker.check().is_pass());
    }
}
