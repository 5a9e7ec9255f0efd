//! The miniblock recovery map: DataNode component restarts, shedding, and
//! verification re-checks for the closed-loop recovery coordinator.
//!
//! The heartbeat and scanner loops are individually restartable — each
//! owns only a flag and rebuilds its working set from `DnShared` on
//! respawn, the easy case for §5.2 component restart. Ingest has no
//! background thread, so block-path blame recovers by retry-and-verify
//! against the volume itself.

use std::sync::Arc;

use wdog_base::clock::spawn_on;
use wdog_base::isolation::PROBE_FRAME;

use wdog_target::{Handle, RecoveryMap, Verifier};

use crate::datanode::{heartbeat_loop, scanner_loop, DataNode};
use crate::namenode::NAMENODE_ADDR;

/// Volume path the disk verifier probes (skipped by the scanner).
const RECOVER_PROBE_PATH: &str = "blocks/vol1/__wd_recover";

/// Builds the recovery map of a running DataNode.
pub fn recovery_map(datanode: &Arc<DataNode>) -> RecoveryMap {
    let s = datanode.shared();
    // Restarts retire the loop's generation and spawn a fresh one; sheds
    // retire it with no replacement while block ingest keeps serving.
    let s2 = Arc::clone(s);
    let heartbeat = Handle::new("heartbeat", move || {
        let (s3, alive) = (Arc::clone(&s2), s2.supervisor.heartbeat.next_generation());
        spawn_on(&s2.clock, "dn-heartbeat", move || heartbeat_loop(s3, alive));
    });
    let s2 = Arc::clone(s);
    let scanner = Handle::new("scanner", move || {
        let (s3, alive) = (Arc::clone(&s2), s2.supervisor.scanner.next_generation());
        spawn_on(&s2.clock, "dn-scanner", move || scanner_loop(s3, alive));
    });
    let s2 = Arc::clone(s);
    let shed_heartbeat = Handle::new("heartbeat", move || s2.supervisor.heartbeat.shed());
    let s2 = Arc::clone(s);
    let shed_scanner = Handle::new("scanner", move || s2.supervisor.scanner.shed());

    // Block-path blame: a probe write + sync on the faulted volume wedges
    // or errors exactly like ingest and the scanner do.
    let disk = Arc::clone(s.store.disk());
    let volume = Verifier::new("miniblock.verify.volume", move || {
        disk.append(RECOVER_PROBE_PATH, b"rv")
            .and_then(|()| disk.fsync(RECOVER_PROBE_PATH))
    });
    // NameNode-link blame: the op table's probe frame on the same link.
    // The NameNode ignores it, so verifying never refreshes its liveness
    // view of this DataNode the way a real heartbeat would.
    let s2 = Arc::clone(s);
    let link = Verifier::new("miniblock.verify.link", move || {
        s2.net.send(&s2.id, NAMENODE_ADDR, PROBE_FRAME.into())
    });

    RecoveryMap::new(Arc::clone(&s.clock))
        .with(
            &["miniblock.scanner_loop"],
            Some(&scanner),
            Some(&shed_scanner),
            &volume,
        )
        .with(
            &["miniblock.heartbeat_loop"],
            Some(&heartbeat),
            Some(&shed_heartbeat),
            &link,
        )
        .with(
            &["miniblock.ingest_loop", "dn.volumes"],
            None,
            None,
            &volume,
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datanode::DataNodeConfig;
    use crate::namenode::{NameNode, NnMsg};
    use simio::net::{LinkRule, NetFault, SimNet};
    use std::time::Duration;
    use wdog_base::clock::RealClock;
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

    fn node() -> (Arc<DataNode>, NameNode) {
        let net = SimNet::for_tests();
        let nn = NameNode::start(net.clone(), RealClock::shared(), Duration::from_millis(300));
        let dn = Arc::new(
            DataNode::start(
                DataNodeConfig::default(),
                RealClock::shared(),
                simio::disk::SimDisk::for_tests(),
                net,
            )
            .unwrap(),
        );
        (dn, nn)
    }

    #[test]
    fn heartbeat_restart_spawns_fresh_generation() {
        let (dn, _nn) = node();
        let surface = recovery_map(&dn).surface();
        surface
            .restart
            .restart(&ComponentId::new("miniblock.heartbeat_loop"));
        assert_eq!(dn.supervision().heartbeat_restarts, 1);
        let before = dn.stats().heartbeats;
        wait_for(
            || dn.stats().heartbeats > before,
            "fresh heartbeat generation to beat",
        );
        assert!(dn.is_running());
    }

    #[test]
    fn degrade_sheds_scanner_but_ingest_keeps_serving() {
        let (dn, _nn) = node();
        let surface = recovery_map(&dn).surface();
        surface
            .degrade
            .degrade(&ComponentId::new("miniblock.scanner_loop"));
        assert_eq!(dn.supervision().degraded, 1);
        let id = dn.write_block(b"still-serving").unwrap();
        assert_eq!(dn.read_block(id).unwrap(), b"still-serving");
    }

    #[test]
    fn verifiers_cover_every_blamable_component() {
        let (dn, _nn) = node();
        let map = recovery_map(&dn);
        let ids: Vec<ComponentId> = map.ids().cloned().collect();
        let surface = map.surface();
        for c in &ids {
            let mut checker =
                (surface.verifier)(c).unwrap_or_else(|| panic!("no verifier for {c}"));
            assert!(checker.check().is_pass(), "healthy verify failed for {c}");
        }
        // Neither the report loop nor the process is blamed by any checker.
        for c in ["something.else", "miniblock.report_loop", "miniblock"] {
            let c = ComponentId::new(c);
            assert!((surface.verifier)(&c).is_none(), "{c} has a verifier");
            surface.restart.restart(&c);
            surface.degrade.degrade(&c);
        }
        assert_eq!(dn.supervision(), Default::default());
    }

    #[test]
    fn volume_verifier_fails_while_disk_errors() {
        use simio::disk::{DiskFault, DiskOpKind, FaultRule};
        let (dn, _nn) = node();
        let disk = Arc::clone(dn.store().disk());
        let handle = disk.inject(FaultRule::scoped(
            "blocks/vol1/",
            vec![DiskOpKind::Write],
            DiskFault::Error {
                message: "verify-probe".into(),
            },
        ));
        let factory = recovery_map(&dn).surface().verifier;
        let mut checker = factory(&ComponentId::new("miniblock.ingest_loop")).unwrap();
        assert!(!checker.check().is_pass());
        disk.clear(handle);
        assert!(checker.check().is_pass());
    }

    #[test]
    fn link_verifier_leaves_the_namenode_liveness_view_alone() {
        // The verifier is a probe: it must not heartbeat on the DataNode's
        // behalf. Shed the heartbeat loop and silence the block reports
        // (they refresh liveness too), then wait past `suspect_after`.
        let (dn, nn) = node();
        wait_for(|| nn.datanode_alive(dn.id()), "a first heartbeat");
        let surface = recovery_map(&dn).surface();
        let heartbeat = ComponentId::new("miniblock.heartbeat_loop");
        surface.degrade.degrade(&heartbeat);
        dn.crash();
        wait_for(|| !nn.datanode_alive(dn.id()), "the NameNode to suspect dn");

        let mut checker = (surface.verifier)(&heartbeat).unwrap();
        assert!(checker.check().is_pass());
        // The NameNode's mailbox is FIFO: once a later heartbeat from
        // another sender lands, the verifier's frame has been handled.
        let fence = NnMsg::Heartbeat {
            datanode: "fence".into(),
        };
        dn.net()
            .send("fence", NAMENODE_ADDR, fence.encode())
            .unwrap();
        wait_for(|| nn.datanode_alive("fence"), "the fence heartbeat");
        assert!(!nn.datanode_alive(dn.id()), "the verifier heartbeated dn");
    }

    #[test]
    fn heartbeat_verifier_fate_shares_with_the_namenode_link() {
        // A wedged dn1 → namenode link holds the probe frame: no verdict
        // while the fault is armed, a pass the moment it clears.
        let (dn, _nn) = node();
        let factory = recovery_map(&dn).surface().verifier;
        let mut checker = factory(&ComponentId::new("miniblock.heartbeat_loop")).unwrap();
        let fault = dn
            .net()
            .inject(LinkRule::link(dn.id(), NAMENODE_ADDR, NetFault::BlockSend));
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = std::thread::spawn(move || tx.send(checker.check().is_pass()));
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "a verdict while the link is wedged"
        );
        dn.net().clear(fault);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(true));
        probe
            .join()
            .expect("probe thread")
            .expect("verdict received");
    }
}
