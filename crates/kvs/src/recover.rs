//! The kvs recovery map: component restarts, workload shedding, and
//! verification re-checks for the closed-loop recovery coordinator.
//!
//! This is the target-side half of the paper's §5.2 argument: because the
//! watchdog pinpoints *which* component failed, recovery can stay component
//! scoped — respawn the compactor, rebuild the corrupted partitions, free
//! the leaking request path — and every mitigation is verified by a fresh
//! probe of the same real resource the blaming checker used (the
//! compaction lock, the WAL volume, the replication link), so a "recovered"
//! verdict means the fault is actually gone.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use wdog_base::clock::spawn_on;
use wdog_base::error::BaseError;

use wdog_target::{Handle, RecoveryMap, Verifier};

use crate::replication::WD_PROBE_PREFIX;
use crate::server::{KvsServer, Shared};
use crate::wd::{KEY_PROBE_PREFIX, WAL_PROBE_PATH};

/// Bounded wait when a verifier try-locks a real mutex.
const VERIFY_LOCK_WAIT: Duration = Duration::from_millis(300);

/// Memory level a restarted request path must be back under (matches the
/// default signal-checker watermark).
const VERIFY_MEMORY_BYTES: u64 = 64 * 1024 * 1024;

/// A fresh compactor has no wedged or spinning state: the toggles model
/// in-memory state the retired generation takes with it.
fn unwedge_compaction(s: &Shared) {
    s.toggles.set("kvs.compaction.stuck", false);
    s.toggles.set("kvs.compaction.busyloop", false);
}

/// Builds the recovery map of a running server. `kvs.wal_loop` blame
/// restarts and sheds the flusher, which takes the WAL lock to rotate.
pub fn recovery_map(server: &Arc<KvsServer>) -> RecoveryMap {
    let s = server.shared();
    let on = |name: &'static str, act: fn(&Arc<Shared>)| {
        let s = Arc::clone(s);
        Handle::new(name, move || act(&s))
    };

    // Restarts retire the component's generation and spawn a fresh one;
    // sheds retire it with no replacement.
    let flusher = on("flusher", |s| {
        let (s2, alive) = (Arc::clone(s), s.supervisor.flusher.next_generation());
        spawn_on(&s.clock, "kvs-flusher", move || {
            crate::flusher::flusher_loop(s2, alive)
        });
    });
    let compaction = on("compaction", |s| {
        unwedge_compaction(s);
        let (s2, alive) = (Arc::clone(s), s.supervisor.compaction.next_generation());
        spawn_on(&s.clock, "kvs-compaction", move || {
            crate::compaction::compaction_loop(s2, alive)
        });
    });
    let replication = on("replication", |s| {
        let (s2, rx) = (Arc::clone(s), s.repl_q.clone());
        let alive = s.supervisor.replication.next_generation();
        spawn_on(&s.clock, "kvs-replication", move || {
            crate::replication::replication_loop(s2, rx, alive)
        });
    });
    // Restarting the request path re-initializes its in-process state: stop
    // the leak, release what it accumulated, and — when the indexer has
    // been corrupting entries — replace the corrupted objects by rebuilding
    // the partitions from the authoritative in-memory index.
    let request_path = {
        let server = Arc::clone(server);
        Handle::new("request path", move || {
            let s = server.shared();
            s.toggles.set("kvs.listener.leak", false);
            s.monitor.free(s.monitor.memory_bytes());
            if s.toggles.is_set("kvs.indexer.corrupt") {
                s.toggles.set("kvs.indexer.corrupt", false);
                if server.rebuild_partitions().is_ok() {
                    s.index_rebuilds.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };
    let shed_flusher = on("flusher", |s| s.supervisor.flusher.shed());
    let shed_compaction = on("compaction", |s| {
        // Unwedge the retiring generation so it releases the lock.
        unwedge_compaction(s);
        s.supervisor.compaction.shed();
    });
    let shed_replication = on("replication", |s| s.supervisor.replication.shed());

    // The compaction mimic blames a held lock; recovered means the real
    // lock is takeable again.
    let s2 = Arc::clone(s);
    let lock = Verifier::new("kvs.verify.compaction", move || {
        s2.compaction_lock
            .try_lock_for(VERIFY_LOCK_WAIT)
            .map(drop)
            .ok_or_else(|| BaseError::Timeout {
                what: "compaction lock".into(),
                after_ms: VERIFY_LOCK_WAIT.as_millis() as u64,
            })
    });
    // A probe write + sync on the WAL volume: wedges under a disk fault
    // exactly like the real flusher.
    let s2 = Arc::clone(s);
    let wal = Verifier::new("kvs.verify.flusher", move || {
        s2.disk
            .append(WAL_PROBE_PATH, b"rv")
            .and_then(|()| s2.disk.fsync(WAL_PROBE_PATH))
    });
    // A tagged probe frame on the real link; blocks while the link is
    // wedged, fails while it errors.
    let s2 = Arc::clone(s);
    let link = Verifier::new("kvs.verify.replication", move || {
        let (Some(repl), Some(net)) = (&s2.config.replication, &s2.net) else {
            return Err(BaseError::InvalidState("replication disabled".into()));
        };
        let mut frame = WD_PROBE_PREFIX.to_vec();
        frame.extend_from_slice(b"recovery-verify");
        net.send(&repl.src_addr, &repl.dst_addr, bytes::Bytes::from(frame))
    });
    // A full client round trip through the request path.
    let client = server.client();
    let api = Verifier::new("kvs.verify.api", move || {
        let key = format!("{KEY_PROBE_PREFIX}verify");
        client.set(&key, "rv")?;
        match client.get(&key)? {
            Some(v) if v == "rv" => Ok(()),
            got => Err(BaseError::Corruption(format!("api read back {got:?}"))),
        }
    });
    // Process-level blame (memory watermark, sleep drift, disk space):
    // memory back under the watermark plus a live round trip — wedged
    // workers (runtime pause) fail the round trip.
    let (monitor, client) = (s.monitor.clone(), server.client());
    let process = Verifier::new("kvs.verify.process", move || {
        let used = monitor.memory_bytes();
        if used > VERIFY_MEMORY_BYTES {
            return Err(BaseError::InvalidState(format!("memory still at {used} B")));
        }
        client.set(&format!("{KEY_PROBE_PREFIX}verify"), "rv")
    });

    let (durable, replicated) = (s.config.durable, s.config.replication.is_some());
    RecoveryMap::new(Arc::clone(&s.clock))
        .with(
            &["kvs.compaction_loop"],
            durable.then_some(&compaction),
            Some(&shed_compaction),
            &lock,
        )
        .with(
            &["kvs.flusher_loop", "kvs.flusher", "kvs.wal_loop"],
            durable.then_some(&flusher),
            Some(&shed_flusher),
            &wal,
        )
        .with(
            &["kvs.replication_loop", "kvs.replication"],
            replicated.then_some(&replication),
            Some(&shed_replication),
            &link,
        )
        .with(
            &["kvs.listener_loop", "kvs.listener", "kvs.api"],
            Some(&request_path),
            None,
            &api,
        )
        .with(&["kvs"], Some(&request_path), None, &process)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::ids::ComponentId;
    use wdog_core::prelude::*;

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

    fn busy_server() -> Arc<KvsServer> {
        let config = crate::config::KvsConfig {
            flush_interval: Duration::from_millis(10),
            compaction_interval: Duration::from_millis(10),
            compaction_trigger: 3,
            ..crate::config::KvsConfig::default()
        };
        Arc::new(
            KvsServer::start(
                config,
                wdog_base::clock::RealClock::shared(),
                simio::disk::SimDisk::for_tests(),
                None,
            )
            .unwrap(),
        )
    }

    fn restart(server: &Arc<KvsServer>, component: &str) {
        let surface = recovery_map(server).surface();
        surface.restart.restart(&ComponentId::new(component));
    }

    fn verifier(server: &Arc<KvsServer>, component: &str) -> Option<Box<dyn Checker>> {
        (recovery_map(server).surface().verifier)(&ComponentId::new(component))
    }

    #[test]
    fn restart_unwedges_stuck_compaction_without_process_restart() {
        let server = busy_server();
        let client = server.client();
        server.toggles().set("kvs.compaction.stuck", true);
        for round in 0..10 {
            for i in 0..5 {
                client.set(&format!("k{round}-{i}"), "v").unwrap();
            }
            std::thread::sleep(Duration::from_millis(15));
        }
        wait_for(
            || server.shared().compaction_lock.try_lock().is_none(),
            "compaction to wedge inside the lock",
        );
        let before = server.stats().compactions;

        restart(&server, "kvs.compaction_loop");
        assert_eq!(server.supervision().compaction_restarts, 1);

        // The fresh generation compacts again; the process never restarted.
        for round in 0..10 {
            for i in 0..5 {
                client.set(&format!("r{round}-{i}"), "v").unwrap();
            }
            std::thread::sleep(Duration::from_millis(15));
        }
        wait_for(
            || server.stats().compactions > before,
            "fresh compaction generation to run",
        );
        assert!(server.is_running());

        // And the verifier agrees.
        let mut checker = verifier(&server, "kvs.compaction_loop").unwrap();
        wait_for(|| checker.check().is_pass(), "verifier to pass");
    }

    #[test]
    fn request_path_restart_repairs_corruption() {
        let server = busy_server();
        let client = server.client();
        for i in 0..20 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        wait_for(|| server.sstable_count() >= 1, "a flushed table");
        server.toggles().set("kvs.indexer.corrupt", true);

        restart(&server, "kvs.listener_loop");
        assert_eq!(server.supervision().index_rebuilds, 1);
        assert!(
            !server.toggles().is_set("kvs.indexer.corrupt"),
            "restart must drop the corrupting state"
        );
        server.validate_partitions().unwrap();
        let mut checker = verifier(&server, "kvs.listener_loop").unwrap();
        assert!(checker.check().is_pass());
    }

    #[test]
    fn memory_restart_releases_leak() {
        let server = busy_server();
        let client = server.client();
        server.toggles().set("kvs.listener.leak", true);
        for i in 0..50 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        assert!(server.monitor().memory_bytes() > 0);
        restart(&server, "kvs");
        assert_eq!(server.monitor().memory_bytes(), 0);
        assert!(!server.toggles().is_set("kvs.listener.leak"));
    }

    #[test]
    fn wal_blame_restarts_the_flusher() {
        let server = busy_server();
        let client = server.client();
        restart(&server, "kvs.wal_loop");
        assert_eq!(server.supervision().flusher_restarts, 1);
        let before = server.stats().flushes;
        for i in 0..20 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        wait_for(
            || server.stats().flushes > before,
            "fresh flusher generation to flush",
        );
    }

    #[test]
    fn degrade_sheds_component() {
        let server = busy_server();
        let surface = recovery_map(&server).surface();
        surface.degrade.degrade(&ComponentId::new("kvs.flusher"));
        assert_eq!(server.supervision().degraded, 1);
        // The rest of the server keeps serving.
        let client = server.client();
        client.set("k", "v").unwrap();
        assert_eq!(client.get("k").unwrap().as_deref(), Some("v"));
    }

    #[test]
    fn ids_are_exact() {
        // `kvs.compaction` and `kvs.index` used to resolve by substring.
        let server = busy_server();
        let surface = recovery_map(&server).surface();
        for c in ["something.else", "kvs.compaction", "kvs.index"] {
            let c = ComponentId::new(c);
            surface.restart.restart(&c);
            surface.degrade.degrade(&c);
            assert!((surface.verifier)(&c).is_none(), "{c} has a verifier");
        }
        assert_eq!(server.supervision(), Default::default());
    }
}
