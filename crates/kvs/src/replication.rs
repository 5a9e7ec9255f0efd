//! The replication engine: async primary→replica op shipping.
//!
//! Writes are replicated asynchronously off a queue, so a wedged replica
//! link is invisible to clients (another deliberately gray failure: the
//! backlog grows silently). The replication thread's hook publishes each op
//! before sending, giving the generated `replication_loop#send` mimic op a
//! realistic payload to probe the *same* network link with — watchdog probe
//! messages are tagged so the replica ignores them.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use wdog_base::queue::ClockedQueue;

use wdog_core::prelude::*;

use crate::api::Request;
use crate::index::MemIndex;
use crate::server::{apply_to_index, Shared};

/// Prefix marking watchdog probe traffic; replicas skip these frames.
pub const WD_PROBE_PREFIX: &[u8] = b"__wd__:";

/// Background replication thread body (primary side); `alive` is this
/// generation's supervision flag — a restart retires it and spawns a fresh
/// loop on the same queue.
// wdog: resource replica
pub(crate) fn replication_loop(
    shared: Arc<Shared>,
    rx: ClockedQueue<Bytes>,
    alive: Arc<std::sync::atomic::AtomicBool>,
) {
    let Some(repl) = shared.config.replication.clone() else {
        return;
    };
    let Some(net) = shared.net.clone() else {
        return;
    };
    let hook = shared.hooks.site("replication_loop");
    while shared.is_running() && alive.load(Ordering::Relaxed) {
        let Some(op) = rx.pop_timeout(std::time::Duration::from_millis(10)) else {
            continue;
        };
        if let Some(mut fire) = hook.fire() {
            fire.field("op_payload", CtxValue::Bytes(op.to_vec()));
        }
        if net.send(&repl.src_addr, &repl.dst_addr, op).is_err() {
            // In-place error handler: the op is dropped after logging.
            shared.stats.errors_handled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A minimal replica: applies replicated ops into its own index.
pub struct Replica {
    index: MemIndex,
    running: Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    applied: Arc<std::sync::atomic::AtomicU64>,
}

impl Replica {
    /// Spawns a replica listening at `addr` on `net`.
    pub fn spawn(net: simio::net::SimNet, addr: impl Into<String>) -> Self {
        let mailbox = net.register(addr);
        let index = MemIndex::for_tests();
        let running = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let applied = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let idx = index.clone();
        let run = Arc::clone(&running);
        let app = Arc::clone(&applied);
        // wdog: ignore -- replica peer process, not a leader region
        let thread = wdog_base::clock::spawn_on(&net.clock(), "kvs-replica", move || {
            while run.load(Ordering::Relaxed) {
                let Some(msg) = mailbox.recv_timeout(std::time::Duration::from_millis(10)) else {
                    continue;
                };
                if msg.payload.starts_with(WD_PROBE_PREFIX) {
                    continue; // Watchdog probe traffic; not real data.
                }
                if let Ok(req) = Request::decode(&msg.payload) {
                    apply_to_index(&idx, &req);
                    app.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        Self {
            index,
            running,
            thread: Some(thread),
            applied,
        }
    }

    /// Raises the stop flag without joining; the receive loop exits at its
    /// next mailbox timeout (virtual-time teardown support).
    pub fn request_stop(&self) {
        self.running.store(false, Ordering::Relaxed);
    }

    /// Reads a key from the replica's index.
    pub fn get(&self, key: &str) -> Option<String> {
        self.index.get(key)
    }

    /// Returns how many real ops the replica has applied.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Stops the replica thread (detaching it if wedged in a fault).
    pub fn stop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            wdog_base::join::join_timeout(t, std::time::Duration::from_millis(500));
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("applied", &self.applied())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KvsConfig;
    use crate::server::KvsServer;
    use simio::disk::SimDisk;
    use simio::net::{LinkRule, NetFault, SimNet};
    use std::time::Duration;
    use wdog_base::clock::RealClock;

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_secs(5) {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    fn replicated_pair() -> (KvsServer, Replica, SimNet) {
        let net = SimNet::for_tests();
        let replica = Replica::spawn(net.clone(), "kvs-replica");
        let server = KvsServer::start(
            KvsConfig::replicated(),
            RealClock::shared(),
            SimDisk::for_tests(),
            Some(net.clone()),
        )
        .unwrap();
        (server, replica, net)
    }

    #[test]
    fn writes_replicate_to_the_replica() {
        let (server, replica, _net) = replicated_pair();
        let client = server.client();
        client.set("k", "v").unwrap();
        client.append("k", "2").unwrap();
        client.set("other", "x").unwrap();
        client.del("other").unwrap();
        wait_for(|| replica.applied() >= 4, "replica to apply ops");
        assert_eq!(replica.get("k"), Some("v2".into()));
        assert_eq!(replica.get("other"), None);
    }

    #[test]
    fn wedged_link_is_invisible_to_clients() {
        let (server, replica, net) = replicated_pair();
        let client = server.client();
        net.inject(LinkRule::link(
            "kvs-primary",
            "kvs-replica",
            NetFault::BlockSend,
        ));
        // Clients keep succeeding: the gray failure.
        for i in 0..20 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(replica.applied(), 0, "ops leaked through a blocked link");
        // The backlog is observable internally.
        assert!(server.monitor().queue_depth("replication").unwrap() > 0);
    }

    #[test]
    fn probe_frames_are_ignored_by_replica() {
        let (server, replica, net) = replicated_pair();
        let mut probe = WD_PROBE_PREFIX.to_vec();
        probe.extend_from_slice(b"probe-payload");
        net.send("kvs-primary", "kvs-replica", Bytes::from(probe))
            .unwrap();
        let client = server.client();
        client.set("real", "data").unwrap();
        wait_for(|| replica.applied() >= 1, "real op to apply");
        assert_eq!(replica.applied(), 1, "probe frame was applied as data");
    }

    #[test]
    fn replication_context_published() {
        let (server, _replica, _net) = replicated_pair();
        let client = server.client();
        client.set("k", "v").unwrap();
        let ctx = server.context();
        wait_for(|| ctx.is_ready("replication_loop"), "replication context");
        assert!(ctx
            .read("replication_loop")
            .unwrap()
            .get("op_payload")
            .is_some());
    }
}
