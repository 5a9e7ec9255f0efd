//! The cluster: leader, followers, commit broadcast, and follower sync.
//!
//! One leader owns the authoritative [`DataTree`] and the write pipeline;
//! followers apply broadcast commits to their own trees. Commit broadcast is
//! asynchronous (a queue drained by a broadcast thread), so a wedged
//! follower link backs up silently instead of stalling writes — keeping the
//! write path's only networked critical section the **follower sync**,
//! where the leader serializes its whole tree over the network while
//! holding the write-serialization lock. That is the ZOOKEEPER-2201
//! mechanism, reproduced faithfully.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use simio::disk::SimDisk;
use simio::net::SimNet;
use simio::resource::ResourceMonitor;

use wdog_base::clock::{spawn_on, SharedClock};
use wdog_base::error::{BaseError, BaseResult};
use wdog_base::queue::ClockedQueue;

use wdog_core::prelude::*;

use wdog_target::Supervised;

use crate::datatree::DataTree;
use crate::msg::ZkMsg;
use crate::processors::{PipelineItem, WriteOp};
use crate::snapshot::{serialize_snapshot, NetSink};

/// Leader network address.
pub const LEADER_ADDR: &str = "zk-leader";

/// Returns the address of follower `idx`.
pub fn follower_addr(idx: usize) -> String {
    format!("zk-follower-{idx}")
}

/// Write pipeline queue capacity.
pub const PIPELINE_CAP: usize = 1024;

/// Cluster tunables.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of followers.
    pub followers: usize,
    /// Client write/read timeout.
    pub client_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            followers: 2,
            client_timeout: Duration::from_secs(2),
        }
    }
}

#[derive(Default)]
pub(crate) struct ZkStatsInner {
    pub(crate) txns_logged: AtomicU64,
    pub(crate) writes_applied: AtomicU64,
    pub(crate) commits_broadcast: AtomicU64,
}

/// Counter snapshot for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZkStats {
    /// Transactions made durable in the txn log.
    pub txns_logged: u64,
    /// Writes applied to the leader tree.
    pub writes_applied: u64,
    /// Commits delivered to the broadcast thread.
    pub commits_broadcast: u64,
}

/// State shared by every leader thread and the watchdog integration.
pub struct ZkShared {
    pub(crate) tree: Arc<DataTree>,
    pub(crate) disk: Arc<SimDisk>,
    pub(crate) net: SimNet,
    pub(crate) clock: SharedClock,
    pub(crate) next_zxid: AtomicU64,
    /// Shared handle: a restarted broadcast loop resumes the same queue.
    pub(crate) broadcast_q: ClockedQueue<(u64, WriteOp)>,
    /// Supervision for the commit-broadcast component.
    pub(crate) broadcast_super: Supervised,
    pub(crate) follower_addrs: Vec<String>,
    pub(crate) running: AtomicBool,
    pub(crate) hooks: Hooks,
    /// Per-transaction hook, resolved once so `sync_txn` publishes through
    /// its cached slot instead of re-creating a site per request.
    pub(crate) txn_hook: HookSite,
    pub(crate) context: Arc<ContextTable>,
    pub(crate) monitor: ResourceMonitor,
    pub(crate) stats: ZkStatsInner,
    /// The address of the follower currently being synced, if any.
    pub(crate) sync_target: RwLock<Option<String>>,
}

impl ZkShared {
    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::Relaxed)
    }
}

/// One follower process: applies commits, answers nothing else.
pub struct Follower {
    /// This follower's address.
    pub addr: String,
    tree: Arc<DataTree>,
    applied: Arc<AtomicU64>,
    snap_records: Arc<AtomicU64>,
    running: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Follower {
    fn spawn(net: SimNet, addr: String) -> Self {
        let mailbox = net.register(addr.clone());
        let tree = DataTree::new_on(&net.clock());
        let applied = Arc::new(AtomicU64::new(0));
        let snap_records = Arc::new(AtomicU64::new(0));
        let running = Arc::new(AtomicBool::new(true));
        let t = Arc::clone(&tree);
        let a = Arc::clone(&applied);
        let s = Arc::clone(&snap_records);
        let r = Arc::clone(&running);
        let net2 = net.clone();
        let my_addr = addr.clone();
        // wdog: ignore -- follower peer process, not a leader region
        let thread = spawn_on(&net.clock(), &format!("minizk-{addr}"), move || {
            while r.load(Ordering::Relaxed) {
                let Some(m) = mailbox.recv_timeout(Duration::from_millis(10)) else {
                    continue;
                };
                let Ok(msg) = ZkMsg::decode(&m.payload) else {
                    continue;
                };
                match msg {
                    ZkMsg::Ping { seq } => {
                        let _ = net2.send(&my_addr, &m.src, ZkMsg::Pong { seq }.encode());
                    }
                    ZkMsg::Commit { path, data, zxid } => {
                        if !t.exists(&path) {
                            let _ = t.create(&path, data);
                        } else {
                            let _ = t.set_data(&path, data);
                        }
                        a.fetch_add(1, Ordering::Relaxed);
                        let _ = net2.send(&my_addr, &m.src, ZkMsg::CommitAck { zxid }.encode());
                    }
                    ZkMsg::SnapRecord { path, data } => {
                        if path != "/" && !t.exists(&path) {
                            let _ = t.create(&path, data);
                        }
                        s.fetch_add(1, Ordering::Relaxed);
                    }
                    ZkMsg::SnapDone { .. } => {}
                    ZkMsg::Pong { .. } | ZkMsg::CommitAck { .. } | ZkMsg::WdProbe => {}
                }
            }
        });
        Self {
            addr,
            tree,
            applied,
            snap_records,
            running,
            thread: Some(thread),
        }
    }

    /// Reads from this follower's tree.
    pub fn get_data(&self, path: &str) -> BaseResult<Vec<u8>> {
        self.tree.get_data(path)
    }

    /// Returns how many commits this follower applied.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Returns how many snapshot records this follower received.
    pub fn snap_records(&self) -> u64 {
        self.snap_records.load(Ordering::Relaxed)
    }

    /// Raises the stop flag without joining (virtual-time teardown).
    pub fn request_stop(&self) {
        self.running.store(false, Ordering::Relaxed);
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            wdog_base::join::join_timeout(t, Duration::from_millis(500));
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running minizk cluster: one leader plus followers.
pub struct Cluster {
    shared: Arc<ZkShared>,
    pipeline_q: ClockedQueue<PipelineItem>,
    followers: Vec<Follower>,
    threads: Vec<std::thread::JoinHandle<()>>,
    client_timeout: Duration,
}

impl Cluster {
    /// Starts a cluster on the given substrates.
    pub fn start(
        config: ClusterConfig,
        clock: SharedClock,
        disk: Arc<SimDisk>,
        net: SimNet,
    ) -> BaseResult<Self> {
        let follower_addrs: Vec<String> = (0..config.followers).map(follower_addr).collect();
        let followers: Vec<Follower> = follower_addrs
            .iter()
            .map(|a| Follower::spawn(net.clone(), a.clone()))
            .collect();

        let context = ContextTable::new(Arc::clone(&clock));
        let hooks = Hooks::new(Arc::clone(&context));
        let broadcast_q = ClockedQueue::<(u64, WriteOp)>::unbounded(&clock);
        let pipeline_q = ClockedQueue::<PipelineItem>::bounded(&clock, PIPELINE_CAP);
        let monitor = ResourceMonitor::new();
        let pq = pipeline_q.clone();
        monitor.register_queue("pipeline", Arc::new(move || pq.len()));
        let bq = broadcast_q.clone();
        monitor.register_queue("broadcast", Arc::new(move || bq.len()));

        let leader_mailbox = net.register(LEADER_ADDR);

        let shared = Arc::new(ZkShared {
            tree: DataTree::new_on(&clock),
            disk,
            net,
            clock,
            next_zxid: AtomicU64::new(1),
            broadcast_q: broadcast_q.clone(),
            broadcast_super: Supervised::new(),
            follower_addrs,
            running: AtomicBool::new(true),
            txn_hook: hooks.site("request_processor_loop"),
            hooks,
            context,
            monitor,
            stats: ZkStatsInner::default(),
            sync_target: RwLock::new(None),
        });

        let mut threads = Vec::new();
        // Write pipeline.
        {
            let s = Arc::clone(&shared);
            let rx = pipeline_q.clone();
            threads.push(spawn_on(&shared.clock, "minizk-pipeline", move || {
                crate::processors::processor_loop(s, rx)
            }));
        }
        // Commit broadcast.
        {
            let s = Arc::clone(&shared);
            let rx = broadcast_q.clone();
            let alive = s.broadcast_super.flag();
            threads.push(spawn_on(&shared.clock, "minizk-broadcast", move || {
                broadcast_loop(s, rx, alive)
            }));
        }
        // Leader responder: answers liveness pings independently of the
        // write path — this is why extrinsic heartbeats stay green during
        // the 2201 failure.
        {
            let s = Arc::clone(&shared);
            // wdog: ignore -- liveness responder: answers pings only; deliberately
            // outside the checked regions (its blindness to write-path health is
            // the paper's §2 motivating example)
            threads.push(spawn_on(&shared.clock, "minizk-responder", move || {
                responder_loop(s, leader_mailbox)
            }));
        }

        Ok(Self {
            shared,
            pipeline_q,
            followers,
            threads,
            client_timeout: config.client_timeout,
        })
    }

    /// Starts a default cluster on fresh test substrates.
    pub fn for_tests() -> Self {
        Self::start(
            ClusterConfig::default(),
            wdog_base::clock::RealClock::shared(),
            SimDisk::for_tests(),
            SimNet::for_tests(),
        )
        .expect("test cluster")
    }

    fn submit(&self, op: WriteOp) -> BaseResult<u64> {
        let reply = ClockedQueue::<BaseResult<u64>>::bounded(&self.shared.clock, 1);
        self.pipeline_q
            .push((op, reply.clone()))
            .map_err(|_| BaseError::Exhausted("write pipeline full or closed".into()))?;
        reply
            .pop_timeout(self.client_timeout)
            .ok_or_else(|| BaseError::Timeout {
                what: "minizk write".into(),
                after_ms: self.client_timeout.as_millis() as u64,
            })?
    }

    /// Creates a znode through the write pipeline.
    pub fn create(&self, path: &str, data: &[u8]) -> BaseResult<u64> {
        self.submit(WriteOp::Create {
            path: path.into(),
            data: data.to_vec(),
        })
    }

    /// Updates a znode through the write pipeline.
    pub fn set_data(&self, path: &str, data: &[u8]) -> BaseResult<u64> {
        self.submit(WriteOp::SetData {
            path: path.into(),
            data: data.to_vec(),
        })
    }

    /// Reads from the leader tree (bypasses the write pipeline, like ZK
    /// local reads — stays live during the 2201 failure).
    pub fn get_data(&self, path: &str) -> BaseResult<Vec<u8>> {
        self.shared.tree.get_data(path)
    }

    /// The `ruok` admin command: replies `imok` whenever the process is up.
    ///
    /// Deliberately shallow — it reflects process liveness, not write-path
    /// health, which is exactly the blind spot the paper calls out.
    pub fn admin_ruok(&self) -> &'static str {
        if self.shared.is_running() {
            "imok"
        } else {
            ""
        }
    }

    /// Starts a follower sync on a background thread: serializes the whole
    /// leader tree to `follower_idx` over the network, inside the
    /// write-serialization critical section.
    pub fn sync_follower(&self, follower_idx: usize) -> std::thread::JoinHandle<BaseResult<u64>> {
        let shared = Arc::clone(&self.shared);
        let target = self.followers[follower_idx].addr.clone();
        spawn_on(&self.shared.clock, "minizk-sync", move || {
            *shared.sync_target.write() = Some(target.clone());
            let hook = shared.hooks.site("snapshot_sync_loop");
            let mut sink = NetSink::new(shared.net.clone(), LEADER_ADDR, &target);
            let hook_target = target.clone();
            let result = serialize_snapshot(&shared.tree, &mut sink, |path, data| {
                // Figure 2 line 28: context hook before write_record.
                let p = path.to_owned();
                let d = data.to_vec();
                let t = hook_target.clone();
                if let Some(mut fire) = hook.fire() {
                    fire.field("node_path", CtxValue::Str(p))
                        .field("node_data", CtxValue::Bytes(d))
                        .field("sync_target", CtxValue::Str(t));
                }
            });
            *shared.sync_target.write() = None;
            result
        })
    }

    /// Retires the current broadcast generation and spawns a replacement on
    /// the same commit queue (§5.2 component restart: a wedged broadcaster
    /// is abandoned to exit when its fault clears, while the fresh
    /// generation resumes shipping commits immediately).
    pub fn restart_broadcast(&self) {
        let s = Arc::clone(&self.shared);
        let rx = self.shared.broadcast_q.clone();
        let alive = self.shared.broadcast_super.next_generation();
        spawn_on(&self.shared.clock, "minizk-broadcast", move || {
            broadcast_loop(s, rx, alive)
        });
    }

    /// Sheds the broadcast component: followers stop receiving commits but
    /// the leader keeps serving reads and logging writes.
    pub fn degrade_broadcast(&self) {
        self.shared.broadcast_super.shed();
    }

    /// Broadcast generations retired by restart.
    pub fn broadcast_restarts(&self) -> u64 {
        self.shared.broadcast_super.restarts()
    }

    /// Whether the broadcast component is currently shed.
    pub fn broadcast_degraded(&self) -> bool {
        self.shared.broadcast_super.is_degraded()
    }

    /// Returns the follower handles.
    pub fn followers(&self) -> &[Follower] {
        &self.followers
    }

    /// Returns counter snapshots.
    pub fn stats(&self) -> ZkStats {
        let s = &self.shared.stats;
        ZkStats {
            txns_logged: s.txns_logged.load(Ordering::Relaxed),
            writes_applied: s.writes_applied.load(Ordering::Relaxed),
            commits_broadcast: s.commits_broadcast.load(Ordering::Relaxed),
        }
    }

    /// Returns the watchdog context table fed by leader hooks.
    pub fn context(&self) -> Arc<ContextTable> {
        Arc::clone(&self.shared.context)
    }

    /// Returns the leader's hook dispatcher (for trace arming).
    pub fn hooks(&self) -> Hooks {
        self.shared.hooks.clone()
    }

    /// Returns the resource monitor (queue depths).
    pub fn monitor(&self) -> ResourceMonitor {
        self.shared.monitor.clone()
    }

    /// Returns the leader's data tree (read-only uses).
    pub fn tree(&self) -> Arc<DataTree> {
        Arc::clone(&self.shared.tree)
    }

    /// Crashes the leader process (fail-stop baseline).
    pub fn crash(&self) {
        self.shared.running.store(false, Ordering::Relaxed);
    }

    /// Raises every stop flag — leader threads and followers — without
    /// joining anything (virtual-time teardown).
    pub fn request_stop(&self) {
        self.shared.running.store(false, Ordering::Relaxed);
        for f in &self.followers {
            f.request_stop();
        }
    }

    /// Graceful shutdown.
    ///
    /// Threads wedged inside an armed fault are detached rather than
    /// awaited; they unwedge (and exit) when the fault clears.
    pub fn stop(&mut self) {
        self.shared.running.store(false, Ordering::Relaxed);
        let handles: Vec<_> = self.threads.drain(..).collect();
        wdog_base::join::join_all_timeout(handles, std::time::Duration::from_millis(500));
        for f in &mut self.followers {
            f.stop();
        }
    }

    pub(crate) fn shared(&self) -> &Arc<ZkShared> {
        &self.shared
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("followers", &self.followers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Drains the commit queue, shipping commits to every follower; `alive` is
/// this generation's supervision flag — a restart retires it and spawns a
/// fresh loop on the same queue.
// wdog: resource followers
fn broadcast_loop(shared: Arc<ZkShared>, rx: ClockedQueue<(u64, WriteOp)>, alive: Arc<AtomicBool>) {
    let hook = shared.hooks.site("broadcast_loop");
    while shared.is_running() && alive.load(Ordering::Relaxed) {
        let Some((zxid, op)) = rx.pop_timeout(Duration::from_millis(10)) else {
            continue;
        };
        let (path, data) = match op {
            WriteOp::Create { path, data } | WriteOp::SetData { path, data } => (path, data),
        };
        let msg = ZkMsg::Commit { zxid, path, data };
        let payload = msg.encode();
        if let Some(mut fire) = hook.fire() {
            fire.field("commit_payload", CtxValue::Bytes(payload.to_vec()));
        }
        for f in &shared.follower_addrs {
            let _ = shared.net.send(LEADER_ADDR, f, payload.clone());
        }
        shared
            .stats
            .commits_broadcast
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Answers liveness pings addressed to the leader.
fn responder_loop(shared: Arc<ZkShared>, mailbox: simio::net::Mailbox) {
    while shared.is_running() {
        let Some(m) = mailbox.recv_timeout(Duration::from_millis(10)) else {
            continue;
        };
        if let Ok(ZkMsg::Ping { seq }) = ZkMsg::decode(&m.payload) {
            let _ = shared
                .net
                .send(LEADER_ADDR, &m.src, ZkMsg::Pong { seq }.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn writes_apply_and_replicate() {
        let cluster = Cluster::for_tests();
        cluster.create("/app", b"root").unwrap();
        cluster.create("/app/key", b"v1").unwrap();
        cluster.set_data("/app/key", b"v2").unwrap();
        assert_eq!(cluster.get_data("/app/key").unwrap(), b"v2");
        wait_for(
            || cluster.followers().iter().all(|f| f.applied() >= 3),
            "followers to apply commits",
        );
        for f in cluster.followers() {
            assert_eq!(f.get_data("/app/key").unwrap(), b"v2");
        }
    }

    #[test]
    fn zxids_are_monotonic() {
        let cluster = Cluster::for_tests();
        cluster.create("/a", b"").unwrap();
        let z1 = cluster.set_data("/a", b"1").unwrap();
        let z2 = cluster.set_data("/a", b"2").unwrap();
        assert!(z2 > z1);
    }

    #[test]
    fn txn_log_grows_with_writes() {
        let cluster = Cluster::for_tests();
        cluster.create("/a", b"x").unwrap();
        cluster.set_data("/a", b"y").unwrap();
        wait_for(|| cluster.stats().txns_logged >= 2, "txn log");
    }

    #[test]
    fn follower_sync_transfers_the_tree() {
        let cluster = Cluster::for_tests();
        cluster.create("/app", b"root").unwrap();
        for i in 0..5 {
            cluster.create(&format!("/app/n{i}"), b"data").unwrap();
        }
        let handle = cluster.sync_follower(1);
        let records = handle.join().unwrap().unwrap();
        assert_eq!(records, 7, "root + /app + 5 children");
        wait_for(
            || cluster.followers()[1].snap_records() >= 7,
            "snapshot records to arrive",
        );
        assert_eq!(cluster.followers()[1].get_data("/app/n3").unwrap(), b"data");
    }

    #[test]
    fn ruok_reflects_process_liveness_only() {
        let cluster = Cluster::for_tests();
        assert_eq!(cluster.admin_ruok(), "imok");
        cluster.crash();
        assert_eq!(cluster.admin_ruok(), "");
    }

    #[test]
    fn crashed_cluster_times_out_writes() {
        let config = ClusterConfig {
            client_timeout: Duration::from_millis(100),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::start(
            config,
            wdog_base::clock::RealClock::shared(),
            SimDisk::for_tests(),
            SimNet::for_tests(),
        )
        .unwrap();
        cluster.create("/a", b"").unwrap();
        cluster.crash();
        std::thread::sleep(Duration::from_millis(50));
        assert!(cluster.set_data("/a", b"x").is_err());
    }
}
