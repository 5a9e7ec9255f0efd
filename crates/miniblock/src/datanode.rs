//! The DataNode: block ingest, scanner, reports, heartbeats.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use simio::net::SimNet;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;

use wdog_core::prelude::*;

use wdog_target::Supervised;

use crate::block::BlockStore;
use crate::namenode::{NnMsg, NAMENODE_ADDR};

/// Heartbeat period.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);
/// Block-report period.
pub const REPORT_INTERVAL: Duration = Duration::from_millis(200);
/// Block-scanner period (between whole-volume scans).
pub const SCAN_INTERVAL: Duration = Duration::from_millis(100);

/// DataNode topology.
#[derive(Debug, Clone)]
pub struct DataNodeConfig {
    /// DataNode id (its network address).
    pub id: String,
    /// Number of storage volumes.
    pub volumes: usize,
}

impl Default for DataNodeConfig {
    fn default() -> Self {
        Self {
            id: "dn1".into(),
            volumes: 3,
        }
    }
}

/// Counters for assertions and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataNodeStats {
    /// Blocks ingested.
    pub blocks_written: u64,
    /// Scanner passes over individual blocks.
    pub blocks_scanned: u64,
    /// Scanner checksum failures caught (and tolerated in place).
    pub scan_errors: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
}

/// Supervision bookkeeping for the DataNode's background components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnSupervisionStats {
    /// Heartbeat generations retired by restart.
    pub heartbeat_restarts: u64,
    /// Scanner generations retired by restart.
    pub scanner_restarts: u64,
    /// Components currently shed (degraded, no live generation).
    pub degraded: u32,
}

/// One [`Supervised`] per restartable background loop.
pub(crate) struct DnSupervisor {
    pub(crate) heartbeat: Supervised,
    pub(crate) scanner: Supervised,
}

impl DnSupervisor {
    fn new() -> Self {
        Self {
            heartbeat: Supervised::new(),
            scanner: Supervised::new(),
        }
    }
}

pub(crate) struct DnShared {
    pub(crate) store: BlockStore,
    pub(crate) net: SimNet,
    pub(crate) clock: SharedClock,
    pub(crate) id: String,
    pub(crate) blocks: RwLock<BTreeMap<u64, String>>, // id -> volume
    pub(crate) next_block: AtomicU64,
    pub(crate) running: AtomicBool,
    pub(crate) hooks: Hooks,
    /// Per-ingest hook, resolved once so `write_block` publishes through
    /// its cached slot instead of re-creating a site per call.
    pub(crate) ingest_hook: HookSite,
    pub(crate) context: Arc<ContextTable>,
    pub(crate) blocks_written: AtomicU64,
    pub(crate) blocks_scanned: AtomicU64,
    pub(crate) scan_errors: AtomicU64,
    pub(crate) heartbeats: AtomicU64,
    pub(crate) supervisor: DnSupervisor,
}

impl DnShared {
    fn is_running(&self) -> bool {
        self.running.load(Ordering::Relaxed)
    }
}

/// A running DataNode.
pub struct DataNode {
    shared: Arc<DnShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl DataNode {
    /// Starts a DataNode with its background threads.
    pub fn start(
        config: DataNodeConfig,
        clock: SharedClock,
        disk: Arc<simio::disk::SimDisk>,
        net: SimNet,
    ) -> BaseResult<Self> {
        let store = BlockStore::new(disk, config.volumes);
        // Volume markers: the metadata the *legacy* disk checker looks at.
        for v in store.volumes().to_vec() {
            let marker = format!("blocks/{v}/.volume");
            if !store.disk().exists(&marker) {
                store.disk().write_all(&marker, b"ok")?;
            }
        }
        let context = ContextTable::new(Arc::clone(&clock));
        let hooks = Hooks::new(Arc::clone(&context));
        let shared = Arc::new(DnShared {
            store,
            net,
            clock,
            id: config.id,
            blocks: RwLock::new(BTreeMap::new()),
            next_block: AtomicU64::new(1),
            running: AtomicBool::new(true),
            ingest_hook: hooks.site("ingest_loop"),
            hooks,
            context,
            blocks_written: AtomicU64::new(0),
            blocks_scanned: AtomicU64::new(0),
            scan_errors: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            supervisor: DnSupervisor::new(),
        });

        let mut threads = Vec::new();
        // Heartbeat loop.
        {
            let s = Arc::clone(&shared);
            let alive = s.supervisor.heartbeat.flag();
            threads.push(wdog_base::clock::spawn_on(
                &shared.clock,
                "dn-heartbeat",
                move || heartbeat_loop(s, alive),
            ));
        }
        // Block-report loop.
        {
            let s = Arc::clone(&shared);
            threads.push(wdog_base::clock::spawn_on(
                &shared.clock,
                "dn-report",
                move || report_loop(s),
            ));
        }
        // Block scanner loop (HDFS's DataBlockScanner).
        {
            let s = Arc::clone(&shared);
            let alive = s.supervisor.scanner.flag();
            threads.push(wdog_base::clock::spawn_on(
                &shared.clock,
                "dn-scanner",
                move || scanner_loop(s, alive),
            ));
        }

        Ok(Self { shared, threads })
    }

    /// Ingests a block; returns its id.
    pub fn write_block(&self, data: &[u8]) -> BaseResult<u64> {
        let s = &self.shared;
        if !s.is_running() {
            return Err(wdog_base::error::BaseError::Disconnected(
                "datanode is down".into(),
            ));
        }
        let id = s.next_block.fetch_add(1, Ordering::Relaxed);
        let volume = s.store.pick_volume().to_owned();
        // Hook before the vulnerable write (generated plan point).
        let sample: Vec<u8> = data.iter().copied().take(1024).collect();
        let vol = volume.clone();
        if let Some(mut fire) = s.ingest_hook.fire() {
            fire.field("block_data", CtxValue::Bytes(sample))
                .field("volume", CtxValue::Str(vol));
        }
        s.store.write_block(&volume, id, data)?;
        s.blocks.write().insert(id, volume);
        s.blocks_written.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Reads a block back.
    pub fn read_block(&self, id: u64) -> BaseResult<Vec<u8>> {
        if !self.shared.is_running() {
            return Err(wdog_base::error::BaseError::Disconnected(
                "datanode is down".into(),
            ));
        }
        let volume = self
            .shared
            .blocks
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| wdog_base::error::BaseError::NotFound(format!("block {id}")))?;
        self.shared.store.read_block(&volume, id)
    }

    /// Returns counters.
    pub fn stats(&self) -> DataNodeStats {
        let s = &self.shared;
        DataNodeStats {
            blocks_written: s.blocks_written.load(Ordering::Relaxed),
            blocks_scanned: s.blocks_scanned.load(Ordering::Relaxed),
            scan_errors: s.scan_errors.load(Ordering::Relaxed),
            heartbeats: s.heartbeats.load(Ordering::Relaxed),
        }
    }

    /// Returns the block store (for checkers and fault targeting).
    pub fn store(&self) -> &BlockStore {
        &self.shared.store
    }

    /// Returns the node's network handle (for probes).
    pub fn net(&self) -> &SimNet {
        &self.shared.net
    }

    /// Returns the watchdog context table fed by this node's hooks.
    pub fn context(&self) -> Arc<ContextTable> {
        Arc::clone(&self.shared.context)
    }

    /// Returns the node's hook dispatcher (for trace arming).
    pub fn hooks(&self) -> Hooks {
        self.shared.hooks.clone()
    }

    /// Returns this node's id.
    pub fn id(&self) -> &str {
        &self.shared.id
    }

    /// Supervision bookkeeping snapshot.
    pub fn supervision(&self) -> DnSupervisionStats {
        let sup = &self.shared.supervisor;
        DnSupervisionStats {
            heartbeat_restarts: sup.heartbeat.restarts(),
            scanner_restarts: sup.scanner.restarts(),
            degraded: [&sup.heartbeat, &sup.scanner]
                .iter()
                .filter(|s| s.is_degraded())
                .count() as u32,
        }
    }

    /// Simulates a whole-process failure: background threads exit and the
    /// block API starts refusing requests, but nothing is joined — exactly
    /// what an abrupt kill looks like to detectors.
    pub fn crash(&self) {
        self.shared.running.store(false, Ordering::Relaxed);
    }

    /// Whether the node is still serving.
    pub fn is_running(&self) -> bool {
        self.shared.is_running()
    }

    /// Stops all threads (detaching any wedged in a fault).
    pub fn stop(&mut self) {
        self.shared.running.store(false, Ordering::Relaxed);
        let handles: Vec<_> = self.threads.drain(..).collect();
        wdog_base::join::join_all_timeout(handles, Duration::from_millis(500));
    }

    pub(crate) fn shared(&self) -> &Arc<DnShared> {
        &self.shared
    }
}

/// Periodically tells the NameNode this node is alive; `alive` is this
/// generation's supervision flag.
pub(crate) fn heartbeat_loop(s: Arc<DnShared>, alive: Arc<AtomicBool>) {
    while s.is_running() && alive.load(Ordering::Relaxed) {
        let msg = NnMsg::Heartbeat {
            datanode: s.id.clone(),
        };
        if s.net.send(&s.id, NAMENODE_ADDR, msg.encode()).is_ok() {
            s.heartbeats.fetch_add(1, Ordering::Relaxed);
        }
        s.clock.sleep(HEARTBEAT_INTERVAL);
    }
}

/// Periodically ships the full block inventory to the NameNode.
fn report_loop(s: Arc<DnShared>) {
    let hook = s.hooks.site("report_loop");
    while s.is_running() {
        s.clock.sleep(REPORT_INTERVAL);
        let blocks: Vec<u64> = s.blocks.read().keys().copied().collect();
        let count = blocks.len() as u64;
        if let Some(mut fire) = hook.fire() {
            fire.field("block_count", count);
        }
        let msg = NnMsg::BlockReport {
            datanode: s.id.clone(),
            blocks,
        };
        let _ = s.net.send(&s.id, NAMENODE_ADDR, msg.encode());
    }
}

/// Periodically validates every stored block (HDFS's DataBlockScanner).
pub(crate) fn scanner_loop(s: Arc<DnShared>, alive: Arc<AtomicBool>) {
    let hook = s.hooks.site("scanner_loop");
    while s.is_running() && alive.load(Ordering::Relaxed) {
        s.clock.sleep(SCAN_INTERVAL);
        for (_, path) in s.store.list_all() {
            if path.ends_with(".volume") || path.contains("__wd") {
                continue;
            }
            if let Some(mut fire) = hook.fire() {
                fire.field("block_path", path.clone());
            }
            // In-place error handler: a bad block is counted and scanning
            // continues.
            match s.store.validate_path(&path) {
                Ok(()) => {
                    s.blocks_scanned.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    s.scan_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            if !s.is_running() {
                break;
            }
        }
    }
}

impl Drop for DataNode {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for DataNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataNode")
            .field("id", &self.shared.id)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namenode::NameNode;
    use simio::disk::SimDisk;
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

    fn node() -> (DataNode, NameNode, SimNet) {
        let net = SimNet::for_tests();
        let nn = NameNode::start(net.clone(), RealClock::shared(), Duration::from_millis(300));
        let dn = DataNode::start(
            DataNodeConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            net.clone(),
        )
        .unwrap();
        (dn, nn, net)
    }

    #[test]
    fn blocks_roundtrip_across_volumes() {
        let (dn, _nn, _net) = node();
        let ids: Vec<u64> = (0..6)
            .map(|i| dn.write_block(format!("data-{i}").as_bytes()).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(dn.read_block(*id).unwrap(), format!("data-{i}").as_bytes());
        }
        // Round-robin spread: each of 3 volumes holds 2 blocks (+ marker).
        for v in dn.store().volumes() {
            let blocks = dn
                .store()
                .list_volume(v)
                .into_iter()
                .filter(|p| !p.ends_with(".volume"))
                .count();
            assert_eq!(blocks, 2, "volume {v}");
        }
    }

    #[test]
    fn namenode_learns_liveness_and_locations() {
        let (dn, nn, _net) = node();
        let id = dn.write_block(b"replicate-me").unwrap();
        wait_for(|| nn.datanode_alive("dn1"), "heartbeat");
        wait_for(|| !nn.locations(id).is_empty(), "block report");
        assert_eq!(nn.locations(id), vec!["dn1"]);
    }

    #[test]
    fn scanner_counts_clean_blocks_and_catches_rot() {
        let (dn, _nn, _net) = node();
        let id = dn.write_block(b"scan-me").unwrap();
        wait_for(|| dn.stats().blocks_scanned >= 1, "first scan");
        assert_eq!(dn.stats().scan_errors, 0);
        // Rot the stored block in place.
        let path = crate::block::BlockStore::block_path(
            &dn.shared.blocks.read().get(&id).cloned().unwrap(),
            id,
        );
        let mut raw = dn.store().disk().read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        dn.store().disk().write_all(&path, &raw).unwrap();
        wait_for(|| dn.stats().scan_errors >= 1, "scanner to catch the rot");
    }

    #[test]
    fn stopped_datanode_goes_silent() {
        let (mut dn, nn, _net) = node();
        wait_for(|| nn.datanode_alive("dn1"), "heartbeat");
        dn.stop();
        std::thread::sleep(Duration::from_millis(400));
        assert!(!nn.datanode_alive("dn1"));
    }
}
