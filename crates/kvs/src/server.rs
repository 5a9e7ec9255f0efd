//! Server wiring: shared state, background threads, client handle, and
//! crash semantics.
//!
//! A running [`KvsServer`] matches the paper's Figure 1: worker threads
//! drain the request listener queue; the WAL writer, disk flusher,
//! compaction manager, and replication engine run as background threads; and
//! the watchdog (built separately by [`crate::wd`]) lives in the same
//! address space, fed one-way through hook sites owned here.
//!
//! [`KvsServer::crash`] models fail-stop: every thread observes the running
//! flag and exits, requests time out, and — because an intrinsic watchdog
//! dies with its process — experiment harnesses stop the watchdog driver at
//! the same moment.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use faults::ToggleSet;
use simio::disk::SimDisk;
use simio::net::SimNet;
use simio::resource::{ResourceMonitor, StallPoint};

use wdog_base::clock::{spawn_on, SharedClock};
use wdog_base::error::{BaseError, BaseResult};
use wdog_base::isolation;
use wdog_base::queue::ClockedQueue;
use wdog_base::sync::ClockedMutex;

use wdog_core::prelude::*;

use crate::api::{Request, Response};
use crate::config::KvsConfig;
use crate::index::MemIndex;
use crate::partition::PartitionManager;
use crate::sstable::read_sstable;
use crate::supervise::{SupervisionStats, Supervisor};
use crate::wal::Wal;

/// Counters exposed for experiments and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvsStats {
    /// WAL records made durable.
    pub wal_records: u64,
    /// Index snapshots flushed to SSTables.
    pub flushes: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Explicit errors caught by in-place error handlers (the paper's
    /// error-handler abstraction, measured as a detection baseline in E1).
    pub errors_handled: u64,
}

#[derive(Default)]
pub(crate) struct StatsInner {
    pub(crate) wal_records: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) errors_handled: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> KvsStats {
        KvsStats {
            wal_records: self.wal_records.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            errors_handled: self.errors_handled.load(Ordering::Relaxed),
        }
    }
}

/// State shared by every kvs thread and the watchdog integration.
pub(crate) struct Shared {
    pub(crate) config: KvsConfig,
    pub(crate) clock: SharedClock,
    pub(crate) disk: Arc<SimDisk>,
    pub(crate) net: Option<SimNet>,
    pub(crate) monitor: ResourceMonitor,
    pub(crate) stall: StallPoint,
    pub(crate) toggles: ToggleSet,
    pub(crate) index: MemIndex,
    /// Clock-visible: held across WAL disk appends and flush rotation.
    pub(crate) wal: ClockedMutex<Wal>,
    pub(crate) wal_q: ClockedQueue<Bytes>,
    /// Shared handle: a restarted replication loop resumes the same queue.
    pub(crate) repl_q: ClockedQueue<Bytes>,
    pub(crate) partitions: PartitionManager,
    /// Clock-visible: held across whole compaction merges (disk IO).
    pub(crate) compaction_lock: ClockedMutex<()>,
    pub(crate) supervisor: Supervisor,
    pub(crate) index_rebuilds: AtomicU64,
    pub(crate) running: AtomicBool,
    pub(crate) hooks: Hooks,
    /// The flusher's hook, resolved once so `flush_once` publishes
    /// through its cached slot.
    pub(crate) flusher_hook: HookSite,
    pub(crate) context: Arc<ContextTable>,
    pub(crate) stats: StatsInner,
}

impl Shared {
    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::Relaxed)
    }
}

/// The request queue element: a request plus its single-slot reply queue.
pub(crate) type RequestItem = (Request, ClockedQueue<Response>);

/// The assembled kvs process.
pub struct KvsServer {
    shared: Arc<Shared>,
    request_q: ClockedQueue<RequestItem>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KvsServer {
    /// Builds, recovers, and starts a server.
    ///
    /// `net` is required when `config.replication` is set.
    pub fn start(
        config: KvsConfig,
        clock: SharedClock,
        disk: Arc<SimDisk>,
        net: Option<SimNet>,
    ) -> BaseResult<Self> {
        if config.replication.is_some() && net.is_none() {
            return Err(BaseError::InvalidState(
                "replication configured but no network provided".into(),
            ));
        }
        let monitor = ResourceMonitor::new();
        let toggles = ToggleSet::new();
        let corrupt_flag = toggles.flag("kvs.indexer.corrupt");
        let index = MemIndex::new(corrupt_flag, monitor.clone());
        let partitions = PartitionManager::new(Arc::clone(&disk));
        let context = ContextTable::new(Arc::clone(&clock));
        let hooks = Hooks::new(Arc::clone(&context));

        // Recovery: SSTables first (oldest to newest), then the WAL tail.
        if config.durable {
            recover(&disk, &index, &partitions)?;
        }

        let wal_q = ClockedQueue::<Bytes>::unbounded(&clock);
        let repl_q = ClockedQueue::<Bytes>::unbounded(&clock);
        let request_q = ClockedQueue::bounded(&clock, crate::config::REQUEST_QUEUE_CAP);

        let wal = ClockedMutex::new(&clock, Wal::new(Arc::clone(&disk), "wal/current"));
        let compaction_lock = ClockedMutex::new(&clock, ());
        let shared = Arc::new(Shared {
            wal,
            config: config.clone(),
            clock,
            disk,
            net,
            monitor: monitor.clone(),
            stall: StallPoint::new(),
            toggles,
            index,
            wal_q: wal_q.clone(),
            repl_q: repl_q.clone(),
            partitions,
            compaction_lock,
            supervisor: Supervisor::new(),
            index_rebuilds: AtomicU64::new(0),
            running: AtomicBool::new(true),
            flusher_hook: hooks.site("flusher_loop"),
            hooks,
            context,
            stats: StatsInner::default(),
        });

        // Expose queue depths to signal checkers.
        let rq = request_q.clone();
        monitor.register_queue("requests", Arc::new(move || rq.len()));
        let wq = wal_q.clone();
        monitor.register_queue("wal", Arc::new(move || wq.len()));
        let pq = repl_q.clone();
        monitor.register_queue("replication", Arc::new(move || pq.len()));

        let mut threads = Vec::new();
        for i in 0..crate::config::WORKERS {
            let s = Arc::clone(&shared);
            let rx = request_q.clone();
            threads.push(spawn_on(
                &shared.clock,
                &format!("kvs-worker-{i}"),
                move || crate::listener::worker_loop(s, rx),
            ));
        }
        if config.durable {
            let s = Arc::clone(&shared);
            threads.push(spawn_on(&shared.clock, "kvs-wal", move || {
                crate::listener::wal_loop(s, wal_q)
            }));
            let s = Arc::clone(&shared);
            let alive = s.supervisor.flusher.flag();
            threads.push(spawn_on(&shared.clock, "kvs-flusher", move || {
                crate::flusher::flusher_loop(s, alive)
            }));
            let s = Arc::clone(&shared);
            let alive = s.supervisor.compaction.flag();
            threads.push(spawn_on(&shared.clock, "kvs-compaction", move || {
                crate::compaction::compaction_loop(s, alive)
            }));
        }
        if config.replication.is_some() {
            let s = Arc::clone(&shared);
            let alive = s.supervisor.replication.flag();
            threads.push(spawn_on(&shared.clock, "kvs-replication", move || {
                crate::replication::replication_loop(s, repl_q, alive)
            }));
        }

        Ok(Self {
            shared,
            request_q,
            threads,
        })
    }

    /// Starts a default-configured server on fresh test substrates.
    pub fn for_tests() -> Self {
        Self::start(
            KvsConfig::default(),
            wdog_base::clock::RealClock::shared(),
            SimDisk::for_tests(),
            None,
        )
        .expect("test server")
    }

    /// Returns a client handle.
    pub fn client(&self) -> KvsClient {
        KvsClient {
            q: self.request_q.clone(),
            clock: Arc::clone(&self.shared.clock),
            timeout: self.shared.config.client_timeout,
        }
    }

    /// Simulates fail-stop: all threads exit, requests time out.
    pub fn crash(&self) {
        self.shared.running.store(false, Ordering::Relaxed);
    }

    /// Returns `true` until [`KvsServer::crash`] or [`KvsServer::stop`].
    pub fn is_running(&self) -> bool {
        self.shared.is_running()
    }

    /// Graceful shutdown: signals threads and joins them.
    ///
    /// Threads wedged inside an armed fault are detached rather than
    /// awaited; they unwedge (and exit) when the fault clears.
    pub fn stop(&mut self) {
        self.shared.running.store(false, Ordering::Relaxed);
        let handles: Vec<_> = self.threads.drain(..).collect();
        wdog_base::join::join_all_timeout(handles, std::time::Duration::from_millis(500));
    }

    /// Returns a statistics snapshot.
    pub fn stats(&self) -> KvsStats {
        self.shared.stats.snapshot()
    }

    /// Returns the resource monitor (for signal checkers).
    pub fn monitor(&self) -> ResourceMonitor {
        self.shared.monitor.clone()
    }

    /// Returns the process stall gate (for pause injection).
    pub fn stall(&self) -> StallPoint {
        self.shared.stall.clone()
    }

    /// Returns the cooperative fault toggles.
    pub fn toggles(&self) -> ToggleSet {
        self.shared.toggles.clone()
    }

    /// Returns the disk this server persists to.
    pub fn disk(&self) -> Arc<SimDisk> {
        Arc::clone(&self.shared.disk)
    }

    /// Returns the watchdog context table fed by this server's hooks.
    pub fn context(&self) -> Arc<ContextTable> {
        Arc::clone(&self.shared.context)
    }

    /// Returns the hook infrastructure (for the E5/E6 hook ablations).
    pub fn hooks(&self) -> Hooks {
        self.shared.hooks.clone()
    }

    /// Returns the number of live SSTables.
    pub fn sstable_count(&self) -> usize {
        self.shared.partitions.table_count()
    }

    /// Validates every live SSTable's checksum.
    pub fn validate_partitions(&self) -> BaseResult<()> {
        self.shared.partitions.validate_all()
    }

    /// Cheap recovery (paper §5.2): replaces the on-disk partitions with a
    /// single fresh SSTable rebuilt from the authoritative in-memory index.
    ///
    /// This is the "replacing corrupted objects/files" recovery a watchdog's
    /// precise localization enables, instead of a full process restart.
    /// Returns the number of old tables replaced.
    pub fn rebuild_partitions(&self) -> BaseResult<usize> {
        let _guard = self.shared.compaction_lock.lock();
        let old: Vec<String> = self
            .shared
            .partitions
            .tables()
            .into_iter()
            .map(|t| t.path)
            .collect();
        let entries = self.shared.index.snapshot();
        let path = self.shared.partitions.next_path();
        let meta = crate::sstable::write_sstable(&self.shared.disk, &path, &entries)?;
        self.shared.partitions.replace(&old, meta)?;
        Ok(old.len())
    }

    /// Returns supervision bookkeeping for experiments and assertions.
    pub fn supervision(&self) -> SupervisionStats {
        let sup = &self.shared.supervisor;
        let degraded = [&sup.flusher, &sup.compaction, &sup.replication]
            .into_iter()
            .filter(|s| s.is_degraded())
            .count() as u32;
        SupervisionStats {
            flusher_restarts: sup.flusher.restarts(),
            compaction_restarts: sup.compaction.restarts(),
            replication_restarts: sup.replication.restarts(),
            index_rebuilds: self.shared.index_rebuilds.load(Ordering::Relaxed),
            degraded,
        }
    }

    /// Returns the configuration the server was started with.
    pub fn config(&self) -> &KvsConfig {
        &self.shared.config
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

impl Drop for KvsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for KvsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvsServer")
            .field("running", &self.is_running())
            .field("stats", &self.stats())
            .finish()
    }
}

fn recover(disk: &Arc<SimDisk>, index: &MemIndex, partitions: &PartitionManager) -> BaseResult<()> {
    // SSTables, oldest first (paths sort by id).
    for path in disk.list("sst/") {
        let entries = read_sstable(disk, &path)?;
        for (k, v) in &entries {
            index.put(k, v);
        }
        let meta = crate::sstable::SstMeta {
            path: path.clone(),
            entries: entries.len(),
            min_key: entries.first().map(|(k, _)| k.clone()).unwrap_or_default(),
            max_key: entries.last().map(|(k, _)| k.clone()).unwrap_or_default(),
            checksum: 0, // Recomputed lazily by validate_all.
            bytes: disk.len(&path)?,
        };
        partitions.register(meta);
    }
    // Bring the id counter past recovered tables.
    let max_id = disk
        .list("sst/")
        .iter()
        .filter_map(|p| p.strip_prefix("sst/").and_then(|s| s.parse::<u64>().ok()))
        .max();
    if let Some(id) = max_id {
        partitions.ensure_next_id_above(id);
    }
    // WAL tail: a rotated log left by a crash mid-flush replays first
    // (its records are older), then the current log. Records are
    // after-images, so replay is idempotent.
    for path in [crate::flusher::WAL_ROTATED_PATH, "wal/current"] {
        for record in Wal::replay(disk, path)? {
            let req = Request::decode(&record)?;
            apply_to_index(index, &req);
        }
    }
    Ok(())
}

pub(crate) fn apply_to_index(index: &MemIndex, req: &Request) {
    match req {
        Request::Set { key, value } => {
            index.put(key, value);
        }
        Request::Append { key, value } => {
            index.append(key, value);
        }
        Request::Del { key } => {
            index.remove(key);
        }
        Request::Get { .. } => {}
    }
}

/// A handle for submitting requests to a running server.
#[derive(Clone)]
pub struct KvsClient {
    q: ClockedQueue<RequestItem>,
    clock: SharedClock,
    timeout: std::time::Duration,
}

impl KvsClient {
    /// Submits a request and waits for the response.
    ///
    /// Returns [`BaseError::Exhausted`] when the request queue is full and
    /// [`BaseError::Timeout`] when no response arrives in time (the
    /// observable behaviour of a crashed or wedged server). The wait is
    /// clock-paced, so a simulated clock sees it as a discrete-event wait.
    /// Inside a checker scope, a set, append or del of an untagged key
    /// panics before it is queued ([`wdog_base::isolation`]).
    pub fn request(&self, req: Request) -> BaseResult<Response> {
        if let Request::Set { key, .. } | Request::Append { key, .. } | Request::Del { key } = &req
        {
            // wdog: ignore -- the checker-isolation guard, not program I/O
            isolation::assert_tagged(key);
        }
        let reply = ClockedQueue::<Response>::bounded(&self.clock, 1);
        self.q
            .push((req, reply.clone()))
            .map_err(|_| BaseError::Exhausted("request queue full or closed".into()))?;
        reply
            .pop_timeout(self.timeout)
            .ok_or_else(|| BaseError::Timeout {
                what: "kvs request".into(),
                after_ms: self.timeout.as_millis() as u64,
            })
    }

    /// Convenience GET.
    pub fn get(&self, key: &str) -> BaseResult<Option<String>> {
        match self.request(Request::Get { key: key.into() })? {
            Response::Value(v) => Ok(v),
            Response::Error(e) => Err(BaseError::Io(e)),
            Response::Ok => Err(BaseError::InvalidState("unexpected Ok for GET".into())),
        }
    }

    /// Convenience SET.
    pub fn set(&self, key: &str, value: &str) -> BaseResult<()> {
        match self.request(Request::Set {
            key: key.into(),
            value: value.into(),
        })? {
            Response::Error(e) => Err(BaseError::Io(e)),
            _ => Ok(()),
        }
    }

    /// Convenience APPEND.
    pub fn append(&self, key: &str, value: &str) -> BaseResult<()> {
        match self.request(Request::Append {
            key: key.into(),
            value: value.into(),
        })? {
            Response::Error(e) => Err(BaseError::Io(e)),
            _ => Ok(()),
        }
    }

    /// Convenience DEL.
    pub fn del(&self, key: &str) -> BaseResult<()> {
        match self.request(Request::Del { key: key.into() })? {
            Response::Error(e) => Err(BaseError::Io(e)),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Debug for KvsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KvsClient")
    }
}
