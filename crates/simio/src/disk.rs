//! An in-memory simulated disk with latency and fault injection.
//!
//! [`SimDisk`] gives target systems (WALs, SSTables, snapshots) a disk-shaped
//! API — append/read/fsync/rename over named files — while staying entirely
//! deterministic. Gray failures from the paper's catalogue are armed through
//! [`SimDisk::inject`]:
//!
//! - **fail-slow** ([`DiskFault::Slow`]): matching operations take `factor`×
//!   their modelled latency;
//! - **partial disk failure / stuck I/O** ([`DiskFault::Stuck`]): matching
//!   operations block until the fault is cleared — exactly what a hung
//!   controller or a dead NFS mount looks like from user space;
//! - **I/O errors** ([`DiskFault::Error`]);
//! - **silent corruption** ([`DiskFault::CorruptWrites`]): one stored byte
//!   is flipped without any error being reported, which only
//!   checksum-validating checkers can catch.
//!
//! Faults are scoped by path prefix and operation kind, so "the WAL volume is
//! slow but the data volume is fine" — a *partial* failure — is expressible.
//! [`SimDisk::op_stats`] counts every call and every faulted call per op
//! kind: the one ledger of what the disk did.
//!
//! The disk also supports [`SimDisk::crash`], which discards all writes not
//! yet covered by an `fsync`, enabling WAL-replay durability tests.
//!
//! Its six mutators (`create`, `append`, `write_all`, `fsync`, `remove`,
//! `rename`) are the checker-isolation choke point for files: inside a
//! checker scope each refuses, before it counts, draws latency or locks,
//! a path without the probe tag ([`wdog_base::isolation::assert_tagged`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use wdog_base::clock::SharedClock;
use wdog_base::error::{BaseError, BaseResult};
use wdog_base::isolation;

use crate::latency::LatencyModel;

/// The class of a disk operation, used to scope fault rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskOpKind {
    /// Data reads.
    Read,
    /// Data writes (append or positional).
    Write,
    /// Durability barriers (`fsync`).
    Sync,
    /// Namespace operations (create, remove, rename, list).
    Meta,
}

/// A fault armable on a [`SimDisk`].
#[derive(Debug, Clone)]
pub enum DiskFault {
    /// Matching operations take `factor` times their modelled latency.
    Slow {
        /// Latency multiplier; values below 1.0 are clamped to 1.0.
        factor: f64,
    },
    /// Matching operations block until the fault is cleared.
    Stuck,
    /// Matching operations fail with an I/O error.
    Error {
        /// Message carried in the returned [`BaseError::Io`].
        message: String,
    },
    /// Writes silently store data with one byte flipped.
    CorruptWrites,
}

/// A fault rule: which paths and operation kinds a fault applies to.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Only paths starting with this prefix are affected (`""`: all).
    pub path_prefix: String,
    /// Only these operation kinds are affected.
    pub ops: Vec<DiskOpKind>,
    /// The fault itself.
    pub fault: DiskFault,
}

impl FaultRule {
    /// Creates a rule affecting paths under `prefix` for the given kinds.
    pub fn scoped(prefix: impl Into<String>, ops: Vec<DiskOpKind>, fault: DiskFault) -> Self {
        Self {
            path_prefix: prefix.into(),
            ops,
            fault,
        }
    }

    fn matches(&self, path: &str, op: DiskOpKind) -> bool {
        path.starts_with(self.path_prefix.as_str()) && self.ops.contains(&op)
    }
}

/// Handle to an armed fault, used to clear it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultHandle(u64);

/// Per-op-kind call/fault counters, turso-`SimulatorFile` style: every
/// callsite entry into the disk counts one *call* for its op kind, and one
/// *fault* when an armed fault rule actually shaped that call (blocked it,
/// slowed it, failed it, or corrupted it). The chaos campaign
/// exports these as the `sim_io_disk_*` families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Operations of this kind that entered the fault gate.
    pub calls: u64,
    /// Operations of this kind an armed fault acted on.
    pub faults: u64,
}

/// The per-op-kind call/fault counters of a [`SimDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskOpStats {
    /// Data reads.
    pub read: OpStats,
    /// Data writes.
    pub write: OpStats,
    /// Durability barriers.
    pub sync: OpStats,
    /// Namespace operations.
    pub meta: OpStats,
}

impl DiskOpStats {
    /// `(label, stats)` rows in fixed order, for telemetry.
    pub fn rows(&self) -> [(&'static str, OpStats); 4] {
        [
            ("read", self.read),
            ("write", self.write),
            ("sync", self.sync),
            ("meta", self.meta),
        ]
    }
}

#[derive(Default)]
pub(crate) struct OpCounters {
    calls: AtomicU64,
    faults: AtomicU64,
}

impl OpCounters {
    pub(crate) fn call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> OpStats {
        OpStats {
            calls: self.calls.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct FileData {
    data: Vec<u8>,
    synced_len: usize,
}

struct DiskInner {
    files: HashMap<String, FileData>,
    used: u64,
}

/// An in-memory simulated disk. Cloneable via [`Arc`]; see module docs.
pub struct SimDisk {
    inner: Mutex<DiskInner>,
    faults: RwLock<Vec<(FaultHandle, FaultRule)>>,
    next_fault: AtomicU64,
    capacity: u64,
    latency: LatencyModel,
    clock: SharedClock,
    per_op: [OpCounters; 4],
}

fn op_index(op: DiskOpKind) -> usize {
    match op {
        DiskOpKind::Read => 0,
        DiskOpKind::Write => 1,
        DiskOpKind::Sync => 2,
        DiskOpKind::Meta => 3,
    }
}

/// How long a stuck operation sleeps between fault re-checks.
const STUCK_POLL: Duration = Duration::from_millis(1);

impl SimDisk {
    /// Creates a disk with the given capacity, latency model, and clock.
    pub fn new(capacity: u64, latency: LatencyModel, clock: SharedClock) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(DiskInner {
                files: HashMap::new(),
                used: 0,
            }),
            faults: RwLock::new(Vec::new()),
            next_fault: AtomicU64::new(1),
            capacity,
            latency,
            clock,
            per_op: Default::default(),
        })
    }

    /// Creates a fast, fault-free disk for unit tests: large capacity, zero
    /// latency, real clock.
    pub fn for_tests() -> Arc<Self> {
        Self::new(
            1 << 30,
            LatencyModel::zero(),
            wdog_base::clock::RealClock::shared(),
        )
    }

    /// Arms a fault and returns a handle for clearing it.
    pub fn inject(&self, rule: FaultRule) -> FaultHandle {
        let h = FaultHandle(self.next_fault.fetch_add(1, Ordering::Relaxed));
        self.faults.write().push((h, rule));
        h
    }

    /// Clears one armed fault; unknown handles are ignored.
    pub fn clear(&self, handle: FaultHandle) {
        self.faults.write().retain(|(h, _)| *h != handle);
    }

    /// Clears every armed fault.
    pub fn clear_all(&self) {
        self.faults.write().clear();
    }

    /// Returns the per-op-kind call/fault counters.
    pub fn op_stats(&self) -> DiskOpStats {
        DiskOpStats {
            read: self.per_op[op_index(DiskOpKind::Read)].snapshot(),
            write: self.per_op[op_index(DiskOpKind::Write)].snapshot(),
            sync: self.per_op[op_index(DiskOpKind::Sync)].snapshot(),
            meta: self.per_op[op_index(DiskOpKind::Meta)].snapshot(),
        }
    }

    /// Returns bytes currently stored.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Returns the configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Simulates a crash: every file is truncated to its last-fsynced length,
    /// and files never fsynced disappear entirely.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        let mut used = 0u64;
        inner.files.retain(|_, f| {
            f.data.truncate(f.synced_len);
            f.synced_len > 0
        });
        for f in inner.files.values() {
            used += f.data.len() as u64;
        }
        inner.used = used;
    }

    /// Applies armed faults for `(path, op)`: sleeps for latency (scaled if a
    /// slow fault matches), blocks while a stuck fault matches, and returns an
    /// error if an error fault matches. Returns whether the caller must
    /// corrupt the bytes it writes.
    fn gate(&self, path: &str, op: DiskOpKind) -> BaseResult<bool> {
        let counters = &self.per_op[op_index(op)];
        counters.call();
        let mut faulted = false;

        // Block while any matching stuck fault is armed. Poll so that
        // clearing the fault releases us.
        loop {
            let stuck = self
                .faults
                .read()
                .iter()
                .any(|(_, r)| r.matches(path, op) && matches!(r.fault, DiskFault::Stuck));
            if !stuck {
                break;
            }
            faulted = true;
            self.clock.sleep(STUCK_POLL);
        }

        let mut slow_factor = 1.0f64;
        let mut corrupt_write = false;
        let mut error: Option<String> = None;
        for (_, r) in self.faults.read().iter() {
            if !r.matches(path, op) {
                continue;
            }
            match &r.fault {
                DiskFault::Slow { factor } => {
                    slow_factor = slow_factor.max(factor.max(1.0));
                    faulted = true;
                }
                DiskFault::Error { message } => {
                    error = Some(message.clone());
                    faulted = true;
                }
                DiskFault::CorruptWrites => {
                    corrupt_write = true;
                    faulted = true;
                }
                DiskFault::Stuck => {}
            }
        }
        if faulted {
            counters.fault();
        }

        let delay = self.latency.sample_scaled(slow_factor);
        if !delay.is_zero() {
            self.clock.sleep(delay);
        }
        if let Some(message) = error {
            return Err(BaseError::Io(format!("{message} ({path})")));
        }
        Ok(corrupt_write)
    }

    /// Creates an empty file, failing if it already exists.
    pub fn create(&self, path: &str) -> BaseResult<()> {
        isolation::assert_tagged(path);
        self.gate(path, DiskOpKind::Meta)?;
        let mut inner = self.inner.lock();
        if inner.files.contains_key(path) {
            return Err(BaseError::InvalidState(format!("{path} already exists")));
        }
        inner.files.insert(path.to_owned(), FileData::default());
        Ok(())
    }

    /// Appends `data` to `path`, creating the file if needed.
    pub fn append(&self, path: &str, data: &[u8]) -> BaseResult<()> {
        isolation::assert_tagged(path);
        let corrupt_write = self.gate(path, DiskOpKind::Write)?;
        let mut inner = self.inner.lock();
        if inner.used + data.len() as u64 > self.capacity {
            return Err(BaseError::Exhausted(format!(
                "disk full: {} + {} > {}",
                inner.used,
                data.len(),
                self.capacity
            )));
        }
        inner.used += data.len() as u64;
        let file = inner.files.entry(path.to_owned()).or_default();
        let start = file.data.len();
        file.data.extend_from_slice(data);
        if corrupt_write && !data.is_empty() {
            file.data[start] ^= 0xFF;
        }
        Ok(())
    }

    /// Overwrites the file at `path` with `data`, creating it if needed.
    pub fn write_all(&self, path: &str, data: &[u8]) -> BaseResult<()> {
        isolation::assert_tagged(path);
        let corrupt_write = self.gate(path, DiskOpKind::Write)?;
        let mut inner = self.inner.lock();
        let old_len = inner.files.get(path).map_or(0, |f| f.data.len()) as u64;
        let new_used = inner.used - old_len + data.len() as u64;
        if new_used > self.capacity {
            return Err(BaseError::Exhausted(format!(
                "disk full: {new_used} > {}",
                self.capacity
            )));
        }
        inner.used = new_used;
        let file = inner.files.entry(path.to_owned()).or_default();
        file.data = data.to_vec();
        file.synced_len = file.synced_len.min(file.data.len());
        if corrupt_write && !file.data.is_empty() {
            file.data[0] ^= 0xFF;
        }
        Ok(())
    }

    /// Reads the whole file at `path`.
    pub fn read(&self, path: &str) -> BaseResult<Vec<u8>> {
        self.gate(path, DiskOpKind::Read)?;
        let inner = self.inner.lock();
        let file = inner
            .files
            .get(path)
            .ok_or_else(|| BaseError::NotFound(path.to_owned()))?;
        Ok(file.data.clone())
    }

    /// Reads `len` bytes at `offset` from `path`.
    pub fn read_at(&self, path: &str, offset: usize, len: usize) -> BaseResult<Vec<u8>> {
        self.gate(path, DiskOpKind::Read)?;
        let inner = self.inner.lock();
        let file = inner
            .files
            .get(path)
            .ok_or_else(|| BaseError::NotFound(path.to_owned()))?;
        if offset + len > file.data.len() {
            return Err(BaseError::Io(format!(
                "short read: {offset}+{len} > {} in {path}",
                file.data.len()
            )));
        }
        Ok(file.data[offset..offset + len].to_vec())
    }

    /// Makes all bytes of `path` durable against [`SimDisk::crash`].
    pub fn fsync(&self, path: &str) -> BaseResult<()> {
        isolation::assert_tagged(path);
        self.gate(path, DiskOpKind::Sync)?;
        let mut inner = self.inner.lock();
        let file = inner
            .files
            .get_mut(path)
            .ok_or_else(|| BaseError::NotFound(path.to_owned()))?;
        file.synced_len = file.data.len();
        Ok(())
    }

    /// Removes the file at `path`.
    pub fn remove(&self, path: &str) -> BaseResult<()> {
        isolation::assert_tagged(path);
        self.gate(path, DiskOpKind::Meta)?;
        let mut inner = self.inner.lock();
        match inner.files.remove(path) {
            Some(f) => {
                inner.used -= f.data.len() as u64;
                Ok(())
            }
            None => Err(BaseError::NotFound(path.to_owned())),
        }
    }

    /// Atomically renames `from` to `to`, replacing any existing `to`.
    pub fn rename(&self, from: &str, to: &str) -> BaseResult<()> {
        isolation::assert_tagged(from);
        isolation::assert_tagged(to);
        self.gate(from, DiskOpKind::Meta)?;
        let mut inner = self.inner.lock();
        let file = inner
            .files
            .remove(from)
            .ok_or_else(|| BaseError::NotFound(from.to_owned()))?;
        if let Some(old) = inner.files.insert(to.to_owned(), file) {
            inner.used -= old.data.len() as u64;
        }
        Ok(())
    }

    /// Returns the length of `path` in bytes.
    pub fn len(&self, path: &str) -> BaseResult<usize> {
        let inner = self.inner.lock();
        inner
            .files
            .get(path)
            .map(|f| f.data.len())
            .ok_or_else(|| BaseError::NotFound(path.to_owned()))
    }

    /// Returns `true` if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    /// Lists paths starting with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.lock();
        let mut v: Vec<String> = inner
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDisk")
            .field("capacity", &self.capacity)
            .field("used", &self.used())
            .field("op_stats", &self.op_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_roundtrip() {
        let d = SimDisk::for_tests();
        d.append("wal/0", b"hello ").unwrap();
        d.append("wal/0", b"world").unwrap();
        assert_eq!(d.read("wal/0").unwrap(), b"hello world");
        assert_eq!(d.len("wal/0").unwrap(), 11);
    }

    #[test]
    fn read_missing_file_is_not_found() {
        let d = SimDisk::for_tests();
        assert!(matches!(d.read("nope"), Err(BaseError::NotFound(_))));
    }

    #[test]
    fn create_twice_fails() {
        let d = SimDisk::for_tests();
        d.create("a").unwrap();
        assert!(matches!(d.create("a"), Err(BaseError::InvalidState(_))));
    }

    #[test]
    fn capacity_enforced() {
        let d = SimDisk::new(
            10,
            LatencyModel::zero(),
            wdog_base::clock::RealClock::shared(),
        );
        d.append("f", b"0123456789").unwrap();
        assert!(matches!(d.append("f", b"x"), Err(BaseError::Exhausted(_))));
        // Removing frees space.
        d.remove("f").unwrap();
        d.append("f", b"x").unwrap();
    }

    #[test]
    fn crash_discards_unsynced_tail() {
        let d = SimDisk::for_tests();
        d.append("wal", b"durable").unwrap();
        d.fsync("wal").unwrap();
        d.append("wal", b"-volatile").unwrap();
        d.append("never-synced", b"gone").unwrap();
        d.crash();
        assert_eq!(d.read("wal").unwrap(), b"durable");
        assert!(!d.exists("never-synced"));
    }

    #[test]
    fn error_fault_scoped_by_prefix() {
        let d = SimDisk::for_tests();
        d.append("data/x", b"ok").unwrap();
        let h = d.inject(FaultRule::scoped(
            "wal/",
            vec![DiskOpKind::Write],
            DiskFault::Error {
                message: "bad sector".into(),
            },
        ));
        assert!(matches!(d.append("wal/0", b"x"), Err(BaseError::Io(_))));
        // Other prefix and other op kinds unaffected.
        d.append("data/x", b"more").unwrap();
        assert!(d.read("data/x").is_ok());
        d.clear(h);
        d.append("wal/0", b"x").unwrap();
    }

    #[test]
    fn corrupt_writes_flip_a_byte_silently() {
        let d = SimDisk::for_tests();
        let _h = d.inject(FaultRule::scoped(
            "",
            vec![DiskOpKind::Write],
            DiskFault::CorruptWrites,
        ));
        d.append("f", b"AAAA").unwrap();
        let got = d.read("f").unwrap();
        assert_ne!(got, b"AAAA");
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn stuck_fault_blocks_until_cleared() {
        let d = SimDisk::for_tests();
        let h = d.inject(FaultRule::scoped(
            "f",
            vec![DiskOpKind::Write],
            DiskFault::Stuck,
        ));
        let d2 = Arc::clone(&d);
        let t = std::thread::spawn(move || d2.append("f", b"x"));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!t.is_finished(), "write completed despite stuck fault");
        d.clear(h);
        t.join().unwrap().unwrap();
        assert_eq!(d.read("f").unwrap(), b"x");
    }

    #[test]
    fn rename_replaces_target_and_accounts_space() {
        let d = SimDisk::for_tests();
        d.append("a", b"12345").unwrap();
        d.append("b", b"xx").unwrap();
        d.rename("a", "b").unwrap();
        assert!(!d.exists("a"));
        assert_eq!(d.read("b").unwrap(), b"12345");
        assert_eq!(d.used(), 5);
    }

    #[test]
    fn list_is_sorted_and_filtered() {
        let d = SimDisk::for_tests();
        for p in ["sst/2", "sst/1", "wal/0", "sst/10"] {
            d.append(p, b"x").unwrap();
        }
        assert_eq!(d.list("sst/"), vec!["sst/1", "sst/10", "sst/2"]);
    }

    #[test]
    fn per_op_stats_count_calls_and_faults() {
        let d = SimDisk::for_tests();
        d.append("f", b"abc").unwrap();
        d.read("f").unwrap();
        d.fsync("f").unwrap();
        let clean = d.op_stats();
        assert_eq!(
            clean.write,
            OpStats {
                calls: 1,
                faults: 0
            }
        );
        assert_eq!(
            clean.read,
            OpStats {
                calls: 1,
                faults: 0
            }
        );
        assert_eq!(
            clean.sync,
            OpStats {
                calls: 1,
                faults: 0
            }
        );

        let h = d.inject(FaultRule::scoped(
            "f",
            vec![DiskOpKind::Write],
            DiskFault::Error {
                message: "bad".into(),
            },
        ));
        assert!(d.append("f", b"x").is_err());
        d.read("f").unwrap(); // reads unaffected by the write-scoped fault
        d.clear(h);
        let after = d.op_stats();
        assert_eq!(
            after.write,
            OpStats {
                calls: 2,
                faults: 1
            }
        );
        assert_eq!(
            after.read,
            OpStats {
                calls: 2,
                faults: 0
            }
        );
    }

    #[test]
    fn read_at_bounds_checked() {
        let d = SimDisk::for_tests();
        d.append("f", b"0123456789").unwrap();
        assert_eq!(d.read_at("f", 2, 3).unwrap(), b"234");
        assert!(d.read_at("f", 8, 5).is_err());
    }

    #[test]
    fn write_all_overwrites_and_reaccounts() {
        let d = SimDisk::for_tests();
        d.write_all("f", b"long-content").unwrap();
        d.write_all("f", b"sm").unwrap();
        assert_eq!(d.used(), 2);
        assert_eq!(d.read("f").unwrap(), b"sm");
    }
}
