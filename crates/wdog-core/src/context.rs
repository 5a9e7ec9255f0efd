//! Checker contexts and one-way state synchronization (paper §3.1).
//!
//! A concurrent checker must not report failures that do not exist in the
//! main program — the paper's example is a disk-flusher checker barking when
//! `kvs` is configured in-memory and no snapshot directory exists. The fix is
//! a **context** bound to each checker that supplies the payload and
//! arguments for the checking procedure, updated by **hooks** in the main
//! program. Synchronization is strictly **one-way**: the main program
//! publishes; checkers read.
//!
//! This module enforces the direction with types: a [`ContextTable`] hands
//! out write access only through [`hooks`](crate::hooks), while checkers get
//! a read-only [`ContextReader`]. Reads return a [`ContextSnapshot`] — a
//! deep copy — which is the paper's *context replication* isolation
//! mechanism (§5.1): a checker mutating its snapshot can never corrupt the
//! main program's data.
//!
//! # One lock per slot
//!
//! Contexts are stored as pre-registered, index-addressed [`ContextSlot`]s.
//! A hook site calls [`ContextTable::register`] once when it is created and
//! caches the returned `Arc<ContextSlot>`; every subsequent publish locks
//! only that slot — no key hashing, no table-wide lock — and upserts its
//! fields in place in a flat vector, so the steady-state publish allocates
//! nothing. Checkers read via [`ContextSlot::snapshot`], which clones the
//! fields under the same lock: an exact point-in-time view. One mutex is
//! enough because every hook site but one is fired by a single dedicated
//! loop thread (DESIGN §5.6 has the census and the numbers). The
//! string-keyed [`ContextTable::publish`]/[`ContextTable::read`] API resolves
//! the slot through a read-mostly index map.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use wdog_base::clock::SharedClock;

/// A value stored in a context slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CtxValue {
    /// Unsigned integer (counters, sizes, offsets).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, loads).
    F64(f64),
    /// Text (paths, keys, peer addresses).
    Str(String),
    /// Raw payload bytes (a record to write, a message to send).
    Bytes(Vec<u8>),
    /// Flag.
    Bool(bool),
}

impl CtxValue {
    /// Renders the value for inclusion in a failure report payload.
    pub fn render(&self) -> String {
        match self {
            CtxValue::U64(v) => v.to_string(),
            CtxValue::I64(v) => v.to_string(),
            CtxValue::F64(v) => format!("{v:.3}"),
            CtxValue::Str(s) => s.clone(),
            CtxValue::Bytes(b) => format!("<{} bytes>", b.len()),
            CtxValue::Bool(b) => b.to_string(),
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            CtxValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            CtxValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the bytes if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            CtxValue::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl From<u64> for CtxValue {
    fn from(v: u64) -> Self {
        CtxValue::U64(v)
    }
}

impl From<&str> for CtxValue {
    fn from(v: &str) -> Self {
        CtxValue::Str(v.to_owned())
    }
}

impl From<String> for CtxValue {
    fn from(v: String) -> Self {
        CtxValue::Str(v)
    }
}

impl From<Vec<u8>> for CtxValue {
    fn from(v: Vec<u8>) -> Self {
        CtxValue::Bytes(v)
    }
}

impl From<bool> for CtxValue {
    fn from(v: bool) -> Self {
        CtxValue::Bool(v)
    }
}

/// A deep-copied view of one context slot at read time.
///
/// Mutating a snapshot has no effect on the table — this is the context
/// replication isolation boundary.
#[derive(Debug, Clone)]
pub struct ContextSnapshot {
    /// Field name → value, copied at read time.
    pub fields: HashMap<String, CtxValue>,
    /// Monotonic per-slot version; bumps on every publish.
    pub version: u64,
    /// How old the slot was at read time.
    pub age: Duration,
}

impl ContextSnapshot {
    /// Looks up one field.
    pub fn get(&self, name: &str) -> Option<&CtxValue> {
        self.fields.get(name)
    }

    /// Renders all fields for a failure-report payload, sorted by name.
    pub fn render_payload(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = self
            .fields
            .iter()
            .map(|(k, val)| (k.clone(), val.render()))
            .collect();
        v.sort();
        v
    }
}

/// Mutable slot contents, guarded by the slot mutex.
///
/// Fields live in a flat vector upserted by linear scan: slots hold a
/// handful of fields, and after the first publish the steady state
/// re-publishes the same names — the scan replaces values in place with
/// **zero allocation** (key `String`s are allocated exactly once).
#[derive(Debug, Default)]
struct SlotState {
    fields: Vec<(String, CtxValue)>,
    updated_at: Duration,
}

/// One pre-registered context slot.
///
/// Hook sites hold an `Arc<ContextSlot>` resolved once at site creation, so
/// the publish hot path is: one relaxed enable check (in the hook), one
/// mutex, one in-place field upsert. `version` counts completed publishes; it
/// is only written under the lock, doubles as the "ever published" flag
/// (0 = registered but empty) and is readable without the lock.
pub struct ContextSlot {
    key: String,
    id: usize,
    clock: SharedClock,
    version: AtomicU64,
    state: Mutex<SlotState>,
}

/// An open publish into one slot, created by [`ContextSlot::begin_publish`].
///
/// Holds the slot lock; [`PublishGuard::set`] upserts fields in place with
/// no allocation once the field exists. Dropping the guard completes the
/// publish: it stamps the slot's freshness and bumps the slot version.
/// This is the zero-alloc path `HookSite::fire` writes through.
pub struct PublishGuard<'a> {
    slot: &'a ContextSlot,
    state: parking_lot::MutexGuard<'a, SlotState>,
}

impl PublishGuard<'_> {
    /// Sets one field, replacing a same-named field in place.
    #[inline]
    pub fn set(&mut self, name: &str, value: impl Into<CtxValue>) -> &mut Self {
        let value = value.into();
        match self.state.fields.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => self.state.fields.push((name.to_owned(), value)),
        }
        self
    }
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        self.state.updated_at = self.slot.clock.now();
        // Release pairs with the Acquire in `version()`: a lock-free reader
        // that sees the bump also sees a slot whose snapshot is ready.
        self.slot.version.fetch_add(1, Ordering::Release);
    }
}

impl std::fmt::Debug for PublishGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishGuard")
            .field("key", &self.slot.key)
            .finish()
    }
}

impl ContextSlot {
    fn new(key: String, id: usize, clock: SharedClock) -> Self {
        Self {
            key,
            id,
            clock,
            version: AtomicU64::new(0),
            state: Mutex::new(SlotState::default()),
        }
    }

    /// Returns the context key this slot stores.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Returns the slot's registration index (stable for the table's life).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Opens a publish and returns the write guard; the publish becomes
    /// visible, as a whole, when the guard drops.
    #[inline]
    pub fn begin_publish(&self) -> PublishGuard<'_> {
        PublishGuard {
            slot: self,
            state: self.state.lock(),
        }
    }

    /// Reads a deep copy, or `None` if nothing was ever published.
    ///
    /// The copy is taken under the slot lock, so it is an exact
    /// point-in-time view: every field and the version belong to the same
    /// completed publish history.
    pub fn snapshot(&self) -> Option<ContextSnapshot> {
        if !self.is_ready() {
            return None;
        }
        let now = self.clock.now();
        let state = self.state.lock();
        Some(ContextSnapshot {
            fields: state.fields.iter().cloned().collect(),
            version: self.version(),
            age: now.saturating_sub(state.updated_at),
        })
    }

    /// Returns the number of completed publishes without locking (0 = never
    /// published).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Returns `true` once the slot has been published at least once.
    pub fn is_ready(&self) -> bool {
        self.version() > 0
    }
}

impl std::fmt::Debug for ContextSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextSlot")
            .field("key", &self.key)
            .field("id", &self.id)
            .field("version", &self.version())
            .finish()
    }
}

/// The table of all checker contexts inside one watchdog.
///
/// Keys are free-form strings; by convention the generated watchdogs use the
/// reduced function's name (e.g. `"serialize_snapshot"`). Writes happen only
/// through [`ContextTable::publish`] or a registered [`ContextSlot`], which
/// the hook machinery calls from the main program's threads; checkers hold a
/// [`ContextReader`]. The key → slot index is touched only at registration
/// and string-keyed lookup, never on a slot-handle publish.
pub struct ContextTable {
    clock: SharedClock,
    index: RwLock<HashMap<String, Arc<ContextSlot>>>,
}

impl ContextTable {
    /// Creates an empty table on the given clock.
    pub fn new(clock: SharedClock) -> Arc<Self> {
        Arc::new(Self {
            clock,
            index: RwLock::new(HashMap::new()),
        })
    }

    /// Registers (or finds) the slot for `key`, returning a handle that
    /// publishes without consulting the table again. Hook sites call this
    /// once at creation and cache the handle.
    pub fn register(&self, key: &str) -> Arc<ContextSlot> {
        if let Some(slot) = self.index.read().get(key) {
            return Arc::clone(slot);
        }
        let mut index = self.index.write();
        if let Some(slot) = index.get(key) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(ContextSlot::new(
            key.to_owned(),
            index.len(),
            self.clock.clone(),
        ));
        index.insert(key.to_owned(), Arc::clone(&slot));
        slot
    }

    /// Looks up the slot for `key` without creating it.
    pub fn slot(&self, key: &str) -> Option<Arc<ContextSlot>> {
        self.index.read().get(key).map(Arc::clone)
    }

    /// Publishes fields into a slot, replacing same-named fields and bumping
    /// the slot version. String-keyed convenience path; hot code should
    /// publish through a registered [`ContextSlot`] instead.
    pub fn publish(&self, key: &str, fields: Vec<(String, CtxValue)>) {
        let slot = self.register(key);
        let mut publish = slot.begin_publish();
        for (name, value) in fields {
            publish.set(&name, value);
        }
    }

    /// Sums the completed publishes over every slot.
    pub(crate) fn publish_count(&self) -> u64 {
        self.index.read().values().map(|s| s.version()).sum()
    }

    /// Reads a deep copy of a slot, or `None` if it was never published.
    pub fn read(&self, key: &str) -> Option<ContextSnapshot> {
        self.slot(key).and_then(|s| s.snapshot())
    }

    /// Returns `true` if the slot has been published — the paper's "context
    /// ready" test. Registered-but-empty slots are not ready.
    pub fn is_ready(&self, key: &str) -> bool {
        self.slot(key).is_some_and(|s| s.is_ready())
    }

    /// Returns the keys of all published slots, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .index
            .read()
            .values()
            .filter(|s| s.is_ready())
            .map(|s| s.key().to_owned())
            .collect();
        v.sort();
        v
    }

    /// Creates a read-only handle for checkers.
    pub fn reader(self: &Arc<Self>) -> ContextReader {
        ContextReader {
            table: Arc::clone(self),
        }
    }
}

impl std::fmt::Debug for ContextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextTable")
            .field("slots", &self.keys())
            .finish()
    }
}

/// Read-only access to a [`ContextTable`], handed to checkers.
#[derive(Clone)]
pub struct ContextReader {
    table: Arc<ContextTable>,
}

impl ContextReader {
    /// Reads a deep copy of a slot; see [`ContextTable::read`].
    pub fn read(&self, key: &str) -> Option<ContextSnapshot> {
        self.table.read(key)
    }

    /// Returns `true` if the slot has been published at least once.
    pub fn is_ready(&self, key: &str) -> bool {
        self.table.is_ready(key)
    }
}

impl std::fmt::Debug for ContextReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ContextReader")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::SimClock;

    #[test]
    fn unpublished_slot_is_not_ready() {
        let table = ContextTable::new(SimClock::shared());
        assert!(!table.is_ready("x"));
        assert!(table.read("x").is_none());
    }

    #[test]
    fn registered_but_unpublished_slot_is_not_ready() {
        let table = ContextTable::new(SimClock::shared());
        let slot = table.register("x");
        assert!(!slot.is_ready());
        assert!(!table.is_ready("x"));
        assert!(table.read("x").is_none());
        assert!(table.keys().is_empty());
    }

    #[test]
    fn publish_then_read_roundtrip() {
        let table = ContextTable::new(SimClock::shared());
        table.publish(
            "flush",
            vec![
                ("path".into(), "wal/0".into()),
                ("len".into(), CtxValue::U64(42)),
            ],
        );
        let snap = table.read("flush").unwrap();
        assert_eq!(snap.get("path").unwrap().as_str(), Some("wal/0"));
        assert_eq!(snap.get("len").unwrap().as_u64(), Some(42));
        assert_eq!(snap.version, 1);
    }

    #[test]
    fn versions_bump_on_each_publish() {
        let table = ContextTable::new(SimClock::shared());
        for i in 0..5u64 {
            table.publish("k", vec![("i".into(), CtxValue::U64(i))]);
        }
        let snap = table.read("k").unwrap();
        assert_eq!(snap.version, 5);
        assert_eq!(snap.get("i").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn age_tracks_clock() {
        let clock = SimClock::shared();
        let table = ContextTable::new(clock.clone());
        table.publish("k", vec![("a".into(), CtxValue::Bool(true))]);
        clock.sleep(Duration::from_secs(3));
        let snap = table.read("k").unwrap();
        assert_eq!(snap.age, Duration::from_secs(3));
    }

    #[test]
    fn snapshots_are_deep_copies() {
        let table = ContextTable::new(SimClock::shared());
        table.publish("k", vec![("buf".into(), CtxValue::Bytes(vec![1, 2, 3]))]);
        let mut snap = table.read("k").unwrap();
        // Mutate the snapshot; the table must be unaffected.
        snap.fields.insert("buf".into(), CtxValue::Bytes(vec![9]));
        let again = table.read("k").unwrap();
        assert_eq!(again.get("buf").unwrap().as_bytes(), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn partial_publish_merges_fields() {
        let table = ContextTable::new(SimClock::shared());
        table.publish("k", vec![("a".into(), CtxValue::U64(1))]);
        table.publish("k", vec![("b".into(), CtxValue::U64(2))]);
        let snap = table.read("k").unwrap();
        assert_eq!(snap.fields.len(), 2);
    }

    #[test]
    fn render_payload_is_sorted() {
        let table = ContextTable::new(SimClock::shared());
        table.publish(
            "k",
            vec![
                ("z".into(), CtxValue::U64(1)),
                ("a".into(), CtxValue::Bool(false)),
            ],
        );
        let payload = table.read("k").unwrap().render_payload();
        assert_eq!(payload[0].0, "a");
        assert_eq!(payload[1].0, "z");
    }

    #[test]
    fn reader_is_read_only_view() {
        let table = ContextTable::new(SimClock::shared());
        let reader = table.reader();
        assert!(!reader.is_ready("k"));
        table.publish("k", vec![("a".into(), CtxValue::U64(7))]);
        assert!(reader.is_ready("k"));
        assert_eq!(
            reader.read("k").unwrap().get("a").unwrap().as_u64(),
            Some(7)
        );
    }

    #[test]
    fn register_is_idempotent_and_ids_are_stable() {
        let table = ContextTable::new(SimClock::shared());
        let a0 = table.register("a");
        let b = table.register("b");
        let a1 = table.register("a");
        assert_eq!(a0.id(), a1.id());
        assert!(Arc::ptr_eq(&a0, &a1));
        assert_ne!(a0.id(), b.id());
        assert_eq!(a0.key(), "a");
    }

    #[test]
    fn slot_handle_publish_is_visible_through_string_reads() {
        let table = ContextTable::new(SimClock::shared());
        let slot = table.register("k");
        slot.begin_publish().set("a", 9u64);
        assert!(table.is_ready("k"));
        assert_eq!(table.read("k").unwrap().get("a").unwrap().as_u64(), Some(9));
        assert_eq!(slot.snapshot().unwrap().version, 1);
    }

    #[test]
    fn concurrent_writers_on_distinct_slots_do_not_interfere() {
        let table = ContextTable::new(SimClock::shared());
        let slots: Vec<_> = (0..4).map(|i| table.register(&format!("s{i}"))).collect();
        std::thread::scope(|scope| {
            for slot in &slots {
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        slot.begin_publish().set("i", i);
                    }
                });
            }
        });
        for slot in &slots {
            let snap = slot.snapshot().unwrap();
            assert_eq!(snap.version, 1000);
            assert_eq!(snap.get("i").unwrap().as_u64(), Some(999));
        }
    }

    #[test]
    fn ctx_value_rendering() {
        assert_eq!(CtxValue::U64(5).render(), "5");
        assert_eq!(CtxValue::Str("x".into()).render(), "x");
        assert_eq!(CtxValue::Bytes(vec![0; 10]).render(), "<10 bytes>");
        assert_eq!(CtxValue::Bool(true).render(), "true");
        assert_eq!(CtxValue::F64(1.5).render(), "1.500");
    }
}
