//! The in-memory indexer: a sharded ordered map.
//!
//! The index is sharded to keep worker threads from serializing on one lock.
//! A cooperative corruption flag models the paper's state-corruption gray
//! failure: while set, every stored value has its first byte flipped — a
//! logic bug that returns success, so only a checker that *reads back and
//! compares* (the generated `index_put` mimic op) can catch it.
//!
//! `put`, `append` and `remove` refuse an untagged key inside a checker scope
//! ([`wdog_base::isolation`]): a checker stores only `__wd:` keys.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use simio::resource::ResourceMonitor;
use wdog_base::isolation;

const SHARDS: usize = 8;

fn shard_of(key: &str) -> usize {
    // FNV-1a, then fold into the shard count.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

fn corrupt(value: &str) -> String {
    let mut bytes = value.as_bytes().to_vec();
    if let Some(b) = bytes.first_mut() {
        *b = b.wrapping_add(1) & 0x7F;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A sharded, memory-accounted ordered index.
#[derive(Clone)]
pub struct MemIndex {
    shards: Arc<[RwLock<BTreeMap<String, String>>; SHARDS]>,
    corrupt_flag: Arc<AtomicBool>,
    monitor: ResourceMonitor,
}

impl MemIndex {
    /// Creates an empty index; `corrupt_flag` is the injected-corruption
    /// toggle, `monitor` receives memory accounting.
    pub fn new(corrupt_flag: Arc<AtomicBool>, monitor: ResourceMonitor) -> Self {
        Self {
            shards: Arc::new(std::array::from_fn(|_| RwLock::new(BTreeMap::new()))),
            corrupt_flag,
            monitor,
        }
    }

    /// Creates an index with no corruption toggle, for tests.
    pub fn for_tests() -> Self {
        Self::new(Arc::new(AtomicBool::new(false)), ResourceMonitor::new())
    }

    /// Stores `value` under `key`, returning the previous value.
    pub fn put(&self, key: &str, value: &str) -> Option<String> {
        isolation::assert_tagged(key);
        let value = if self.corrupt_flag.load(Ordering::Relaxed) {
            corrupt(value)
        } else {
            value.to_owned()
        };
        self.monitor.alloc((key.len() + value.len()) as u64);
        let old = self.shards[shard_of(key)]
            .write()
            .insert(key.to_owned(), value);
        if let Some(old) = &old {
            self.monitor.free((key.len() + old.len()) as u64);
        }
        old
    }

    /// Appends `suffix` to the value under `key`, creating it if absent.
    pub fn append(&self, key: &str, suffix: &str) {
        isolation::assert_tagged(key);
        let suffix = if self.corrupt_flag.load(Ordering::Relaxed) {
            corrupt(suffix)
        } else {
            suffix.to_owned()
        };
        self.monitor.alloc(suffix.len() as u64);
        let mut shard = self.shards[shard_of(key)].write();
        match shard.get_mut(key) {
            Some(v) => v.push_str(&suffix),
            None => {
                self.monitor.alloc(key.len() as u64);
                shard.insert(key.to_owned(), suffix);
            }
        }
    }

    /// Reads the value under `key`.
    pub fn get(&self, key: &str) -> Option<String> {
        self.shards[shard_of(key)].read().get(key).cloned()
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: &str) -> Option<String> {
        isolation::assert_tagged(key);
        let old = self.shards[shard_of(key)].write().remove(key);
        if let Some(old) = &old {
            self.monitor.free((key.len() + old.len()) as u64);
        }
        old
    }

    /// Returns the number of keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns every entry in key order (snapshot for flushing).
    pub fn snapshot(&self) -> Vec<(String, String)> {
        let mut all: Vec<(String, String)> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            for (k, v) in shard.read().iter() {
                all.push((k.clone(), v.clone()));
            }
        }
        all.sort();
        all
    }
}

impl std::fmt::Debug for MemIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemIndex")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_roundtrip() {
        let idx = MemIndex::for_tests();
        assert!(idx.put("k", "v1").is_none());
        assert_eq!(idx.put("k", "v2"), Some("v1".into()));
        assert_eq!(idx.get("k"), Some("v2".into()));
        assert_eq!(idx.remove("k"), Some("v2".into()));
        assert!(idx.get("k").is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn append_creates_and_extends() {
        let idx = MemIndex::for_tests();
        idx.append("k", "ab");
        idx.append("k", "cd");
        assert_eq!(idx.get("k"), Some("abcd".into()));
    }

    #[test]
    fn snapshot_is_sorted_across_shards() {
        let idx = MemIndex::for_tests();
        for k in ["zebra", "apple", "mango", "kiwi", "pear"] {
            idx.put(k, "x");
        }
        let snap = idx.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["apple", "kiwi", "mango", "pear", "zebra"]);
    }

    #[test]
    fn corruption_flag_flips_stored_values() {
        let flag = Arc::new(AtomicBool::new(false));
        let idx = MemIndex::new(Arc::clone(&flag), ResourceMonitor::new());
        idx.put("clean", "value");
        flag.store(true, Ordering::Relaxed);
        idx.put("dirty", "value");
        assert_eq!(idx.get("clean"), Some("value".into()));
        let dirty = idx.get("dirty").unwrap();
        assert_ne!(dirty, "value", "corruption flag had no effect");
        assert_eq!(dirty.len(), 5);
    }

    #[test]
    fn memory_accounting_follows_contents() {
        let monitor = ResourceMonitor::new();
        let idx = MemIndex::new(Arc::new(AtomicBool::new(false)), monitor.clone());
        idx.put("key", "value");
        assert_eq!(monitor.memory_bytes(), 8);
        idx.put("key", "v");
        assert_eq!(monitor.memory_bytes(), 4);
        idx.remove("key");
        assert_eq!(monitor.memory_bytes(), 0);
    }

    #[test]
    fn len_counts_across_shards() {
        let idx = MemIndex::for_tests();
        for i in 0..100 {
            idx.put(&format!("key-{i}"), "v");
        }
        assert_eq!(idx.len(), 100);
    }
}
