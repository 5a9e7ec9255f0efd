//! kvs server configuration.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Replication endpoints on the simulated network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// The primary's network address (source of replicated ops).
    pub src_addr: String,
    /// The replica's network address.
    pub dst_addr: String,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            src_addr: "kvs-primary".into(),
            dst_addr: "kvs-replica".into(),
        }
    }
}

/// Worker threads draining the request queue.
pub const WORKERS: usize = 2;
/// Request queue capacity (listener back-pressure).
pub const REQUEST_QUEUE_CAP: usize = 1024;

/// Tunables for a [`KvsServer`](crate::server::KvsServer).
///
/// The defaults favour fast experiments: background loops tick every few
/// tens of milliseconds so fault-detection latencies are measured in
/// fractions of a second rather than minutes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvsConfig {
    /// `true` persists through WAL + SSTables; `false` is the paper's
    /// in-memory configuration (no disk activity at all).
    pub durable: bool,
    /// How long a client waits for a response before reporting a timeout.
    pub client_timeout: Duration,
    /// Flusher wake interval.
    pub flush_interval: Duration,
    /// Number of SSTables that triggers compaction.
    pub compaction_trigger: usize,
    /// Compactor wake interval.
    pub compaction_interval: Duration,
    /// Replication endpoints; `None` disables the replication engine.
    pub replication: Option<ReplicationConfig>,
}

impl Default for KvsConfig {
    fn default() -> Self {
        Self {
            durable: true,
            client_timeout: Duration::from_secs(2),
            flush_interval: Duration::from_millis(50),
            compaction_trigger: 4,
            compaction_interval: Duration::from_millis(50),
            replication: None,
        }
    }
}

impl KvsConfig {
    /// The paper's in-memory configuration: no WAL, no flusher activity.
    pub fn in_memory() -> Self {
        Self {
            durable: false,
            ..Self::default()
        }
    }

    /// A durable configuration with replication enabled.
    pub fn replicated() -> Self {
        Self {
            replication: Some(ReplicationConfig::default()),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_durable_without_replication() {
        let c = KvsConfig::default();
        assert!(c.durable);
        assert!(c.replication.is_none());
    }

    #[test]
    fn in_memory_disables_durability() {
        assert!(!KvsConfig::in_memory().durable);
    }

    #[test]
    fn replicated_sets_endpoints() {
        let c = KvsConfig::replicated();
        let r = c.replication.unwrap();
        assert_eq!(r.src_addr, "kvs-primary");
        assert_eq!(r.dst_addr, "kvs-replica");
    }
}
