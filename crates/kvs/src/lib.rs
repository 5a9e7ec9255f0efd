//! `kvs`: the paper's running-example key-value store (Figure 1).
//!
//! "Despite its simple interface (GET, SET, APPEND, DEL), kvs has complex
//! internals, including the request listener, indexer, disk flusher,
//! replication engine, etc." — this crate builds those internals for real,
//! on the [`simio`] substrates, so that every gray-failure class from the
//! paper has a concrete code path to strike:
//!
//! - [`listener`]: a bounded request queue drained by worker threads;
//! - [`index`]: the in-memory sharded indexer;
//! - [`wal`]: a checksummed write-ahead log with a dedicated writer thread;
//! - [`api`] and its record codec: requests and SSTable payloads in the
//!   `serde_json` shim's bytes, without its value tree;
//! - [`sstable`] + [`partition`]: checksummed on-disk partitions and their
//!   manager;
//! - [`flusher`]: the background disk flusher persisting index snapshots;
//! - [`compaction`]: the background SSTable compactor (the paper's §1
//!   example of a task that can silently get stuck);
//! - [`replication`]: an async primary→replica engine over [`simio::SimNet`];
//! - [`server`]: the wiring, client handle, and crash semantics;
//! - [`wd`]: the watchdog integration — the IR self-description consumed by
//!   AutoWatchdog (`wdog-gen`), the [`wdog_gen::OpTable`] binding generated
//!   checkers to real kvs operations, hand-written probe and signal
//!   checkers, and hook sites publishing context one-way.
//!
//! Cooperative fault hooks ([`faults::ToggleSet`]) are polled at the code
//! sites the scenario catalogue names: the compaction loop can wedge or
//! busy-spin *while holding the compaction lock*, the indexer can start
//! corrupting values, the request path can leak memory.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod api;
mod codec;
pub mod compaction;
pub mod config;
pub mod flusher;
pub mod index;
pub mod listener;
pub mod partition;
pub mod recover;
pub mod replication;
pub mod server;
pub mod sstable;
pub mod supervise;
pub mod target;
pub mod wal;
pub mod wd;

pub use api::{Request, Response};
pub use config::{KvsConfig, ReplicationConfig};
pub use server::{KvsClient, KvsServer};
pub use supervise::SupervisionStats;
