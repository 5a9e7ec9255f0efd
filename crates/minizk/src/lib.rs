//! `minizk`: a ZooKeeper-like replicated coordination service.
//!
//! Built to reproduce the paper's §4.2 preliminary result end to end: the
//! ZOOKEEPER-2201 gray failure, where "a network issue causes a remote sync
//! to block in a critical section, hanging all write request processing",
//! while "ZooKeeper's heartbeat detection protocol and admin monitoring
//! command both showed the faulty leader as healthy during the entire
//! failure period".
//!
//! The moving parts mirror their ZooKeeper counterparts:
//!
//! - [`datatree`]: the hierarchical znode store, with per-node locks and the
//!   global write-serialization lock whose holder the bug wedges;
//! - [`snapshot`]: `serialize_snapshot` in the shape of the paper's
//!   Figure 2 (each record written under its node's lock), generic over a
//!   [`snapshot::SnapSink`] —
//!   a disk sink for local snapshots and a network sink for follower syncs;
//! - [`processors`]: the prep → sync → final request-processor chain
//!   draining a single ordered write pipeline;
//! - [`quorum`]: leader, followers, commit broadcast, and the follower-sync
//!   path that serializes the tree *over the network inside the critical
//!   section* (the 2201 trigger), the leader's ping responder, and the
//!   `ruok`/`imok` admin probe that stays green throughout the failure;
//! - [`wd`]: the AutoWatchdog integration (IR, op table, assembly);
//! - [`target`]: the campaign surface. Experiment E4 is the scenario
//!   runner's `replication-link-wedged` on this target (`harness::zk2201`).

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod datatree;
pub mod msg;
pub mod processors;
pub mod quorum;
pub mod recover;
pub mod snapshot;
pub mod target;
pub mod wd;

pub use datatree::DataTree;
pub use quorum::{Cluster, ClusterConfig};
