//! `miniblock`: an HDFS-like block store.
//!
//! The third of the paper's three instrumentation targets (ZooKeeper →
//! `minizk`, Cassandra → `kvs`, HDFS → this crate). Its reason to exist
//! is the paper's Table 2 case study:
//!
//! > "the disk checker module in HDFS initially only checked directory
//! > permissions, but later it was enhanced \[HADOOP-13738\] to create some
//! > files and invoke functions from the DataNode main program to do real
//! > I/O in a similar way."
//!
//! Both generations of that checker are implemented in [`disk_checker`]:
//! the legacy metadata-only probe and the enhanced mimic-type checker that
//! performs real write/sync/read/validate I/O on each volume. The
//! `hdfs_disk_checker` example and the integration tests demonstrate the
//! failure the legacy checker misses and the enhanced one catches.
//!
//! The system itself is deliberately HDFS-shaped:
//!
//! - [`block`]: checksummed block files spread across volumes;
//! - [`datanode`]: block writes/reads, a periodic **block scanner**
//!   (HDFS's `DataBlockScanner`), block reports, and heartbeats to the
//!   NameNode over [`simio::SimNet`];
//! - [`namenode`]: block-location tracking and DataNode liveness;
//! - [`wd`]: the AutoWatchdog integration (IR, op table, assembly).

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod block;
pub mod datanode;
pub mod disk_checker;
pub mod namenode;
pub mod recover;
pub mod target;
pub mod wd;

pub use block::BlockStore;
pub use datanode::{DataNode, DataNodeConfig, DnSupervisionStats};
pub use disk_checker::{EnhancedDiskChecker, LegacyDiskChecker};
pub use namenode::NameNode;
