//! The request-processor chain: prep → sync → final.
//!
//! Writes flow through a single ordered pipeline thread, as in ZooKeeper's
//! processor chain: `PrepRequestProcessor` assigns the zxid,
//! `SyncRequestProcessor` makes the transaction durable in the txn log, and
//! `FinalRequestProcessor` applies it to the [`DataTree`](crate::datatree::DataTree) (taking the
//! write-serialization lock) and enqueues the commit for broadcast.
//!
//! The sync processor group-commits, as ZooKeeper's `SyncRequestProcessor`
//! does: the pipeline takes every write already queued (at most
//! [`PIPELINE_CAP`](crate::quorum::PIPELINE_CAP)), logs the whole batch
//! with one append and one fsync, and only then applies and broadcasts
//! each transaction in zxid order. A failed append or fsync fails every
//! write in the batch, and none of them is applied.
//!
//! Because the pipeline is ordered, one transaction blocked inside the
//! final processor — e.g. on a write lock held by a wedged snapshot sync —
//! hangs *all* write request processing: the ZOOKEEPER-2201 observable.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use wdog_base::error::{BaseError, BaseResult};
use wdog_base::queue::ClockedQueue;

use wdog_core::prelude::*;

use crate::quorum::ZkShared;

/// A write operation submitted to the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteOp {
    /// Create a znode.
    Create {
        /// Path to create.
        path: String,
        /// Initial data.
        data: Vec<u8>,
    },
    /// Overwrite a znode's data.
    SetData {
        /// Path to update.
        path: String,
        /// New data.
        data: Vec<u8>,
    },
}

impl WriteOp {
    /// Returns the path the op touches.
    pub fn path(&self) -> &str {
        match self {
            WriteOp::Create { path, .. } | WriteOp::SetData { path, .. } => path,
        }
    }

    /// Encodes the op for the txn log.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("op encoding is infallible")
    }

    /// Decodes an op from the txn log.
    pub fn decode(bytes: &[u8]) -> BaseResult<Self> {
        serde_json::from_slice(bytes)
            .map_err(|e| BaseError::Corruption(format!("undecodable txn: {e}")))
    }
}

/// The client's reply queue for one write.
pub(crate) type Reply = ClockedQueue<BaseResult<u64>>;

/// A pipeline work item: the op plus the client's reply queue.
pub(crate) type PipelineItem = (WriteOp, Reply);

/// The pipeline thread body: takes one write, then every write already
/// queued behind it, and commits them as one batch.
pub(crate) fn processor_loop(shared: Arc<ZkShared>, rx: ClockedQueue<PipelineItem>) {
    while shared.is_running() {
        let Some(first) = rx.pop_timeout(Duration::from_millis(10)) else {
            continue;
        };
        let queued = rx.len();
        let batch = std::iter::once(first)
            .chain(std::iter::from_fn(|| rx.try_pop()).take(queued))
            .collect();
        process_request(&shared, batch);
    }
}

/// Runs one batch through all three processors and answers every client:
/// each write gets its zxid in queue order, the batch is made durable as a
/// whole, and only then is each write applied in zxid order.
pub(crate) fn process_request(shared: &Arc<ZkShared>, batch: Vec<PipelineItem>) {
    let txns: Vec<(u64, WriteOp, Reply)> = batch
        .into_iter()
        .map(|(op, reply)| (prep_request(shared), op, reply))
        .collect();
    if let Err(e) = sync_txn(shared, &txns) {
        txns.into_iter().for_each(|(_, _, reply)| {
            let _ = reply.push(Err(e.clone()));
        });
        return;
    }
    txns.into_iter().for_each(|(zxid, op, reply)| {
        let _ = reply.push(final_apply(shared, zxid, op).map(|()| zxid));
    });
}

/// Prep processor: assigns the transaction id.
fn prep_request(shared: &Arc<ZkShared>) -> u64 {
    shared.next_zxid.fetch_add(1, Ordering::Relaxed)
}

/// Sync processor: makes a batch durable in the txn log with one append of
/// every `[len][payload]` frame and one fsync.
fn sync_txn(shared: &Arc<ZkShared>, txns: &[(u64, WriteOp, Reply)]) -> BaseResult<()> {
    let mut frames = Vec::new();
    for (zxid, op, _) in txns {
        let payload = op.encode();
        // Watchdog hook before the vulnerable append (generated plan point),
        // once per transaction.
        let hook_payload = payload.clone();
        if let Some(mut fire) = shared.txn_hook.fire() {
            fire.field("txn_payload", CtxValue::Bytes(hook_payload))
                .field("zxid", CtxValue::U64(*zxid));
        }
        frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frames.extend_from_slice(&payload);
    }
    shared.disk.append("txnlog/log", &frames)?;
    shared.disk.fsync("txnlog/log")?;
    shared
        .stats
        .txns_logged
        .fetch_add(txns.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Final processor: applies to the tree and enqueues the commit broadcast.
fn final_apply(shared: &Arc<ZkShared>, zxid: u64, op: WriteOp) -> BaseResult<()> {
    // This is where ZOOKEEPER-2201 hangs: the tree's write-serialization
    // lock is taken inside `create`/`set_data`. The quorum defines both
    // names too, so extraction cannot resolve them — the annotation names
    // the op they perform.
    // wdog: vulnerable name=tree_write_lock kind=lock-acquire resource=write_lock
    match &op {
        WriteOp::Create { path, data } => shared.tree.create(path, data.clone())?,
        WriteOp::SetData { path, data } => shared.tree.set_data(path, data.clone())?,
    }
    shared.stats.writes_applied.fetch_add(1, Ordering::Relaxed);
    let _ = shared.broadcast_q.push((zxid, op));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use simio::disk::{DiskFault, DiskOpKind, FaultRule};

    use crate::quorum::Cluster;

    fn create(path: &str, data: &[u8]) -> WriteOp {
        WriteOp::Create {
            path: path.into(),
            data: data.to_vec(),
        }
    }

    /// Queues every op before a pipeline thread exists, then runs one
    /// pipeline over them (beside the cluster's own, idle one), so its
    /// first pop finds all of them waiting. Returns the replies in queue
    /// order.
    fn run_queued(cluster: &Cluster, ops: Vec<WriteOp>) -> Vec<BaseResult<u64>> {
        let shared = Arc::clone(cluster.shared());
        let rx = ClockedQueue::bounded(&shared.clock, ops.len());
        let replies: Vec<Reply> = ops
            .into_iter()
            .map(|op| {
                let reply = ClockedQueue::bounded(&shared.clock, 1);
                assert!(rx.push((op, reply.clone())).is_ok());
                reply
            })
            .collect();
        let pipeline = std::thread::spawn(move || processor_loop(shared, rx));
        let results = replies
            .iter()
            .map(|r| r.pop_timeout(Duration::from_secs(5)).expect("a reply"))
            .collect();
        cluster.request_stop();
        pipeline.join().unwrap();
        results
    }

    #[test]
    fn queued_writes_commit_with_one_append_and_one_fsync() {
        let cluster = Cluster::for_tests();
        let shared = Arc::clone(cluster.shared());
        let ops: Vec<WriteOp> = (0..5)
            .map(|i| create(&format!("/n{i}"), format!("v{i}").as_bytes()))
            .collect();
        let before = shared.disk.op_stats();
        let results = run_queued(&cluster, ops.clone());
        let after = shared.disk.op_stats();
        assert_eq!(after.write.calls - before.write.calls, 1, "one append");
        assert_eq!(after.sync.calls - before.sync.calls, 1, "one fsync");

        let zxids: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        let first = zxids[0];
        assert_eq!(zxids, (first..first + 5).collect::<Vec<_>>());

        let mut log = Vec::new();
        for op in &ops {
            let payload = op.encode();
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&payload);
        }
        assert_eq!(shared.disk.read("txnlog/log").unwrap(), log);
        assert_eq!(cluster.stats().txns_logged, 5);
        assert_eq!(cluster.stats().writes_applied, 5);
        assert_eq!(cluster.get_data("/n3").unwrap(), b"v3");
    }

    #[test]
    fn a_failed_append_fails_the_whole_batch_and_applies_nothing() {
        let cluster = Cluster::for_tests();
        let shared = Arc::clone(cluster.shared());
        shared.disk.inject(FaultRule::scoped(
            "txnlog/",
            vec![DiskOpKind::Write],
            DiskFault::Error {
                message: "injected".into(),
            },
        ));
        let nodes = shared.tree.node_count();
        let ops = (0..4).map(|i| create(&format!("/n{i}"), b"v")).collect();
        let results = run_queued(&cluster, ops);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(Result::is_err), "{results:?}");
        assert_eq!(shared.tree.node_count(), nodes);
        assert_eq!(cluster.stats().txns_logged, 0);
        assert_eq!(cluster.stats().writes_applied, 0);
        assert!(shared.broadcast_q.is_empty());
        assert_eq!(cluster.stats().commits_broadcast, 0);
    }

    #[test]
    fn ops_roundtrip() {
        let op = WriteOp::SetData {
            path: "/a".into(),
            data: b"x".to_vec(),
        };
        assert_eq!(WriteOp::decode(&op.encode()).unwrap(), op);
        assert_eq!(op.path(), "/a");
        assert!(WriteOp::decode(b"junk").is_err());
    }
}
