//! The request listener: worker threads and the WAL writer thread.
//!
//! Workers drain the bounded request queue, apply requests to the index, and
//! enqueue durability (WAL) and replication work asynchronously — so a slow
//! or stuck disk does *not* block the client-facing path. That asynchrony is
//! deliberate: it is what makes WAL faults *gray* (clients keep getting
//! `Ok`, probe checkers stay green) and therefore detectable only by
//! checkers with internal visibility.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use wdog_base::queue::ClockedQueue;

use wdog_core::prelude::*;

use crate::api::{Request, Response};
use crate::server::{RequestItem, Shared};

/// How long loops wait on their queues before re-checking the running flag.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// Bytes leaked per request while the leak toggle is set.
const LEAK_BYTES: u64 = 4096;

/// Drains the request queue until the server stops running.
pub(crate) fn worker_loop(shared: Arc<Shared>, rx: ClockedQueue<RequestItem>) {
    let leak_flag = shared.toggles.flag("kvs.listener.leak");
    let listener_hook = shared.hooks.site("listener_loop");
    while shared.is_running() {
        // Cooperative stop-the-world gate (runtime-pause injection).
        shared.stall.pass(shared.clock.as_ref());
        let Some((req, reply)) = rx.pop_timeout(IDLE_WAIT) else {
            continue;
        };
        if leak_flag.load(Ordering::Relaxed) {
            // Injected leak: allocation with no matching free.
            shared.monitor.alloc(LEAK_BYTES);
        }
        // Hook: publish the live request payload for the indexer mimic op.
        // Reads carry no value and leave the last write's in place: an
        // empty one would have the mimic replay a put that corruption
        // cannot alter.
        if let Some(mut fire) = listener_hook.fire() {
            fire.field("probe_key", CtxValue::Str(req.key().to_owned()));
            if let Request::Set { value, .. } | Request::Append { value, .. } = &req {
                fire.field("probe_val", CtxValue::Str(value.clone()));
            }
        }
        let resp = handle_request(&shared, req);
        let _ = reply.push(resp);
    }
}

/// Applies one request to the index and fans out durability/replication.
pub(crate) fn handle_request(shared: &Arc<Shared>, req: Request) -> Response {
    let resp = match &req {
        Request::Get { key } => Response::Value(shared.index.get(key)),
        Request::Set { key, value } => {
            // wdog: vulnerable name=index_put resource=index
            shared.index.put(key, value);
            Response::Ok
        }
        Request::Append { key, value } => {
            shared.index.append(key, value);
            Response::Ok
        }
        Request::Del { key } => {
            shared.index.remove(key);
            Response::Ok
        }
    };
    if matches!(req, Request::Get { .. }) {
        return resp;
    }
    // Writes fan out asynchronously as *after-images*: the logged record
    // carries the resulting value rather than the operation, so WAL replay
    // is idempotent (APPEND records could otherwise double-apply when a
    // record survives in both an SSTable and the log across a crash).
    let logical = match &req {
        Request::Set { key, .. } | Request::Append { key, .. } => Request::Set {
            key: key.clone(),
            value: shared.index.get(req.key()).unwrap_or_default(),
        },
        Request::Del { key } => Request::Del { key: key.clone() },
        Request::Get { .. } => unreachable!("gets returned above"),
    };
    // One copy of the record, shared by both queues.
    let encoded = Bytes::from(logical.encode());
    if shared.config.durable {
        let _ = shared.wal_q.push(encoded.clone());
    }
    if shared.config.replication.is_some() {
        let _ = shared.repl_q.push(encoded);
    }
    resp
}

/// Drains the WAL queue, making records durable one at a time.
pub(crate) fn wal_loop(shared: Arc<Shared>, rx: ClockedQueue<Bytes>) {
    let hook = shared.hooks.site("wal_loop");
    while shared.is_running() {
        let Some(record) = rx.pop_timeout(IDLE_WAIT) else {
            continue;
        };
        // Hook placed before the vulnerable append, publishing the payload
        // the mimic op will write into the redirected WAL.
        if let Some(mut fire) = hook.fire() {
            fire.field("payload", CtxValue::Bytes(record.to_vec()));
        }
        // In-place error handler: a failed append is caught, counted in
        // `errors_handled`, and its record dropped (never retried). The
        // handler mitigates; it does not assess overall health (Table 1).
        match shared.wal.lock().append_record(&record) {
            Ok(()) => {
                shared.stats.wal_records.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.stats.errors_handled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KvsConfig;
    use crate::server::KvsServer;
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

    #[test]
    fn set_get_del_roundtrip() {
        let server = KvsServer::for_tests();
        let client = server.client();
        client.set("k", "v").unwrap();
        assert_eq!(client.get("k").unwrap(), Some("v".into()));
        client.append("k", "2").unwrap();
        assert_eq!(client.get("k").unwrap(), Some("v2".into()));
        client.del("k").unwrap();
        assert_eq!(client.get("k").unwrap(), None);
    }

    #[test]
    fn writes_reach_the_wal() {
        let server = KvsServer::for_tests();
        let client = server.client();
        for i in 0..10 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        wait_for(|| server.stats().wal_records >= 10, "wal records");
    }

    #[test]
    fn in_memory_mode_never_touches_disk() {
        let disk = SimDisk::for_tests();
        let server = KvsServer::start(
            KvsConfig::in_memory(),
            RealClock::shared(),
            Arc::clone(&disk),
            None,
        )
        .unwrap();
        let client = server.client();
        for i in 0..20 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(disk.op_stats().write.calls, 0);
        assert_eq!(client.get("k7").unwrap(), Some("v".into()));
    }

    #[test]
    fn crash_makes_requests_time_out() {
        let config = KvsConfig {
            client_timeout: Duration::from_millis(100),
            ..KvsConfig::default()
        };
        let server =
            KvsServer::start(config, RealClock::shared(), SimDisk::for_tests(), None).unwrap();
        let client = server.client();
        client.set("k", "v").unwrap();
        server.crash();
        // Give workers a moment to observe the flag and exit.
        std::thread::sleep(Duration::from_millis(50));
        let err = client.set("k", "v2");
        assert!(err.is_err(), "crashed server still served a request");
    }

    #[test]
    fn leak_toggle_grows_memory() {
        let server = KvsServer::for_tests();
        let client = server.client();
        let before = server.monitor().memory_bytes();
        server.toggles().set("kvs.listener.leak", true);
        for i in 0..50 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        let after = server.monitor().memory_bytes();
        assert!(
            after >= before + 50 * LEAK_BYTES,
            "leak toggle had no effect: {before} -> {after}"
        );
    }

    #[test]
    fn corruption_toggle_breaks_read_back() {
        let server = KvsServer::for_tests();
        let client = server.client();
        server.toggles().set("kvs.indexer.corrupt", true);
        client.set("key", "value").unwrap();
        let got = client.get("key").unwrap().unwrap();
        assert_ne!(got, "value");
    }

    #[test]
    fn hooks_publish_listener_context() {
        let server = KvsServer::for_tests();
        let client = server.client();
        client.set("hello", "world").unwrap();
        let ctx = server.context();
        wait_for(|| ctx.is_ready("listener_loop"), "listener context");
        let snap = ctx.read("listener_loop").unwrap();
        assert_eq!(snap.get("probe_key").unwrap().as_str(), Some("hello"));
        assert_eq!(snap.get("probe_val").unwrap().as_str(), Some("world"));
    }

    #[test]
    fn recovery_restores_index_after_crash() {
        let disk = SimDisk::for_tests();
        {
            let mut server = KvsServer::start(
                KvsConfig::default(),
                RealClock::shared(),
                Arc::clone(&disk),
                None,
            )
            .unwrap();
            let client = server.client();
            for i in 0..20 {
                client
                    .set(&format!("key-{i}"), &format!("val-{i}"))
                    .unwrap();
            }
            wait_for(|| server.stats().wal_records >= 20, "wal records");
            server.stop();
        }
        disk.crash();
        let server = KvsServer::start(
            KvsConfig::default(),
            RealClock::shared(),
            Arc::clone(&disk),
            None,
        )
        .unwrap();
        let client = server.client();
        for i in 0..20 {
            assert_eq!(
                client.get(&format!("key-{i}")).unwrap(),
                Some(format!("val-{i}")),
                "key-{i} lost across crash"
            );
        }
    }
}
