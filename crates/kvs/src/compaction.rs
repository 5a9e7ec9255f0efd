//! The compaction manager: merges SSTables in the background.
//!
//! Compaction is the paper's flagship example of a task whose silent failure
//! an intrinsic detector must catch ("checking if a Cassandra background
//! task of SSTable compaction is stuck", §1). Two design points make that
//! detection *possible* for a fate-sharing mimic checker:
//!
//! 1. the whole merge runs under `compaction_lock`, and
//! 2. the injected stuck/busy-loop toggles wedge the thread *inside* that
//!    lock —
//!
//! so the generated `compact_once#lock` mimic op (a `try_lock_for` on the
//! same real mutex) times out exactly when the real task is wedged,
//! pinpointing the blocked operation the way the paper's watchdog pinpoints
//! the blocked `serializeNode` call in ZOOKEEPER-2201.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wdog_core::prelude::*;

use crate::server::Shared;
use crate::sstable::{merge_entries, read_sstable, write_sstable};

/// Background compaction thread body; `alive` is this generation's
/// supervision flag — a restart retires it and spawns a fresh loop.
pub(crate) fn compaction_loop(shared: Arc<Shared>, alive: Arc<AtomicBool>) {
    let hook = shared.hooks.site("compaction_loop");
    while shared.is_running() && alive.load(Ordering::Relaxed) {
        shared.clock.sleep(shared.config.compaction_interval);
        shared.stall.pass(shared.clock.as_ref());
        // Hook: publish the oldest table path for the sstable mimic ops.
        let tables = shared.partitions.tables();
        if let Some(first) = tables.first() {
            let path = first.path.clone();
            let count = tables.len() as u64;
            if let Some(mut fire) = hook.fire() {
                fire.field("sst_path", CtxValue::Str(path))
                    .field("table_count", CtxValue::U64(count));
            }
        }
        if tables.len() > shared.config.compaction_trigger {
            // In-place error handler: compaction failures are caught and
            // retried on the next interval.
            if compact_once(&shared).is_err() {
                shared.stats.errors_handled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Merges the two oldest SSTables into one, under the compaction lock.
pub(crate) fn compact_once(shared: &Arc<Shared>) -> wdog_base::error::BaseResult<()> {
    let _guard = shared.compaction_lock.lock();

    // Injected code-level faults strike *inside* the critical section: the
    // task wedges or spins while holding the lock, exactly like the gray
    // failures the paper catalogues.
    shared
        .toggles
        .stall_while_set("kvs.compaction.stuck", shared.clock.as_ref());
    shared
        .toggles
        .stall_while_set("kvs.compaction.busyloop", shared.clock.as_ref());

    let tables = shared.partitions.tables();
    if tables.len() < 2 {
        return Ok(());
    }
    let (a, b) = (&tables[0], &tables[1]);
    let older = read_sstable(&shared.disk, &a.path)?;
    let newer = read_sstable(&shared.disk, &b.path)?;
    let merged = merge_entries(older, newer);
    let out_path = shared.partitions.next_path();
    // The merge output is compaction's own write: one op here, so the
    // flusher's region keeps the write_sstable it shares.
    // wdog: vulnerable name=sst_merge_write kind=disk-write resource=sst/
    let meta = write_sstable(&shared.disk, &out_path, &merged)?;
    shared
        .partitions
        .replace(&[a.path.clone(), b.path.clone()], meta)?;
    shared.stats.compactions.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::KvsConfig;
    use crate::server::KvsServer;
    use simio::disk::SimDisk;

    use std::time::Duration;
    use wdog_base::clock::RealClock;

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    fn busy_server() -> KvsServer {
        let config = KvsConfig {
            flush_interval: Duration::from_millis(10),
            compaction_interval: Duration::from_millis(10),
            compaction_trigger: 3,
            ..KvsConfig::default()
        };
        KvsServer::start(config, RealClock::shared(), SimDisk::for_tests(), None).unwrap()
    }

    #[test]
    fn compaction_bounds_sstable_count() {
        let server = busy_server();
        let client = server.client();
        // Keep writing so flushes keep producing tables.
        for round in 0..30 {
            for i in 0..5 {
                client.set(&format!("k{round}-{i}"), "v").unwrap();
            }
            std::thread::sleep(Duration::from_millis(15));
        }
        wait_for(|| server.stats().compactions >= 1, "a compaction");
        // After a settle period the table count stays bounded.
        std::thread::sleep(Duration::from_millis(300));
        assert!(
            server.sstable_count() <= 8,
            "compaction not keeping up: {} tables",
            server.sstable_count()
        );
    }

    #[test]
    fn compaction_preserves_data() {
        let server = busy_server();
        let client = server.client();
        for i in 0..50 {
            client
                .set(&format!("key-{i:03}"), &format!("val-{i}"))
                .unwrap();
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        wait_for(|| server.stats().compactions >= 1, "a compaction");
        for i in 0..50 {
            assert_eq!(
                client.get(&format!("key-{i:03}")).unwrap(),
                Some(format!("val-{i}"))
            );
        }
    }

    #[test]
    fn stuck_toggle_wedges_compaction_inside_lock() {
        let server = busy_server();
        let client = server.client();
        server.toggles().set("kvs.compaction.stuck", true);
        for round in 0..10 {
            for i in 0..5 {
                client.set(&format!("k{round}-{i}"), "v").unwrap();
            }
            std::thread::sleep(Duration::from_millis(15));
        }
        // Wait until the compactor is actually wedged inside the lock.
        wait_for(
            || server.shared().compaction_lock.try_lock().is_none(),
            "compaction lock to be held by the wedged task",
        );
        let before = server.stats().compactions;
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.stats().compactions, before, "compaction still ran");
        // Releasing the toggle lets compaction resume.
        server.toggles().set("kvs.compaction.stuck", false);
        wait_for(|| server.stats().compactions > before, "compaction resume");
    }

    #[test]
    fn compaction_context_published() {
        let server = busy_server();
        let client = server.client();
        for i in 0..10 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        let ctx = server.context();
        wait_for(|| ctx.is_ready("compaction_loop"), "compaction context");
        let snap = ctx.read("compaction_loop").unwrap();
        assert!(snap
            .get("sst_path")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("sst/"));
    }
}
