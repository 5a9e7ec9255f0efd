//! The disk flusher: persists index snapshots as SSTables.
//!
//! Every `flush_interval`, if the WAL has grown since the last flush, the
//! flusher snapshots the index into a fresh checksummed SSTable, registers
//! it with the partition manager, and truncates the WAL. Its hook publishes
//! the first `SAMPLE_BYTES` of the flushed payload, in O(sample) work
//! whatever the index size, so the generated
//! `write_sstable#write_all` mimic op (planned when dedup is off) writes
//! realistically sized data into the watchdog namespace.
//!
//! The WAL rotation here is not the flusher's to check: `wal_loop` holds
//! the same lock and writes the same volume on every append, so its checker
//! covers both, and the `// wdog: ignore` directives keep global dedup from
//! handing them to the flusher, whose region sorts first.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wdog_core::prelude::*;

use crate::codec::entries_prefix;
use crate::server::Shared;
use crate::sstable::write_sstable;

/// Cap on the payload sample published into the flusher context.
const SAMPLE_BYTES: usize = 4096;

/// Where the WAL is parked during a flush (replayed first on recovery).
pub(crate) const WAL_ROTATED_PATH: &str = "wal/flushing";

/// Background flusher thread body; `alive` is this generation's
/// supervision flag — a restart retires it and spawns a fresh loop.
pub(crate) fn flusher_loop(shared: Arc<Shared>, alive: Arc<AtomicBool>) {
    while shared.is_running() && alive.load(Ordering::Relaxed) {
        shared.clock.sleep(shared.config.flush_interval);
        shared.stall.pass(shared.clock.as_ref());
        // wdog: ignore -- peeks at the WAL under its lock; wal_loop's checker probes that lock
        let appended = shared.wal.lock().appended_bytes();
        if appended == 0 {
            continue;
        }
        // In-place error handler: flush failures are caught and retried on
        // the next interval.
        if flush_once(&shared).is_err() {
            shared
                .stats
                .errors_handled
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Performs one flush cycle; errors are surfaced to the caller (and show up
/// as a growing WAL for signal checkers) rather than crashing the loop.
pub(crate) fn flush_once(shared: &Arc<Shared>) -> wdog_base::error::BaseResult<()> {
    // Rotate the WAL first, under the WAL lock so no append straddles the
    // boundary. The index snapshot taken *after* rotation necessarily
    // covers every record in the rotated file, so deleting that file once
    // the SSTable is durable can never lose an acknowledged write. A
    // leftover rotated file (crash mid-flush) is left in place; recovery
    // replays it and this flush subsumes it.
    {
        // wdog: ignore -- rotation takes the WAL lock; wal_loop's checker probes it
        let mut wal = shared.wal.lock();
        let current = wal.path().to_owned();
        if !shared.disk.exists(WAL_ROTATED_PATH)
            && shared.disk.exists(&current)
            && shared.disk.len(&current)? > 0
        {
            // wdog: ignore -- WAL rotation; wal_loop's checker probes the WAL volume
            shared.disk.rename(&current, WAL_ROTATED_PATH)?;
        }
        wal.reset_appended();
    }
    let entries = shared.index.snapshot();
    let path = shared.partitions.next_path();

    // Hook before the vulnerable write: publish the first bytes of what is
    // about to be written, encoding only the entries they reach, and only
    // while the hook is armed.
    if let Some(mut fire) = shared.flusher_hook.fire() {
        let sample = entries_prefix(&entries, SAMPLE_BYTES);
        fire.field("sst_payload", CtxValue::Bytes(sample))
            .field("entry_count", CtxValue::U64(entries.len() as u64));
    }

    let meta = write_sstable(&shared.disk, &path, &entries)?;
    shared.partitions.register(meta);
    // The rotated records are now durable in the SSTable.
    if shared.disk.exists(WAL_ROTATED_PATH) {
        // wdog: ignore -- rotated-WAL cleanup; wal_loop's checker probes the WAL volume
        shared.disk.remove(WAL_ROTATED_PATH)?;
    }
    shared.stats.flushes.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::SAMPLE_BYTES;
    use crate::config::KvsConfig;
    use crate::server::KvsServer;
    use simio::disk::SimDisk;
    use std::sync::Arc;
    use std::time::Duration;
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
    fn writes_eventually_flush_to_sstables() {
        let disk = SimDisk::for_tests();
        let server = KvsServer::start(
            KvsConfig::default(),
            RealClock::shared(),
            Arc::clone(&disk),
            None,
        )
        .unwrap();
        let client = server.client();
        for i in 0..20 {
            client.set(&format!("k{i}"), "v").unwrap();
        }
        wait_for(|| server.stats().flushes >= 1, "first flush");
        assert!(server.sstable_count() >= 1);
        assert!(!disk.list("sst/").is_empty());
    }

    #[test]
    fn quiet_server_does_not_flush() {
        let server = KvsServer::for_tests();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.stats().flushes, 0);
    }

    #[test]
    fn flusher_context_published_with_payload_sample() {
        // Enough keys that the flushed payload outgrows the sample.
        const KEYS: usize = 200;
        let server = KvsServer::for_tests();
        let client = server.client();
        for i in 0..KEYS {
            client
                .set(
                    &format!("key-{i:04}"),
                    &format!("value \"{i}\" {}", "x".repeat(16)),
                )
                .unwrap();
        }
        let ctx = server.context();
        let full_table = || {
            let tables = server.shared().partitions.tables();
            tables.into_iter().find(|t| t.entries == KEYS)
        };
        // Once a flush has covered every key, every later flush writes the
        // same bytes, so the published sample and that table are final.
        wait_for(
            || {
                ctx.is_ready("flusher_loop")
                    && ctx
                        .read("flusher_loop")
                        .unwrap()
                        .get("entry_count")
                        .unwrap()
                        .as_u64()
                        == Some(KEYS as u64)
                    && full_table().is_some()
            },
            "a flush of every key",
        );
        let snap = ctx.read("flusher_loop").unwrap();
        let sample = snap.get("sst_payload").unwrap().as_bytes().unwrap();
        let raw = server.disk().read(&full_table().unwrap().path).unwrap();
        assert!(raw.len() > 4 + SAMPLE_BYTES, "table of {} bytes", raw.len());
        assert_eq!(sample, &raw[4..4 + SAMPLE_BYTES]);
    }

    #[test]
    fn flush_truncates_wal() {
        let server = KvsServer::for_tests();
        let client = server.client();
        client.set("k", "v").unwrap();
        wait_for(|| server.stats().flushes >= 1, "flush");
        // After a flush with no new writes, WAL replay must be empty.
        std::thread::sleep(Duration::from_millis(100));
        let records = crate::wal::Wal::replay(&server.disk(), "wal/current").unwrap();
        assert!(
            records.is_empty(),
            "wal not truncated: {} records",
            records.len()
        );
    }
}
