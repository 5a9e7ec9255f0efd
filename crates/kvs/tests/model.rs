//! Model-based testing: kvs against a reference `HashMap` under random
//! sequential workloads, including crash-recovery equivalence.

// The crash-recovery case waits for real server threads on the real clock.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use kvs::{KvsConfig, KvsServer};
use simio::disk::SimDisk;
use wdog_base::clock::RealClock;

#[derive(Debug, Clone)]
enum Op {
    Set(u8, String),
    Append(u8, String),
    Del(u8),
    Get(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), "[a-z]{0,6}").prop_map(|(k, v)| Op::Set(k, v)),
        (any::<u8>(), "[a-z]{0,4}").prop_map(|(k, v)| Op::Append(k, v)),
        any::<u8>().prop_map(Op::Del),
        any::<u8>().prop_map(Op::Get),
    ]
}

fn key(k: u8) -> String {
    format!("key-{k}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sequential requests observe exactly the reference-map semantics.
    #[test]
    fn sequential_ops_match_reference_model(ops in proptest::collection::vec(op(), 1..60)) {
        let server = KvsServer::for_tests();
        let client = server.client();
        let mut model: HashMap<String, String> = HashMap::new();
        for o in ops {
            match o {
                Op::Set(k, v) => {
                    client.set(&key(k), &v).unwrap();
                    model.insert(key(k), v);
                }
                Op::Append(k, v) => {
                    client.append(&key(k), &v).unwrap();
                    model.entry(key(k)).or_default().push_str(&v);
                }
                Op::Del(k) => {
                    client.del(&key(k)).unwrap();
                    model.remove(&key(k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(client.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
                }
            }
        }
        // Final audit over the whole keyspace.
        for k in 0..=255u8 {
            prop_assert_eq!(client.get(&key(k)).unwrap(), model.get(&key(k)).cloned());
        }
    }

    /// Every write acknowledged *and made durable* survives crash+recovery.
    #[test]
    fn recovery_matches_model_after_crash(ops in proptest::collection::vec(op(), 1..40)) {
        let disk = SimDisk::for_tests();
        let mut model: HashMap<String, String> = HashMap::new();
        {
            let mut server = KvsServer::start(
                KvsConfig::default(),
                RealClock::shared(),
                Arc::clone(&disk),
                None,
            ).unwrap();
            let client = server.client();
            let mut writes = 0u64;
            for o in &ops {
                match o {
                    Op::Set(k, v) => {
                        client.set(&key(*k), v).unwrap();
                        model.insert(key(*k), v.clone());
                        writes += 1;
                    }
                    Op::Append(k, v) => {
                        client.append(&key(*k), v).unwrap();
                        model.entry(key(*k)).or_default().push_str(v);
                        writes += 1;
                    }
                    Op::Del(k) => {
                        client.del(&key(*k)).unwrap();
                        model.remove(&key(*k));
                        writes += 1;
                    }
                    Op::Get(_) => {}
                }
            }
            // Wait until the WAL writer has made every write durable, then
            // stop cleanly and crash the disk (dropping unsynced bytes).
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while server.stats().wal_records + server.stats().flushes * 1000 < writes
                && std::time::Instant::now() < deadline
            {
                // Flushes truncate the WAL, so completed records may exceed
                // the counter; the coarse bound above only guards pending work.
                if server.monitor().queue_depth("wal") == Some(0)
                    && server.stats().wal_records > 0
                {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            server.stop();
        }
        disk.crash();
        let server = KvsServer::start(
            KvsConfig::default(),
            RealClock::shared(),
            Arc::clone(&disk),
            None,
        ).unwrap();
        let client = server.client();
        for k in 0..=255u8 {
            prop_assert_eq!(
                client.get(&key(k)).unwrap(),
                model.get(&key(k)).cloned(),
                "divergence at {}", key(k)
            );
        }
    }
}
