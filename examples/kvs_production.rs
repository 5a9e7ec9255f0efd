//! Figure 1: `kvs` running with its watchdog "in production".
//!
//! Run with: `cargo run --example kvs_production`
//!
//! Starts the full replicated kvs (listener, indexer, WAL writer, flusher,
//! compaction, replication engine), generates the watchdog with AutoWatchdog
//! (mimic checkers from program logic reduction) plus the probe and signal
//! families, and drives a workload. Three gray failures are injected in
//! sequence; after each, the watchdog's report and the health board are
//! printed — including the pinpointed operation and the captured context.

use std::sync::Arc;
use std::time::Duration;

use watchdogs::base::clock::RealClock;
use watchdogs::faults::{FaultKind, Injector};
use watchdogs::kvs::replication::Replica;
use watchdogs::kvs::wd::{build_watchdog, WdOptions};
use watchdogs::kvs::{KvsConfig, KvsServer};
use watchdogs::simio::disk::SimDisk;
use watchdogs::simio::net::SimNet;
use watchdogs::simio::LatencyModel;

fn main() {
    let clock = RealClock::shared();
    let net = SimNet::new(LatencyModel::new(30.0, 1), Arc::clone(&clock));
    let disk = SimDisk::new(1 << 30, LatencyModel::new(20.0, 2), Arc::clone(&clock));
    let _replica = Replica::spawn(net.clone(), "kvs-replica");
    let server = KvsServer::start(
        KvsConfig {
            flush_interval: Duration::from_millis(30),
            compaction_interval: Duration::from_millis(30),
            compaction_trigger: 3,
            ..KvsConfig::replicated()
        },
        Arc::clone(&clock),
        Arc::clone(&disk),
        Some(net.clone()),
    )
    .expect("start kvs");

    let opts = WdOptions {
        interval: Duration::from_millis(200),
        checker_timeout: Duration::from_millis(800),
        ..WdOptions::default()
    };
    let (mut driver, plan) = build_watchdog(&server, &opts).expect("build watchdog");
    println!(
        "AutoWatchdog generated {} mimic checkers:",
        plan.checkers.len()
    );
    for c in &plan.checkers {
        println!(
            "  - {} ({} ops: {}; reads {})",
            c.name,
            c.ops.len(),
            c.ops
                .iter()
                .map(|o| o.op_id.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            c.required_fields.join(", ")
        );
    }
    println!();
    driver.start().expect("start watchdog");

    // Background workload.
    let client = server.client();
    let wl_client = client.clone();
    std::thread::spawn(move || {
        let mut i = 0u64;
        loop {
            let _ = wl_client.set(&format!("user:{}", i % 100), &format!("profile-{i}"));
            let _ = wl_client.get(&format!("user:{}", (i + 50) % 100));
            i += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let injector = Injector::new()
        .with_disk(Arc::clone(&disk))
        .with_net(net.clone())
        .with_toggles(server.toggles())
        .with_clock(Arc::clone(&clock));

    std::thread::sleep(Duration::from_secs(1));
    println!("t=1s  healthy: stats {:?}", driver.stats());
    println!("      reports: {}\n", driver.log().len());

    let faults = [
        (
            "partial disk failure: WAL volume wedges",
            FaultKind::DiskStuck {
                path_prefix: "wal/".into(),
            },
        ),
        (
            "silent corruption: SSTable writes flip bits",
            FaultKind::DiskCorruptWrites {
                path_prefix: "sst/".into(),
            },
        ),
        (
            "background task stuck: compaction wedges inside its lock",
            FaultKind::TaskStuck {
                toggle: "kvs.compaction.stuck".into(),
            },
        ),
    ];
    for (label, kind) in faults {
        println!(">>> injecting: {label}");
        let armed = injector.inject(&kind).expect("inject");
        let before = driver.log().len();
        let start = std::time::Instant::now();
        while driver.log().len() == before && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(50));
        }
        let reports = driver.log().reports();
        match reports.get(before) {
            Some(r) => {
                println!("    detected in {} ms", start.elapsed().as_millis());
                println!("    {}", r.summary());
                if !r.payload.is_empty() {
                    let ctx: Vec<String> =
                        r.payload.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    println!("    captured context: {}", ctx.join(", "));
                }
            }
            None => println!("    no detection within 5 s"),
        }
        injector.clear(&armed);
        // Let things settle before the next fault.
        std::thread::sleep(Duration::from_secs(1));
        println!();
    }

    println!("final stats: {:?}", driver.stats());
    let mut blamed: Vec<String> = driver
        .log()
        .reports()
        .iter()
        .map(|r| r.location.component.to_string())
        .collect();
    blamed.sort();
    blamed.dedup();
    println!("components blamed: {blamed:?}");
    driver.stop();
}
