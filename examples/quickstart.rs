//! Quickstart: attach a watchdog to a small worker and catch a hang.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The worker loop appends records to a simulated disk. We build a watchdog
//! with one mimic-style checker that shares the worker's fate: when the disk
//! wedges, both the worker and the checker block — and the watchdog driver
//! reports the checker stuck at the exact operation, while an outside
//! observer would still see a living process.

use std::sync::Arc;
use std::time::Duration;

use watchdogs::base::clock::RealClock;
use watchdogs::core::checker::{CheckStatus, FnChecker};
use watchdogs::core::driver::{WatchdogConfig, WatchdogDriver};
use watchdogs::core::policy::SchedulePolicy;
use watchdogs::simio::disk::{DiskFault, DiskOpKind, FaultRule, SimDisk};

fn main() {
    let clock = RealClock::shared();
    let disk = SimDisk::new(
        1 << 20,
        watchdogs::simio::LatencyModel::zero(),
        Arc::clone(&clock),
    );

    // The "main program": a worker appending to a journal forever.
    let worker_disk = Arc::clone(&disk);
    std::thread::spawn(move || loop {
        let _ = worker_disk.append("journal/log", b"record");
        std::thread::sleep(Duration::from_millis(20));
    });

    // The watchdog: one checker mimicking the worker's vulnerable write,
    // against a probe file on the same volume.
    let checker_disk = Arc::clone(&disk);
    let mut driver = WatchdogDriver::builder()
        .config(WatchdogConfig {
            policy: SchedulePolicy::every(Duration::from_millis(100)),
            default_timeout: Duration::from_millis(300),
            health_window: Duration::from_secs(10),
            spawn_order_seed: None,
        })
        .clock(Arc::clone(&clock))
        .checker(Box::new(FnChecker::new(
            "journal.append.mimic",
            "worker.journal",
            move || match checker_disk.append("journal/__wd_probe", b"probe") {
                Ok(()) => CheckStatus::Pass,
                Err(e) => CheckStatus::Fail(watchdogs::core::checker::CheckFailure::new(
                    watchdogs::core::report::FailureKind::from_error(&e),
                    watchdogs::core::report::FaultLocation::new("worker.journal", "append")
                        .with_op("journal#disk_write"),
                    e.to_string(),
                )),
            },
        )))
        .build()
        .expect("assemble watchdog");
    driver.start().expect("start watchdog");

    println!("healthy phase: letting the worker run for a second ...");
    std::thread::sleep(Duration::from_secs(1));
    println!(
        "  watchdog stats: {:?}, reports: {}",
        driver.stats(),
        driver.log().len()
    );

    println!("\ninjecting a partial disk failure (journal volume wedges) ...");
    let fault = disk.inject(FaultRule::scoped(
        "journal/",
        vec![DiskOpKind::Write],
        DiskFault::Stuck,
    ));
    std::thread::sleep(Duration::from_secs(1));

    let reports = driver.log().reports();
    match reports.first() {
        Some(r) => {
            println!("  DETECTED: {}", r.summary());
            println!("  watchdog stats: {:?}", driver.stats());
        }
        None => println!("  (no detection yet)"),
    }

    disk.clear(fault);
    std::thread::sleep(Duration::from_millis(300));
    driver.stop();
    println!("\nfault cleared; done.");
}
