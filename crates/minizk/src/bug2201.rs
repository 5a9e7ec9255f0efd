//! The packaged ZOOKEEPER-2201 scenario (paper §4.2, experiment E4).
//!
//! Timeline: a healthy cluster serves a steady write workload; a follower
//! sync starts over a link the "network issue" has wedged; the serializer
//! blocks inside the write-serialization critical section; every write
//! hangs. The scenario records, second by second, what each detector says:
//!
//! - the **heartbeat protocol** and the **`ruok` admin command** stay green
//!   for the entire failure (the paper's negative result);
//! - the **generated watchdog** reports `Stuck`, pinpointed at
//!   `serialize_node [write_record]` with the blocked node path as concrete
//!   context, within seconds (the paper reports ~7 s with its configuration).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use simio::disk::SimDisk;
use simio::net::{LinkRule, NetFault, SimNet};

use wdog_base::clock::{RealClock, SharedClock};
use wdog_base::error::BaseResult;

use wdog_core::prelude::*;

use crate::heartbeat::HeartbeatProber;
use crate::quorum::{follower_addr, Cluster, ClusterConfig, LEADER_ADDR};
use crate::wd::{build_watchdog, default_zk_options, WdOptions};

/// Scenario tunables.
#[derive(Debug, Clone)]
pub struct Bug2201Options {
    /// Watchdog checking interval (the paper's deployment used seconds).
    pub checker_interval: Duration,
    /// Watchdog checker execution timeout.
    pub checker_timeout: Duration,
    /// How long to observe after injecting the fault.
    pub observe_for: Duration,
    /// Number of znodes created under `/app` before the fault.
    pub tree_size: usize,
    /// Steady workload period between writes.
    pub write_period: Duration,
}

impl Default for Bug2201Options {
    fn default() -> Self {
        Self {
            checker_interval: Duration::from_secs(2),
            checker_timeout: Duration::from_secs(3),
            observe_for: Duration::from_secs(12),
            tree_size: 30,
            write_period: Duration::from_millis(50),
        }
    }
}

/// What the scenario measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bug2201Report {
    /// Milliseconds from fault injection to the watchdog's first stuck
    /// report; `None` if it never detected.
    pub watchdog_detection_ms: Option<u64>,
    /// The pinpointed location string of the first detection.
    pub pinpoint: Option<String>,
    /// Context payload captured with the detection.
    pub payload: Vec<(String, String)>,
    /// Whether the heartbeat detector reported the leader healthy at every
    /// sample during the failure.
    pub heartbeat_green_throughout: bool,
    /// Whether `ruok` answered `imok` at every sample.
    pub ruok_green_throughout: bool,
    /// Writes that succeeded before the fault.
    pub writes_before: u64,
    /// Writes that succeeded while the fault was active (should be ~0).
    pub writes_during: u64,
    /// Write attempts that timed out during the failure.
    pub write_timeouts: u64,
    /// Whether reads kept succeeding during the failure.
    pub reads_ok_during: bool,
}

/// Orchestrates the scenario.
pub struct Bug2201;

impl Bug2201 {
    /// Runs the scenario end to end and returns the measurements.
    pub fn run(opts: &Bug2201Options) -> BaseResult<Bug2201Report> {
        let clock: SharedClock = RealClock::shared();
        let net = SimNet::new(simio::LatencyModel::new(50.0, 2201), Arc::clone(&clock));
        let disk = SimDisk::new(
            1 << 30,
            simio::LatencyModel::new(30.0, 1022),
            Arc::clone(&clock),
        );
        let cluster = Arc::new(Cluster::start(
            ClusterConfig {
                client_timeout: Duration::from_millis(500),
                ..ClusterConfig::default()
            },
            Arc::clone(&clock),
            disk,
            net.clone(),
        )?);

        // Populate the tree.
        cluster.create("/app", b"root")?;
        for i in 0..opts.tree_size {
            cluster.create(&format!("/app/n{i}"), b"initial")?;
        }

        // Watchdog.
        let (mut driver, _plan) = build_watchdog(
            &cluster,
            &WdOptions {
                interval: opts.checker_interval,
                checker_timeout: opts.checker_timeout,
                ..default_zk_options()
            },
        )?;
        driver.start()?;

        // Extrinsic heartbeat detector.
        let prober = HeartbeatProber::start(
            net.clone(),
            Arc::clone(&clock),
            "hb-probe",
            Duration::from_millis(200),
            Duration::from_secs(1),
        );

        // Steady write workload.
        let writes_before = Arc::new(AtomicU64::new(0));
        let writes_during = Arc::new(AtomicU64::new(0));
        let write_timeouts = Arc::new(AtomicU64::new(0));
        let fault_active = Arc::new(AtomicBool::new(false));
        let workload_running = Arc::new(AtomicBool::new(true));
        let workload = {
            let cluster = Arc::clone(&cluster);
            let before = Arc::clone(&writes_before);
            let during = Arc::clone(&writes_during);
            let timeouts = Arc::clone(&write_timeouts);
            let active = Arc::clone(&fault_active);
            let running = Arc::clone(&workload_running);
            let period = opts.write_period;
            let tree_size = opts.tree_size;
            std::thread::spawn(move || {
                let mut i = 0u64;
                while running.load(Ordering::Relaxed) {
                    let path = format!("/app/n{}", i % tree_size as u64);
                    match cluster.set_data(&path, format!("v{i}").as_bytes()) {
                        Ok(_) => {
                            if active.load(Ordering::Relaxed) {
                                during.fetch_add(1, Ordering::Relaxed);
                            } else {
                                before.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            if active.load(Ordering::Relaxed) {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    i += 1;
                    std::thread::sleep(period);
                }
            })
        };

        // Warm up, then inject: wedge the leader → follower-1 link and
        // start the sync that will block inside the critical section.
        std::thread::sleep(Duration::from_secs(1));
        net.inject(LinkRule::link(
            LEADER_ADDR,
            follower_addr(1),
            NetFault::BlockSend,
        ));
        fault_active.store(true, Ordering::Relaxed);
        let injected_at = clock.now();
        let _sync = cluster.sync_follower(1);

        // Observe.
        let mut heartbeat_green = true;
        let mut ruok_green = true;
        let mut reads_ok = true;
        let mut detection: Option<(u64, FailureReport)> = None;
        let deadline = clock.now() + opts.observe_for;
        while clock.now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            if !prober.leader_healthy() {
                heartbeat_green = false;
            }
            if cluster.admin_ruok() != "imok" {
                ruok_green = false;
            }
            if cluster.get_data("/app").is_err() {
                reads_ok = false;
            }
            {
                // First stuck report fixes the detection latency; the
                // pinpoint upgrades to the snapshot-region report if one
                // arrives later in the window (several checkers share the
                // wedged link, and any of them may fire first).
                let reports = driver.log().reports();
                let in_region = |r: &FailureReport| {
                    let loc = r.location.to_string();
                    loc.contains("serialize_node") || loc.contains("tree_write_lock")
                };
                match &mut detection {
                    None => {
                        if let Some(r) = reports.iter().find(|r| r.kind == FailureKind::Stuck) {
                            let latency =
                                clock.now().saturating_sub(injected_at).as_millis() as u64;
                            let best = reports
                                .iter()
                                .filter(|r| r.kind == FailureKind::Stuck)
                                .find(|r| in_region(r))
                                .unwrap_or(r);
                            detection = Some((latency, best.clone()));
                        }
                    }
                    Some((_, current)) if !in_region(current) => {
                        if let Some(better) = reports
                            .iter()
                            .filter(|r| r.kind == FailureKind::Stuck)
                            .find(|r| in_region(r))
                        {
                            *current = better.clone();
                        }
                    }
                    Some(_) => {}
                }
            }
        }

        // Teardown: clear the fault so wedged threads drain, then stop.
        net.clear_all();
        workload_running.store(false, Ordering::Relaxed);
        let _ = workload.join();
        driver.stop();

        let (watchdog_detection_ms, pinpoint, payload) = match detection {
            Some((ms, r)) => (Some(ms), Some(r.location.to_string()), r.payload),
            None => (None, None, Vec::new()),
        };
        Ok(Bug2201Report {
            watchdog_detection_ms,
            pinpoint,
            payload,
            heartbeat_green_throughout: heartbeat_green,
            ruok_green_throughout: ruok_green,
            writes_before: writes_before.load(Ordering::Relaxed),
            writes_during: writes_during.load(Ordering::Relaxed),
            write_timeouts: write_timeouts.load(Ordering::Relaxed),
            reads_ok_during: reads_ok,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full §4.2 reproduction, scaled down for test time: the watchdog
    /// detects within seconds while heartbeat and ruok stay green.
    #[test]
    fn reproduces_the_gray_failure() {
        let report = Bug2201::run(&Bug2201Options {
            checker_interval: Duration::from_millis(300),
            checker_timeout: Duration::from_millis(600),
            observe_for: Duration::from_secs(5),
            tree_size: 10,
            write_period: Duration::from_millis(30),
        })
        .unwrap();

        assert!(report.writes_before > 0, "workload never got going");
        assert!(
            report.write_timeouts > 0,
            "writes kept succeeding — failure not induced: {report:#?}"
        );
        assert!(report.reads_ok_during, "reads failed; failure is not gray");
        assert!(
            report.heartbeat_green_throughout,
            "heartbeat suspected the leader — extrinsic detector should stay green"
        );
        assert!(report.ruok_green_throughout, "ruok went red");
        let ms = report
            .watchdog_detection_ms
            .expect("watchdog never detected the hang");
        assert!(ms < 4_000, "detection too slow: {ms} ms");
        let pin = report.pinpoint.unwrap();
        assert!(
            pin.contains("serialize_node")
                || pin.contains("tree_write_lock")
                || pin.contains("final_apply"),
            "pinpoint {pin} not in the wedged code region"
        );
    }
}
