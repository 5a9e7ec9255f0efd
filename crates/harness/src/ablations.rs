//! Experiment E6 — ablations of the paper's design choices.
//!
//! 1. **Context synchronization** (§3.1): mimic checkers with properly
//!    synchronized contexts vs. pre-supplied "assumed" contexts on an
//!    in-memory kvs — reproducing the paper's spurious-report example.
//! 2. **Detection latency vs. checking interval**: the watchdog's latency
//!    for a stuck-WAL gray failure as the round interval sweeps — virtual
//!    milliseconds, reproducible to the digit like every scenario run.
//! 3. **Concurrent vs. in-place checking** (§3.1): average client request
//!    latency when heavyweight checks run concurrently on the watchdog's
//!    executors vs. in place on the request thread. Wall time is the
//!    measurand, so this one stays on the real clock and its numbers move
//!    from run to run.
//!
//! (The fourth ablation the design calls out — similar-op dedup and global
//! reduction — is tabulated by experiment E3b's `no-dedup` rows.)

use std::time::Duration;

use serde::{Deserialize, Serialize};

use kvs::target::KvsTarget;
use kvs::wd::{
    generate_kvs_plan, op_table, op_table_unsynced, publish_assumed_contexts, Families, WdOptions,
};
use kvs::{KvsConfig, KvsServer};
use simio::disk::SimDisk;
use wdog_base::clock::{RealClock, SharedClock};
use wdog_base::error::BaseResult;
use wdog_core::prelude::*;
use wdog_gen::interp::{instantiate, InstantiateOptions};
use wdog_gen::reduce::ReductionConfig;
use wdog_target::WatchdogTarget;

use crate::fmt::Table;
use crate::scenario::{run_scenario, RunnerOptions};

/// E6a result: context-synchronization ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContextAblation {
    /// Checks executed with synchronized contexts.
    pub synced_checks: usize,
    /// Spurious failures with synchronized contexts (should be 0).
    pub synced_false_alarms: usize,
    /// Checks executed with assumed contexts.
    pub unsynced_checks: usize,
    /// Spurious failures with assumed contexts (should be > 0).
    pub unsynced_false_alarms: usize,
}

/// E6b result: one point of the latency-vs-interval sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Checking interval in milliseconds.
    pub interval_ms: u64,
    /// Measured detection latency in milliseconds (`None` = missed).
    pub detection_ms: Option<u64>,
}

/// E6c result: in-place vs concurrent checking cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementAblation {
    /// Mean request latency with no checking at all, microseconds.
    pub baseline_us: u64,
    /// Mean request latency with concurrent (watchdog) checking.
    pub concurrent_us: u64,
    /// Mean request latency with the same checks run in place.
    pub inplace_us: u64,
}

/// The full E6 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Context-synchronization ablation.
    pub context: ContextAblation,
    /// Latency sweep.
    pub sweep: Vec<LatencyPoint>,
    /// Checking-placement ablation.
    pub placement: PlacementAblation,
}

/// E6a: run the generated mimic checkers over an in-memory kvs, once with
/// real (never-published) contexts and once with assumed defaults.
pub fn run_context_ablation() -> BaseResult<ContextAblation> {
    let server = KvsServer::start(
        KvsConfig::in_memory(),
        RealClock::shared(),
        SimDisk::for_tests(),
        None,
    )?;
    let plan = generate_kvs_plan(&ReductionConfig::default());
    let clock: SharedClock = RealClock::shared();
    let opts = InstantiateOptions::default();

    let mut synced = instantiate(
        &plan,
        &op_table(&server),
        &server.context().reader(),
        &clock,
        &opts,
    )?;
    let mut synced_false_alarms = 0;
    for c in &mut synced {
        if c.check().is_fail() {
            synced_false_alarms += 1;
        }
    }

    publish_assumed_contexts(&server.context());
    let mut unsynced = instantiate(
        &plan,
        &op_table_unsynced(&server),
        &server.context().reader(),
        &clock,
        &opts,
    )?;
    let mut unsynced_false_alarms = 0;
    for c in &mut unsynced {
        if c.check().is_fail() {
            unsynced_false_alarms += 1;
        }
    }

    Ok(ContextAblation {
        synced_checks: synced.len(),
        synced_false_alarms,
        unsynced_checks: unsynced.len(),
        unsynced_false_alarms,
    })
}

/// E6b: detection latency for the partial-disk-stuck scenario across
/// checking intervals.
pub fn run_latency_sweep(intervals_ms: &[u64]) -> BaseResult<Vec<LatencyPoint>> {
    let target = KvsTarget;
    let catalog = target.catalog();
    let scenario = catalog
        .iter()
        .find(|s| s.id == "partial-disk-stuck")
        .expect("catalogue scenario");
    let mut points = Vec::new();
    for &interval_ms in intervals_ms {
        eprintln!("[ablations] latency sweep, interval {interval_ms} ms ...");
        let opts = RunnerOptions {
            wd: WdOptions {
                interval: Duration::from_millis(interval_ms),
                checker_timeout: Duration::from_millis((interval_ms / 2).max(400)),
                families: Families::only("mimic"),
                ..WdOptions::default()
            },
            extrinsic: false,
            observe: Duration::from_millis(interval_ms * 3 + 4000),
            ..RunnerOptions::default()
        };
        let result = run_scenario(&target, Some(scenario), &opts)?;
        points.push(LatencyPoint {
            interval_ms,
            detection_ms: result.outcome("watchdog").and_then(|o| o.latency_ms),
        });
    }
    Ok(points)
}

/// Builds `n` heavyweight checkers, each costing `cost` per execution.
#[expect(
    clippy::disallowed_methods,
    reason = "E6c measures request latency in wall time: checker cost must be real CPU-side delay"
)]
fn heavy_checkers(n: usize, cost: Duration) -> Vec<Box<dyn Checker>> {
    (0..n)
        .map(|i| {
            Box::new(FnChecker::new(
                format!("heavy-{i}"),
                "ablation",
                move || {
                    std::thread::sleep(cost);
                    CheckStatus::Pass
                },
            )) as Box<dyn Checker>
        })
        .collect()
}

/// E6c: the cost of running heavyweight checks in place vs concurrently.
pub fn run_placement_ablation() -> BaseResult<PlacementAblation> {
    const REQUESTS: usize = 300;
    const CHECKERS: usize = 4;
    const CHECK_COST: Duration = Duration::from_millis(10);
    /// One in-place checking round is charged every this many requests.
    const INPLACE_EVERY: usize = 25;

    #[expect(
        clippy::disallowed_methods,
        reason = "E6c's measurand is wall-clock request latency"
    )]
    let measure = |server: &KvsServer, mut inline: Option<&mut WatchdogDriver>| -> u64 {
        let client = server.client();
        let start = std::time::Instant::now();
        for i in 0..REQUESTS {
            client.set(&format!("k{}", i % 64), "v").expect("request");
            if let Some(driver) = inline.as_deref_mut() {
                if i % INPLACE_EVERY == 0 {
                    // The design the paper argues against: checks execute on
                    // the request path.
                    let _ = driver.run_inline_round();
                }
            }
        }
        (start.elapsed().as_micros() as u64) / REQUESTS as u64
    };

    // Baseline.
    let server = KvsServer::for_tests();
    let baseline_us = measure(&server, None);

    // Concurrent: same checkers on the watchdog's own executors.
    let server = KvsServer::for_tests();
    let mut driver = WatchdogDriver::builder()
        .config(WatchdogConfig {
            policy: SchedulePolicy::every(Duration::from_millis(50)),
            ..WatchdogConfig::default()
        })
        .checkers(heavy_checkers(CHECKERS, CHECK_COST))
        .build()?;
    driver.start()?;
    let concurrent_us = measure(&server, None);
    driver.stop();

    // In place: the same checks executed on the request thread.
    let server = KvsServer::for_tests();
    let mut driver = WatchdogDriver::builder()
        .checkers(heavy_checkers(CHECKERS, CHECK_COST))
        .build()?;
    let inplace_us = measure(&server, Some(&mut driver));

    Ok(PlacementAblation {
        baseline_us,
        concurrent_us,
        inplace_us,
    })
}

/// Runs all three ablations.
pub fn run() -> BaseResult<AblationResult> {
    eprintln!("[ablations] context synchronization ...");
    let context = run_context_ablation()?;
    let sweep = run_latency_sweep(&[100, 250, 500, 1000, 2000])?;
    eprintln!("[ablations] checking placement ...");
    let placement = run_placement_ablation()?;
    Ok(AblationResult {
        context,
        sweep,
        placement,
    })
}

/// Renders the E6 output.
pub fn render(result: &AblationResult) -> String {
    let mut out = String::from("E6 — design-choice ablations\n\n");

    out.push_str("E6a: context synchronization (in-memory kvs, paper §3.1 example)\n");
    let mut t = Table::new(&["contexts", "checkers run", "spurious reports"]);
    t.row_owned(vec![
        "synchronized (hooks)".into(),
        result.context.synced_checks.to_string(),
        result.context.synced_false_alarms.to_string(),
    ]);
    t.row_owned(vec![
        "assumed (no sync)".into(),
        result.context.unsynced_checks.to_string(),
        result.context.unsynced_false_alarms.to_string(),
    ]);
    out.push_str(&t.render());

    out.push_str("\nE6b: detection latency vs checking interval (partial-disk-stuck)\n");
    let mut t = Table::new(&["interval", "detection latency"]);
    for p in &result.sweep {
        t.row_owned(vec![
            format!("{} ms", p.interval_ms),
            p.detection_ms
                .map(|ms| format!("{ms} ms"))
                .unwrap_or_else(|| "missed".into()),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nE6c: concurrent vs in-place checking (mean request latency)\n");
    let mut t = Table::new(&["configuration", "mean request latency"]);
    t.row_owned(vec![
        "no checking".into(),
        format!("{} us", result.placement.baseline_us),
    ]);
    t.row_owned(vec![
        "concurrent watchdog".into(),
        format!("{} us", result.placement.concurrent_us),
    ]);
    t.row_owned(vec![
        "in-place checks".into(),
        format!("{} us", result.placement.inplace_us),
    ]);
    out.push_str(&t.render());
    out
}

/// Shape checks for E6. Returns violations.
pub fn shape_violations(result: &AblationResult) -> Vec<String> {
    let mut v = Vec::new();
    if result.context.synced_false_alarms != 0 {
        v.push("synchronized contexts produced spurious reports".into());
    }
    if result.context.unsynced_false_alarms == 0 {
        v.push("assumed contexts produced no spurious report".into());
    }
    let detected: Vec<&LatencyPoint> = result
        .sweep
        .iter()
        .filter(|p| p.detection_ms.is_some())
        .collect();
    if detected.len() < result.sweep.len() {
        v.push("some sweep points missed the detection".into());
    }
    if let (Some(first), Some(last)) = (detected.first(), detected.last()) {
        if last.detection_ms.unwrap() < first.detection_ms.unwrap() {
            v.push("detection latency did not grow with the interval".into());
        }
    }
    if result.placement.inplace_us <= result.placement.concurrent_us * 2 {
        v.push("in-place checking was not clearly costlier than concurrent".into());
    }
    v
}
