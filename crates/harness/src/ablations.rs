//! Experiment E6 — ablations of the paper's design choices.
//!
//! 1. **Context synchronization** (§3.1): mimic checkers with properly
//!    synchronized contexts vs. pre-supplied "assumed" contexts on an
//!    in-memory kvs — reproducing the paper's spurious-report example.
//! 2. **Detection latency vs. checking interval**: the watchdog's latency
//!    for a stuck-WAL gray failure as the round interval sweeps — virtual
//!    milliseconds, reproducible to the digit like every scenario run.
//! 3. **Concurrent vs. in-place checking** (§3.1): mean client request
//!    latency when heavyweight checks run concurrently on the watchdog's
//!    executors vs. in place on the request thread — virtual microseconds
//!    on a fresh `SimClock` per configuration, so this one reproduces to
//!    the digit too.
//!
//! (The fourth ablation the design calls out — similar-op dedup and global
//! reduction — is tabulated by experiment E3b's `no-dedup` rows.)

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use kvs::target::KvsTarget;
use kvs::wd::{
    describe_ir, op_table, op_table_unsynced, publish_assumed_contexts, Families, WdOptions,
};
use kvs::{KvsConfig, KvsServer};
use simio::{LatencyModel, SimClock, SimDisk};
use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_core::prelude::*;
use wdog_gen::interp::{instantiate, InstantiateOptions};
use wdog_gen::plan::generate_plan;
use wdog_gen::reduce::ReductionConfig;
use wdog_target::WatchdogTarget;

use crate::fmt::Table;
use crate::scenario::{run_scenario, RunnerOptions};
use crate::session::Session;

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
    /// Mean request latency with no checking at all, virtual microseconds.
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
/// real (never-published) contexts and once with assumed defaults. The
/// checks run inline and time nothing, so the calling thread stays a
/// spectator of the server's clock.
pub fn run_context_ablation() -> BaseResult<ContextAblation> {
    let clock = SimClock::shared();
    let server = KvsServer::start(
        KvsConfig::in_memory(),
        Arc::clone(&clock),
        SimDisk::new(1 << 30, LatencyModel::zero(), Arc::clone(&clock)),
        None,
    )?;
    let plan = generate_plan(&describe_ir(), &ReductionConfig::default());
    let opts = InstantiateOptions::default();

    let mut synced = instantiate(
        &plan,
        &op_table(&server),
        &server.context().reader(),
        &clock,
        &opts,
    )?;
    let synced_false_alarms = synced
        .iter_mut()
        .map(|c| c.check())
        .filter(CheckStatus::is_fail)
        .count();

    publish_assumed_contexts(&server.context());
    let mut unsynced = instantiate(
        &plan,
        &op_table_unsynced(&server),
        &server.context().reader(),
        &clock,
        &opts,
    )?;
    let unsynced_false_alarms = unsynced
        .iter_mut()
        .map(|c| c.check())
        .filter(CheckStatus::is_fail)
        .count();

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

/// E6c's request count per configuration.
const REQUESTS: usize = 300;
/// One in-place checking round is charged every this many requests.
const INPLACE_EVERY: usize = 25;

/// Where E6c runs its heavyweight checkers.
enum Placement {
    None,
    Concurrent,
    InPlace,
}

/// An unstarted driver with four heavyweight checkers, each costing 10 ms
/// of `clock` time per execution.
fn heavy_driver(clock: &SharedClock) -> BaseResult<WatchdogDriver> {
    const CHECK_COST: Duration = Duration::from_millis(10);
    let checkers = (0..4).map(|i| {
        let clock = Arc::clone(clock);
        Box::new(FnChecker::new(
            format!("heavy-{i}"),
            "ablation",
            move || {
                clock.sleep(CHECK_COST);
                CheckStatus::Pass
            },
        )) as Box<dyn Checker>
    });
    WatchdogDriver::builder()
        .config(WatchdogConfig {
            policy: SchedulePolicy::every(Duration::from_millis(50)),
            ..WatchdogConfig::default()
        })
        .clock(Arc::clone(clock))
        .checkers(checkers)
        .build()
}

/// Boots kvs on a fresh `SimClock`, places the heavy checkers, and returns
/// the mean virtual latency of `REQUESTS` API round trips, in µs.
fn mean_request_us(placement: Placement) -> BaseResult<u64> {
    let mut session = Session::boot(&KvsTarget, 42, SimClock::shared(), "ablation-main")?;
    let clock = Arc::clone(session.clock());
    let mut inline = None;
    match placement {
        Placement::None => {}
        Placement::Concurrent => {
            let mut driver = heavy_driver(&clock)?;
            driver.start()?;
            // Its joins follow the session's retire: the hook owns the
            // driver, and the session drops the hook last.
            session.at_stop(move || driver.request_stop());
        }
        Placement::InPlace => inline = Some(heavy_driver(&clock)?),
    }
    let probe = session.inst().api_probe();
    let start = clock.now();
    for i in 0..REQUESTS {
        probe()?;
        if let Some(driver) = &mut inline {
            if i % INPLACE_EVERY == 0 {
                // The design the paper argues against: checks execute on
                // the request path.
                driver.run_inline_round()?;
            }
        }
    }
    Ok((clock.now() - start).as_micros() as u64 / REQUESTS as u64)
}

/// E6c: the cost of running heavyweight checks in place vs concurrently.
pub fn run_placement_ablation() -> BaseResult<PlacementAblation> {
    Ok(PlacementAblation {
        baseline_us: mean_request_us(Placement::None)?,
        concurrent_us: mean_request_us(Placement::Concurrent)?,
        inplace_us: mean_request_us(Placement::InPlace)?,
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

    out.push_str("\nE6c: concurrent vs in-place checking (mean request latency, virtual time)\n");
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
