//! The telemetry campaign behind the `wdog-telemetry` bin.
//!
//! Replays a target's gray-failure catalogue through the scenario runner
//! with a [`TelemetryRegistry`] threaded through the whole stack — driver,
//! hooks, detection tracker — then exports the resulting
//! [`TelemetrySnapshot`] as JSON (`results/telemetry_<target>.json`) and
//! Prometheus-style text (`.prom`). The snapshot is the paper's missing
//! observability story: per-checker execution latency histograms, per-site
//! hook fire counts, and measured fault-injection→first-report detection
//! latencies, all from one campaign run.

use std::time::Duration;

use wdog_base::error::BaseResult;
use wdog_core::prelude::*;
use wdog_target::WatchdogTarget;

use crate::fmt::Table;
use crate::scenario::{run_scenario, RunnerOptions};

/// Runs every catalogue scenario (optionally filtered by id) with telemetry
/// armed and returns the cumulative snapshot.
///
/// Crash scenarios are skipped: the in-process registry dies with the
/// process in spirit (the simulated crash halts the workload and the
/// watchdog), so they contribute nothing but observation-window wall time.
pub fn run_campaign(
    target: &dyn WatchdogTarget,
    scenarios: Option<&[String]>,
    base: &RunnerOptions,
) -> BaseResult<TelemetrySnapshot> {
    let registry = TelemetryRegistry::shared();
    let mut opts = base.clone();
    opts.wd.telemetry = Some(std::sync::Arc::clone(&registry));
    for scenario in target.catalog() {
        if let Some(filter) = scenarios {
            if !filter.iter().any(|s| s == &scenario.id) {
                continue;
            }
        }
        if scenario.id == "process-crash" {
            continue;
        }
        eprintln!("[wdog-telemetry] {} / {} ...", target.name(), scenario.id);
        run_scenario(target, Some(&scenario), &opts)?;
    }
    Ok(registry.snapshot())
}

/// Schema violations in a campaign snapshot. Empty means the snapshot has
/// everything the telemetry plane promises.
pub fn validate_snapshot(snap: &TelemetrySnapshot) -> Vec<String> {
    let mut v = Vec::new();
    if !snap
        .counters
        .iter()
        .any(|c| c.name == "hook_fires_total" && c.value > 0)
    {
        v.push("no nonzero hook_fires_total counter (hooks never armed?)".into());
    }
    if !snap
        .histograms
        .iter()
        .any(|h| h.name == "checker_wall_ms" && h.summary.count > 0)
    {
        v.push("no populated checker_wall_ms histogram (driver never ran?)".into());
    }
    if !snap
        .histograms
        .iter()
        .any(|h| h.name == "checker_dispatch_delay_ms" && h.summary.count > 0)
    {
        v.push("no populated checker_dispatch_delay_ms histogram".into());
    }
    for h in &snap.histograms {
        if h.summary.count > 0
            && !(h.summary.p50 <= h.summary.p95 && h.summary.p95 <= h.summary.p99)
        {
            v.push(format!(
                "histogram {}/{} percentiles not monotone: p50={} p95={} p99={}",
                h.name, h.label, h.summary.p50, h.summary.p95, h.summary.p99
            ));
        }
    }
    for d in &snap.detections {
        if d.detected_at_ms < d.injected_at_ms {
            v.push(format!(
                "detection sample for {} precedes its injection",
                d.fault
            ));
        }
    }
    v
}

/// Writes the snapshot as `<dir>/<name>.json` plus `<dir>/<name>.prom`;
/// `dir` is the campaign binaries' `--out` artifact root.
pub fn write_snapshot_under(dir: &std::path::Path, name: &str, snap: &TelemetrySnapshot) {
    crate::write_json_under(dir, name, snap);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.prom"));
    if let Err(e) = std::fs::write(&path, snap.to_prometheus()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        println!("[prometheus text written to {}]", path.display());
    }
}

/// Renders the campaign's headline numbers: measured detection latencies
/// and the per-checker execution-latency percentiles.
pub fn render(target: &str, snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut det = Table::new(&["fault", "checker", "kind", "detection_ms"]);
    for d in &snap.detections {
        det.row_owned(vec![
            d.fault.clone(),
            d.checker.clone(),
            d.kind.clone(),
            d.latency_ms.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Telemetry campaign [{target}]: {} detection latencies measured\n\n{}",
        snap.detections.len(),
        det.render()
    ));

    let mut chk = Table::new(&["checker", "runs", "wall p50/p99 (ms)", "pass", "fail"]);
    for h in &snap.histograms {
        if h.name != "checker_wall_ms" || h.summary.count == 0 {
            continue;
        }
        let pass = snap.counter("checker_pass_total", &h.label).unwrap_or(0);
        let fail = snap.counter("checker_fail_total", &h.label).unwrap_or(0);
        chk.row_owned(vec![
            h.label.clone(),
            h.summary.count.to_string(),
            format!("{}/{}", h.summary.p50, h.summary.p99),
            pass.to_string(),
            fail.to_string(),
        ]);
    }
    out.push_str(&format!(
        "\n\nPer-checker execution timing\n\n{}",
        chk.render()
    ));

    let fires: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "hook_fires_total")
        .map(|c| c.value)
        .sum();
    let sites = snap
        .counters
        .iter()
        .filter(|c| c.name == "hook_fires_total")
        .count();
    out.push_str(&format!(
        "\n\nHook plane: {fires} fires across {sites} sites; {} flight events ({} dropped)\n",
        snap.flight.len(),
        snap.flight_dropped
    ));
    out
}

/// Campaign tuning for the telemetry bin: short rounds so several checking
/// rounds land inside each observation window.
pub fn campaign_options() -> RunnerOptions {
    RunnerOptions {
        observe: Duration::from_secs(3),
        extrinsic: false,
        ..RunnerOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs::target::KvsTarget;

    #[test]
    fn kvs_campaign_produces_valid_snapshot_with_detections() {
        let target = KvsTarget;
        let scenarios = vec!["background-task-stuck".to_string()];
        let opts = RunnerOptions {
            warmup: Duration::from_millis(400),
            observe: Duration::from_millis(1500),
            extrinsic: false,
            ..RunnerOptions::default()
        };
        let snap = run_campaign(&target, Some(&scenarios), &opts).unwrap();
        let violations = validate_snapshot(&snap);
        assert!(violations.is_empty(), "schema violations: {violations:?}");
        assert!(
            !snap.detections.is_empty(),
            "stuck compaction must yield a measured detection latency"
        );
        let d = &snap.detections[0];
        assert_eq!(d.fault, "background-task-stuck");
        assert!(d.detected_at_ms >= d.injected_at_ms);
        assert!(
            snap.counter("reports_by_kind_total", "stuck").unwrap_or(0) > 0,
            "stuck reports must be classified: {:?}",
            snap.counters
        );
    }
}
