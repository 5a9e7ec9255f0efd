//! The telemetry sidecar beside each table and recovery artifact.
//!
//! `table1`, `table2` and `wdog-recovery` thread a [`TelemetryRegistry`]
//! through the whole stack — driver, hooks, report counters — and archive
//! the resulting [`TelemetrySnapshot`] as JSON
//! (`telemetry_<bin>_<target>.json`) and Prometheus-style text (`.prom`):
//! per-checker execution latency histograms, per-site hook fire counts and
//! the flight-recorder tail. [`validate_snapshot`] is the schema the table
//! bins gate on.

use wdog_core::prelude::*;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, RunnerOptions};
    use kvs::target::KvsTarget;
    use wdog_target::WatchdogTarget;

    #[test]
    fn kvs_scenario_produces_valid_snapshot() {
        let target = KvsTarget;
        let scenario = target
            .catalog()
            .into_iter()
            .find(|s| s.id == "background-task-stuck")
            .unwrap();
        let registry = TelemetryRegistry::shared();
        let mut opts = RunnerOptions::default();
        opts.wd.telemetry = Some(std::sync::Arc::clone(&registry));
        run_scenario(&target, Some(&scenario), &opts).unwrap();
        let snap = registry.snapshot();
        let violations = validate_snapshot(&snap);
        assert!(violations.is_empty(), "schema violations: {violations:?}");
        assert!(
            snap.counter("reports_by_kind_total", "stuck").unwrap_or(0) > 0,
            "stuck reports must be classified: {:?}",
            snap.counters
        );
    }
}
