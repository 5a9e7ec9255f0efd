//! The names the benchmark reports. `BENCHMARK.json` at the repo root lists
//! the same names, units, directions and bounds; a test keeps the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which it may
    /// get worse. Per-layer metrics (`<crate>.<what>`) have none.
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Every end-to-end metric; every workload reports all of them.
///
/// All but `setup_s` are ratios or virtual-time quantities. Absolute
/// wall-clock numbers (`target.rps.*`, `target.req_p90_us.*`,
/// `harness.schedule_wall_ms.*`) are layer metrics: this box runs 1.3–1.5×
/// slower for minutes at a time, which put their ten-seed spread anywhere
/// between 7 % and 37 %, wider than any bound the contract allows. See
/// README.md, "Measured spreads", for the evidence and for how the bounds
/// were set.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("armed_ratio", "ratio", Higher, 0.25),
    e2e("armed_p90_ratio", "ratio", Lower, 0.25),
    e2e("detected_frac", "ratio", Higher, 0.16),
    e2e("right_component_frac", "ratio", Higher, 0.05),
    e2e("benign_clean_frac", "ratio", Higher, 0.05),
    e2e("detect_mean_vms", "vms", Lower, 0.25),
    e2e("recovered_frac", "ratio", Higher, 0.2),
    e2e("mttr_mean_vms", "vms", Lower, 0.25),
];

/// The end-to-end metrics that come from the sim clock alone: pure functions
/// of (workload, seed), so two runs on one seed must agree to the last digit.
pub const EXACT_ON_ONE_SEED: &[&str] = &[
    "detected_frac",
    "right_component_frac",
    "benign_clean_frac",
    "detect_mean_vms",
    "recovered_frac",
    "mttr_mean_vms",
];

/// Every per-layer metric; the traced run of every workload reports all of
/// them. `target.*`, `wdog-checkers.*`, `wdog-target.*` and `wdog-gen.*` are
/// measured on the workload's own target.
pub const PER_LAYER: &[Metric] = &[
    layer("wdog-core.fire_disabled_ns", "ns", Lower),
    layer("wdog-core.fire_enabled_ns", "ns", Lower),
    layer("wdog-core.fire_contended_ns", "ns", Lower),
    layer("wdog-core.fire_traced_ns", "ns", Lower),
    layer("wdog-core.snapshot_read_ns", "ns", Lower),
    layer("wdog-core.round_dispatch_us", "us", Lower),
    layer("wdog-core.driver_threads", "count", Lower),
    layer("wdog-core.driver_start_ms", "ms", Lower),
    layer("wdog-core.driver_stop_ms", "ms", Lower),
    layer("wdog-core.report_to_action_us", "us", Lower),
    layer("wdog-core.false_reports_per_round", "count", Lower),
    layer("wdog-checkers.round_us.mimic", "us", Lower),
    layer("wdog-checkers.round_us.probe", "us", Lower),
    layer("wdog-checkers.round_us.signal", "us", Lower),
    layer("wdog-target.build_watchdog_ms", "ms", Lower),
    layer("wdog-gen.generate_plan_ms", "ms", Lower),
    layer("wdog-gen.instantiate_ms", "ms", Lower),
    layer("wdog-analyze.extract_ms", "ms", Lower),
    layer("wdog-base.queue_roundtrip_us", "us", Lower),
    layer("wdog-base.queue_roundtrip_unpinned_us", "us", Lower),
    layer("wdog-base.queue_roundtrip_sim_us", "us", Lower),
    layer("wdog-base.clocked_mutex_lock_ns", "ns", Lower),
    layer("simio.disk_append_ns", "ns", Lower),
    layer("simio.disk_read_ns", "ns", Lower),
    layer("simio.disk_fsync_ns", "ns", Lower),
    layer("simio.net_send_ns", "ns", Lower),
    layer("simio.sim_switch_us", "us", Lower),
    layer("simio.sim_switch_unpinned_us", "us", Lower),
    layer("wdog-telemetry.counter_inc_ns", "ns", Lower),
    layer("wdog-telemetry.histogram_record_ns", "ns", Lower),
    layer("wdog-telemetry.snapshot_us", "us", Lower),
    layer("wdog-infer.mine_ms_per_kevent", "ms", Lower),
    layer("faults.compose_us", "us", Lower),
    layer("faults.inject_clear_us", "us", Lower),
    layer("wdog-recover.incident_wall_us", "us", Lower),
    layer("harness.schedule_wall_ms.kvs", "ms", Lower),
    layer("harness.schedule_wall_ms.minizk", "ms", Lower),
    layer("harness.schedule_wall_ms.miniblock", "ms", Lower),
    layer("target.boot_ms", "ms", Lower),
    layer("target.teardown_ms", "ms", Lower),
    layer("target.sim_boot_ms", "ms", Lower),
    layer("target.rps.armed", "1/s", Higher),
    layer("target.rps.disarmed", "1/s", Higher),
    layer("target.req_p50_us.armed", "us", Lower),
    layer("target.req_p50_us.disarmed", "us", Lower),
    layer("target.req_p90_us.armed", "us", Lower),
    layer("target.req_p90_us.disarmed", "us", Lower),
    layer("target.req_p99_us.armed", "us", Lower),
    layer("target.req_p99_us.disarmed", "us", Lower),
    layer("target.req_p999_us.armed", "us", Lower),
    layer("target.req_p999_us.disarmed", "us", Lower),
    layer("target.disk_ops_per_req", "count", Lower),
    layer("target.net_ops_per_req", "count", Lower),
    layer("target.open_p50_us", "us", Lower),
    layer("target.open_p99_us", "us", Lower),
    layer("target.gen_late_p99_us", "us", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// One measured value, by name, with how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Reading {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Blocks, schedules, batches or requests behind the value.
    pub samples: u64,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The readings, in table order.
    pub readings: Vec<Reading>,
    /// Operations attempted (requests plus campaign calls).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why the outputs were judged wrong, if they were.
    pub errors: Vec<String>,
    /// Lines for the human reader that are not contract metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one reading.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.readings.push(Reading {
            name,
            value,
            samples,
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Outputs were correct: nothing failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Checks that exactly the metrics of `expected` were recorded and every
    /// value is a finite number; returns each reading with its metric.
    pub fn matched<'a>(
        &'a self,
        expected: &'a [Metric],
    ) -> Result<Vec<(&'a Reading, &'a Metric)>, String> {
        if self.readings.len() != expected.len() {
            return Err(format!(
                "{} readings for {} metrics",
                self.readings.len(),
                expected.len()
            ));
        }
        expected
            .iter()
            .map(|m| {
                let r = self
                    .readings
                    .iter()
                    .find(|r| r.name == m.name)
                    .ok_or_else(|| format!("metric {} was not measured", m.name))?;
                if !r.value.is_finite() {
                    return Err(format!("metric {} is {}", m.name, r.value));
                }
                Ok((r, m))
            })
            .collect()
    }

    /// The contract's result line.
    pub fn json_line(&self, expected: &[Metric]) -> Result<String, String> {
        let metrics: Vec<String> = self
            .matched(expected)?
            .into_iter()
            .map(|(r, m)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.name, r.value, m.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(EXACT_ON_ONE_SEED
            .iter()
            .all(|n| END_TO_END.iter().any(|m| m.name == *n)));
    }

    const AB: &[Metric] = &[layer("a", "s", Lower), layer("b", "ms", Lower)];

    #[test]
    fn result_line_has_exactly_the_expected_metrics() {
        let mut r = Report::default();
        r.put("b", 2.5, 3);
        assert!(r.json_line(AB).is_err());
        r.put("a", 1.0, 1);
        r.attempted = 10;
        let line = r.json_line(AB).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        r.put("c", 0.0, 1);
        assert!(r.json_line(AB).is_err());
    }

    #[test]
    fn a_failure_or_a_nan_spoils_the_result() {
        let mut r = Report::default();
        r.put("a", f64::NAN, 1);
        assert!(r.json_line(&AB[..1]).is_err());
        let mut r = Report::default();
        r.put("a", 1.0, 1);
        r.failed = 1;
        assert!(r
            .json_line(&AB[..1])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
