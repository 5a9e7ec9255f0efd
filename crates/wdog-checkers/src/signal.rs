//! Signal-based checkers: health-indicator monitors (Table 2, row 2).
//!
//! Signal checkers "define some system health indicators and then write a
//! checker to monitor each one", like the Linux watchdog daemon checking the
//! process table, file accessibility, and load average. They are lightweight
//! and good at environment/resource faults, but their accuracy is weak: a
//! full request queue may just mean a healthy system under a continuous
//! stream of requests. Experiment E2 measures that false-alarm rate.
//!
//! Signal checkers localize to the *resource*, not to code: their fault
//! locations name the indicator (e.g. `memory`, `queue:requests`), which is
//! partial pinpointing at best (✦ in the paper's table).

use std::sync::Arc;
use std::time::Duration;

use simio::disk::SimDisk;
use simio::resource::{ResourceMonitor, StallPoint};

use wdog_base::clock::SharedClock;
use wdog_base::ids::{CheckerId, ComponentId};

use wdog_core::prelude::*;

fn indicator_location(component: &ComponentId, indicator: &str) -> FaultLocation {
    FaultLocation::new(component.clone(), format!("indicator:{indicator}"))
}

/// Fails when accounted memory exceeds a watermark (the "enough memory
/// remains" ad-hoc check from §3, made systematic).
pub fn memory_watermark(
    id: impl Into<CheckerId>,
    component: impl Into<ComponentId>,
    monitor: ResourceMonitor,
    max_bytes: u64,
) -> FnChecker<impl FnMut() -> CheckStatus + Send> {
    let component = component.into();
    let location = indicator_location(&component, "memory");
    FnChecker::new(id, component, move || {
        let used = monitor.memory_bytes();
        if used > max_bytes {
            CheckStatus::Fail(CheckFailure::new(
                FailureKind::AssertViolation,
                location.clone(),
                format!("memory {used} B above watermark {max_bytes} B"),
            ))
        } else {
            CheckStatus::Pass
        }
    })
}

/// Fails when the queue registered as `queue` is deeper than `max_depth`.
///
/// This is the paper's canonical weak-accuracy example: "when the checker
/// finds kvs's request queue is full ... kvs might in fact be processing a
/// continuous stream of requests without error."
pub fn queue_depth(
    id: impl Into<CheckerId>,
    component: impl Into<ComponentId>,
    monitor: ResourceMonitor,
    queue: impl Into<String>,
    max_depth: usize,
) -> FnChecker<impl FnMut() -> CheckStatus + Send> {
    let (component, queue) = (component.into(), queue.into());
    let location = indicator_location(&component, &format!("queue:{queue}"));
    FnChecker::new(id, component, move || match monitor.queue_depth(&queue) {
        None => CheckStatus::NotReady,
        Some(depth) if depth > max_depth => CheckStatus::Fail(CheckFailure::new(
            FailureKind::AssertViolation,
            location.clone(),
            format!("queue '{queue}' depth {depth} above threshold {max_depth}"),
        )),
        Some(_) => CheckStatus::Pass,
    })
}

/// Detects process-wide pauses by measuring sleep drift (§3.3's GC-pause
/// detector).
///
/// The checker sleeps for `requested` and compares the elapsed time; if it
/// overshoots by more than `max_drift`, the process likely suffered a
/// stop-the-world pause or severe scheduling delay. The sleep passes through
/// the process's [`StallPoint`] so that injected pauses affect the checker
/// exactly as they affect worker threads — a deliberate fate-sharing design.
pub fn sleep_drift(
    id: impl Into<CheckerId>,
    component: impl Into<ComponentId>,
    clock: SharedClock,
    stall: StallPoint,
    requested: Duration,
    max_drift: Duration,
) -> FnChecker<impl FnMut() -> CheckStatus + Send> {
    let component = component.into();
    let location = indicator_location(&component, "scheduling");
    FnChecker::new(id, component, move || {
        let start = clock.now();
        clock.sleep(requested);
        stall.pass(clock.as_ref());
        let elapsed = clock.now().saturating_sub(start);
        let drift = elapsed.saturating_sub(requested);
        if drift > max_drift {
            CheckStatus::Fail(
                CheckFailure::new(
                    FailureKind::Slow,
                    location.clone(),
                    format!(
                        "worker slept {} ms but woke after {} ms: likely runtime pause",
                        requested.as_millis(),
                        elapsed.as_millis()
                    ),
                )
                .with_latency_ms(elapsed.as_millis() as u64),
            )
        } else {
            CheckStatus::Pass
        }
    })
}

/// Fails when disk usage crosses `max_used_frac` of capacity (e.g. `0.9`).
pub fn disk_space(
    id: impl Into<CheckerId>,
    component: impl Into<ComponentId>,
    disk: Arc<SimDisk>,
    max_used_frac: f64,
) -> FnChecker<impl FnMut() -> CheckStatus + Send> {
    let component = component.into();
    let location = indicator_location(&component, "disk-space");
    FnChecker::new(id, component, move || {
        let used = disk.used() as f64;
        let cap = disk.capacity().max(1) as f64;
        let frac = used / cap;
        if frac > max_used_frac {
            CheckStatus::Fail(CheckFailure::new(
                FailureKind::AssertViolation,
                location.clone(),
                format!(
                    "disk {:.1}% full (threshold {:.1}%)",
                    frac * 100.0,
                    max_used_frac * 100.0
                ),
            ))
        } else {
            CheckStatus::Pass
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::clock::RealClock;

    #[test]
    fn memory_watermark_boundary() {
        let m = ResourceMonitor::new();
        let mut c = memory_watermark("m", "proc", m.clone(), 100);
        m.alloc(100);
        assert!(c.check().is_pass(), "at watermark is still healthy");
        m.alloc(1);
        assert!(c.check().is_fail());
    }

    #[test]
    fn queue_depth_not_ready_without_registration() {
        let m = ResourceMonitor::new();
        let mut c = queue_depth("q", "proc", m, "requests", 5);
        assert_eq!(c.check(), CheckStatus::NotReady);
    }

    #[test]
    fn queue_depth_fires_above_threshold() {
        let m = ResourceMonitor::new();
        let depth = Arc::new(std::sync::atomic::AtomicUsize::new(3));
        let d2 = Arc::clone(&depth);
        m.register_queue(
            "requests",
            Arc::new(move || d2.load(std::sync::atomic::Ordering::Relaxed)),
        );
        let mut c = queue_depth("q", "proc", m, "requests", 5);
        assert!(c.check().is_pass());
        depth.store(6, std::sync::atomic::Ordering::Relaxed);
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected failure");
        };
        assert!(f.detail.contains("depth 6"));
        assert!(f.location.function.contains("queue:requests"));
    }

    #[test]
    fn sleep_drift_quiet_process_passes() {
        let mut c = sleep_drift(
            "d",
            "proc",
            RealClock::shared(),
            StallPoint::new(),
            Duration::from_millis(5),
            Duration::from_millis(500),
        );
        assert!(c.check().is_pass());
    }

    #[test]
    fn sleep_drift_detects_stall() {
        let stall = StallPoint::new();
        let mut c = sleep_drift(
            "d",
            "proc",
            RealClock::shared(),
            stall.clone(),
            Duration::from_millis(5),
            Duration::from_millis(30),
        );
        stall.set_stalled(true);
        let s2 = stall.clone();
        // Release the stall after 100 ms, as a pause injector would.
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            s2.set_stalled(false);
        });
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected drift failure");
        };
        assert_eq!(f.kind, FailureKind::Slow);
        assert!(f.detail.contains("runtime pause"));
        t.join().unwrap();
    }

    #[test]
    fn disk_space_fires_when_nearly_full() {
        let disk = SimDisk::new(100, simio::LatencyModel::zero(), RealClock::shared());
        let mut c = disk_space("ds", "proc", Arc::clone(&disk), 0.8);
        disk.append("f", &[0u8; 70]).unwrap();
        assert!(c.check().is_pass());
        disk.append("f", &[0u8; 15]).unwrap();
        assert!(c.check().is_fail());
    }
}
