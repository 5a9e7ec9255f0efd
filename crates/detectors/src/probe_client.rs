//! The external probe client ("application spy").
//!
//! An extrinsic prober issuing real end-to-end requests against the
//! target's public API, in the style of Falcon's application spies and
//! Apache `mod_watchdog`. It suspects the target after `fail_threshold`
//! consecutive probe failures. Like all API-level detection, it sees only
//! what the API surface shows and localizes nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use wdog_base::clock::{spawn_on, SharedClock};
use wdog_base::error::BaseResult;

use crate::api::{Detector, Verdict};

/// The probe contract: one end-to-end request.
pub type ProbeFn = Arc<dyn Fn() -> BaseResult<()> + Send + Sync>;

/// An extrinsic probing client.
pub struct ExternalProbe {
    consecutive_failures: Arc<AtomicU64>,
    last_error: Arc<Mutex<Option<String>>>,
    fail_threshold: u64,
    probes: Arc<AtomicU64>,
    running: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ExternalProbe {
    /// Starts probing every `interval`; suspects after `fail_threshold`
    /// consecutive failures.
    pub fn start(
        clock: SharedClock,
        interval: Duration,
        fail_threshold: u64,
        probe: ProbeFn,
    ) -> Self {
        let consecutive_failures = Arc::new(AtomicU64::new(0));
        let last_error = Arc::new(Mutex::new(None));
        let probes = Arc::new(AtomicU64::new(0));
        let running = Arc::new(AtomicBool::new(true));
        let thread = {
            let fails = Arc::clone(&consecutive_failures);
            let last = Arc::clone(&last_error);
            let count = Arc::clone(&probes);
            let run = Arc::clone(&running);
            let actor_clock = Arc::clone(&clock);
            spawn_on(&clock, "external-probe", move || {
                while run.load(Ordering::Relaxed) {
                    match probe() {
                        Ok(()) => {
                            fails.store(0, Ordering::Relaxed);
                            *last.lock() = None;
                        }
                        Err(e) => {
                            fails.fetch_add(1, Ordering::Relaxed);
                            *last.lock() = Some(e.to_string());
                        }
                    }
                    count.fetch_add(1, Ordering::Relaxed);
                    actor_clock.sleep(interval);
                }
            })
        };
        Self {
            consecutive_failures,
            last_error,
            fail_threshold: fail_threshold.max(1),
            probes,
            running,
            thread: Some(thread),
        }
    }

    /// Returns how many probes have run.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

impl Detector for ExternalProbe {
    fn name(&self) -> &str {
        "probe"
    }

    fn verdict(&self) -> Verdict {
        let fails = self.consecutive_failures.load(Ordering::Relaxed);
        if fails >= self.fail_threshold {
            Verdict::Suspected {
                reason: self
                    .last_error
                    .lock()
                    .clone()
                    .unwrap_or_else(|| format!("{fails} consecutive probe failures")),
            }
        } else {
            Verdict::Healthy
        }
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ExternalProbe {
    fn drop(&mut self) {
        Detector::stop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::clock::RealClock;
    use wdog_base::error::BaseError;

    #[test]
    fn succeeding_probes_stay_healthy() {
        let p = ExternalProbe::start(
            RealClock::shared(),
            Duration::from_millis(5),
            2,
            Arc::new(|| Ok(())),
        );
        std::thread::sleep(Duration::from_millis(80));
        assert!(p.probes() >= 3);
        assert_eq!(p.verdict(), Verdict::Healthy);
    }

    #[test]
    fn consecutive_failures_trigger_suspicion() {
        let failing = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&failing);
        let p = ExternalProbe::start(
            RealClock::shared(),
            Duration::from_millis(5),
            3,
            Arc::new(move || {
                if f2.load(Ordering::Relaxed) {
                    Err(BaseError::Timeout {
                        what: "probe".into(),
                        after_ms: 1,
                    })
                } else {
                    Ok(())
                }
            }),
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(p.verdict(), Verdict::Healthy);
        failing.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(100));
        assert!(p.verdict().is_suspected());
        // One success resets the streak.
        failing.store(false, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(p.verdict(), Verdict::Healthy);
    }
}
