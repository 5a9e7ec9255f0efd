//! The generic steady-workload driver.
//!
//! Campaign runs need background load so hooks fire, contexts stay fresh,
//! and observer-style baselines have outcomes to watch. The request *mix*
//! is target-specific, but the thread pool, pacing, seeding, and outcome
//! accounting are not — so targets implement one request closure and
//! [`spawn_workload_on`] does the rest.
//!
//! Randomness is pre-drawn into a [`WorkloadTicket`] so request closures
//! stay deterministic given the ticket and need no RNG of their own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::Rng;

use wdog_base::clock::{spawn_on, SharedClock};
use wdog_base::error::BaseResult;
use wdog_base::rng::{derive_seed, seeded};

use crate::WorkloadObserver;

/// Shape of the steady workload, shared by every target.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Number of client threads.
    pub threads: usize,
    /// Pause between requests per thread.
    pub period: Duration,
    /// Key-space size.
    pub keys: usize,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadProfile {
    fn default() -> Self {
        Self {
            threads: 2,
            period: Duration::from_millis(10),
            keys: 256,
            write_fraction: 0.5,
            seed: 7,
        }
    }
}

/// One pre-drawn request: the target's closure turns it into a real call.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadTicket {
    /// Key index in `[0, profile.keys)`.
    pub key: usize,
    /// Whether this request is a write.
    pub write: bool,
    /// Uniform roll in `[0, 10)` for sub-op selection (e.g. SET vs DEL).
    pub roll: u32,
    /// A random value payload discriminator.
    pub value: u32,
}

/// The per-request closure a target supplies.
pub type RequestFn = Arc<dyn Fn(&WorkloadTicket) -> BaseResult<()> + Send + Sync>;

/// A running workload; stops (and joins) on [`WorkloadHandle::stop`] or drop.
pub struct WorkloadHandle {
    ok: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    running: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkloadHandle {
    /// Returns `(ok, failed)` counters so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.ok.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// Raises the stop flag without joining; loops exit at their next
    /// pacing check. Used by simulation harnesses to land the stop at an
    /// exact virtual instant before performing the blocking joins.
    pub fn request_stop(&self) {
        self.running.store(false, Ordering::Relaxed);
    }

    /// Stops and joins the workload threads.
    pub fn stop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WorkloadHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for WorkloadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadHandle")
            .field("counters", &self.counters())
            .finish()
    }
}

/// Starts `profile.threads` request loops, each calling `request` with a
/// deterministically drawn ticket, pacing by `profile.period` on `clock`,
/// counting outcomes, and reporting each to `observer` when one is
/// attached. Each loop registers as a clock actor, so under a simulated
/// clock the request cadence is exact virtual time.
pub fn spawn_workload_on(
    clock: &SharedClock,
    profile: &WorkloadProfile,
    observer: Option<WorkloadObserver>,
    request: RequestFn,
) -> WorkloadHandle {
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let running = Arc::new(AtomicBool::new(true));
    let mut threads = Vec::new();
    for t in 0..profile.threads.max(1) {
        let ok = Arc::clone(&ok);
        let failed = Arc::clone(&failed);
        let running = Arc::clone(&running);
        let observer = observer.clone();
        let request = Arc::clone(&request);
        let profile = profile.clone();
        let loop_clock = Arc::clone(clock);
        threads.push(spawn_on(clock, &format!("workload-{t}"), move || {
            let mut rng = seeded(derive_seed(profile.seed, &format!("wl-{t}")));
            while running.load(Ordering::Relaxed) {
                let ticket = WorkloadTicket {
                    key: rng.gen_range(0..profile.keys.max(1)),
                    write: rng.gen_bool(profile.write_fraction),
                    roll: rng.gen_range(0..10u32),
                    value: rng.gen(),
                };
                let success = request(&ticket).is_ok();
                if success {
                    ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(obs) = &observer {
                    obs(success);
                }
                loop_clock.sleep(profile.period);
            }
        }));
    }
    WorkloadHandle {
        ok,
        failed,
        running,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use wdog_base::clock::RealClock;

    #[test]
    fn workload_counts_and_observes() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let observer: WorkloadObserver = Arc::new(move |ok| seen2.lock().unwrap().push(ok));
        let mut handle = spawn_workload_on(
            &RealClock::shared(),
            &WorkloadProfile {
                threads: 2,
                period: Duration::from_millis(1),
                ..WorkloadProfile::default()
            },
            Some(observer),
            Arc::new(|ticket| {
                if ticket.key % 7 == 0 {
                    Err(wdog_base::error::BaseError::Corruption("x".into()))
                } else {
                    Ok(())
                }
            }),
        );
        std::thread::sleep(Duration::from_millis(100));
        handle.stop();
        let (ok, failed) = handle.counters();
        assert!(ok > 0, "no successes recorded");
        assert!(failed > 0, "key%7 failures never happened");
        assert_eq!(seen.lock().unwrap().len() as u64, ok + failed);
    }

    #[test]
    fn tickets_stay_in_bounds() {
        let mut handle = spawn_workload_on(
            &RealClock::shared(),
            &WorkloadProfile {
                threads: 1,
                period: Duration::from_millis(1),
                keys: 16,
                ..WorkloadProfile::default()
            },
            None,
            Arc::new(|ticket| {
                assert!(ticket.key < 16);
                assert!(ticket.roll < 10);
                Ok(())
            }),
        );
        std::thread::sleep(Duration::from_millis(50));
        handle.stop();
    }
}
