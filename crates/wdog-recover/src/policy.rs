//! The recovery policy: how far up the ladder to climb and how long to wait
//! between attempts. One policy governs every component's incidents.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use wdog_base::rng::derive_seed;

/// Bounded exponential backoff with deterministic jitter.
///
/// The delay before retry `attempt` is `base * factor^attempt`, capped at
/// `max`, plus a jitter fraction derived from the incident seed — the same
/// seed always produces the same schedule, so recovery campaigns are exactly
/// reproducible while concurrent incidents still de-synchronize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per attempt.
    pub factor: f64,
    /// Upper bound on any single delay.
    pub max: Duration,
    /// Fraction of the computed delay added as deterministic jitter
    /// (`0.0` disables).
    pub jitter_frac: f64,
}

impl BackoffPolicy {
    /// Returns the delay before retry `attempt` (0-based) for an incident
    /// identified by `seed`.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self.factor.powi(attempt.min(16) as i32);
        let raw = self.base.mul_f64(exp).min(self.max);
        if self.jitter_frac <= 0.0 {
            return raw;
        }
        let h = derive_seed(seed, &format!("backoff-{attempt}"));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        (raw + raw.mul_f64(self.jitter_frac * frac)).min(self.max)
    }
}

/// How the coordinator treats a component's failures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Back-off windows the incident's verifier is given to pass before the
    /// component is restarted (transients often clear on their own; liveness
    /// faults on shared substrates usually do not). A verifier still blocked
    /// when the last one ends is carried into the restart. `Stuck`,
    /// `Corruption` and `AssertViolation` reports get none (the coordinator's
    /// rung 1 says why).
    pub max_retries: u32,
    /// Backoff schedule for the retry rung.
    pub backoff: BackoffPolicy,
    /// Component restarts attempted before degrading.
    pub max_restarts: u32,
    /// Window after a restart in which a `Fail` is slept out before the
    /// component is asked again; a `Pass` closes the incident inside it.
    pub settle: Duration,
    /// Whether the degrade rung is permitted for this component.
    pub allow_degrade: bool,
    /// How long past the settle window a restart waits for a verdict before
    /// the verifier is abandoned (a wedged verifier must not wedge the
    /// coordinator), and how long a look the policy grants no window waits
    /// for the answer it is owed.
    pub verify_timeout: Duration,
    /// Incidents within [`RecoveryPolicy::flap_window`] that trip the
    /// circuit breaker and pin the component in degraded mode.
    pub flap_threshold: u32,
    /// Window over which reopened incidents count as flapping.
    pub flap_window: Duration,
}

impl RecoveryPolicy {
    /// The one preset, tuned to the targets' tens-of-milliseconds loops:
    /// what the coordinator's builder starts from, what every recovery
    /// campaign walks, and the base callers override field by field.
    pub fn fast() -> Self {
        Self {
            max_retries: 2,
            backoff: BackoffPolicy {
                base: Duration::from_millis(20),
                factor: 2.0,
                max: Duration::from_millis(200),
                jitter_frac: 0.25,
            },
            max_restarts: 2,
            settle: Duration::from_millis(30),
            allow_degrade: true,
            verify_timeout: Duration::from_millis(500),
            flap_threshold: 4,
            flap_window: Duration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let b = BackoffPolicy {
            base: Duration::from_millis(10),
            factor: 2.0,
            max: Duration::from_millis(100),
            jitter_frac: 0.0,
        };
        assert_eq!(b.delay(0, 1), Duration::from_millis(10));
        assert_eq!(b.delay(1, 1), Duration::from_millis(20));
        assert_eq!(b.delay(2, 1), Duration::from_millis(40));
        assert_eq!(b.delay(5, 1), Duration::from_millis(100));
        assert_eq!(b.delay(30, 1), Duration::from_millis(100));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let b = BackoffPolicy {
            base: Duration::from_millis(40),
            factor: 2.0,
            max: Duration::from_secs(1),
            jitter_frac: 0.5,
        };
        for attempt in 0..6 {
            let d1 = b.delay(attempt, 42);
            let d2 = b.delay(attempt, 42);
            assert_eq!(d1, d2, "same seed must give the same schedule");
            let raw = Duration::from_millis(40 * (1 << attempt));
            assert!(d1 >= raw.min(b.max));
            assert!(d1 <= raw.mul_f64(1.5).min(b.max));
        }
        // Different incidents de-synchronize.
        assert_ne!(b.delay(0, 1), b.delay(0, 2));
    }

    #[test]
    fn policy_serializes_roundtrip() {
        let p = RecoveryPolicy::fast();
        let json = serde_json::to_string(&p).unwrap();
        let back: RecoveryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
