//! Checker scheduling policy.
//!
//! The paper leaves scheduling to the watchdog driver ("a watchdog driver
//! will manage checker scheduling and execution", §3.1). The policy here is
//! deliberately a fixed interval and nothing else, because experiment E6
//! sweeps the interval to show the latency trade-off, and anything fancier
//! would obscure that relationship.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// How often checkers run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePolicy {
    /// Time between the starts of consecutive checking rounds.
    pub interval: Duration,
}

impl SchedulePolicy {
    /// A policy checking every `interval`.
    pub fn every(interval: Duration) -> Self {
        Self { interval }
    }
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        Self::every(Duration::from_secs(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sets_the_interval() {
        let p = SchedulePolicy::every(Duration::from_millis(100));
        assert_eq!(p.interval, Duration::from_millis(100));
        assert_eq!(SchedulePolicy::default().interval, Duration::from_secs(1));
    }
}
