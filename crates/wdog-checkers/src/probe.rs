//! Probe-based checkers: the watchdog as a special client (Table 2, row 1).
//!
//! A probe checker "acts like a special client and invokes the software's
//! public APIs with pre-supplied input"; it resembles Falcon's application
//! spies, Panorama's observers, and Apache `mod_watchdog`. Its accuracy is
//! perfect — any error it detects is a true violation of the contract the
//! software provides — but its completeness is weak (it sees only the API
//! surface with canned inputs) and it cannot localize what caused a failure.
//!
//! Accordingly, [`ProbeChecker`] reports failures at the API level only: the
//! fault location names the public entry point, never an internal operation.

use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_base::ids::{CheckerId, ComponentId};

use wdog_core::prelude::*;

/// A checker that exercises one public API call with pre-supplied input.
///
/// The probe closure returns `Ok(())` when the contract held. The checker
/// times the call; an error becomes [`FailureKind::Error`] (or
/// [`FailureKind::Stuck`]/[`FailureKind::Corruption`] if the error class says
/// so), and a latency above `slow_threshold` becomes [`FailureKind::Slow`].
///
/// # Examples
///
/// ```
/// use wdog_checkers::ProbeChecker;
/// use wdog_core::prelude::*;
/// use wdog_base::clock::RealClock;
///
/// let mut checker = ProbeChecker::new(
///     "kvs.probe.set-get",
///     "kvs.api",
///     "set_get",
///     RealClock::shared(),
///     || Ok(()), // would submit SET then GET and compare
/// );
/// assert!(checker.check().is_pass());
/// ```
pub struct ProbeChecker<F> {
    id: CheckerId,
    component: ComponentId,
    api_name: String,
    clock: SharedClock,
    probe: F,
    slow_threshold: Option<Duration>,
    timeout: Option<Duration>,
}

impl<F> ProbeChecker<F>
where
    F: FnMut() -> BaseResult<()> + Send,
{
    /// Creates a probe checker for the given public API entry point.
    pub fn new(
        id: impl Into<CheckerId>,
        component: impl Into<ComponentId>,
        api_name: impl Into<String>,
        clock: SharedClock,
        probe: F,
    ) -> Self {
        Self {
            id: id.into(),
            component: component.into(),
            api_name: api_name.into(),
            clock,
            probe,
            slow_threshold: None,
            timeout: None,
        }
    }

    /// Reports [`FailureKind::Slow`] when a successful probe exceeds `t`.
    pub fn with_slow_threshold(mut self, t: Duration) -> Self {
        self.slow_threshold = Some(t);
        self
    }

    /// Sets the execution timeout enforced by the driver.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    fn location(&self) -> FaultLocation {
        // API level only: probes cannot pinpoint internal operations.
        FaultLocation::new(self.component.clone(), self.api_name.clone())
    }
}

impl<F> Checker for ProbeChecker<F>
where
    F: FnMut() -> BaseResult<()> + Send,
{
    fn id(&self) -> CheckerId {
        self.id.clone()
    }

    fn component(&self) -> ComponentId {
        self.component.clone()
    }

    fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    fn check(&mut self) -> CheckStatus {
        let start = self.clock.now();
        let result = (self.probe)();
        let elapsed = self.clock.now().saturating_sub(start);
        match result {
            Ok(()) => {
                if let Some(threshold) = self.slow_threshold {
                    if elapsed > threshold {
                        return CheckStatus::Fail(
                            CheckFailure::new(
                                FailureKind::Slow,
                                self.location(),
                                format!(
                                    "probe succeeded but took {} ms (threshold {} ms)",
                                    elapsed.as_millis(),
                                    threshold.as_millis()
                                ),
                            )
                            .with_latency_ms(elapsed.as_millis() as u64),
                        );
                    }
                }
                CheckStatus::Pass
            }
            Err(e) => CheckStatus::Fail(
                CheckFailure::new(FailureKind::from_error(&e), self.location(), e.to_string())
                    .with_latency_ms(elapsed.as_millis() as u64),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::clock::RealClock;
    use wdog_base::error::BaseError;

    #[test]
    fn successful_probe_passes() {
        let mut c = ProbeChecker::new("p", "api", "get", RealClock::shared(), || Ok(()));
        assert!(c.check().is_pass());
    }

    #[test]
    fn failing_probe_reports_error_at_api_level() {
        let mut c = ProbeChecker::new("p", "kvs.api", "set", RealClock::shared(), || {
            Err(BaseError::Io("write failed".into()))
        });
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected failure");
        };
        assert_eq!(f.kind, FailureKind::Error);
        assert_eq!(f.location.function, "set");
        assert!(
            f.location.operation.is_none(),
            "probes must not pinpoint ops"
        );
        assert!(f.detail.contains("write failed"));
    }

    #[test]
    fn errors_classified_as_from_error_says() {
        let cases = [
            (
                BaseError::Timeout {
                    what: "set".into(),
                    after_ms: 100,
                },
                FailureKind::Stuck,
            ),
            (BaseError::Corruption("crc".into()), FailureKind::Corruption),
            (BaseError::Io("eio".into()), FailureKind::Error),
        ];
        for (e, kind) in cases {
            let mut c = ProbeChecker::new("p", "api", "set", RealClock::shared(), move || {
                Err(e.clone())
            });
            let CheckStatus::Fail(f) = c.check() else {
                panic!("expected failure");
            };
            assert_eq!(f.kind, kind, "{}", f.detail);
        }
    }

    #[test]
    fn slow_probe_flagged_when_threshold_set() {
        let clock = RealClock::shared();
        let mut c = ProbeChecker::new("p", "api", "get", clock, || {
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        })
        .with_slow_threshold(Duration::from_millis(1));
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected slow failure");
        };
        assert_eq!(f.kind, FailureKind::Slow);
        assert!(f.observed_latency_ms.unwrap() >= 20);
    }

    #[test]
    fn fast_probe_not_flagged_with_threshold() {
        let mut c = ProbeChecker::new("p", "api", "get", RealClock::shared(), || Ok(()))
            .with_slow_threshold(Duration::from_secs(10));
        assert!(c.check().is_pass());
    }

    #[test]
    fn metadata_exposed() {
        let c = ProbeChecker::new("p", "api", "get", RealClock::shared(), || Ok(()))
            .with_timeout(Duration::from_secs(2));
        assert_eq!(c.id(), CheckerId::new("p"));
        assert_eq!(c.component(), ComponentId::new("api"));
        assert_eq!(Checker::timeout(&c), Some(Duration::from_secs(2)));
    }
}
