//! Probe-based checkers: the watchdog as a special client (Table 2, row 1).
//!
//! A probe checker "acts like a special client and invokes the software's
//! public APIs with pre-supplied input"; it resembles Falcon's application
//! spies, Panorama's observers, and Apache `mod_watchdog`. Its accuracy is
//! perfect — any error it detects is a true violation of the contract the
//! software provides — but its completeness is weak (it sees only the API
//! surface with canned inputs) and it cannot localize what caused a failure.
//!
//! Accordingly, [`probe_checker`] reports failures at the API level only:
//! the fault location names the public entry point, never an internal
//! operation. Recovery verifiers (`wdog_target::Verifier`) are probes too
//! and run through the same rule.

use std::time::Duration;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;
use wdog_base::ids::{CheckerId, ComponentId};

use wdog_core::prelude::*;

/// A checker that exercises one public API call with pre-supplied input.
///
/// The probe closure returns `Ok(())` when the contract held. The checker
/// times the call on `clock`; an error becomes a failure of the kind
/// [`FailureKind::from_error`] gives it at `(component, api)`, and a
/// success slower than `slow_threshold` becomes [`FailureKind::Slow`].
///
/// # Examples
///
/// ```
/// use wdog_checkers::probe_checker;
/// use wdog_core::prelude::*;
/// use wdog_base::clock::RealClock;
///
/// let mut checker = probe_checker(
///     "kvs.probe.set-get",
///     "kvs.api",
///     "set_get",
///     RealClock::shared(),
///     None,
///     || Ok(()), // would submit SET then GET and compare
/// );
/// assert!(checker.check().is_pass());
/// ```
pub fn probe_checker(
    id: impl Into<CheckerId>,
    component: impl Into<ComponentId>,
    api: impl Into<String>,
    clock: SharedClock,
    slow_threshold: Option<Duration>,
    mut probe: impl FnMut() -> BaseResult<()> + Send,
) -> FnChecker<impl FnMut() -> CheckStatus + Send> {
    let component = component.into();
    // API level only: probes cannot pinpoint internal operations.
    let location = FaultLocation::new(component.clone(), api.into());
    FnChecker::new(id, component, move || {
        let start = clock.now();
        let result = probe();
        let elapsed = clock.now().saturating_sub(start);
        let latency_ms = elapsed.as_millis() as u64;
        match (result, slow_threshold) {
            (Err(e), _) => CheckStatus::Fail(
                CheckFailure::new(FailureKind::from_error(&e), location.clone(), e.to_string())
                    .with_latency_ms(latency_ms),
            ),
            (Ok(()), Some(threshold)) if elapsed > threshold => CheckStatus::Fail(
                CheckFailure::new(
                    FailureKind::Slow,
                    location.clone(),
                    format!(
                        "probe succeeded but took {} ms (threshold {} ms)",
                        elapsed.as_millis(),
                        threshold.as_millis()
                    ),
                )
                .with_latency_ms(latency_ms),
            ),
            (Ok(()), _) => CheckStatus::Pass,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::clock::RealClock;
    use wdog_base::error::BaseError;

    #[test]
    fn successful_probe_passes() {
        let mut c = probe_checker("p", "api", "get", RealClock::shared(), None, || Ok(()));
        assert!(c.check().is_pass());
    }

    #[test]
    fn failing_probe_reports_error_at_api_level() {
        let mut c = probe_checker("p", "kvs.api", "set", RealClock::shared(), None, || {
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
            let mut c = probe_checker("p", "api", "set", RealClock::shared(), None, move || {
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
        let mut c = probe_checker(
            "p",
            "api",
            "get",
            clock,
            Some(Duration::from_millis(1)),
            || {
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            },
        );
        let CheckStatus::Fail(f) = c.check() else {
            panic!("expected slow failure");
        };
        assert_eq!(f.kind, FailureKind::Slow);
        assert!(f.observed_latency_ms.unwrap() >= 20);
    }

    #[test]
    fn fast_probe_not_flagged_with_threshold() {
        let mut c = probe_checker(
            "p",
            "api",
            "get",
            RealClock::shared(),
            Some(Duration::from_secs(10)),
            || Ok(()),
        );
        assert!(c.check().is_pass());
    }

    #[test]
    fn metadata_exposed() {
        let c = probe_checker("p", "api", "get", RealClock::shared(), None, || Ok(()));
        assert_eq!(c.id(), CheckerId::new("p"));
        assert_eq!(c.component(), ComponentId::new("api"));
    }
}
