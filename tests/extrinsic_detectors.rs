//! The extrinsic baselines are clock actors: on a `SimClock` a verdict
//! flips at an exact virtual instant. Each test samples while the test
//! thread holds virtual time, then retires and stops the detector *before*
//! asserting — a detector dropped by a failed assertion would join a thread
//! that can never be scheduled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use detectors::{Detector, ExternalProbe, HeartbeatDetector};
use simio::SimClock;
use wdog_base::error::BaseError;

const MS: Duration = Duration::from_millis(1);

#[test]
fn heartbeat_suspects_one_millisecond_past_suspect_after() {
    let clock = SimClock::shared();
    let main = clock.actor("test-main").adopt();
    let alive = Arc::new(AtomicBool::new(true));
    let beat = Arc::clone(&alive);
    let beat = Arc::new(move || beat.load(Ordering::Relaxed));
    let mut hb = HeartbeatDetector::start(clock.clone(), 50 * MS, 300 * MS, beat);
    // Beats land at 0, 50, 100; the target goes silent at 120.
    clock.sleep(120 * MS);
    alive.store(false, Ordering::Relaxed);
    clock.sleep(280 * MS);
    let at_400 = hb.verdict().is_suspected();
    clock.sleep(MS);
    let at_401 = hb.verdict().is_suspected();
    main.retire();
    hb.stop();

    assert_eq!((at_400, at_401), (false, true), "last beat at 100 ms");
}

#[test]
fn probe_suspects_at_the_failing_probe_that_reaches_the_threshold() {
    let clock = SimClock::shared();
    let main = clock.actor("test-main").adopt();
    let failing = Arc::new(AtomicBool::new(false));
    let fail = Arc::clone(&failing);
    let request = Arc::new(move || match fail.load(Ordering::Relaxed) {
        true => Err(BaseError::InvalidState("down".into())),
        false => Ok(()),
    });
    let mut probe = ExternalProbe::start(clock.clone(), 100 * MS, 2, request);
    // Probes run at 0, 100, 200, 300; from 130 on they fail.
    clock.sleep(130 * MS);
    failing.store(true, Ordering::Relaxed);
    clock.sleep(169 * MS);
    let at_299 = (probe.probes(), probe.verdict().is_suspected());
    clock.sleep(2 * MS);
    let at_301 = (probe.probes(), probe.verdict().is_suspected());
    main.retire();
    probe.stop();

    assert_eq!(at_299, (3, false), "one failure is under the threshold");
    assert_eq!(
        at_301,
        (4, true),
        "the second failure in a row is at 300 ms"
    );
}
