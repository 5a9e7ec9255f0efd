//! Recovery campaigns are pure functions of `(target, seed)`.
//!
//! The whole catalogue of every target runs twice through the closed loop
//! on the discrete-event clock and the serialized [`RecoveryCampaign`]s —
//! dispositions, incident counts, rung counts and every MTTR — must agree
//! byte for byte. This holds because no hop of the loop runs outside the
//! clock: executors, scheduler, action worker, coordinator and verifier are
//! all clock actors handing off through clock-visible waits.

use harness::recovery::{self, RecoveryOptions};

fn campaign_bytes(target: &dyn wdog_target::WatchdogTarget) -> String {
    let campaign = recovery::run(target, None, &RecoveryOptions::default()).expect("campaign runs");
    assert_eq!(
        campaign.idle_total,
        campaign.scenarios.len() as u64,
        "{}: coordinator not idle on every scenario",
        campaign.target
    );
    serde_json::to_string(&campaign).expect("campaign serializes")
}

#[test]
fn sim_recovery_campaigns_replay_byte_for_byte_on_every_target() {
    let targets = harness::select_targets("all").expect("`all` names every target");
    assert_eq!(targets.len(), 3);
    for target in &targets {
        let first = campaign_bytes(target.as_ref());
        let second = campaign_bytes(target.as_ref());
        assert_eq!(
            first,
            second,
            "{}: same-seed sim recovery campaigns diverged",
            target.name()
        );
    }
}
