//! Golden-shape test for the `results/recovery.json` schema.
//!
//! The recovery campaign's JSON is an archived artifact (and a CI gate
//! input): downstream tooling keys on exact field names. Renaming or
//! dropping a field must show up here, not in a consumer.

use harness::recovery::{RecoveryCampaign, ScenarioRecovery};

fn sample_campaign() -> RecoveryCampaign {
    RecoveryCampaign {
        target: "kvs".into(),
        scenarios: vec![ScenarioRecovery {
            scenario: "background-task-stuck".into(),
            expected_class: "stuck".into(),
            disposition: "verified-recovered".into(),
            incidents: 1,
            mttr_ms: Some(703),
            retries: 2,
            restarts: 1,
            verifications: 3,
            verified: 1,
            degraded: 0,
            pinned: false,
            dropped_reports: 0,
            coordinator_idle: true,
            crashed: false,
        }],
        verified_total: 1,
        idle_total: 1,
    }
}

fn keys(v: &serde_json::Value) -> Vec<String> {
    let obj = v.as_object().expect("expected a JSON object");
    let mut ks: Vec<String> = obj.iter().map(|(k, _)| k.clone()).collect();
    ks.sort();
    ks
}

#[test]
fn recovery_json_campaign_shape_is_stable() {
    let json = serde_json::to_value(&sample_campaign());
    assert_eq!(
        keys(&json),
        vec!["idle_total", "scenarios", "target", "verified_total"]
    );
    let scenario = &json
        .as_object()
        .and_then(|o| o.get("scenarios"))
        .and_then(|s| s.as_array())
        .expect("scenarios array")[0];
    assert_eq!(
        keys(scenario),
        vec![
            "coordinator_idle",
            "crashed",
            "degraded",
            "disposition",
            "dropped_reports",
            "expected_class",
            "incidents",
            "mttr_ms",
            "pinned",
            "restarts",
            "retries",
            "scenario",
            "verifications",
            "verified",
        ]
    );
    // MTTR is nullable, never absent: undetected scenarios archive `null`.
    assert!(scenario
        .as_object()
        .and_then(|o| o.get("mttr_ms"))
        .is_some());
}

#[test]
fn recovery_json_round_trips() {
    let campaign = sample_campaign();
    let text = serde_json::to_string(&campaign).unwrap();
    let back: RecoveryCampaign = serde_json::from_str(&text).unwrap();
    assert_eq!(back.target, "kvs");
    assert_eq!(back.verified_total, 1);
    assert_eq!(back.idle_total, 1);
    assert_eq!(back.scenarios.len(), 1);
    let s = &back.scenarios[0];
    assert_eq!(s.scenario, "background-task-stuck");
    assert_eq!(s.disposition, "verified-recovered");
    assert_eq!(s.mttr_ms, Some(703));
    assert!(s.coordinator_idle);
    assert!(!s.crashed);
}

#[test]
fn archived_recovery_results_parse_when_present() {
    // The CI smoke gate writes results/recovery.json before the test
    // suite runs; when it exists, it must still match the schema.
    for name in ["recovery", "recovery-minizk", "recovery-miniblock"] {
        let path = format!("results/{name}.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let campaign: RecoveryCampaign =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            campaign.scenarios.len() as u64 >= campaign.verified_total,
            "{path}: more verified scenarios than scenarios"
        );
        for s in &campaign.scenarios {
            assert!(
                matches!(
                    s.disposition.as_str(),
                    "verified-recovered" | "degraded" | "not-detected"
                ),
                "{path}: unknown disposition {:?}",
                s.disposition
            );
        }
    }
}
