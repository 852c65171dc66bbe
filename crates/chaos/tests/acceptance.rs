//! The chaos harness acceptance gates:
//!
//! - a fixed-seed campaign of 200 scenarios is bit-identical across two
//!   runs (report JSON compared byte for byte) and matches the digest
//!   the repository benchmark keeps for it in `flexbench/reference.txt`;
//! - a violation replays from its JSON text alone — same events, same
//!   verdict;
//! - with the hardening features disabled the campaign finds trip-curve
//!   violations that the enabled configuration survives.

use flex_chaos::scenario::{fresh_controllers, generate, run_scenario, run_scenario_obs, FAMILIES};
use flex_chaos::{ab_probe, campaign, CampaignConfig, Scenario};
use flex_obs::{json, Obs};
use flex_online::replay::{recorded_commands, replay_decisions};

#[test]
fn campaign_of_200_is_bit_identical_across_runs() {
    let config = CampaignConfig {
        seed: 0xC4A05,
        scenarios: 200,
        ..CampaignConfig::default()
    };
    let first = campaign::run(config).to_json();
    let second = campaign::run(config).to_json();
    assert_eq!(first, second, "fixed-seed campaigns must be byte-identical");
    assert!(
        first.contains("\"clean\":200"),
        "the hardened loop must survive all 200 scenarios: {first}"
    );
    // The benchmark runs this same campaign and keeps the digest of its
    // report: a match pins the output to the recorded one, not only to
    // a second run of the same build.
    let key = format!(
        "chaos_campaign/seed={:#x}/scenarios={}/obs={}",
        config.seed, config.scenarios, config.obs
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../flexbench/reference.txt");
    let reference = std::fs::read_to_string(path).expect("flexbench/reference.txt is readable");
    let expected = reference
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(' ')?;
            (k == key).then(|| u64::from_str_radix(v.trim(), 16).ok())?
        })
        .unwrap_or_else(|| panic!("no `{key}` digest in {path}"));
    assert_eq!(
        fnv1a64(&first),
        expected,
        "campaign report drifted from the `{key}` reference digest"
    );
}

/// 64-bit FNV-1a, the digest `flexbench/reference.txt` records.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn violation_replays_from_json_alone() {
    // The unhardened blackout is the canonical reproducer.
    let mut s = generate(0xC4A05, 1);
    assert_eq!(s.family, "blackout_at_failover");
    s.watchdog = false;
    let text = s.to_value().to_json();

    // Round-trip through nothing but the JSON text.
    let parsed = Scenario::from_value(&json::parse(&text).expect("valid JSON"))
        .expect("scenario-shaped JSON");
    assert_eq!(s, parsed, "serialization must be lossless");

    let original = run_scenario(&s);
    let replayed = run_scenario(&parsed);
    let fmt = |out: &flex_chaos::scenario::RunOutcome| -> Vec<String> {
        out.stats()
            .events
            .iter()
            .map(|(t, e)| format!("{:.9}s {e:?}", t.as_secs_f64()))
            .collect()
    };
    assert_eq!(
        fmt(&original),
        fmt(&replayed),
        "replay from JSON must reproduce the event stream bit-for-bit"
    );
    let v1 = flex_chaos::oracle::check(&original);
    let v2 = flex_chaos::oracle::check(&replayed);
    assert_eq!(v1, v2, "replay must reproduce the verdict");
    assert!(
        v1.iter().any(|v| v.kind == "unexcused-trip"),
        "the reproducer must still fail: {v1:?}"
    );
}

#[test]
fn recorded_decisions_replay_through_fresh_controllers() {
    // One scenario of every family, hardened and not: the flight
    // recorder's dump alone re-derives every command the run issued,
    // crash recoveries and fenced incarnations included.
    for i in 0..FAMILIES.len() as u64 {
        for hardened in [true, false] {
            let mut s = generate(0xC4A05, i);
            s.watchdog = hardened;
            s.retries = hardened;
            s.fencing = hardened;
            s.recovery = hardened;
            let obs = Obs::recording();
            run_scenario_obs(&s, &obs);
            let dump = obs.dump();
            assert_eq!(dump.dropped, 0, "{}: ring overflowed", s.family);
            let recorded = recorded_commands(&dump.events);
            let replayed = replay_decisions(&mut fresh_controllers(&s), &dump.events);
            assert_eq!(
                replayed, recorded,
                "{} (hardened {hardened}): replay diverged from the recording",
                s.family
            );
        }
    }
}

#[test]
fn hardening_is_load_bearing_at_campaign_scale() {
    let config = CampaignConfig {
        seed: 0xC4A05,
        scenarios: 60,
        minimize: false,
        ..CampaignConfig::default()
    };
    let (report, survived) = ab_probe(config, None);
    let trips = report
        .failures
        .iter()
        .filter(|f| f.violations.iter().any(|v| v.kind == "unexcused-trip"))
        .count();
    assert!(
        trips >= 1,
        "the unhardened campaign must find at least one trip-curve violation"
    );
    assert!(
        survived >= 1,
        "at least one unhardened failure must pass with watchdog+retry enabled; \
         {} failures, {survived} survived",
        report.failures.len()
    );
}
