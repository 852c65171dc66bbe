//! `chaos_campaign`: `flex_chaos::campaign::run` with
//! `CampaignConfig::default()` switches (all four hardening features
//! on, recording `Obs`, minimisation on), `SCENARIOS` scenarios per
//! campaign, over a fixed set of campaign seeds.
//!
//! The campaign generates its scenarios inside its run, as `flex-chaos
//! run` does. The set-up phase generates the same scenarios once more
//! (`scenario::generate`), so input-building cost has its own figure.

use std::time::Instant;

use flex_chaos::campaign::{self, CampaignConfig, CampaignReport, Failure};
use flex_chaos::{oracle, scenario};
use flex_obs::{MetricsSnapshot, Obs};
use flex_online::sim::RoomSimConfig;
use flex_online::ImpactRegistry;
use flex_sim::{SimDuration, SimTime};
use flex_workload::impact::scenarios as impact_scenarios;

use crate::common::{add_counters, digest_str, median, quantile, timed, Args, EndToEnd, Outcome};
use crate::layers::{self, TickCounts, WorldCosts};

/// Scenarios per campaign.
pub const SCENARIOS: u64 = 200;

/// Campaign seeds: the default (`0xC4A05`) and the seven after it, each
/// clean under full hardening (1,600 distinct scenarios).
pub const SEEDS: [u64; 8] = [
    0xC4A05, 0xC4A06, 0xC4A07, 0xC4A08, 0xC4A09, 0xC4A0A, 0xC4A0B, 0xC4A0C,
];

/// Scenarios between two samples of the in-tick layers.
const SAMPLE_EVERY: u64 = 16;

fn config(seed: u64, obs: bool) -> CampaignConfig {
    CampaignConfig {
        seed,
        scenarios: SCENARIOS,
        obs,
        ..CampaignConfig::default()
    }
}

/// Checks one campaign report into `out`.
fn check(out: &mut Outcome, report: &CampaignReport) {
    out.attempted += report.config.scenarios;
    out.failed += report.failures.len() as u64;
    let key = format!(
        "chaos_campaign/seed={:#x}/scenarios={}/obs={}",
        report.config.seed, report.config.scenarios, report.config.obs
    );
    out.digest(key, digest_str(&report.to_json()));
}

/// Generates a campaign's scenarios: the set-up phase.
fn generate_all(seed: u64) -> Vec<scenario::Scenario> {
    (0..SCENARIOS)
        .map(|i| scenario::generate(seed, i))
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    if args.trace {
        run_traced(args, &mut out);
        return out;
    }
    let e2e = EndToEnd::measure(
        args,
        1,
        |i| {
            let seed = SEEDS[args.pick(i, SEEDS.len())];
            std::hint::black_box(generate_all(seed));
            seed
        },
        |seed| campaign::run(config(seed, true)),
        |report| check(&mut out, &report),
    );
    e2e.report(&mut out, SCENARIOS as f64);
    out
}

/// Per-scenario timings of the traced campaign loop.
#[derive(Default)]
struct Probe {
    generate_s: Vec<f64>,
    run_s: Vec<f64>,
    oracle_s: Vec<f64>,
    costs: WorldCosts,
    counters: MetricsSnapshot,
    flight_events: u64,
    /// The scenarios' run horizon (the generator fixes it at 75 s).
    horizon: SimTime,
}

/// `campaign::run` with every scenario's generate, run and oracle
/// timed; the report it returns must equal the untimed campaign's.
fn traced_campaign(config: CampaignConfig, probe: &mut Probe, sample: bool) -> CampaignReport {
    let mut clean = 0u64;
    let mut failures = Vec::new();
    let mut family_counts: Vec<(String, u64, u64)> = scenario::FAMILIES
        .iter()
        .map(|f| (f.to_string(), 0, 0))
        .collect();
    for i in 0..config.scenarios {
        let (mut s, gen_s) = timed(|| scenario::generate(config.seed, i));
        s.watchdog = config.watchdog;
        s.retries = config.retries;
        s.fencing = config.fencing;
        s.recovery = config.recovery;
        let obs = if config.obs {
            Obs::recording()
        } else {
            Obs::noop()
        };
        let (outcome, run_s) = timed(|| scenario::run_scenario_obs(&s, &obs));
        let (violations, oracle_s) = timed(|| oracle::check(&outcome));
        probe.generate_s.push(gen_s);
        probe.run_s.push(run_s);
        probe.oracle_s.push(oracle_s);
        probe.horizon = SimTime::ZERO + SimDuration::from_millis(s.horizon_ms);
        if sample {
            add_counters(&mut probe.counters, &obs.snapshot());
            let dump = obs.dump();
            probe.flight_events += dump.events.len() as u64 + dump.dropped;
        }
        if i.is_multiple_of(SAMPLE_EVERY) {
            let world = outcome.sim.world();
            let mut pipeline = WorldCosts::pipeline_for(world);
            probe.costs.sample(world, &mut pipeline, outcome.sim.now());
            let registry = ImpactRegistry::from_scenario(
                world.racks().iter().map(|r| (r.deployment, r.category)),
                &impact_scenarios::realistic_1(),
            );
            probe.costs.sample_decide(world, &registry);
        }
        if let Some(slot) = family_counts
            .iter_mut()
            .find(|(name, _, _)| *name == s.family)
        {
            slot.1 += 1;
            if !violations.is_empty() {
                slot.2 += 1;
            }
        }
        if violations.is_empty() {
            clean += 1;
            continue;
        }
        let minimized = config.minimize.then(|| campaign::minimize(&s, &violations));
        let recorder = config.obs.then(|| obs.dump().to_value());
        failures.push(Failure {
            scenario: s,
            violations,
            minimized,
            recorder,
        });
    }
    CampaignReport {
        config,
        clean,
        failures,
        family_counts,
    }
}

/// The traced run: per pass, one untraced campaign (obs on, the
/// overhead base), one with obs off (for `obs.share`), and one traced
/// campaign; until the time is up and every seed has been traced.
fn run_traced(args: &Args, out: &mut Outcome) {
    let mut plain_s = Vec::new();
    let mut obs_off_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut probe = Probe::default();
    let start = Instant::now();
    let mut i = 0;
    while i < SEEDS.len() || start.elapsed().as_secs_f64() < args.seconds {
        let seed = SEEDS[args.pick(i, SEEDS.len())];
        let (report, s) = timed(|| campaign::run(config(seed, true)));
        plain_s.push(s);
        check(out, &report);
        let (report, s) = timed(|| campaign::run(config(seed, false)));
        obs_off_s.push(s);
        check(out, &report);
        let (report, s) =
            timed(|| traced_campaign(config(seed, true), &mut probe, i < SEEDS.len()));
        traced_s.push(s);
        check(out, &report);
        i += 1;
    }
    let plain = median(&mut plain_s);
    let scenarios = (SEEDS.len() as u64) * SCENARIOS;
    let sim_config = RoomSimConfig::default();
    let counts = TickCounts::of(&sim_config, probe.horizon);
    let event_ns = layers::event_ns(&sim_config, probe.horizon, 25);
    out.set("sim.event_ns", event_ns);
    out.set("sim.tick_events", counts.tick_events as f64);
    let per_scenario = |n: u64| n as f64 / scenarios as f64;
    out.set_counters(&probe.counters, scenarios);
    out.set("obs.event_ns", layers::obs_event_ns());
    out.set("obs.flight_events", per_scenario(probe.flight_events));
    out.set("obs.share", 1.0 - median(&mut obs_off_s) / plain);
    let generate = median(&mut probe.generate_s);
    let oracle = median(&mut probe.oracle_s);
    out.set("chaos.generate_ms", generate * 1e3);
    out.set("chaos.run_ms_p50", quantile(&mut probe.run_s, 0.5) * 1e3);
    out.set("chaos.run_ms_p99", quantile(&mut probe.run_s, 0.99) * 1e3);
    out.set("chaos.oracle_us", oracle * 1e6);
    let campaign_per_scenario = plain / SCENARIOS as f64;
    let in_ticks = probe.costs.report(out, &counts, campaign_per_scenario);
    let events = event_ns * 1e-9 * counts.tick_events as f64;
    out.set(
        "attributed_share",
        (generate + oracle + events + in_ticks) / campaign_per_scenario,
    );
    out.set("trace_overhead_frac", median(&mut traced_s) / plain - 1.0);
}
