//! `room_failover`: the Figure 13 script on `EmulationConfig::default()`
//! (4.8 MW room, 360 slots, 80% utilisation, Realistic-1, Balanced
//! Round-Robin placement, UPS0 failing at minute 12 and restored at
//! minute 19, 25 simulated minutes, noop `Obs`), over a fixed set of
//! seeds.
//!
//! `setup` and `drive` split `flex_emulation::run` at the start of the
//! measured phase; the self-test checks that together they produce the
//! same report.

use std::fmt::Write as _;
use std::time::Instant;

use flex_emulation::workloads::{paper_demand_fn, BatchJobModel, OltpModel};
use flex_emulation::{EmulationConfig, EmulationReport, StageTimes};
use flex_obs::Obs;
use flex_online::sim::{RoomSim, SimEvent};
use flex_online::{ImpactRegistry, RackPowerState};
use flex_placement::policies::{BalancedRoundRobin, FlexOffline, PlacementPolicy};
use flex_placement::PlacedRoom;
use flex_sim::stats::Percentiles;
use flex_sim::{SimDuration, SimTime};
use flex_workload::trace::{TraceConfig, TraceGenerator};
use flex_workload::WorkloadCategory;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::common::{add_counters, median, quantile, timed, Args, Digest, EndToEnd, Outcome};
use crate::layers::{self, TickCounts, WorldCosts};

/// The episode seeds (`EmulationConfig::seed`): the default and the
/// seven after it.
pub const SEEDS: [u64; 8] = [
    0x13EE, 0x13EF, 0x13F0, 0x13F1, 0x13F2, 0x13F3, 0x13F4, 0x13F5,
];

/// Steps between two samples of the in-tick layers in a traced episode.
const SAMPLE_EVERY: u64 = 25;

/// Everything built before the measured phase.
pub struct Episode {
    config: EmulationConfig,
    placed: PlacedRoom,
    registry: ImpactRegistry,
    sim: RoomSim,
    /// Seconds `TraceGenerator::generate` took.
    pub trace_gen_s: f64,
}

/// Builds the room, trace, placement and `RoomSim` for one episode.
pub fn setup(seed: u64, obs: Obs) -> Episode {
    let mut config = EmulationConfig {
        seed,
        ..EmulationConfig::default()
    };
    config.sim.obs = obs;
    let room = config.room.build().expect("emulation room builds");
    let provisioned = room.provisioned_power();
    let rack_power = provisioned / room.total_slots() as f64;
    let trace_config = TraceConfig {
        flex_fraction_range: (config.flex_fraction, config.flex_fraction + 1e-6),
        rack_powers: vec![(rack_power, 1.0)],
        ..TraceConfig::microsoft(provisioned)
    };
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let (trace, trace_gen_s) = timed(|| TraceGenerator::new(trace_config).generate(&mut rng));
    let placement = if config.ilp_placement {
        FlexOffline::short().place(&room, &trace, &mut rng)
    } else {
        BalancedRoundRobin.place(&room, &trace, &mut rng)
    };
    let placed = PlacedRoom::materialize(&room, &trace, &placement);
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &config.scenario,
    );
    let allocated = placed.total_provisioned();
    let util_scale = (provisioned / allocated).min(1.2);
    let util = (config.utilization * util_scale).min(0.93);
    let demand = paper_demand_fn(util, BatchJobModel::default(), OltpModel::default());
    let sim_config = std::mem::take(&mut config.sim);
    let mut sim = RoomSim::new(&placed, registry.clone(), demand, sim_config);
    sim.fail_ups_at(SimTime::ZERO + config.fail_at, config.failed_ups);
    sim.restore_ups_at(SimTime::ZERO + config.restore_at, config.failed_ups);
    Episode {
        config,
        placed,
        registry,
        sim,
        trace_gen_s,
    }
}

/// What a traced episode records between steps: the time of every
/// step, and with `sample` on, the in-tick layers' costs.
#[derive(Default)]
struct Probe {
    sample: bool,
    step_s: Vec<f64>,
    costs: WorldCosts,
    pipeline: Option<flex_telemetry::Pipeline>,
}

/// The measured phase: drives the episode in one-second steps and
/// assembles the report, exactly as `flex_emulation::run` does.
pub fn drive(ep: Episode) -> EmulationReport {
    drive_probed(ep, None)
}

fn drive_probed(ep: Episode, mut probe: Option<&mut Probe>) -> EmulationReport {
    let Episode {
        config,
        placed,
        registry,
        mut sim,
        ..
    } = ep;
    let fail_t = SimTime::ZERO + config.fail_at;
    let restore_t = SimTime::ZERO + config.restore_at;
    let end_t = SimTime::ZERO + config.duration;
    let mut p95_inflations = Percentiles::new();
    let mut worst_inflation: f64 = 0.0;
    let mut sr_shut_frac = 0.0_f64;
    let mut cap_thr_frac = 0.0_f64;
    let mut t = SimTime::ZERO;
    let step = SimDuration::from_secs(1);
    let mut steps = 0u64;
    while t < end_t {
        t += step;
        match probe.as_deref_mut() {
            None => sim.run_until(t),
            Some(p) => {
                let start = Instant::now();
                sim.run_until(t);
                p.step_s.push(start.elapsed().as_secs_f64());
                steps += 1;
                let world = sim.world();
                if p.sample && steps.is_multiple_of(SAMPLE_EVERY) {
                    let pipeline = p
                        .pipeline
                        .get_or_insert_with(|| WorldCosts::pipeline_for(world));
                    p.costs.sample(world, pipeline, t);
                }
                // The first snapshot after the failover.
                if p.sample && t > fail_t && t <= fail_t + step {
                    p.costs.sample_decide(world, &registry);
                }
            }
        }
        let world = sim.world();
        let states = world.rack_states();
        let demand_now = world.demand();
        if t > fail_t && t <= restore_t {
            let racks = placed.racks();
            let sr_total = racks
                .iter()
                .filter(|r| r.category == WorkloadCategory::SoftwareRedundant)
                .count()
                .max(1);
            let cap_total = racks
                .iter()
                .filter(|r| r.category == WorkloadCategory::CapAble)
                .count()
                .max(1);
            let shut = racks
                .iter()
                .filter(|r| {
                    r.category == WorkloadCategory::SoftwareRedundant
                        && states[r.id.0] == RackPowerState::Off
                })
                .count();
            let thr = racks
                .iter()
                .filter(|r| {
                    r.category == WorkloadCategory::CapAble
                        && states[r.id.0] == RackPowerState::Throttled
                })
                .count();
            sr_shut_frac = sr_shut_frac.max(shut as f64 / sr_total as f64);
            cap_thr_frac = cap_thr_frac.max(thr as f64 / cap_total as f64);
            for r in racks {
                if r.category != WorkloadCategory::CapAble {
                    continue;
                }
                let demand_fraction = (demand_now[r.id.0] / r.provisioned).clamp(0.0, 1.0);
                let cap_fraction = match states[r.id.0] {
                    RackPowerState::Throttled => config.flex_fraction,
                    _ => 1.0,
                };
                let inflation = config.latency.inflation(demand_fraction, cap_fraction);
                if states[r.id.0] == RackPowerState::Throttled {
                    p95_inflations.record(inflation);
                    worst_inflation = worst_inflation.max(inflation);
                }
            }
        }
    }

    let world = sim.world();
    let mut burst: Vec<SimTime> = world
        .stats
        .events
        .iter()
        .filter(|(at, e)| {
            *at >= fail_t
                && matches!(
                    e,
                    SimEvent::Applied {
                        state: RackPowerState::Off | RackPowerState::Throttled,
                        ..
                    }
                )
        })
        .map(|(at, _)| *at)
        .collect();
    burst.sort_unstable();
    let enforcement_duration = burst.first().map(|&first| {
        let mut last = first;
        for &t in &burst[1..] {
            if t.saturating_since(last) > SimDuration::from_secs(5) {
                break;
            }
            last = t;
        }
        last - first
    });

    EmulationReport {
        stages: StageTimes {
            normal_from: SimTime::ZERO + SimDuration::from_secs(60),
            failover_at: fail_t,
            restore_at: restore_t,
            end: end_t,
        },
        ups_fraction: world.stats.ups_fraction.clone(),
        total_power: world.stats.total_power.clone(),
        sr_shutdown_fraction: sr_shut_frac,
        capable_throttled_fraction: cap_thr_frac,
        detection_latency: world.stats.detection_latency.first().copied(),
        enforcement_duration,
        mean_p95_inflation: p95_inflations.mean().unwrap_or(0.0),
        worst_p95_inflation: worst_inflation,
        cascaded: world.stats.cascaded(),
        fully_recovered: world
            .rack_states()
            .iter()
            .all(|s| *s == RackPowerState::Normal),
        events: world.stats.events.clone(),
    }
}

/// Digest of every field of a report, the event log included.
pub fn digest(r: &EmulationReport) -> u64 {
    let mut d = Digest::default();
    let _ = write!(
        d,
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.stages.normal_from,
        r.stages.failover_at,
        r.stages.restore_at,
        r.stages.end,
        r.sr_shutdown_fraction,
        r.capable_throttled_fraction,
        r.detection_latency,
        r.enforcement_duration,
        r.mean_p95_inflation,
        r.worst_p95_inflation,
        r.cascaded,
        r.fully_recovered,
        r.total_power.points(),
        r.events,
    );
    for series in &r.ups_fraction {
        let _ = write!(d, "|{:?}", series.points());
    }
    d.value()
}

/// An episode fails if it cascades, does not fully recover, or takes
/// more than 10 s to detect the failure.
fn failed(r: &EmulationReport) -> bool {
    r.cascaded
        || !r.fully_recovered
        || r.detection_latency
            .is_none_or(|d| d > SimDuration::from_secs(10))
}

/// Checks one report into `out`.
fn check(out: &mut Outcome, seed: u64, report: &EmulationReport) {
    out.attempted += 1;
    out.failed += u64::from(failed(report));
    out.digest(format!("room_failover/seed={seed:#x}"), digest(report));
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
            (seed, setup(seed, Obs::noop()))
        },
        |(seed, ep)| (seed, drive(ep)),
        |(seed, report)| check(&mut out, seed, &report),
    );
    e2e.report(&mut out, 1.0);
    out
}

/// The traced run: untraced episodes (noop `Obs`, only their steps
/// timed), then traced ones with a recording `Obs`, step timing and
/// in-tick layer samples, alternating until the time is up and at
/// least one full pass over the seeds is traced.
fn run_traced(args: &Args, out: &mut Outcome) {
    let mut plain_s = Vec::new();
    let mut plain_steps_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_steps_s = Vec::new();
    let mut trace_gen_s = Vec::new();
    let mut plain = Probe::default();
    let mut probe = Probe {
        sample: true,
        ..Probe::default()
    };
    let mut counters = flex_obs::MetricsSnapshot::default();
    let mut flight_events = 0u64;
    let mut horizon = SimTime::ZERO;
    let start = Instant::now();
    let mut i = 0;
    while i < SEEDS.len() || start.elapsed().as_secs_f64() < args.seconds {
        let seed = SEEDS[args.pick(i, SEEDS.len())];
        let ep = setup(seed, Obs::noop());
        trace_gen_s.push(ep.trace_gen_s);
        plain.step_s.clear();
        let (report, s) = timed(|| drive_probed(ep, Some(&mut plain)));
        plain_s.push(s);
        plain_steps_s.push(plain.step_s.iter().sum::<f64>());
        check(out, seed, &report);

        let obs = Obs::recording();
        let ep = setup(seed, obs.clone());
        horizon = SimTime::ZERO + ep.config.duration;
        let steps_before = probe.step_s.len();
        let (report, s) = timed(|| drive_probed(ep, Some(&mut probe)));
        traced_s.push(s);
        traced_steps_s.push(probe.step_s[steps_before..].iter().sum::<f64>());
        check(out, seed, &report);
        if i < SEEDS.len() {
            add_counters(&mut counters, &obs.snapshot());
            let dump = obs.dump();
            flight_events += dump.events.len() as u64 + dump.dropped;
        }
        i += 1;
    }
    let plain = median(&mut plain_s);
    let sim_config = flex_online::sim::RoomSimConfig::default();
    let counts = TickCounts::of(&sim_config, horizon);
    let passes = SEEDS.len() as u64;
    let event_ns = layers::event_ns(&sim_config, horizon, 5);
    out.set("sim.event_ns", event_ns);
    out.set("sim.tick_events", counts.tick_events as f64);
    out.set_counters(&counters, passes);
    out.set(
        "emulation.step_us_p99",
        quantile(&mut probe.step_s, 0.99) * 1e6,
    );
    out.set("obs.event_ns", layers::obs_event_ns());
    out.set("obs.flight_events", flight_events as f64 / passes as f64);
    out.set(
        "obs.share",
        1.0 - median(&mut plain_steps_s) / median(&mut traced_steps_s),
    );
    out.set("workload.trace_gen_ms", median(&mut trace_gen_s) * 1e3);
    let in_ticks = probe.costs.report(out, &counts, plain);
    let events = event_ns * 1e-9 * counts.tick_events as f64;
    out.set("attributed_share", (events + in_ticks) / plain);
    out.set("trace_overhead_frac", median(&mut traced_s) / plain - 1.0);
}
