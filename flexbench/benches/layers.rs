//! Per-layer probes shared by the two `RoomSim` workloads.
//!
//! Several layers run only inside `RoomSim`'s tick closures, where the
//! benchmark cannot put a clock. For those, the probe calls the layer's
//! public function on the workload's own live world and multiplies the
//! cost per call by the call count the config's tick cadences imply.

use std::collections::BTreeMap;

use flex_obs::{FlightEvent, Obs};
use flex_online::policy::{decide, DecisionInput, PolicyConfig};
use flex_online::sim::{RoomSimConfig, RoomWorld};
use flex_online::ImpactRegistry;
use flex_power::meter::GroundTruth;
use flex_power::{LoadModel, Watts};
use flex_sim::rng::RngPool;
use flex_sim::{Ctx, Sim, SimDuration, SimTime};
use flex_telemetry::{Pipeline, PipelineConfig};

use crate::common::{firings, median, per_call, timed, Outcome};

/// The six recurring ticks `RoomSim::new` schedules, as (first firing
/// in ns, period), in scheduling order: UPS poll, rack poll, demand
/// resample, overload step, stats, watchdog.
fn cadences(config: &RoomSimConfig) -> [(u64, SimDuration); 6] {
    [
        (0, config.pipeline.ups_poll_interval),
        (1, config.pipeline.rack_poll_interval),
        (2, config.demand_update_interval),
        (3, config.overload_step),
        (4, config.stats_interval),
        (5, config.watchdog_poll_interval),
    ]
}

/// Per-run call counts the tick cadences imply over `[0, horizon]`.
#[derive(Debug, Clone, Copy)]
pub struct TickCounts {
    /// UPS polls (`Pipeline::poll_upses`).
    pub ups_polls: u64,
    /// Rack polls (`effective_rack_power` + `Pipeline::poll_racks`).
    pub rack_polls: u64,
    /// `RoomWorld::ups_loads` calls: UPS poll, overload and stats ticks.
    pub ups_loads_calls: u64,
    /// All six ticks' firings.
    pub tick_events: u64,
}

impl TickCounts {
    /// Counts for one run of `config` to `horizon`.
    pub fn of(config: &RoomSimConfig, horizon: SimTime) -> TickCounts {
        let horizon = horizon.as_nanos();
        let n: Vec<u64> = cadences(config)
            .iter()
            .map(|&(offset, every)| firings(offset, every.as_nanos(), horizon))
            .collect();
        TickCounts {
            ups_polls: n[0],
            rack_polls: n[1],
            ups_loads_calls: n[0] + n[3] + n[4],
            tick_events: n.iter().sum(),
        }
    }
}

/// Host ns per boxed, self-rescheduling `flex_sim::Sim` event, with the
/// six ticks at `config`'s cadences and near-empty bodies: the kernel's
/// dispatch cost alone. Median of `rounds` runs to `horizon`.
pub fn event_ns(config: &RoomSimConfig, horizon: SimTime, rounds: usize) -> f64 {
    fn tick(kind: usize, every: SimDuration) -> impl FnOnce(&mut [u64; 6], &mut Ctx<[u64; 6]>) {
        move |w, ctx| {
            w[kind] += 1;
            ctx.schedule_in(every, tick(kind, every));
        }
    }
    let mut samples: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let mut sim = Sim::new([0u64; 6]);
            for (kind, &(offset, every)) in cadences(config).iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(offset), tick(kind, every));
            }
            let (events, secs) = timed(|| sim.run_until(horizon));
            std::hint::black_box(sim.world());
            secs * 1e9 / events.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// Host ns per `Obs::record` on a recording handle.
pub fn obs_event_ns() -> f64 {
    let obs = Obs::recording();
    let mut at = 0u64;
    per_call(5, 20_000, || {
        at += 1;
        obs.record(SimTime::from_nanos(at), FlightEvent::UpsFailed { ups: 0 });
    }) * 1e9
}

/// Per-call costs (seconds) of the layers inside `RoomSim`'s ticks,
/// sampled on live worlds.
#[derive(Default)]
pub struct WorldCosts {
    ups_loads: Vec<f64>,
    rack_power: Vec<f64>,
    ups_poll: Vec<f64>,
    rack_poll: Vec<f64>,
    decide: Vec<f64>,
}

impl WorldCosts {
    /// A telemetry pipeline sized to `world`, for timing polls against
    /// its loads.
    pub fn pipeline_for(world: &RoomWorld) -> Pipeline {
        Pipeline::new(
            PipelineConfig::production(),
            world.topology().ups_count(),
            world.racks().len(),
            &RngPool::new(0xB3_0C),
        )
    }

    /// Times `ups_loads`, `effective_rack_power` and both telemetry
    /// polls on `world` as it stands at `now`.
    pub fn sample(&mut self, world: &RoomWorld, pipeline: &mut Pipeline, now: SimTime) {
        self.ups_loads.push(per_call(1, 4, || world.ups_loads()));
        self.rack_power
            .push(per_call(1, 4, || world.effective_rack_power()));
        let truth = GroundTruth::from_loads(world.ups_loads());
        self.ups_poll
            .push(timed(|| pipeline.poll_upses(now, &truth)).1);
        let powers = world.effective_rack_power();
        self.rack_poll
            .push(timed(|| pipeline.poll_racks(now, &powers)).1);
    }

    /// Times Algorithm 1 (`policy::decide`) with no prior actions on the
    /// post-failover snapshot of `world`: every rack at its uncapped
    /// demand, fed by the world's current (failed-over) feed state.
    pub fn sample_decide(&mut self, world: &RoomWorld, registry: &ImpactRegistry) {
        let rack_power = world.demand().to_vec();
        let mut model = LoadModel::new(world.topology());
        for (rack, &p) in world.racks().iter().zip(&rack_power) {
            let _ = model.add_pair_load(rack.pdu_pair, p);
        }
        let ups_power: Vec<Watts> = model.ups_loads(world.feed()).as_slice().to_vec();
        let input = DecisionInput {
            topology: world.topology(),
            racks: world.racks(),
            rack_power: &rack_power,
            ups_power: &ups_power,
        };
        let prior = BTreeMap::new();
        let config = PolicyConfig::default();
        self.decide
            .push(per_call(3, 4, || decide(&input, &prior, registry, &config)));
    }

    /// Sets the power, telemetry and decide metrics and returns the
    /// seconds per run these layers account for (`counts` per run).
    pub fn report(mut self, out: &mut Outcome, counts: &TickCounts, run_s: f64) -> f64 {
        let ups_loads = median(&mut self.ups_loads);
        let rack_power = median(&mut self.rack_power);
        let ups_poll = median(&mut self.ups_poll);
        let rack_poll = median(&mut self.rack_poll);
        out.set("power.ups_loads_us", ups_loads * 1e6);
        out.set("power.ups_loads_calls", counts.ups_loads_calls as f64);
        out.set("power.rack_power_us", rack_power * 1e6);
        out.set("telemetry.ups_poll_us", ups_poll * 1e6);
        out.set("telemetry.rack_poll_us", rack_poll * 1e6);
        out.set("online.decide_us", median(&mut self.decide) * 1e6);
        let power =
            ups_loads * counts.ups_loads_calls as f64 + rack_power * counts.rack_polls as f64;
        if run_s > 0.0 {
            out.set(
                "power.ups_loads_share",
                ups_loads * counts.ups_loads_calls as f64 / run_s,
            );
        }
        power + ups_poll * counts.ups_polls as f64 + rack_poll * counts.rack_polls as f64
    }
}
