//! Fault-combination scenarios: plain serializable data that fully
//! determines one closed-loop run.
//!
//! A [`Scenario`] is a *description*, not live state: a seed, a demand
//! level, a scripted UPS failure, and lists of fault atoms (component
//! outage windows, stuck meters, delivery chaos). Running one builds a
//! fresh [`RoomSim`] from the description every time, so a scenario
//! replayed from its JSON alone reproduces the original run
//! bit-for-bit.

use flex_obs::json::{obj, Value};
use flex_online::sim::{
    DeliveryChaos, DemandFn, PubSubPartition, RoomSim, RoomSimConfig, RoomStats,
};
use flex_online::{ActuatorConfig, Controller, ControllerConfig, ImpactRegistry};
use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
use flex_placement::{PlacedRoom, Placement, Room, RoomConfig, RoomState};
use flex_power::meter::MeterKind;
use flex_power::{UpsId, Watts};
use flex_sim::rng::RngPool;
use flex_sim::{SimDuration, SimTime};
use flex_telemetry::fault::{Component, FaultPlan};
use flex_telemetry::{POLLERS, PUBSUB_INSTANCES, SWITCH_GROUPS};
use flex_workload::impact::scenarios as impact_scenarios;
use flex_workload::trace::{DemandTrace, TraceConfig, TraceGenerator};
use flex_workload::WorkloadCategory;
use rand::rngs::SmallRng;
use rand::Rng;

/// Number of multi-primary controller instances in every chaos run.
pub const CONTROLLERS: usize = 3;

/// One component outage window, in integer milliseconds so scenarios
/// survive a JSON round trip without float drift.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// The component that is down (`"poller/0"`, `"rm/12"`, … in JSON).
    pub component: Component,
    /// Window start (ms of virtual time).
    pub from_ms: u64,
    /// Window end (ms of virtual time, exclusive).
    pub until_ms: u64,
}

impl FaultWindow {
    fn to_value(&self) -> Value {
        obj(vec![
            ("component", Value::Str(self.component.to_string())),
            ("from_ms", Value::Num(self.from_ms as f64)),
            ("until_ms", Value::Num(self.until_ms as f64)),
        ])
    }

    /// Decodes a window; one whose component does not parse is
    /// rejected, and so is one that does not end after it starts, as
    /// [`FaultPlan::add_outage`] needs a positive duration.
    fn from_value(v: &Value) -> Option<Self> {
        let window = FaultWindow {
            component: Component::parse(v.get("component")?.as_str()?)?,
            from_ms: v.get("from_ms")?.as_u64()?,
            until_ms: v.get("until_ms")?.as_u64()?,
        };
        (window.until_ms > window.from_ms).then_some(window)
    }
}

/// A UPS meter forced to repeat its last (pre-failover, hence
/// biased-low) reading for a window.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckMeter {
    /// UPS index.
    pub ups: usize,
    /// Index into [`MeterKind::ALL`].
    pub kind: usize,
    /// When the meter freezes (ms).
    pub from_ms: u64,
    /// When it thaws (ms).
    pub until_ms: u64,
}

impl StuckMeter {
    fn to_value(&self) -> Value {
        obj(vec![
            ("ups", Value::Num(self.ups as f64)),
            ("kind", Value::Num(self.kind as f64)),
            ("from_ms", Value::Num(self.from_ms as f64)),
            ("until_ms", Value::Num(self.until_ms as f64)),
        ])
    }

    /// Decodes a stuck meter; one that could not freeze anything (a
    /// UPS outside [`chaos_room`], a kind outside [`MeterKind::ALL`],
    /// an empty window) is rejected.
    fn from_value(v: &Value) -> Option<Self> {
        let meter = StuckMeter {
            ups: v.get("ups")?.as_u64()? as usize,
            kind: v.get("kind")?.as_u64()? as usize,
            from_ms: v.get("from_ms")?.as_u64()?,
            until_ms: v.get("until_ms")?.as_u64()?,
        };
        (meter.ups < chaos_room().ups_count
            && meter.kind < MeterKind::ALL.len()
            && meter.until_ms > meter.from_ms)
            .then_some(meter)
    }
}

/// Serializable form of [`DeliveryChaos`] (periods + ms delays).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSpec {
    /// Duplicate every Nth delivery (0 = never).
    pub duplicate_period: u64,
    /// Duplicate arrival lag (ms).
    pub duplicate_delay_ms: u64,
    /// Delay every Nth delivery (0 = never).
    pub delay_period: u64,
    /// Delay amount (ms).
    pub delay_ms: u64,
}

impl ChaosSpec {
    /// True if no chaos is configured.
    pub fn is_off(&self) -> bool {
        self.duplicate_period == 0 && self.delay_period == 0
    }

    fn to_delivery_chaos(self) -> DeliveryChaos {
        DeliveryChaos {
            duplicate_period: self.duplicate_period,
            duplicate_delay: SimDuration::from_millis(self.duplicate_delay_ms),
            delay_period: self.delay_period,
            delay_by: SimDuration::from_millis(self.delay_ms),
        }
    }

    fn to_value(self) -> Value {
        obj(vec![
            ("duplicate_period", Value::Num(self.duplicate_period as f64)),
            ("duplicate_delay_ms", Value::Num(self.duplicate_delay_ms as f64)),
            ("delay_period", Value::Num(self.delay_period as f64)),
            ("delay_ms", Value::Num(self.delay_ms as f64)),
        ])
    }

    fn from_value(v: &Value) -> Option<Self> {
        Some(ChaosSpec {
            duplicate_period: v.get("duplicate_period")?.as_u64()?,
            duplicate_delay_ms: v.get("duplicate_delay_ms")?.as_u64()?,
            delay_period: v.get("delay_period")?.as_u64()?,
            delay_ms: v.get("delay_ms")?.as_u64()?,
        })
    }
}

/// Serializable pub/sub partition window: instances in `side_a` see
/// only channel-0 deliveries for the window, everyone else only the
/// remaining channels (the JSON mirror of
/// [`flex_online::sim::PubSubPartition`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// Window start (ms).
    pub from_ms: u64,
    /// Window end — the heal instant (ms, exclusive).
    pub until_ms: u64,
    /// Controller instances pinned to pub/sub channel 0.
    pub side_a: Vec<usize>,
}

impl PartitionSpec {
    fn to_sim(&self) -> PubSubPartition {
        PubSubPartition {
            from: SimTime::ZERO + SimDuration::from_millis(self.from_ms),
            until: SimTime::ZERO + SimDuration::from_millis(self.until_ms),
            side_a: self.side_a.clone(),
        }
    }

    fn to_value(&self) -> Value {
        obj(vec![
            ("from_ms", Value::Num(self.from_ms as f64)),
            ("until_ms", Value::Num(self.until_ms as f64)),
            (
                "side_a",
                Value::Arr(self.side_a.iter().map(|&i| Value::Num(i as f64)).collect()),
            ),
        ])
    }

    /// Decodes a partition; one that could not act as written (a
    /// window that does not end after it starts, a side naming an
    /// instance past [`CONTROLLERS`]) is rejected.
    fn from_value(v: &Value) -> Option<Self> {
        let partition = PartitionSpec {
            from_ms: v.get("from_ms")?.as_u64()?,
            until_ms: v.get("until_ms")?.as_u64()?,
            side_a: v
                .get("side_a")?
                .as_arr()?
                .iter()
                .map(|x| x.as_u64().map(|n| n as usize))
                .collect::<Option<Vec<_>>>()?,
        };
        (partition.until_ms > partition.from_ms
            && partition.side_a.iter().all(|&i| i < CONTROLLERS))
        .then_some(partition)
    }
}

/// A complete, replayable fault-combination scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Index within its campaign (0 for hand-written scenarios).
    pub id: u64,
    /// Generator family name (`"random_soup"`, `"blackout_at_failover"`, …).
    pub family: String,
    /// Root seed of the room simulation (demand, meter noise, latency).
    pub seed: u64,
    /// Mean rack utilization (fraction of provisioned).
    pub util: f64,
    /// The scripted UPS failure.
    pub fail_ups: usize,
    /// When the UPS fails (ms).
    pub fail_at_ms: u64,
    /// Run horizon (ms).
    pub horizon_ms: u64,
    /// Telemetry-blackout watchdog enabled?
    pub watchdog: bool,
    /// Actuation retry enabled? (`false` = `max_retries: 0`.)
    pub retries: bool,
    /// Outages of telemetry components (pollers, switches, pub/sub,
    /// logical meters).
    pub pipeline_faults: Vec<FaultWindow>,
    /// Outages of rack managers.
    pub rm_faults: Vec<FaultWindow>,
    /// Crash windows of controller instances.
    pub controller_faults: Vec<FaultWindow>,
    /// Meters frozen at their last reading.
    pub stuck_meters: Vec<StuckMeter>,
    /// Pub/sub duplication/reordering.
    pub chaos: ChaosSpec,
    /// Actuation epoch fencing enabled? (`false` = stale commands
    /// apply, tagged for the oracle.)
    pub fencing: bool,
    /// Deterministic crash recovery enabled? (`false` = restarted
    /// instances come back blank.)
    pub recovery: bool,
    /// Pub/sub partition window, if any.
    pub partition: Option<PartitionSpec>,
}

impl Scenario {
    /// A quiet baseline for tests: one UPS failure, no injected faults.
    #[cfg(test)]
    pub(crate) fn baseline(seed: u64) -> Self {
        Scenario {
            id: 0,
            family: "baseline".to_string(),
            seed,
            util: 0.85,
            fail_ups: 0,
            fail_at_ms: 20_000,
            horizon_ms: GENERATED_HORIZON_MS,
            watchdog: true,
            retries: true,
            pipeline_faults: Vec::new(),
            rm_faults: Vec::new(),
            controller_faults: Vec::new(),
            stuck_meters: Vec::new(),
            chaos: ChaosSpec::default(),
            fencing: true,
            recovery: true,
            partition: None,
        }
    }

    /// Total number of removable fault atoms (used by the minimizer).
    pub fn atom_count(&self) -> usize {
        self.pipeline_faults.len()
            + self.rm_faults.len()
            + self.controller_faults.len()
            + self.stuck_meters.len()
            + usize::from(!self.chaos.is_off())
            + usize::from(self.partition.is_some())
    }

    /// Returns a copy with the `i`-th fault atom removed, or `None` if
    /// `i` is out of range. Atoms are ordered: pipeline faults, RM
    /// faults, controller faults, stuck meters, delivery chaos,
    /// partition.
    pub fn without_atom(&self, i: usize) -> Option<Self> {
        let mut s = self.clone();
        let mut i = i;
        if i < s.pipeline_faults.len() {
            s.pipeline_faults.remove(i);
            return Some(s);
        }
        i -= s.pipeline_faults.len();
        if i < s.rm_faults.len() {
            s.rm_faults.remove(i);
            return Some(s);
        }
        i -= s.rm_faults.len();
        if i < s.controller_faults.len() {
            s.controller_faults.remove(i);
            return Some(s);
        }
        i -= s.controller_faults.len();
        if i < s.stuck_meters.len() {
            s.stuck_meters.remove(i);
            return Some(s);
        }
        i -= s.stuck_meters.len();
        if !s.chaos.is_off() {
            if i == 0 {
                s.chaos = ChaosSpec::default();
                return Some(s);
            }
            i -= 1;
        }
        if i == 0 && s.partition.is_some() {
            s.partition = None;
            return Some(s);
        }
        None
    }

    /// Serializes to a JSON value.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("id", Value::Num(self.id as f64)),
            ("family", Value::Str(self.family.clone())),
            // Full-range u64: a JSON number (f64) would round it.
            ("seed", Value::Str(self.seed.to_string())),
            ("util", Value::Num(self.util)),
            ("fail_ups", Value::Num(self.fail_ups as f64)),
            ("fail_at_ms", Value::Num(self.fail_at_ms as f64)),
            ("horizon_ms", Value::Num(self.horizon_ms as f64)),
            ("watchdog", Value::Bool(self.watchdog)),
            ("retries", Value::Bool(self.retries)),
            (
                "pipeline_faults",
                Value::Arr(self.pipeline_faults.iter().map(FaultWindow::to_value).collect()),
            ),
            (
                "rm_faults",
                Value::Arr(self.rm_faults.iter().map(FaultWindow::to_value).collect()),
            ),
            (
                "controller_faults",
                Value::Arr(self.controller_faults.iter().map(FaultWindow::to_value).collect()),
            ),
            (
                "stuck_meters",
                Value::Arr(self.stuck_meters.iter().map(StuckMeter::to_value).collect()),
            ),
            ("chaos", self.chaos.to_value()),
            ("fencing", Value::Bool(self.fencing)),
            ("recovery", Value::Bool(self.recovery)),
            (
                "partition",
                self.partition
                    .as_ref()
                    .map_or(Value::Null, PartitionSpec::to_value),
            ),
        ])
    }

    /// Deserializes from a JSON value produced by
    /// [`to_value`](Self::to_value). A scenario whose scripted failure
    /// names a UPS outside [`chaos_room`] is rejected: the simulation
    /// ignores a foreign id, so it would replay with no failover. So is
    /// one whose failure comes at or after its horizon (a `horizon_ms`
    /// of 0 included), which would replay as clean without ever failing,
    /// and one whose horizon exceeds `MAX_HORIZON_MS`, which would keep
    /// the replay busy for simulated years. So is a `util` outside
    /// `[DEMAND_BAND, 1.0]`: rack demand is drawn within `DEMAND_BAND`
    /// of it, and must be a non-negative fraction of the provisioned
    /// power. So is an outage window on a component the room lacks, or
    /// filed in a list other than [`fault_list`]'s, which would replay
    /// with that component always up.
    pub fn from_value(v: &Value) -> Option<Self> {
        let windows = |key: &str| -> Option<Vec<FaultWindow>> {
            v.get(key)?
                .as_arr()?
                .iter()
                .map(|w| FaultWindow::from_value(w).filter(|w| fault_list(w.component) == Some(key)))
                .collect()
        };
        let scenario = Scenario {
            id: v.get("id")?.as_u64()?,
            family: v.get("family")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_str()?.parse().ok()?,
            util: v.get("util")?.as_num()?,
            fail_ups: v.get("fail_ups")?.as_u64()? as usize,
            fail_at_ms: v.get("fail_at_ms")?.as_u64()?,
            horizon_ms: v.get("horizon_ms")?.as_u64()?,
            watchdog: v.get("watchdog")?.as_bool()?,
            retries: v.get("retries")?.as_bool()?,
            pipeline_faults: windows("pipeline_faults")?,
            rm_faults: windows("rm_faults")?,
            controller_faults: windows("controller_faults")?,
            stuck_meters: v
                .get("stuck_meters")?
                .as_arr()?
                .iter()
                .map(StuckMeter::from_value)
                .collect::<Option<Vec<_>>>()?,
            chaos: ChaosSpec::from_value(v.get("chaos")?)?,
            // Reproducers predating these switches parse with the
            // hardened defaults and no partition.
            fencing: v.get("fencing").and_then(|x| x.as_bool()).unwrap_or(true),
            recovery: v.get("recovery").and_then(|x| x.as_bool()).unwrap_or(true),
            partition: match v.get("partition") {
                None | Some(Value::Null) => None,
                Some(p) => Some(PartitionSpec::from_value(p)?),
            },
        };
        let valid = scenario.fail_ups < chaos_room().ups_count
            && (1..=MAX_HORIZON_MS).contains(&scenario.horizon_ms)
            && scenario.fail_at_ms < scenario.horizon_ms
            && (DEMAND_BAND..=1.0).contains(&scenario.util);
        valid.then_some(scenario)
    }

    /// The room's one fault plan: every window of the three lists.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for w in self.pipeline_faults.iter().chain(&self.rm_faults).chain(&self.controller_faults) {
            plan.add_outage(
                w.component,
                SimTime::ZERO + SimDuration::from_millis(w.from_ms),
                SimTime::ZERO + SimDuration::from_millis(w.until_ms),
            );
        }
        plan
    }
}

/// The JSON key of the scenario list that carries `c`'s outage windows,
/// or `None` for a component the chaos room, its telemetry pipeline and
/// its [`CONTROLLERS`] lack.
fn fault_list(c: Component) -> Option<&'static str> {
    let room = chaos_room();
    match c {
        Component::Poller(i) if i < POLLERS => Some("pipeline_faults"),
        Component::Switch(g) if g < SWITCH_GROUPS => Some("pipeline_faults"),
        Component::PubSub(k) if k < PUBSUB_INSTANCES => Some("pipeline_faults"),
        Component::UpsMeter { ups, .. } if ups < room.ups_count => Some("pipeline_faults"),
        Component::RackManager(r) if r < room.rows * room.racks_per_row => Some("rm_faults"),
        Component::Controller(i) if i < CONTROLLERS => Some("controller_faults"),
        _ => None,
    }
}

/// The small, fast room every chaos scenario runs in: 4 × 150 kW UPSes
/// (4N/3, 600 kW provisioned, zero reserve), 8 rows of 5 slots. Small
/// enough that a 75 s closed-loop run takes a few milliseconds, large
/// enough that all three workload categories appear and every UPS
/// carries several racks.
pub fn chaos_room() -> RoomConfig {
    RoomConfig {
        ups_count: 4,
        ups_capacity: Watts::from_kw(150.0),
        rows: 8,
        racks_per_row: 5,
        cooling_cfm_per_slot: 2_500.0,
        pdu_pair_capacity: None,
    }
}

/// Everything the oracle needs from a finished run, alongside the
/// simulation world itself.
pub struct RunOutcome {
    /// The simulation, run to the scenario horizon.
    pub sim: RoomSim,
    /// The scenario that produced it.
    pub scenario: Scenario,
}

impl RunOutcome {
    /// The run's collected statistics.
    pub fn stats(&self) -> &RoomStats {
        &self.sim.world().stats
    }
}

/// Builds the room, demand trace, and placement for a scenario seed.
fn build_placement(seed: u64) -> (Room, DemandTrace, Placement) {
    // A scenario whose room cannot build is a bug in `chaos_room`, not
    // in the system under test; surface it loudly in tests and fall
    // back to an empty room otherwise is not possible, so expect() here
    // would violate discipline — instead the constants above are
    // guarded by the `chaos_room_builds` test.
    let room = match chaos_room().build() {
        Ok(r) => r,
        Err(e) => unreachable!("chaos room constants are static and valid: {e}"),
    };
    // The paper's 20-rack-dominated deployment mix is sized for MW
    // rooms; this room's PDU pairs hold 5-10 slots each, so oversized
    // deployments would all be rejected and the room would sit empty.
    let mut trace_config = TraceConfig::microsoft(room.provisioned_power());
    trace_config.deployment_sizes = vec![(5, 0.4), (3, 0.35), (2, 0.25)];
    // Over-generate so bin-packing rejections don't leave the room
    // half-empty: placement fills until Equations 2/4 bind, which is
    // what puts survivors onto the trip curve during a failover.
    trace_config.target_power = room.provisioned_power() * 2.0;
    let mut rng = RngPool::new(seed).stream("chaos/trace");
    let trace = TraceGenerator::new(trace_config).generate(&mut rng);
    let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
    (room, trace, placement)
}

/// Materializes the chaos room for a scenario seed: placement is part
/// of the deterministic recipe.
fn place_room(seed: u64) -> PlacedRoom {
    let (room, trace, placement) = build_placement(seed);
    PlacedRoom::materialize(&room, &trace, &placement)
}

/// The UPS whose failure puts the worst surviving UPS under the highest
/// *allocated* failover load fraction — the adversarial failure choice
/// for families that need survivors squarely on the trip curve instead
/// of in the mild (hours-long tolerance) region.
fn worst_failover(seed: u64) -> (usize, f64) {
    let (room, trace, placement) = build_placement(seed);
    let mut state = RoomState::new(&room);
    for (id, pair) in &placement.assignments {
        if let Some(d) = trace.deployments().iter().find(|d| d.id() == *id) {
            if state.fits(d, *pair) {
                state.place(d, *pair);
            }
        }
    }
    let topo = room.topology();
    let mut worst = (0usize, 0.0_f64);
    for f in topo.ups_ids() {
        let mut peak = 0.0_f64;
        for u in topo.ups_ids() {
            if u == f {
                continue;
            }
            let Ok(cap) = topo.ups(u).map(|x| x.capacity()) else {
                continue;
            };
            let frac = state.failover_full_load(u, f) / cap;
            if frac > peak {
                peak = frac;
            }
        }
        if peak > worst.1 {
            worst = (f.0, peak);
        }
    }
    worst
}

/// The impact registry and controller configuration every controller
/// of `scenario`'s room runs with.
fn control_setup(scenario: &Scenario, placed: &PlacedRoom) -> (ImpactRegistry, ControllerConfig) {
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &impact_scenarios::realistic_1(),
    );
    let controller = ControllerConfig {
        blackout_watchdog: scenario.watchdog,
        ..ControllerConfig::default()
    };
    (registry, controller)
}

/// Fresh controllers for `scenario`'s room, built as [`run_scenario_obs`]
/// builds them. Fed a recorded run's flight events through
/// [`flex_online::replay::replay_decisions`], they must re-issue
/// exactly the commands the run recorded.
pub fn fresh_controllers(scenario: &Scenario) -> Vec<Controller> {
    let placed = place_room(scenario.seed);
    let (registry, config) = control_setup(scenario, &placed);
    let topo = placed.room().topology();
    (0..CONTROLLERS)
        .map(|i| {
            Controller::new(
                i,
                topo.clone(),
                placed.racks().to_vec(),
                registry.clone(),
                config,
            )
        })
        .collect()
}

/// The run horizon every generator gives a scenario (75 s).
const GENERATED_HORIZON_MS: u64 = 75_000;

/// The longest horizon a replayed scenario may ask for: four times the
/// generators' [`GENERATED_HORIZON_MS`].
const MAX_HORIZON_MS: u64 = 4 * GENERATED_HORIZON_MS;

/// Half-width of the band around [`Scenario::util`] that each rack's
/// demand is drawn from, as a fraction of its provisioned power.
const DEMAND_BAND: f64 = 0.02;

/// Runs a scenario to its horizon and returns the world for the oracle.
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    run_scenario_obs(scenario, &flex_obs::Obs::noop())
}

/// Like [`run_scenario`], but streams the run's metrics, spans, and
/// flight events into `obs`. Recording never touches RNG streams or
/// event ordering, so the simulation outcome is bit-identical to the
/// uninstrumented run — the dump is a pure annotation.
pub fn run_scenario_obs(scenario: &Scenario, obs: &flex_obs::Obs) -> RunOutcome {
    let placed = place_room(scenario.seed);
    let (registry, controller) = control_setup(scenario, &placed);
    let util = scenario.util;
    let demand: DemandFn = Box::new(move |rack, _, rng: &mut SmallRng| {
        rack.provisioned * rng.gen_range((util - DEMAND_BAND)..(util + DEMAND_BAND))
    });
    let config = RoomSimConfig {
        controllers: CONTROLLERS,
        controller,
        actuator: ActuatorConfig {
            max_retries: if scenario.retries {
                ActuatorConfig::default().max_retries
            } else {
                0
            },
            fencing: scenario.fencing,
        },
        delivery_chaos: scenario.chaos.to_delivery_chaos(),
        recovery: scenario.recovery,
        seed: scenario.seed,
        obs: obs.clone(),
        ..RoomSimConfig::default()
    };
    let mut sim = RoomSim::new(&placed, registry, demand, config);
    if let Some(p) = &scenario.partition {
        sim.world_mut().set_partition(Some(p.to_sim()));
    }
    sim.world_mut().set_fault_plan(scenario.fault_plan());
    for s in &scenario.stuck_meters {
        let Some(&kind) = MeterKind::ALL.get(s.kind) else {
            continue;
        };
        let ups = UpsId(s.ups);
        let from = SimTime::ZERO + SimDuration::from_millis(s.from_ms);
        let until = SimTime::ZERO + SimDuration::from_millis(s.until_ms);
        sim.stick_meter_at(from, ups, kind, until);
    }
    sim.fail_ups_at(
        SimTime::ZERO + SimDuration::from_millis(scenario.fail_at_ms),
        UpsId(scenario.fail_ups),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(scenario.horizon_ms));
    RunOutcome {
        sim,
        scenario: scenario.clone(),
    }
}

/// The scenario generator families, in campaign round-robin order.
pub const FAMILIES: [&str; 8] = [
    "random_soup",
    "blackout_at_failover",
    "rm_blackout_shutdown_class",
    "controller_crash_mid_shed",
    "meter_stuck_low",
    "dup_reorder",
    "restart_storm",
    "split_brain",
];

/// Generates scenario `index` of a campaign rooted at `campaign_seed`.
///
/// Families rotate round-robin so every campaign prefix covers all
/// eight; each scenario derives an independent RNG stream, so campaigns
/// are reproducible from `(campaign_seed, index)` alone.
pub fn generate(campaign_seed: u64, index: u64) -> Scenario {
    let pool = RngPool::new(campaign_seed);
    let mut rng = pool.indexed_stream("chaos/scenario", index);
    let family = FAMILIES[(index as usize) % FAMILIES.len()];
    let mut s = Scenario {
        id: index,
        family: family.to_string(),
        seed: rng.gen::<u64>(),
        util: 0.85,
        fail_ups: rng.gen_range(0..chaos_room().ups_count),
        fail_at_ms: 20_000,
        horizon_ms: GENERATED_HORIZON_MS,
        watchdog: true,
        retries: true,
        pipeline_faults: Vec::new(),
        rm_faults: Vec::new(),
        controller_faults: Vec::new(),
        stuck_meters: Vec::new(),
        chaos: ChaosSpec::default(),
        fencing: true,
        recovery: true,
        partition: None,
    };
    match family {
        "random_soup" => random_soup(&mut s, &mut rng),
        "blackout_at_failover" => blackout_at_failover(&mut s, &mut rng),
        "rm_blackout_shutdown_class" => rm_blackout_shutdown_class(&mut s, &mut rng),
        "controller_crash_mid_shed" => controller_crash_mid_shed(&mut s, &mut rng),
        "meter_stuck_low" => meter_stuck_low(&mut s, &mut rng),
        "dup_reorder" => dup_reorder(&mut s, &mut rng),
        "restart_storm" => restart_storm(&mut s, &mut rng),
        _ => split_brain(&mut s, &mut rng),
    }
    s
}

/// MTBF/MTTR-sampled outages across every component class at once: the
/// background-noise family. Outage *rates* are exaggerated far beyond
/// production (MTBF of minutes, not months) so a 75 s run actually
/// exercises the fault paths; *durations* are kept short enough that
/// the hardened loop is expected to ride every combination out.
fn random_soup(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.78..0.88);
    let horizon = s.horizon_ms;
    // Telemetry components: MTBF ~40 s, MTTR ~3 s.
    let room = chaos_room();
    // The fabric interleaves by instance: poller, pub/sub, switch.
    let mut telemetry_targets: Vec<Component> = Vec::new();
    for i in 0..POLLERS.max(PUBSUB_INSTANCES).max(SWITCH_GROUPS) {
        let fabric = [Component::Poller(i), Component::PubSub(i), Component::Switch(i)];
        telemetry_targets.extend(fabric.into_iter().filter(|&c| fault_list(c).is_some()));
    }
    for ups in 0..room.ups_count {
        telemetry_targets.extend(MeterKind::ALL.map(|kind| Component::UpsMeter { ups, kind }));
    }
    for component in telemetry_targets {
        sample_outages(&mut s.pipeline_faults, component, horizon, 40_000.0, 3_000.0, rng);
    }
    // Rack managers: at most 15% of racks fault at all, MTTR ~2.5 s.
    let rack_count = room.rows * room.racks_per_row;
    let rm_candidates = rack_count / 7;
    for _ in 0..rm_candidates {
        let r = rng.gen_range(0..rack_count);
        sample_outages(
            &mut s.rm_faults,
            Component::RackManager(r),
            horizon,
            50_000.0,
            2_500.0,
            rng,
        );
    }
    // One controller may crash and come back.
    let c = rng.gen_range(0..CONTROLLERS);
    sample_outages(
        &mut s.controller_faults,
        Component::Controller(c),
        horizon,
        60_000.0,
        5_000.0,
        rng,
    );
    // Mild delivery chaos rides along half the time.
    if rng.gen_bool(0.5) {
        s.chaos = ChaosSpec {
            duplicate_period: rng.gen_range(3..9),
            duplicate_delay_ms: rng.gen_range(50..400),
            delay_period: rng.gen_range(4..11),
            delay_ms: rng.gen_range(100..600),
        };
    }
}

/// Exponential(MTBF)/Exponential(MTTR) outage sampling over a horizon.
fn sample_outages(
    out: &mut Vec<FaultWindow>,
    component: Component,
    horizon_ms: u64,
    mtbf_ms: f64,
    mttr_ms: f64,
    rng: &mut SmallRng,
) {
    let mut t = 0.0_f64;
    let horizon = horizon_ms as f64;
    loop {
        // Inverse-CDF exponential draws; `1 - gen` keeps ln() finite.
        t += -mtbf_ms * (1.0 - rng.gen::<f64>()).ln();
        if t >= horizon {
            return;
        }
        let dur = (-mttr_ms * (1.0 - rng.gen::<f64>()).ln()).min(4.0 * mttr_ms);
        let from = t as u64;
        let until = ((t + dur) as u64).min(horizon_ms);
        if until > from {
            out.push(FaultWindow {
                component,
                from_ms: from,
                until_ms: until,
            });
        }
        t += dur;
    }
}

/// The adversarial headline scenario: every telemetry path goes dark at
/// the instant of failover and stays dark well past the trip-curve
/// tolerance. Without the blackout watchdog the controllers hold their
/// last healthy view while the survivors cook; with it they shed blind
/// off the out-of-band alarm.
fn blackout_at_failover(s: &mut Scenario, rng: &mut SmallRng) {
    // Fail the UPS whose loss lands the heaviest allocated failover
    // load on a survivor: an arbitrary choice usually yields a ~1.1x
    // overload with an hours-long tolerance, which no 30 s blackout can
    // convert into a trip.
    let (fail_ups, worst_frac) = worst_failover(s.seed);
    s.fail_ups = fail_ups;
    // Solve for a demand level that puts that survivor at ~1.27-1.35x
    // rated: trip tolerance 8-18 s on the end-of-life curve — long
    // enough that the watchdog's worst-case response chain (4 s
    // blackout deadline + 0.5 s poll + ~1 s actuation) beats it, short
    // enough that the >=28 s blackout always outlasts it unhardened.
    let target = rng.gen_range(1.27..1.35);
    s.util = (target / worst_frac.max(1.0)).clamp(0.70, 0.97);
    let from = s.fail_at_ms.saturating_sub(rng.gen_range(0..300));
    let until = s.fail_at_ms + rng.gen_range(28_000..45_000);
    for p in 0..POLLERS {
        s.pipeline_faults.push(FaultWindow {
            component: Component::Poller(p),
            from_ms: from,
            until_ms: until,
        });
    }
}

/// RM unreachability on exactly the racks the policy wants to shut
/// down: every software-redundant rack's manager is dark for a few
/// seconds after the failover. Bounded retries ride it out; the
/// no-retry configuration drops commands on the floor and leans on the
/// next decision round.
fn rm_blackout_shutdown_class(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.84..0.90);
    let from = s.fail_at_ms;
    let until = s.fail_at_ms + rng.gen_range(3_000..6_000);
    // Which racks are software-redundant is a function of the seed;
    // materialize the placement to find them.
    let placed = place_room(s.seed);
    for r in placed.racks() {
        if r.category == WorkloadCategory::SoftwareRedundant {
            s.rm_faults.push(FaultWindow {
                component: Component::RackManager(r.id.0),
                from_ms: from,
                until_ms: until,
            });
        }
    }
}

/// Controller crash mid-shed: instances die in a staggered window
/// around the failover — including patterns where all three are briefly
/// down — and recover later. The survivors (or the revenants) must
/// finish the episode.
fn controller_crash_mid_shed(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.84..0.92);
    for c in 0..CONTROLLERS {
        if rng.gen_bool(0.75) {
            let from = s.fail_at_ms + rng.gen_range(0..2_500);
            let until = from + rng.gen_range(4_000..20_000);
            s.controller_faults.push(FaultWindow {
                component: Component::Controller(c),
                from_ms: from,
                until_ms: until.min(s.horizon_ms),
            });
        }
    }
}

/// Meter stuck biased-low: one logical meter of the failed-over
/// survivor freezes at its pre-failover reading and a second meter of
/// the same UPS drops out, so the 2-reading consensus averages the lie
/// in. The loop under-sheds at first and must converge once the meter
/// thaws — before the (slackened) trip window runs out.
fn meter_stuck_low(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.80..0.88);
    // Stick a meter on a *surviving* UPS (the failed one reads zero).
    let room = chaos_room();
    let victim = (s.fail_ups + 1 + rng.gen_range(0..room.ups_count - 1)) % room.ups_count;
    let kinds = MeterKind::ALL.len();
    let kind = rng.gen_range(0..kinds);
    let dead_kind = (kind + 1 + rng.gen_range(0..kinds - 1)) % kinds;
    let thaw = s.fail_at_ms + rng.gen_range(4_000..7_000);
    s.stuck_meters.push(StuckMeter {
        ups: victim,
        kind,
        from_ms: s.fail_at_ms.saturating_sub(100),
        until_ms: thaw,
    });
    s.pipeline_faults.push(FaultWindow {
        component: Component::UpsMeter { ups: victim, kind: MeterKind::ALL[dead_kind] },
        from_ms: s.fail_at_ms.saturating_sub(100),
        until_ms: thaw,
    });
}

/// Aggressive pub/sub duplication and reordering through the failover:
/// every other delivery is duplicated late, every third delayed past
/// its successors. Measured-at-keyed state updates must make this a
/// no-op for correctness.
fn dup_reorder(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.84..0.92);
    s.chaos = ChaosSpec {
        duplicate_period: rng.gen_range(2..4),
        duplicate_delay_ms: rng.gen_range(200..1_500),
        delay_period: rng.gen_range(2..5),
        delay_ms: rng.gen_range(300..1_800),
    };
}

/// Restart storm: every controller instance crashes in a staggered,
/// overlapping window after the shed completes, while the managers of
/// the shutdown-class racks flap long enough that some enforcement
/// chains are still backing off when their issuer dies. With fencing
/// and recovery the revenants adopt the enforced racks and the orphaned
/// chains are fenced at resubmission; the ablated loop leaves `Off`
/// racks nobody owns and lets mid-backoff commands land under a
/// superseded epoch.
fn restart_storm(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.85..0.91);
    // RM darkness over the shutdown class forces retry chains whose
    // lifetime (up to ~10 s of deterministic backoff) straddles the
    // crash windows below.
    let placed = place_room(s.seed);
    // Dark when the very first shed command goes out, back ~5 s in:
    // the trip deadline (~10 s of contiguous overload) stays reachable
    // for fenced re-issues, so a correct system survives.
    let rm_from = s.fail_at_ms.saturating_sub(rng.gen_range(0..500));
    let rm_until = s.fail_at_ms + rng.gen_range(4_000..5_500);
    for r in placed.racks() {
        if r.category == WorkloadCategory::SoftwareRedundant {
            s.rm_faults.push(FaultWindow {
                component: Component::RackManager(r.id.0),
                from_ms: rm_from,
                until_ms: rm_until.min(s.horizon_ms),
            });
        }
    }
    // Staggered short crash windows, each starting mid-backoff of the
    // retry chains born at the alarm; the restarts bump epochs while
    // those chains are still live, so their tails arrive superseded.
    // The stagger keeps the overlap brief and every instance back well
    // before the trip deadline.
    for c in 0..CONTROLLERS {
        let from = s.fail_at_ms + 1_200 + c as u64 * 1_000 + rng.gen_range(0..600);
        let until = from + rng.gen_range(2_000..3_000);
        s.controller_faults.push(FaultWindow {
            component: Component::Controller(c),
            from_ms: from,
            until_ms: until.min(s.horizon_ms),
        });
    }
}

/// Split brain: a pub/sub partition pins instance 0 to channel 0 while
/// the other channel is down, so instances 1 and 2 hear nothing at all
/// while 0 keeps acting on a live view — and 0 itself crashes briefly
/// mid-episode. Hardened, the dark side blind-sheds off the alarm, is
/// declared isolated (fencing any stragglers), and recovers into a
/// caught-up view; the healed room converges with bounded over-shed.
/// Ablated, instance 0's targeted actions are forgotten across its
/// blank restart and the dark side cannot reconcile.
fn split_brain(s: &mut Scenario, rng: &mut SmallRng) {
    s.util = rng.gen_range(0.84..0.90);
    let from = s.fail_at_ms.saturating_sub(1_000);
    let until = s.fail_at_ms + rng.gen_range(15_000..25_000);
    s.partition = Some(PartitionSpec {
        from_ms: from,
        until_ms: until,
        side_a: vec![0],
    });
    s.pipeline_faults.push(FaultWindow {
        component: Component::PubSub(1),
        from_ms: from,
        until_ms: until,
    });
    // The healthy-side instance dies briefly mid-shed and must come
    // back owning what it did.
    let crash_from = s.fail_at_ms + rng.gen_range(4_000..7_000);
    let crash_until = crash_from + rng.gen_range(2_000..4_000);
    s.controller_faults.push(FaultWindow {
        component: Component::Controller(0),
        from_ms: crash_from,
        until_ms: crash_until.min(s.horizon_ms),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_obs::json;

    #[test]
    fn chaos_room_builds() {
        let room = chaos_room().build().expect("static room config");
        assert_eq!(room.topology().ups_count(), 4);
        assert!(room.total_slots() >= 32);
    }

    #[test]
    fn scenario_json_roundtrip_is_lossless() {
        // Every family, at several campaign seeds: each window's
        // component parses back and sits in the list it came from.
        for seed in [0xC4A05, 0xC4005, 1, 7] {
            for i in 0..2 * FAMILIES.len() as u64 {
                let s = generate(seed, i);
                let text = s.to_value().to_json();
                let back = Scenario::from_value(&json::parse(&text).expect("parses"))
                    .expect("decodes");
                assert_eq!(back, s, "seed {seed} scenario {i}");
            }
        }
        // The bounds are inclusive where a run can still fail: the
        // longest horizon, with the failure in its last millisecond.
        let mut s = Scenario::baseline(1);
        s.horizon_ms = MAX_HORIZON_MS;
        s.fail_at_ms = MAX_HORIZON_MS - 1;
        let back = Scenario::from_value(&json::parse(&s.to_value().to_json()).expect("parses"));
        assert_eq!(back, Some(s));
    }

    #[test]
    fn atoms_that_cannot_act_do_not_parse() {
        // A replayed file with a window that ends at or before its start
        // must be refused, not reach `FaultPlan::add_outage` and panic;
        // a stuck meter or a failure the room ignores must be refused,
        // not replay without its fault; a utilization outside
        // `[DEMAND_BAND, 1]` must be refused, not panic in the demand
        // draw or run on negative demand; a failure at or past the
        // horizon, or a horizon of 0 or past `MAX_HORIZON_MS`, must be
        // refused, not replay clean or run for simulated years. So must
        // an outage of a component the room lacks, or one filed in the
        // wrong list, and a partition that ends before it starts or
        // pins an instance the room lacks: each would replay as if
        // that fault were absent.
        let at = |component, until_ms| FaultWindow { component, from_ms: 1_000, until_ms };
        let window = |until_ms| at(Component::Poller(0), until_ms);
        let outage = |component| at(component, 2_000);
        let meter = StuckMeter { ups: 1, kind: 0, from_ms: 1_000, until_ms: 2_000 };
        let room = chaos_room();
        let (ups, racks) = (room.ups_count, room.rows * room.racks_per_row);
        let kind = MeterKind::ALL.len();
        let partition = PartitionSpec { from_ms: 1_000, until_ms: 2_000, side_a: vec![0] };
        let edits: [&dyn Fn(&mut Scenario); 24] = [
            &|s| s.pipeline_faults.push(window(999)),
            &|s| s.pipeline_faults.push(window(1_000)),
            &|s| s.pipeline_faults.push(outage(Component::Poller(POLLERS))),
            &|s| s.pipeline_faults.push(outage(Component::Switch(SWITCH_GROUPS))),
            &|s| s.pipeline_faults.push(outage(Component::PubSub(PUBSUB_INSTANCES))),
            &|s| {
                let kind = MeterKind::UpsOutput;
                s.pipeline_faults.push(outage(Component::UpsMeter { ups, kind }))
            },
            &|s| s.rm_faults.push(outage(Component::RackManager(racks))),
            &|s| s.controller_faults.push(outage(Component::Controller(CONTROLLERS))),
            &|s| s.rm_faults.push(outage(Component::Poller(1))),
            &|s| s.pipeline_faults.push(outage(Component::RackManager(0))),
            &|s| s.pipeline_faults.push(outage(Component::Controller(0))),
            &|s| s.partition = Some(PartitionSpec { until_ms: 1_000, ..partition.clone() }),
            &|s| s.partition = Some(PartitionSpec { side_a: vec![0, 9], ..partition.clone() }),
            &|s| s.stuck_meters.push(StuckMeter { ups, ..meter.clone() }),
            &|s| s.stuck_meters.push(StuckMeter { kind, ..meter.clone() }),
            &|s| s.stuck_meters.push(StuckMeter { until_ms: 1_000, ..meter.clone() }),
            &|s| s.fail_ups = ups,
            &|s| s.util = 1e30,
            &|s| s.util = -0.5,
            &|s| s.util = 0.0,
            &|s| s.fail_at_ms = s.horizon_ms,
            &|s| s.fail_at_ms = 10_000_000_000_000,
            &|s| s.horizon_ms = 0,
            &|s| s.horizon_ms = MAX_HORIZON_MS + 1,
        ];
        for edit in edits {
            let mut s = Scenario::baseline(1);
            edit(&mut s);
            let v = json::parse(&s.to_value().to_json()).expect("parses");
            assert_eq!(Scenario::from_value(&v), None, "{s:?}");
        }
        // A component that does not parse is refused with its window.
        let mut s = Scenario::baseline(1);
        s.pipeline_faults.push(outage(Component::Poller(1)));
        let text = s.to_value().to_json();
        assert!(Scenario::from_value(&json::parse(&text).expect("parses")).is_some());
        for misspelt in ["poler/1", "poller/01", "Poller/1", "poller/1 "] {
            let text = text.replace("poller/1", misspelt);
            let v = json::parse(&text).expect("parses");
            assert_eq!(Scenario::from_value(&v), None, "{misspelt:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for i in 0..6 {
            assert_eq!(generate(7, i), generate(7, i));
        }
    }

    #[test]
    fn families_rotate_round_robin() {
        for (i, f) in FAMILIES.iter().enumerate() {
            assert_eq!(generate(1, i as u64).family, *f);
        }
    }

    #[test]
    fn atom_removal_enumerates_every_atom() {
        let s = generate(3, 0); // random_soup: plenty of atoms
        assert!(s.atom_count() > 0);
        for i in 0..s.atom_count() {
            let reduced = s.without_atom(i).expect("in range");
            assert_eq!(reduced.atom_count(), s.atom_count() - 1, "atom {i}");
        }
        assert!(s.without_atom(s.atom_count()).is_none());
    }

    #[test]
    fn baseline_run_stays_safe() {
        let out = run_scenario(&Scenario::baseline(11));
        assert!(!out.stats().cascaded(), "events: {:?}", out.stats().events);
    }
}
