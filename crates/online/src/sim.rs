//! The integrated room simulation: placement + telemetry + controllers +
//! actuation + UPS overload physics on one deterministic event loop.
//!
//! This is the engine behind the paper's end-to-end experiment (Figure
//! 13) and the §VI latency measurements: a placed room runs synthetic
//! demand, a scripted UPS failure transfers load, the telemetry pipeline
//! carries the overdraw to the controllers, Algorithm 1 picks corrective
//! actions, the rack managers enforce them — all racing the UPS overload
//! accumulators, which will trip survivors and cascade the room to
//! blackout if shedding arrives too late.

use std::collections::BTreeMap;

use flex_obs::{Counter, FlightEvent, Gauge, Obs, Span};
use flex_placement::{PlacedRack, PlacedRoom, RackId};
use flex_power::meter::GroundTruth;
use flex_power::trip_curve::{OverloadAccumulator, TripCurve};
use flex_power::{FeedState, LoadModel, Topology, UpsId, UpsLoads, Watts};
use flex_sim::fault::{names as fault_names, FaultPlan, ResolvedPlan};
use flex_sim::rng::RngPool;
use flex_sim::stats::TimeSeries;
use flex_sim::{Ctx, Event, Sim, SimDuration, SimTime};
use flex_telemetry::{Delivery, Pipeline, PipelineConfig, TelemetryPayload};
use rand::rngs::SmallRng;

use crate::actuation::PendingCommand;
use crate::recovery::{BufferedDelivery, CatchUpBuffer, RecoverySnapshot};
use crate::{
    state_code, Actuator, ActuatorConfig, Command, Controller, ControllerConfig, ImpactRegistry,
    RackPowerState, Submission,
};

/// Per-rack demand source: what the rack *wants* to draw at a given time
/// (the actuator then caps or zeroes it).
pub type DemandFn = Box<dyn FnMut(&PlacedRack, SimTime, &mut SmallRng) -> Watts>;

/// Deterministic pub/sub misbehavior injected at delivery time:
/// duplication and reordering, counter-based so identical runs replay
/// identically. All periods `0` = disabled.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeliveryChaos {
    /// Deliver every Nth message twice (`0` = never). The duplicate
    /// arrives [`duplicate_delay`](Self::duplicate_delay) after the
    /// original's nominal arrival.
    pub duplicate_period: u64,
    /// Extra arrival delay of the duplicated copy.
    pub duplicate_delay: SimDuration,
    /// Delay every Nth message by [`delay_by`](Self::delay_by) (`0` =
    /// never). A delayed message can arrive after later-measured ones —
    /// reordering, not just lag.
    pub delay_period: u64,
    /// Delay amount for the delayed messages.
    pub delay_by: SimDuration,
}

impl DeliveryChaos {
    /// No chaos (the default).
    pub fn off() -> Self {
        DeliveryChaos::default()
    }
}

/// Room simulation configuration.
pub struct RoomSimConfig {
    /// Telemetry pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Controller parameters (shared by all instances).
    pub controller: ControllerConfig,
    /// Actuation parameters.
    pub actuator: ActuatorConfig,
    /// Number of multi-primary controller instances. A delivery's
    /// receiver mask (recorded for replay) is a `u32`, so only the first
    /// 32 instances receive telemetry; any further ones still get
    /// alarms and watchdog ticks but never a delivery.
    pub controllers: usize,
    /// How often rack demand is re-sampled.
    pub demand_update_interval: SimDuration,
    /// How often the power series are recorded.
    pub stats_interval: SimDuration,
    /// Resolution of the UPS overload integration.
    pub overload_step: SimDuration,
    /// UPS overload tolerance curve.
    pub trip_curve: TripCurve,
    /// Damage recovery time at tolerable load (seconds).
    pub damage_recovery_secs: f64,
    /// How often each controller's blackout watchdog is ticked.
    pub watchdog_poll_interval: SimDuration,
    /// Latency of the out-of-band failover alarm from a UPS to the
    /// controllers (independent of the metering pipeline).
    pub alarm_latency: SimDuration,
    /// Pub/sub duplication/reordering injection.
    pub delivery_chaos: DeliveryChaos,
    /// Whether restarted (or isolation-declared) instances rebuild via
    /// the deterministic recovery protocol (snapshot + catch-up replay,
    /// see [`crate::recovery`]). With this off they come back blank —
    /// the ablated mode the chaos A/B probes exercise.
    pub recovery: bool,
    /// How long an instance may go without a single telemetry delivery
    /// — while some peer *is* receiving — before the supervisor
    /// declares it isolated, bumps its epoch (fencing its in-flight
    /// commands), and schedules a rebuild. Strictly longer than the
    /// controller's 4 s blackout deadline so a room-wide dark window
    /// still triggers the blind shed unfenced: isolation requires a
    /// *divergence* between instances, not mere darkness.
    pub isolation_deadline: SimDuration,
    /// Root seed for all stochastic components.
    pub seed: u64,
    /// Observability: metrics, spans, and the flight recorder are wired
    /// through the whole control path when this handle records. The
    /// default noop handle costs one `None` check per site, and
    /// recording never touches RNG streams or scheduling, so outcomes
    /// are bit-identical either way.
    pub obs: Obs,
}

impl Default for RoomSimConfig {
    fn default() -> Self {
        RoomSimConfig {
            pipeline: PipelineConfig::production(),
            controller: ControllerConfig::default(),
            actuator: ActuatorConfig::default(),
            controllers: 3,
            demand_update_interval: SimDuration::from_secs(5),
            stats_interval: SimDuration::from_secs(1),
            overload_step: SimDuration::from_millis(250),
            trip_curve: TripCurve::end_of_life(),
            damage_recovery_secs: 60.0,
            watchdog_poll_interval: SimDuration::from_millis(500),
            alarm_latency: SimDuration::from_millis(200),
            delivery_chaos: DeliveryChaos::off(),
            recovery: true,
            isolation_deadline: SimDuration::from_secs(9),
            seed: 0xF1EC,
            obs: Obs::noop(),
        }
    }
}

/// Notable events recorded during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A scripted UPS failure.
    UpsFailed(UpsId),
    /// A scripted UPS restoration.
    UpsRestored(UpsId),
    /// A UPS tripped from sustained overload (cascade!).
    UpsTripped(UpsId),
    /// A controller issued its first corrective command of an episode.
    FirstCommand {
        /// The issuing controller.
        controller: usize,
    },
    /// A corrective/restore command took effect on a rack.
    Applied {
        /// The rack affected.
        rack: RackId,
        /// Its new state.
        state: RackPowerState,
    },
    /// A rejected submission (unreachable RM) was queued for retry.
    RetryScheduled {
        /// The target rack.
        rack: RackId,
        /// The submission attempt that just failed (1-based).
        attempt: u32,
    },
    /// A command was abandoned after exhausting its retry budget.
    EnforcementDropped {
        /// The target rack.
        rack: RackId,
    },
    /// The actuation layer rejected a command carrying an epoch older
    /// than the newest it has seen from that instance.
    CommandFenced {
        /// The superseded issuer.
        controller: usize,
        /// The target rack (no state change happened).
        rack: RackId,
    },
    /// A command tagged stale (old epoch) was applied anyway because
    /// fencing is disabled — the violation the fencing oracle clause
    /// looks for in ablated runs.
    StaleApplied {
        /// The rack that transitioned on a stale command.
        rack: RackId,
    },
}

/// A pub/sub partition window: during `[from, until)`, instances in
/// `side_a` receive only deliveries carried by pub/sub channel 0, and
/// every other instance only deliveries from the remaining channels.
/// The two sides build divergent telemetry views until the heal.
#[derive(Debug, Clone, PartialEq)]
pub struct PubSubPartition {
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive) — the heal instant.
    pub until: SimTime,
    /// Controller instances on the channel-0 side.
    pub side_a: Vec<usize>,
}

impl PubSubPartition {
    /// Whether instance `i` can see a delivery on `pubsub` at `at`.
    fn visible(&self, i: usize, pubsub: usize, at: SimTime) -> bool {
        if at < self.from || at >= self.until {
            return true;
        }
        if self.side_a.contains(&i) {
            pubsub == 0
        } else {
            pubsub != 0
        }
    }
}

/// Statistics collected during a run.
pub struct RoomStats {
    /// Per-UPS power as a fraction of capacity, over time.
    pub ups_fraction: Vec<TimeSeries>,
    /// Total effective rack power over time (watts).
    pub total_power: TimeSeries,
    /// Event log.
    pub events: Vec<(SimTime, SimEvent)>,
    /// Detection latency: scripted failure → first command issued.
    pub detection_latency: Vec<SimDuration>,
}

impl RoomStats {
    fn new(ups_count: usize) -> Self {
        RoomStats {
            ups_fraction: (0..ups_count).map(|_| TimeSeries::new()).collect(),
            total_power: TimeSeries::new(),
            events: Vec::new(),
            detection_latency: Vec::new(),
        }
    }

    /// Count of events matching a predicate.
    pub fn count_events<F: Fn(&SimEvent) -> bool>(&self, f: F) -> usize {
        self.events.iter().filter(|(_, e)| f(e)).count()
    }

    /// True if any UPS tripped from overload (safety violated).
    pub fn cascaded(&self) -> bool {
        self.count_events(|e| matches!(e, SimEvent::UpsTripped(_))) > 0
    }
}

/// The world's own observability instruments (all noop unless the
/// config carried a recording [`Obs`]).
struct SimObs {
    obs: Obs,
    commands_issued: Counter,
    retries: Counter,
    enforcement_drops: Counter,
    applies: Counter,
    /// Scripted failure → first corrective command, per episode.
    detect: Span,
    /// Per-UPS remaining trip-budget margin (index = UPS id).
    trip_margin: Vec<Gauge>,
}

impl SimObs {
    fn new(obs: Obs, ups_count: usize) -> Self {
        SimObs {
            commands_issued: obs.counter("online/commands_issued"),
            retries: obs.counter("actuation/retries"),
            enforcement_drops: obs.counter("actuation/enforcement_drops"),
            applies: obs.counter("actuation/applies"),
            detect: obs.span("span/detect/failure_to_first_command"),
            trip_margin: (0..ups_count)
                .map(|i| obs.gauge(&format!("power/trip_margin/ups{i}")))
                .collect(),
            obs,
        }
    }
}

/// The effective power a rack draws from the current inputs.
fn rack_draw(
    topo: &Topology,
    feed: &FeedState,
    demand: &[Watts],
    actuator: &Actuator,
    r: &PlacedRack,
) -> Watts {
    // A rack referencing a pair outside the topology cannot draw from
    // any feed; treat it like a dead pair.
    let Ok(pair) = topo.pdu_pair(r.pdu_pair) else {
        return Watts::ZERO;
    };
    // A rack whose PDU-pair lost both feeds draws nothing.
    if feed.pair_feed(pair) == flex_power::PairFeed::Dead {
        return Watts::ZERO;
    }
    // A rack id always indexes `demand` (both are built from the same
    // placement), but degrade to zero rather than panic mid-event-loop
    // (lint rule P1).
    let demand = demand.get(r.id.0).copied().unwrap_or(Watts::ZERO);
    actuator.effective_power(r.id, demand, r.flex_power)
}

/// Instance `i`'s bit in a delivery's receiver mask: the mask is a
/// `u32`, so instances from 32 on have no bit and never receive
/// telemetry. The mask and the delivery loop both test visibility
/// through this, so no instance acts on a delivery its recorded mask
/// says it never saw.
fn receiver_bit(i: usize) -> u32 {
    if i < 32 {
        1 << i
    } else {
        0
    }
}

/// The scheduling context of a room event.
type RoomCtx = Ctx<RoomWorld, RoomEvent>;

/// Everything that happens in a room, dispatched by one `match` in
/// [`Event::fire`]. Events fire in `(time, scheduling order)`, and every
/// handler schedules its follow-ups in a fixed order, so a run is
/// reproducible event for event. Only [`RoomEvent::World`] holds a box.
enum RoomEvent {
    /// Recurring UPS poll.
    UpsTick,
    /// Recurring rack poll.
    RackTick,
    /// Recurring demand resample.
    DemandTick,
    /// Recurring overload integration.
    OverloadTick,
    /// Recurring statistics sample.
    StatsTick,
    /// Recurring controller watchdog.
    WatchdogTick,
    /// A telemetry delivery reaching the controller instances.
    Arrival(Arrival),
    /// A rack manager enforcing an accepted command.
    Apply(PendingCommand),
    /// The next attempt of a rejected submission.
    Retry(Retry),
    /// The out-of-band alarm of a UPS loss reaching the controllers.
    FailoverAlarm(UpsId),
    /// A scripted UPS failure.
    FailUps(UpsId),
    /// A scripted UPS restoration.
    RestoreUps(UpsId),
    /// The notice of a UPS restoration reaching the controllers.
    RestoreAlarm(UpsId),
    /// An arbitrary world mutation (targeted fault injection).
    World(Box<dyn FnOnce(&mut RoomWorld)>),
}

/// One copy of a telemetry delivery in flight to the controllers.
struct Arrival {
    /// The pipeline's publication sequence number.
    seq: u64,
    measured_at: SimTime,
    pubsub: usize,
    payload: TelemetryPayload,
}

/// A rejected submission waiting out its backoff.
struct Retry {
    controller: usize,
    /// The epoch the command was born with.
    epoch: u64,
    cmd: Command,
    /// The attempt that just failed (1-based).
    attempt: u32,
    /// The retry-chain generation (see `RoomWorld::retry_gen`).
    gen: u64,
}

impl Event<RoomWorld> for RoomEvent {
    fn fire(self, w: &mut RoomWorld, ctx: &mut RoomCtx) {
        match self {
            RoomEvent::UpsTick => ups_tick(w, ctx),
            RoomEvent::RackTick => rack_tick(w, ctx),
            RoomEvent::DemandTick => demand_tick(w, ctx),
            RoomEvent::OverloadTick => overload_tick(w, ctx),
            RoomEvent::StatsTick => stats_tick(w, ctx),
            RoomEvent::WatchdogTick => watchdog_tick(w, ctx),
            RoomEvent::Arrival(a) => deliver(w, ctx, a),
            RoomEvent::Apply(p) => w.apply(p),
            RoomEvent::Retry(r) => retry(w, ctx, r),
            RoomEvent::FailoverAlarm(ups) => failover_alarm(w, ctx.now(), ups),
            RoomEvent::FailUps(ups) => fail_ups(w, ctx, ups),
            RoomEvent::RestoreUps(ups) => restore_ups(w, ctx, ups),
            RoomEvent::RestoreAlarm(ups) => restore_alarm(w, ctx.now(), ups),
            RoomEvent::World(f) => f(w),
        }
    }
}

/// The simulation world.
pub struct RoomWorld {
    topo: Topology,
    racks: Vec<PlacedRack>,
    demand_fn: DemandFn,
    demand: Vec<Watts>,
    pipeline: Pipeline,
    controllers: Vec<Controller>,
    actuator: Actuator,
    feed: FeedState,
    /// Cached effective power of each rack (index = rack id) and the
    /// per-UPS loads it produces under `feed` (the ground truth the UPS
    /// meters read). Both are recomputed from scratch by
    /// [`refresh_power`](Self::refresh_power) at every mutation of their
    /// inputs — demand resample, actuator apply, feed change — and read
    /// directly by the ticks.
    rack_power: Vec<Watts>,
    truth: GroundTruth,
    /// The pair-load model `refresh_power` refills, built once so a
    /// refresh does not clone the topology.
    load_model: LoadModel,
    accumulators: Vec<OverloadAccumulator>,
    rng: SmallRng,
    /// Time of the most recent scripted failure with no command yet.
    pending_detection: Option<SimTime>,
    /// Controller-instance availability (crash injection): the plan
    /// resolved over the `"controller/{i}"` names, by instance.
    controller_faults: ResolvedPlan,
    /// Out-of-band alarm latency (copied from the config).
    alarm_latency: SimDuration,
    /// Delivery duplication/reordering injection.
    chaos: DeliveryChaos,
    /// Monotone delivery counter driving the chaos periods.
    delivery_seq: u64,
    /// Per-(controller, rack) submission generation: a retry chain
    /// carries the generation it was born with and abandons itself when
    /// a newer command for the same rack supersedes it.
    retry_gen: BTreeMap<(usize, RackId), u64>,
    /// Per-rack count of scheduled-but-unfinished enforcements
    /// (in-flight applies plus queued retries). The safety oracle uses
    /// this to distinguish "rack Off with an owner still working on it"
    /// from an orphaned rack.
    inflight: BTreeMap<RackId, usize>,
    /// Authoritative per-instance epoch: what the *current* incarnation
    /// of instance `i` should carry. Bumped on crash restart and on
    /// watchdog-declared isolation.
    epochs: Vec<u64>,
    /// Instance availability at the previous refresh — the down→up edge
    /// detector.
    was_up: Vec<bool>,
    /// Set when the isolation supervisor declared the instance stale;
    /// the next refresh rebuilds it.
    needs_recovery: Vec<bool>,
    /// Per-instance per-UPS highest delivered telemetry sequence
    /// (advisory cursor carried into recovery snapshots).
    acks: Vec<Vec<u64>>,
    /// When each instance last received any telemetry delivery.
    last_delivery_at: Vec<SimTime>,
    /// Standing failover alarms and when each was raised (the alarm
    /// registry recovery snapshots draw from).
    alarm_since: BTreeMap<UpsId, SimTime>,
    /// The shared recent-delivery window restarted instances catch up
    /// from.
    catch_up: CatchUpBuffer,
    /// Active pub/sub partition, if any.
    partition: Option<PubSubPartition>,
    /// Whether rebuilds use the recovery protocol (from the config).
    recovery_enabled: bool,
    /// Isolation-supervisor silence threshold (from the config).
    isolation_deadline: SimDuration,
    /// Recurring-tick periods (from the config).
    ups_poll_interval: SimDuration,
    rack_poll_interval: SimDuration,
    demand_update_interval: SimDuration,
    overload_step: SimDuration,
    stats_interval: SimDuration,
    watchdog_poll_interval: SimDuration,
    /// Observability instruments.
    sim_obs: SimObs,
    /// Statistics.
    pub stats: RoomStats,
}

impl RoomWorld {
    /// The effective power drawn by each rack right now (index = rack
    /// id): a copy of the world's cache, which is current between
    /// events.
    pub fn effective_rack_power(&self) -> Vec<Watts> {
        self.rack_power.clone()
    }

    /// The current per-UPS loads: a copy of the world's cache, which is
    /// current between events.
    pub fn ups_loads(&self) -> UpsLoads {
        self.truth.loads().clone()
    }

    /// Recomputes the cached rack powers and UPS loads from scratch,
    /// refilling the rack-power buffer and the load model in place.
    /// Call after every change to demand, actuator rack states or the
    /// feed state, and nowhere else. A full recompute (rather than an
    /// incremental update) keeps the float summation order, and so
    /// every figure, identical to computing on demand.
    fn refresh_power(&mut self) {
        let RoomWorld {
            topo,
            racks,
            demand,
            actuator,
            feed,
            rack_power,
            load_model,
            ..
        } = self;
        rack_power.clear();
        rack_power.extend(
            racks
                .iter()
                .map(|r| rack_draw(topo, feed, demand, actuator, r)),
        );
        load_model.clear();
        for (r, &p) in racks.iter().zip(rack_power.iter()) {
            // Racks on foreign pairs were zeroed above, so a rejected
            // load carries no power anyway.
            let _ = load_model.add_pair_load(r.pdu_pair, p);
        }
        self.truth = GroundTruth::from_loads(load_model.ups_loads(feed));
    }

    /// Current rack states (index = rack id).
    pub fn rack_states(&self) -> &[RackPowerState] {
        self.actuator.states()
    }

    /// The actual electrical feed state.
    pub fn feed(&self) -> &FeedState {
        &self.feed
    }

    /// The rack demand vector (unconstrained draw).
    pub fn demand(&self) -> &[Watts] {
        &self.demand
    }

    fn resample_demand(&mut self, now: SimTime) {
        let RoomWorld {
            demand,
            demand_fn,
            racks,
            rng,
            ..
        } = self;
        for (slot, rack) in demand.iter_mut().zip(racks.iter()) {
            *slot = demand_fn(rack, now, rng);
        }
        self.refresh_power();
    }

    /// True if controller instance `i` is up (not crash-injected).
    fn controller_up(&self, i: usize, now: SimTime) -> bool {
        self.controller_faults.is_up(i, now)
    }

    /// Brings instance `i` current before it is fed anything: a
    /// down→up edge or a standing isolation declaration rebuilds it in
    /// a fresh epoch — via the recovery protocol when enabled, blank
    /// otherwise. Runs at the top of every input path (delivery, alarm,
    /// restore notification, watchdog tick), so a dead incarnation's
    /// state is never consulted after its epoch was superseded.
    fn refresh_instance(&mut self, i: usize, now: SimTime) {
        let up = self.controller_up(i, now);
        let Some(was) = self.was_up.get_mut(i) else {
            return;
        };
        let was_up = std::mem::replace(was, up);
        if !up {
            return;
        }
        let declared = self.needs_recovery.get(i).copied().unwrap_or(false);
        if was_up && !declared {
            return;
        }
        if let Some(flag) = self.needs_recovery.get_mut(i) {
            *flag = false;
        }
        if !was_up {
            // Crash restart: the isolation path already bumped.
            if let Some(e) = self.epochs.get_mut(i) {
                *e += 1;
            }
            let epoch = self.epochs.get(i).copied().unwrap_or(0);
            self.actuator.observe_epoch(i, epoch);
            self.sim_obs.obs.record_with(now, || FlightEvent::EpochBump {
                controller: i as u32,
                epoch,
            });
        }
        let epoch = self.epochs.get(i).copied().unwrap_or(0);
        let Some(base) = self.controllers.get(i) else {
            return;
        };
        let rebuilt = if self.recovery_enabled {
            self.sim_obs.obs.record_with(now, || FlightEvent::RecoveryStarted {
                controller: i as u32,
                epoch,
            });
            let snapshot = RecoverySnapshot {
                epoch,
                rack_states: self.actuator.states().to_vec(),
                inflight: self.actuator.pending().to_vec(),
                alarmed: self.alarm_since.iter().map(|(&u, &t)| (u, t)).collect(),
                last_seq: self.acks.get(i).cloned().unwrap_or_default(),
            };
            let items = self.catch_up.items();
            let rebuilt = match Controller::recover(base, &snapshot, items, now) {
                Ok(c) => c,
                // Shape mismatches cannot happen for a snapshot taken
                // from this very room; degrade to a blank restart
                // rather than panic mid-event-loop (lint rule P1).
                Err(_) => {
                    let mut c = base.fresh_like();
                    c.set_epoch(epoch);
                    c
                }
            };
            self.sim_obs.obs.record_with(now, || FlightEvent::RecoveryCompleted {
                controller: i as u32,
                epoch,
                rack_states: snapshot.rack_states.iter().map(|&s| state_code(s)).collect(),
                inflight: snapshot
                    .inflight
                    .iter()
                    .map(|p| (p.rack.0 as u32, state_code(p.new_state), p.apply_at.as_nanos()))
                    .collect(),
                alarmed: snapshot
                    .alarmed
                    .iter()
                    .map(|&(u, t)| (u.0 as u32, t.as_nanos()))
                    .collect(),
                last_seq: snapshot.last_seq.clone(),
            });
            rebuilt
        } else {
            let mut c = base.fresh_like();
            c.set_epoch(epoch);
            c
        };
        if let Some(slot) = self.controllers.get_mut(i) {
            *slot = rebuilt;
        }
        // The rebuild counts as contact: a fresh incarnation gets a
        // full silence window before it can be declared isolated.
        if let Some(t) = self.last_delivery_at.get_mut(i) {
            *t = now;
        }
    }

    fn refresh_all(&mut self, now: SimTime) {
        for i in 0..self.controllers.len() {
            self.refresh_instance(i, now);
        }
    }

    /// The isolation supervisor: declares instance `i` stale when it
    /// has heard no telemetry for a full deadline while some peer has.
    /// The epoch bump immediately fences the instance's outstanding
    /// commands; the rebuild happens at its next refresh (until then it
    /// is fed nothing, so the superseded state produces no output).
    /// Returns true if a declaration is standing.
    fn maybe_declare_isolated(&mut self, i: usize, now: SimTime) -> bool {
        if self.needs_recovery.get(i).copied().unwrap_or(false) {
            return true;
        }
        let heard = |t: Option<&SimTime>| match t {
            Some(&t) => now.saturating_since(t) < self.isolation_deadline,
            None => true,
        };
        if heard(self.last_delivery_at.get(i)) {
            return false;
        }
        let peer_heard = (0..self.controllers.len())
            .any(|j| j != i && self.controller_up(j, now) && heard(self.last_delivery_at.get(j)));
        if !peer_heard {
            return false;
        }
        if let Some(e) = self.epochs.get_mut(i) {
            *e += 1;
        }
        let epoch = self.epochs.get(i).copied().unwrap_or(0);
        self.actuator.observe_epoch(i, epoch);
        if let Some(flag) = self.needs_recovery.get_mut(i) {
            *flag = true;
        }
        self.sim_obs.obs.record_with(now, || FlightEvent::EpochBump {
            controller: i as u32,
            epoch,
        });
        true
    }

    fn bump_inflight(&mut self, rack: RackId, delta: isize) {
        let entry = self.inflight.entry(rack).or_insert(0);
        if delta >= 0 {
            *entry += delta as usize;
        } else {
            *entry = entry.saturating_sub(delta.unsigned_abs());
        }
        if *entry == 0 {
            self.inflight.remove(&rack);
        }
    }

    fn handle_commands(
        &mut self,
        now: SimTime,
        controller_idx: usize,
        commands: Vec<Command>,
        ctx: &mut RoomCtx,
    ) {
        if !commands.is_empty() {
            if let Some(failed_at) = self.pending_detection.take() {
                self.stats
                    .detection_latency
                    .push(now.saturating_since(failed_at));
                self.sim_obs.detect.record_between(failed_at, now);
                self.stats
                    .events
                    .push((now, SimEvent::FirstCommand { controller: controller_idx }));
            }
        }
        for cmd in commands {
            let rack = cmd.rack();
            self.sim_obs.commands_issued.inc();
            self.sim_obs.obs.record_with(now, || FlightEvent::CommandIssued {
                controller: controller_idx as u32,
                rack: rack.0 as u32,
                action: match cmd {
                    Command::Act { kind: crate::policy::ActionKind::Shutdown, .. } => 0,
                    Command::Act { kind: crate::policy::ActionKind::Throttle, .. } => 1,
                    Command::Restore { .. } => 2,
                },
            });
            // A new command for this (controller, rack) supersedes any
            // retry chain still backing off for it.
            let gen = {
                let entry = self.retry_gen.entry((controller_idx, rack)).or_insert(0);
                *entry += 1;
                *entry
            };
            // The command carries the *instance's* epoch, not the
            // authoritative one: a superseded incarnation keeps issuing
            // under its old epoch and the actuation layer fences it.
            let epoch = self
                .controllers
                .get(controller_idx)
                .map_or(0, |c| c.epoch());
            self.submit_with_retry(now, controller_idx, epoch, cmd, 1, gen, ctx);
        }
    }

    /// One submission attempt (1-based `attempt`) of a controller
    /// command. Rejections back off deterministically and resubmit until
    /// the actuator's retry budget is exhausted, then surface as an
    /// enforcement failure so the controller re-decides.
    fn submit_with_retry(
        &mut self,
        now: SimTime,
        controller_idx: usize,
        epoch: u64,
        cmd: Command,
        attempt: u32,
        gen: u64,
        ctx: &mut RoomCtx,
    ) {
        let rack = cmd.rack();
        let submission = match cmd {
            Command::Act { rack, kind } => {
                self.actuator
                    .submit_action(now, controller_idx, epoch, rack, kind)
            }
            Command::Restore { rack } => {
                self.actuator.submit_restore(now, controller_idx, epoch, rack)
            }
        };
        match submission {
            Submission::Accepted(p) => {
                self.bump_inflight(rack, 1);
                ctx.schedule_event_at(p.apply_at, RoomEvent::Apply(p));
            }
            // A fenced command dies silently from the issuer's point of
            // view: its epoch was superseded, so a newer incarnation
            // owns the rack — no retry, no enforcement-failure feedback
            // to the stale instance.
            Submission::Fenced => {
                self.stats.events.push((
                    now,
                    SimEvent::CommandFenced {
                        controller: controller_idx,
                        rack,
                    },
                ));
            }
            Submission::Unreachable if attempt <= self.actuator.config().max_retries => {
                let backoff = self.actuator.config().retry_backoff(attempt);
                self.sim_obs.retries.inc();
                self.sim_obs.obs.record_with(now, || FlightEvent::CommandRetried {
                    rack: rack.0 as u32,
                    attempt,
                });
                self.stats
                    .events
                    .push((now, SimEvent::RetryScheduled { rack, attempt }));
                self.bump_inflight(rack, 1);
                let retry = Retry {
                    controller: controller_idx,
                    epoch,
                    cmd,
                    attempt,
                    gen,
                };
                ctx.schedule_event_at(now + backoff, RoomEvent::Retry(retry));
            }
            Submission::Unreachable => {
                self.sim_obs.enforcement_drops.inc();
                self.sim_obs.obs.record_with(now, || {
                    FlightEvent::EnforcementDropped {
                        controller: controller_idx as u32,
                        rack: rack.0 as u32,
                    }
                });
                self.stats
                    .events
                    .push((now, SimEvent::EnforcementDropped { rack }));
                if let Some(c) = self.controllers.get_mut(controller_idx) {
                    c.on_enforcement_failed(rack);
                }
            }
        }
    }

    /// A rack manager enforces an accepted command (at `p.apply_at`).
    fn apply(&mut self, p: PendingCommand) {
        self.actuator.apply(&p);
        self.refresh_power();
        self.bump_inflight(p.rack, -1);
        self.sim_obs.applies.inc();
        self.sim_obs.obs.record_with(p.apply_at, || FlightEvent::CommandApplied {
            rack: p.rack.0 as u32,
            state: crate::actuation::state_code(p.new_state),
        });
        if p.stale {
            // Only reachable with fencing disabled: the violation the
            // fencing oracle clause hunts.
            self.stats
                .events
                .push((p.apply_at, SimEvent::StaleApplied { rack: p.rack }));
        }
        self.stats.events.push((
            p.apply_at,
            SimEvent::Applied {
                rack: p.rack,
                state: p.new_state,
            },
        ));
    }
}

/// A backed-off submission retries, unless a newer command for the
/// same (controller, rack) superseded its chain.
fn retry(w: &mut RoomWorld, ctx: &mut RoomCtx, r: Retry) {
    let rack = r.cmd.rack();
    w.bump_inflight(rack, -1);
    if w.retry_gen.get(&(r.controller, rack)).copied() != Some(r.gen) {
        return;
    }
    // The retry resubmits under the epoch the command was born with: a
    // chain whose issuer restarted mid-backoff gets fenced, not
    // replayed.
    let now = ctx.now();
    w.submit_with_retry(now, r.controller, r.epoch, r.cmd, r.attempt + 1, r.gen, ctx);
}

/// Schedules the out-of-band failover alarm: every live controller
/// learns of a UPS loss `alarm_latency` after it happens, independent
/// of the metering pipeline (which may itself be dark).
fn schedule_failover_alarm(w: &RoomWorld, ctx: &mut RoomCtx, now: SimTime, ups: UpsId) {
    ctx.schedule_event_at(now + w.alarm_latency, RoomEvent::FailoverAlarm(ups));
}

/// The failover alarm for `ups` reaches every live controller.
fn failover_alarm(w: &mut RoomWorld, now: SimTime, ups: UpsId) {
    w.refresh_all(now);
    w.alarm_since.entry(ups).or_insert(now);
    for i in 0..w.controllers.len() {
        if !w.controller_up(i, now) {
            continue;
        }
        if let Some(c) = w.controllers.get_mut(i) {
            c.on_failover_alarm(now, ups);
        }
    }
}

/// Schedules one telemetry delivery toward all live controller
/// instances, applying the configured duplication/reordering chaos.
/// Each copy in flight owns its payload; only a duplicate clones it.
fn dispatch_delivery(w: &mut RoomWorld, ctx: &mut RoomCtx, d: Delivery) {
    w.delivery_seq += 1;
    let seq = w.delivery_seq;
    let chaos = w.chaos;
    let Delivery {
        seq: pipeline_seq,
        pubsub,
        measured_at,
        arrive_at,
        payload,
        ..
    } = d;
    let mut first = arrive_at;
    if chaos.delay_period > 0 && seq.is_multiple_of(chaos.delay_period) {
        first += chaos.delay_by;
    }
    let arrival = |payload| {
        RoomEvent::Arrival(Arrival {
            seq: pipeline_seq,
            measured_at,
            pubsub,
            payload,
        })
    };
    if chaos.duplicate_period > 0 && seq.is_multiple_of(chaos.duplicate_period) {
        ctx.schedule_event_at(first, arrival(payload.clone()));
        // The duplicate keeps the nominal arrival as its base, so a
        // delayed original can arrive *after* its own duplicate.
        ctx.schedule_event_at(arrive_at + chaos.duplicate_delay, arrival(payload));
    } else {
        ctx.schedule_event_at(first, arrival(payload));
    }
}

/// A telemetry delivery reaches every instance that can see it.
fn deliver(w: &mut RoomWorld, ctx: &mut RoomCtx, a: Arrival) {
    let arrive = ctx.now();
    // Any restarted/declared instance rebuilds *before* this delivery
    // exists anywhere: the live feed follows, and the catch-up buffer
    // gains it last — so the recovered state plus the subsequent feed
    // matches a never-crashed twin.
    w.refresh_all(arrive);
    // A crashed instance processes nothing; an erroring one contributes
    // no commands. The other primaries cover. A partition hides the
    // delivery from the far side's mask.
    let up_mask = (0..w.controllers.len())
        .filter(|&i| w.controller_up(i, arrive))
        .filter(|&i| {
            w.partition
                .as_ref()
                .is_none_or(|p| p.visible(i, a.pubsub, arrive))
        })
        .fold(0u32, |m, i| m | receiver_bit(i));
    // The recorded delivery carries the controllers' full input
    // (receiver mask + readings + measurement time), so a dump can be
    // replayed through `flex_online::replay` to reproduce the decision
    // sequence without re-running the room. One event covers all
    // receivers: they see the same payload at the same instant. Mask-0
    // arrivals are recorded too — replay mirrors the catch-up buffer
    // from these events, and a delivery nobody saw live can still
    // resurface through a later recovery.
    w.sim_obs.obs.record_with(arrive, || match &a.payload {
        TelemetryPayload::UpsSnapshot(snap) => FlightEvent::UpsDelivery {
            controllers: up_mask,
            measured_at_ns: a.measured_at.as_nanos(),
            readings: snap.iter().map(|&(u, p)| (u.0 as u32, p.as_w())).collect(),
        },
        TelemetryPayload::RackSnapshot(snap) => FlightEvent::RackDelivery {
            controllers: up_mask,
            measured_at_ns: a.measured_at.as_nanos(),
            readings: snap.iter().map(|&(r, p)| (r as u32, p.as_w())).collect(),
        },
    });
    for i in 0..w.controllers.len() {
        if up_mask & receiver_bit(i) == 0 {
            continue;
        }
        if let Some(t) = w.last_delivery_at.get_mut(i) {
            *t = arrive;
        }
        if let TelemetryPayload::UpsSnapshot(snap) = &a.payload {
            if let Some(acks) = w.acks.get_mut(i) {
                for &(u, _) in snap {
                    if let Some(slot) = acks.get_mut(u.0) {
                        *slot = (*slot).max(a.seq);
                    }
                }
            }
        }
        let commands = match w.controllers.get_mut(i) {
            Some(c) => c
                .on_delivery(arrive, a.measured_at, &a.payload)
                .unwrap_or_default(),
            None => Vec::new(),
        };
        w.handle_commands(arrive, i, commands, ctx);
    }
    // Nothing above reads the buffer, so the payload moves in only now,
    // after the controllers have read it.
    w.catch_up.push(BufferedDelivery {
        seq: a.seq,
        arrive_at: arrive,
        measured_at: a.measured_at,
        payload: a.payload,
    });
}

/// Recurring UPS poll: meters the true UPS loads into the pipeline.
fn ups_tick(w: &mut RoomWorld, ctx: &mut RoomCtx) {
    let now = ctx.now();
    for d in w.pipeline.poll_upses(now, &w.truth) {
        dispatch_delivery(w, ctx, d);
    }
    ctx.schedule_event_in(w.ups_poll_interval, RoomEvent::UpsTick);
}

/// Recurring rack poll: meters every rack's effective power.
fn rack_tick(w: &mut RoomWorld, ctx: &mut RoomCtx) {
    let now = ctx.now();
    for d in w.pipeline.poll_racks(now, &w.rack_power) {
        dispatch_delivery(w, ctx, d);
    }
    ctx.schedule_event_in(w.rack_poll_interval, RoomEvent::RackTick);
}

/// Recurring demand resample.
fn demand_tick(w: &mut RoomWorld, ctx: &mut RoomCtx) {
    w.resample_demand(ctx.now());
    ctx.schedule_event_in(w.demand_update_interval, RoomEvent::DemandTick);
}

/// Recurring overload integration: advances every online UPS's trip
/// accumulator and trips the ones past their tolerance.
fn overload_tick(w: &mut RoomWorld, ctx: &mut RoomCtx) {
    let now = ctx.now();
    let dt = w.overload_step.as_secs_f64();
    let mut tripped = Vec::new();
    for u in w.topo.upses() {
        let id = u.id();
        if !w.feed.is_online(id) {
            continue;
        }
        let fraction = w.truth.it_power(id) / u.capacity();
        // Accumulators are sized from this topology; degrade to "no
        // trip" rather than panic mid-event-loop.
        let Some(acc) = w.accumulators.get_mut(id.0) else {
            continue;
        };
        let tripped_now = acc.advance(dt, fraction);
        let damage = acc.damage();
        if let Some(g) = w.sim_obs.trip_margin.get(id.0) {
            g.set(acc.margin());
        }
        // Record only damage-carrying steps: a healthy room stays silent
        // instead of flooding the ring.
        if damage > 0.0 {
            w.sim_obs.obs.record_with(now, || FlightEvent::TripMargin {
                ups: id.0 as u32,
                damage,
            });
        }
        if tripped_now {
            tripped.push(id);
        }
    }
    for id in tripped {
        // `tripped` ids come from iterating this feed's own topology, so
        // the failure cannot be rejected.
        if w.feed.fail(id).is_ok() {
            w.refresh_power();
            w.sim_obs.obs.record(now, FlightEvent::UpsTripped {
                ups: id.0 as u32,
            });
            w.stats.events.push((now, SimEvent::UpsTripped(id)));
            schedule_failover_alarm(w, ctx, now, id);
        }
    }
    ctx.schedule_event_in(w.overload_step, RoomEvent::OverloadTick);
}

/// Recurring statistics sample of the UPS load fractions and total power.
fn stats_tick(w: &mut RoomWorld, ctx: &mut RoomCtx) {
    let now = ctx.now();
    for u in w.topo.upses() {
        let f = w.truth.it_power(u.id()) / u.capacity();
        if let Some(series) = w.stats.ups_fraction.get_mut(u.id().0) {
            series.record(now, f);
        }
    }
    w.stats
        .total_power
        .record(now, w.truth.loads().total().as_w());
    ctx.schedule_event_in(w.stats_interval, RoomEvent::StatsTick);
}

/// Recurring watchdog tick for every live controller instance.
fn watchdog_tick(w: &mut RoomWorld, ctx: &mut RoomCtx) {
    let now = ctx.now();
    w.refresh_all(now);
    for i in 0..w.controllers.len() {
        if !w.controller_up(i, now) {
            continue;
        }
        // A just-declared instance is fed nothing until its rebuild at
        // the next refresh: its superseded state must produce no further
        // output.
        if w.maybe_declare_isolated(i, now) {
            continue;
        }
        let commands = match w.controllers.get_mut(i) {
            Some(c) => c.on_tick(now).unwrap_or_default(),
            None => Vec::new(),
        };
        w.handle_commands(now, i, commands, ctx);
    }
    ctx.schedule_event_in(w.watchdog_poll_interval, RoomEvent::WatchdogTick);
}

/// A scripted UPS failure. A script referencing a UPS outside the
/// topology is ignored (the event loop must not panic mid-run — lint
/// rule P1).
fn fail_ups(w: &mut RoomWorld, ctx: &mut RoomCtx, ups: UpsId) {
    let t = ctx.now();
    if w.feed.fail(ups).is_ok() {
        w.refresh_power();
        w.pending_detection = Some(t);
        w.sim_obs.obs.record(t, FlightEvent::UpsFailed { ups: ups.0 as u32 });
        w.stats.events.push((t, SimEvent::UpsFailed(ups)));
        schedule_failover_alarm(w, ctx, t, ups);
    }
}

/// A scripted UPS restoration; a UPS outside the topology is ignored.
fn restore_ups(w: &mut RoomWorld, ctx: &mut RoomCtx, ups: UpsId) {
    let t = ctx.now();
    if w.feed.restore(ups).is_ok() {
        w.refresh_power();
        if let Some(acc) = w.accumulators.get_mut(ups.0) {
            acc.reset();
        }
        w.pending_detection = None;
        w.sim_obs.obs.record(t, FlightEvent::UpsRestored { ups: ups.0 as u32 });
        w.stats.events.push((t, SimEvent::UpsRestored(ups)));
        ctx.schedule_event_at(t + w.alarm_latency, RoomEvent::RestoreAlarm(ups));
    }
}

/// The restoration notice for `ups` reaches every live controller.
fn restore_alarm(w: &mut RoomWorld, now: SimTime, ups: UpsId) {
    w.refresh_all(now);
    w.alarm_since.remove(&ups);
    for i in 0..w.controllers.len() {
        if !w.controller_up(i, now) {
            continue;
        }
        if let Some(c) = w.controllers.get_mut(i) {
            c.on_ups_restored(now, ups);
        }
    }
}

/// The room simulation driver.
pub struct RoomSim {
    sim: Sim<RoomWorld, RoomEvent>,
}

impl RoomSim {
    /// Builds a simulation over a placed room.
    pub fn new(
        placed: &PlacedRoom,
        registry: ImpactRegistry,
        mut demand_fn: DemandFn,
        config: RoomSimConfig,
    ) -> Self {
        let topo = placed.room().topology().clone();
        let racks = placed.racks().to_vec();
        let pool = RngPool::new(config.seed);
        let mut pipeline =
            Pipeline::new(config.pipeline.clone(), topo.ups_count(), racks.len(), &pool);
        pipeline.set_obs(&config.obs);
        let controllers = (0..config.controllers)
            .map(|i| {
                let mut c = Controller::new(
                    i,
                    topo.clone(),
                    racks.clone(),
                    registry.clone(),
                    config.controller,
                );
                c.set_obs(&config.obs);
                c
            })
            .collect();
        let mut actuator = Actuator::new(racks.len(), config.actuator, &pool);
        actuator.set_obs(&config.obs);
        let sim_obs = SimObs::new(config.obs.clone(), topo.ups_count());
        let accumulators = (0..topo.ups_count())
            .map(|_| OverloadAccumulator::new(config.trip_curve.clone(), config.damage_recovery_secs))
            .collect();
        let mut rng = pool.stream("demand");
        let demand: Vec<Watts> = racks
            .iter()
            .map(|r| demand_fn(r, SimTime::ZERO, &mut rng))
            .collect();
        let feed = FeedState::all_online(&topo);
        let stats = RoomStats::new(topo.ups_count());
        let ups_count = topo.ups_count();
        let load_model = LoadModel::new(&topo);
        let mut world = RoomWorld {
            epochs: vec![0; config.controllers],
            was_up: vec![true; config.controllers],
            needs_recovery: vec![false; config.controllers],
            acks: vec![vec![0; ups_count]; config.controllers],
            last_delivery_at: vec![SimTime::ZERO; config.controllers],
            alarm_since: BTreeMap::new(),
            catch_up: CatchUpBuffer::new(),
            partition: None,
            recovery_enabled: config.recovery,
            isolation_deadline: config.isolation_deadline,
            ups_poll_interval: config.pipeline.ups_poll_interval,
            rack_poll_interval: config.pipeline.rack_poll_interval,
            demand_update_interval: config.demand_update_interval,
            overload_step: config.overload_step,
            stats_interval: config.stats_interval,
            watchdog_poll_interval: config.watchdog_poll_interval,
            topo,
            racks,
            demand_fn,
            demand,
            pipeline,
            controllers,
            actuator,
            feed,
            rack_power: Vec::new(),
            load_model,
            truth: GroundTruth::from_loads(UpsLoads::default()),
            accumulators,
            rng,
            pending_detection: None,
            controller_faults: ResolvedPlan::default(),
            alarm_latency: config.alarm_latency,
            chaos: config.delivery_chaos,
            delivery_seq: 0,
            retry_gen: BTreeMap::new(),
            inflight: BTreeMap::new(),
            sim_obs,
            stats,
        };
        world.refresh_power();
        let mut sim = Sim::with_world(world);

        // Recurring ticks, staggered by a nanosecond each so their
        // relative order is fixed.
        sim.schedule_event_at(SimTime::ZERO, RoomEvent::UpsTick);
        sim.schedule_event_at(SimTime::from_nanos(1), RoomEvent::RackTick);
        sim.schedule_event_at(SimTime::from_nanos(2), RoomEvent::DemandTick);
        sim.schedule_event_at(SimTime::from_nanos(3), RoomEvent::OverloadTick);
        sim.schedule_event_at(SimTime::from_nanos(4), RoomEvent::StatsTick);
        // Blackout-watchdog liveness tick: lets controllers act on the
        // *absence* of telemetry, which no delivery-driven path can.
        sim.schedule_event_at(SimTime::from_nanos(5), RoomEvent::WatchdogTick);

        RoomSim { sim }
    }

    /// Schedules a UPS failure (out of service) at `t`.
    ///
    /// A script referencing a UPS outside the topology is ignored (the
    /// event loop must not panic mid-run — lint rule P1).
    pub fn fail_ups_at(&mut self, t: SimTime, ups: UpsId) {
        self.sim.schedule_event_at(t, RoomEvent::FailUps(ups));
    }

    /// Schedules a UPS restoration at `t`.
    ///
    /// A script referencing a UPS outside the topology is ignored.
    pub fn restore_ups_at(&mut self, t: SimTime, ups: UpsId) {
        self.sim.schedule_event_at(t, RoomEvent::RestoreUps(ups));
    }

    /// Schedules an arbitrary world mutation at `t` (targeted fault
    /// injection mid-run: forcing meters stuck, swapping fault plans…).
    pub fn schedule_world<F>(&mut self, t: SimTime, f: F)
    where
        F: FnOnce(&mut RoomWorld) + 'static,
    {
        self.sim.schedule_event_at(t, RoomEvent::World(Box::new(f)));
    }

    /// Runs until the given virtual time.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Access to the world (between events).
    pub fn world(&self) -> &RoomWorld {
        self.sim.world()
    }

    /// Mutable access to the world (fault-plan injection etc.).
    pub fn world_mut(&mut self) -> &mut RoomWorld {
        self.sim.world_mut()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

impl RoomWorld {
    /// Attaches a fault plan to the telemetry pipeline.
    pub fn set_pipeline_fault_plan(&mut self, plan: FaultPlan) {
        self.pipeline.set_fault_plan(plan);
    }

    /// Attaches a fault plan to the actuation path.
    pub fn set_actuator_fault_plan(&mut self, plan: FaultPlan) {
        self.actuator.set_fault_plan(plan);
    }

    /// Attaches a fault plan to the controller instances (crash
    /// injection via `"controller/{i}"` component names).
    pub fn set_controller_fault_plan(&mut self, plan: FaultPlan) {
        self.controller_faults =
            plan.resolve((0..self.controllers.len()).map(fault_names::controller));
    }

    /// The per-UPS overload accumulators (index = UPS id).
    pub fn accumulators(&self) -> &[OverloadAccumulator] {
        &self.accumulators
    }

    /// The room's electrical topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The placed racks (index = rack id).
    pub fn racks(&self) -> &[PlacedRack] {
        &self.racks
    }

    /// The controller instances.
    pub fn controllers(&self) -> &[Controller] {
        &self.controllers
    }

    /// Mutable access to the telemetry pipeline (targeted fault
    /// injection: forcing meters stuck, etc.).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// True if an enforcement (apply or retry) is still in flight for
    /// this rack — i.e. some owner is actively working on it.
    pub fn pending_enforcement(&self, rack: RackId) -> bool {
        self.inflight.get(&rack).copied().unwrap_or(0) > 0
    }

    /// Installs (or clears) a pub/sub partition window.
    pub fn set_partition(&mut self, partition: Option<PubSubPartition>) {
        self.partition = partition;
    }

    /// The authoritative per-instance epochs (index = instance).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The actuation layer (fence state, pending commands, rack truth).
    pub fn actuator(&self) -> &Actuator {
        &self.actuator
    }

    /// The observability handle this world records into (noop unless
    /// the config carried a recording one).
    pub fn obs(&self) -> &Obs {
        &self.sim_obs.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
    use flex_placement::{Room, RoomConfig};
    use flex_workload::impact::scenarios;
    use flex_workload::trace::{TraceConfig, TraceGenerator};
    use flex_workload::WorkloadCategory;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn build_sim(util: f64, seed: u64) -> RoomSim {
        let room = RoomConfig::paper_emulation_room().build().unwrap();
        let trace = TraceConfig::microsoft(Watts::from_mw(4.8));
        build_room_sim(&room, trace, util, seed, RoomSimConfig::default())
    }

    fn build_room_sim(
        room: &Room,
        config: TraceConfig,
        util: f64,
        seed: u64,
        sim_config: RoomSimConfig,
    ) -> RoomSim {
        let mut rng = SmallRng::seed_from_u64(seed);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(room, &trace, &mut rng);
        let placed = PlacedRoom::materialize(room, &trace, &placement);
        let registry = ImpactRegistry::from_scenario(
            placed.racks().iter().map(|r| (r.deployment, r.category)),
            &scenarios::realistic_1(),
        );
        let demand: DemandFn = Box::new(move |rack, _, rng| {
            rack.provisioned * rng.gen_range((util - 0.03)..(util + 0.03))
        });
        RoomSim::new(&placed, registry, demand, sim_config)
    }

    #[test]
    fn steady_state_stays_quiet() {
        let mut sim = build_sim(0.80, 31);
        sim.run_until(SimTime::from_secs_f64(60.0));
        let w = sim.world();
        assert!(!w.stats.cascaded());
        assert_eq!(
            w.stats
                .count_events(|e| matches!(e, SimEvent::Applied { .. })),
            0,
            "no actions in steady state"
        );
        // UPS fractions around 80%.
        let f = w.stats.ups_fraction[0]
            .value_at(SimTime::from_secs_f64(50.0))
            .unwrap();
        assert!((0.7..0.9).contains(&f), "fraction {f}");
    }

    #[test]
    fn failover_is_detected_and_contained_within_tolerance() {
        let mut sim = build_sim(0.80, 32);
        sim.fail_ups_at(SimTime::from_secs_f64(30.0), UpsId(0));
        sim.run_until(SimTime::from_secs_f64(120.0));
        let w = sim.world();
        // Safety: no cascade at 80% utilization.
        assert!(!w.stats.cascaded(), "events: {:?}", w.stats.events);
        // The controllers acted.
        let applied = w
            .stats
            .count_events(|e| matches!(e, SimEvent::Applied { .. }));
        assert!(applied > 0, "expected corrective actions");
        // Detection within the paper's end-to-end budget (10 s); in
        // practice ~2-4 s with these telemetry settings.
        let detect = w.stats.detection_latency[0];
        assert!(
            detect <= SimDuration::from_secs(10),
            "detection took {detect}"
        );
        // Power is back under every surviving UPS's capacity at the end.
        let loads = w.ups_loads();
        for u in w.topo.upses() {
            if w.feed.is_online(u.id()) {
                assert!(
                    !loads.load(u.id()).exceeds(u.capacity()),
                    "{} still overloaded",
                    u.id()
                );
            }
        }
        // Only legal actions were taken.
        for (_, e) in &w.stats.events {
            if let SimEvent::Applied { rack, state } = e {
                let category = w.racks[rack.0].category;
                match state {
                    RackPowerState::Off => {
                        assert_eq!(category, WorkloadCategory::SoftwareRedundant)
                    }
                    RackPowerState::Throttled => assert_eq!(category, WorkloadCategory::CapAble),
                    RackPowerState::Normal => {}
                }
            }
        }
    }

    #[test]
    fn recovery_restores_racks_after_hysteresis() {
        let mut sim = build_sim(0.80, 33);
        sim.fail_ups_at(SimTime::from_secs_f64(30.0), UpsId(1));
        sim.restore_ups_at(SimTime::from_secs_f64(120.0), UpsId(1));
        sim.run_until(SimTime::from_secs_f64(400.0));
        let w = sim.world();
        assert!(!w.stats.cascaded());
        // Some restores were applied after the hysteresis.
        let restores = w.stats.count_events(|e| {
            matches!(
                e,
                SimEvent::Applied {
                    state: RackPowerState::Normal,
                    ..
                }
            )
        });
        assert!(restores > 0, "expected restorations");
        // Eventually every rack is back to normal.
        assert!(
            w.rack_states()
                .iter()
                .all(|s| *s == RackPowerState::Normal),
            "all racks restored"
        );
    }

    #[test]
    fn full_utilization_failover_without_flex_cascades() {
        // Ablation: disable the controllers (none) and fail a UPS at
        // ~100% utilization; the survivors trip one after another.
        let room = RoomConfig::paper_emulation_room().build().unwrap();
        let config = TraceConfig::microsoft(Watts::from_mw(4.8));
        let mut rng = SmallRng::seed_from_u64(34);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        let registry = ImpactRegistry::new();
        let demand: DemandFn = Box::new(|rack, _, _| rack.provisioned);
        let sim_config = RoomSimConfig {
            controllers: 0,
            ..RoomSimConfig::default()
        };
        let mut sim = RoomSim::new(&placed, registry, demand, sim_config);
        sim.fail_ups_at(SimTime::from_secs_f64(10.0), UpsId(0));
        sim.run_until(SimTime::from_secs_f64(120.0));
        assert!(
            sim.world().stats.cascaded(),
            "unmitigated 100% failover must cascade"
        );
    }

    /// Rack powers and UPS loads computed from scratch with a fresh load
    /// model: the reference `refresh_power` must match.
    fn compute_power(w: &RoomWorld) -> (Vec<Watts>, UpsLoads) {
        let rack_power: Vec<Watts> = w
            .racks
            .iter()
            .map(|r| rack_draw(&w.topo, &w.feed, &w.demand, &w.actuator, r))
            .collect();
        let mut model = LoadModel::new(&w.topo);
        for (r, &p) in w.racks.iter().zip(&rack_power) {
            let _ = model.add_pair_load(r.pdu_pair, p);
        }
        (rack_power, model.ups_loads(&w.feed))
    }

    /// Bit patterns of a world's cached power state and of a from-scratch
    /// recompute, in that order.
    fn power_bits(w: &RoomWorld) -> ((Vec<u64>, Vec<u64>), (Vec<u64>, Vec<u64>)) {
        let bits = |ws: &[Watts]| ws.iter().map(|p| p.as_w().to_bits()).collect::<Vec<_>>();
        let (rack_power, loads) = compute_power(w);
        (
            (bits(&w.rack_power), bits(w.truth.loads().as_slice())),
            (bits(&rack_power), bits(loads.as_slice())),
        )
    }

    /// Runs `sim` to `end` in 250 ms steps, asserting after each that
    /// the power cache equals a recompute bit for bit.
    fn step_checking_power_cache(sim: &mut RoomSim, end: SimTime, label: &str) {
        let mut t = sim.now();
        while t < end {
            t = t + SimDuration::from_millis(250);
            sim.run_until(t);
            let (cached, recomputed) = power_bits(sim.world());
            assert_eq!(cached, recomputed, "{label}: stale power cache at {t}");
        }
    }

    #[test]
    fn power_cache_matches_full_recompute() {
        // A 40-slot room at 85% through a failover, a restore, rack
        // managers that reject the first shedding commands (so retries
        // apply late), and duplicated/reordered deliveries. After every
        // 250 ms step the cache must equal a recompute bit for bit.
        let room = RoomConfig {
            ups_count: 4,
            ups_capacity: Watts::from_kw(150.0),
            rows: 8,
            racks_per_row: 5,
            cooling_cfm_per_slot: 2_500.0,
            pdu_pair_capacity: None,
        }
        .build()
        .unwrap();
        // Deployments that fit 5-slot rows, over-generated so placement
        // fills the room.
        let mut trace = TraceConfig::microsoft(room.provisioned_power());
        trace.deployment_sizes = vec![(5, 0.4), (3, 0.35), (2, 0.25)];
        trace.target_power = room.provisioned_power() * 2.0;
        let (mut retries, mut restores) = (0, 0);
        for seed in 0..6u64 {
            let config = RoomSimConfig {
                delivery_chaos: DeliveryChaos {
                    duplicate_period: 3,
                    duplicate_delay: SimDuration::from_millis(300),
                    delay_period: 5,
                    delay_by: SimDuration::from_secs(2),
                },
                seed,
                ..RoomSimConfig::default()
            };
            let mut sim = build_room_sim(&room, trace.clone(), 0.85, seed, config);
            let fail_at = SimTime::from_secs_f64(20.0);
            let mut plan = FaultPlan::new();
            for r in 0..sim.world().racks().len() {
                plan.add_outage(
                    &fault_names::rack_manager(r),
                    fail_at,
                    fail_at + SimDuration::from_secs(3),
                );
            }
            sim.world_mut().set_actuator_fault_plan(plan);
            let ups = UpsId(seed as usize % 4);
            sim.fail_ups_at(fail_at, ups);
            sim.restore_ups_at(SimTime::from_secs_f64(60.0), ups);
            let end = SimTime::from_secs_f64(150.0);
            step_checking_power_cache(&mut sim, end, &format!("seed {seed}"));
            let w = sim.world();
            let count = |f: fn(&SimEvent) -> bool| w.stats.count_events(f);
            assert!(
                count(|e| matches!(e, SimEvent::Applied { .. })) > 0,
                "seed {seed}: no applies"
            );
            retries += count(|e| matches!(e, SimEvent::RetryScheduled { .. }));
            restores += count(|e| {
                matches!(
                    e,
                    SimEvent::Applied {
                        state: RackPowerState::Normal,
                        ..
                    }
                )
            });
        }
        assert!(retries > 0, "no submission was retried");
        assert!(restores > 0, "no rack was restored");

        // Overload trips are the remaining feed mutation: with no
        // controllers and full demand, the survivors trip in turn.
        let config = RoomSimConfig {
            controllers: 0,
            ..RoomSimConfig::default()
        };
        let mut sim = build_room_sim(&room, trace, 1.0, 7, config);
        sim.fail_ups_at(SimTime::from_secs_f64(20.0), UpsId(0));
        let end = SimTime::from_secs_f64(150.0);
        step_checking_power_cache(&mut sim, end, "no controllers");
        assert!(sim.world().stats.cascaded(), "no UPS tripped");
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed| {
            let mut sim = build_sim(0.8, seed);
            sim.fail_ups_at(SimTime::from_secs_f64(30.0), UpsId(0));
            sim.run_until(SimTime::from_secs_f64(90.0));
            sim.world().stats.events.clone()
        };
        assert_eq!(run(35), run(35));
    }
}
