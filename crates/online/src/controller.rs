//! A Flex controller instance.
//!
//! Controllers run multi-primary (Section IV-D): several instances in
//! separate fault domains each consume the telemetry streams and act
//! independently. Because actions are idempotent, disagreement between
//! instances can at worst overcorrect, never compromise safety.

use std::collections::{BTreeMap, BTreeSet};

use flex_obs::{Counter, FlightEvent, Obs};
use flex_placement::{PlacedRack, RackId};
use flex_power::{Topology, Watts};
use flex_sim::{SimDuration, SimTime};
use flex_telemetry::TelemetryPayload;

use crate::actuation::RackPowerState;
use crate::policy::{decide, ActionKind, DecisionInput, PolicyConfig, RecoveryShares};
use crate::recovery::{BufferedDelivery, RecoverySnapshot};
use crate::{ImpactRegistry, OnlineError};

/// A command a controller wants enforced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Apply a corrective action.
    Act {
        /// Target rack.
        rack: RackId,
        /// Shutdown or throttle.
        kind: ActionKind,
    },
    /// Lift a previous action (restore to normal).
    Restore {
        /// Target rack.
        rack: RackId,
    },
}

impl Command {
    /// The rack the command targets.
    pub(crate) fn rack(&self) -> RackId {
        match *self {
            Command::Act { rack, .. } | Command::Restore { rack } => rack,
        }
    }
}

/// Controller tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Decision policy parameters.
    pub policy: PolicyConfig,
    /// Restore only when every UPS has been below
    /// `capacity × restore_threshold_fraction` for this long, with all
    /// UPSes back in service.
    pub restore_hysteresis: SimDuration,
    /// See `restore_hysteresis`.
    pub restore_threshold_fraction: f64,
    /// Discard telemetry older than this when deciding.
    pub staleness_limit: SimDuration,
    /// For this long after issuing an action, subtract its estimated
    /// recovery from incoming UPS readings (the snapshot has not caught
    /// up yet); limits self-overcorrection between telemetry rounds.
    pub reflect_window: SimDuration,
    /// Lift individual actions while a failover persists if the load has
    /// dropped far enough that the reversal is provably safe (the
    /// paper's "some power caps may be lifted… (not shown here)").
    pub partial_relief: bool,
    /// Telemetry-blackout watchdog: when a failover is known (alarm or
    /// observed overdraw) and no fresh UPS snapshot has arrived for
    /// [`blackout_deadline`](Self::blackout_deadline), shed preemptively
    /// against a worst-case load assumption instead of waiting out the
    /// trip window on stale hope.
    pub blackout_watchdog: bool,
    /// How long telemetry may stay dark during a known failover before
    /// the watchdog sheds. Must exceed the normal poll interval plus
    /// data latency (else it fires spuriously) and leave room for
    /// actuation p99.9 inside the trip-curve tolerance.
    pub blackout_deadline: SimDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            policy: PolicyConfig::default(),
            restore_hysteresis: SimDuration::from_secs(30),
            restore_threshold_fraction: 0.92,
            staleness_limit: SimDuration::from_secs(15),
            reflect_window: SimDuration::from_secs(6),
            partial_relief: true,
            blackout_watchdog: true,
            blackout_deadline: SimDuration::from_secs(4),
        }
    }
}

/// A comparable snapshot of every decision-relevant field of a
/// [`Controller`]. Two instances with equal states issue identical
/// commands for identical future inputs — the equality the
/// crash-recovery property test asserts (recovered instance vs a
/// never-crashed twin).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// Fencing epoch.
    pub epoch: u64,
    /// Per-UPS telemetry slots (measured-at, reading).
    pub ups_power: Vec<Option<(SimTime, Watts)>>,
    /// Per-rack telemetry slots (measured-at, reading).
    pub rack_power: Vec<Option<(SimTime, Watts)>>,
    /// Racks this instance believes it has acted on.
    pub action_log: BTreeMap<RackId, ActionKind>,
    /// Time since when the room has continuously looked healthy.
    pub healthy_since: Option<SimTime>,
    /// Whether corrective actions are outstanding.
    pub engaged: bool,
    /// Unreflected recent actions: (issued at, rack, per-UPS shares).
    pub recent: Vec<(SimTime, RackId, RecoveryShares)>,
    /// `measured_at` of the newest accepted fresh UPS snapshot.
    pub last_ups_data: Option<SimTime>,
    /// When this instance first learned of the ongoing failover.
    pub failover_known: Option<SimTime>,
    /// UPSes with an outstanding failover alarm.
    pub alarmed: BTreeSet<flex_power::UpsId>,
    /// Watchdog latch for the current dark period.
    pub watchdog_fired: bool,
}

/// One multi-primary controller instance.
#[derive(Debug, Clone)]
pub struct Controller {
    id: usize,
    /// Monotonic fencing epoch: bumped (externally, via
    /// [`set_epoch`](Controller::set_epoch)) on restart and on
    /// watchdog-declared isolation. Commands submitted under an older
    /// epoch are rejected by the actuation fence.
    epoch: u64,
    topology: Topology,
    racks: Vec<PlacedRack>,
    registry: ImpactRegistry,
    config: ControllerConfig,
    ups_power: Vec<Option<(SimTime, Watts)>>,
    rack_power: Vec<Option<(SimTime, Watts)>>,
    /// A lower bound on the measured-at time of every held UPS and rack
    /// slot (`None` when none is held): [`prune_stale`](Self::prune_stale)
    /// scans the slots only once this bound is past the staleness limit.
    oldest: Option<SimTime>,
    /// This instance's view of the actions it has requested. A BTreeMap
    /// so iteration order — and therefore command order — is the same on
    /// every run (lint rule D2).
    action_log: BTreeMap<RackId, ActionKind>,
    /// Time since when the room has continuously looked healthy.
    healthy_since: Option<SimTime>,
    /// Set after a failover engaged; restore logic only runs then.
    engaged: bool,
    /// Recently issued actions whose effect telemetry has not yet
    /// reflected: (issued at, rack, estimated per-UPS recovery).
    recent: Vec<(SimTime, RackId, RecoveryShares)>,
    /// `measured_at` of the newest accepted fresh UPS snapshot.
    last_ups_data: Option<SimTime>,
    /// When this instance first learned a failover is in progress
    /// (failover alarm or observed overdraw); cleared on full recovery.
    failover_known: Option<SimTime>,
    /// UPSes with an outstanding failover alarm.
    alarmed: BTreeSet<flex_power::UpsId>,
    /// The watchdog fired for the current dark period; re-armed by
    /// fresh UPS data.
    watchdog_fired: bool,
    /// Observability (noop unless attached): the recorder receives the
    /// ingest/watchdog state transitions that `flex_online::replay`
    /// feeds back to reconstruct this instance's decisions.
    obs: Obs,
    readings_accepted: Counter,
    readings_stale: Counter,
    watchdog_fires: Counter,
}

impl Controller {
    /// Creates a controller instance.
    pub fn new(
        id: usize,
        topology: Topology,
        racks: Vec<PlacedRack>,
        registry: ImpactRegistry,
        config: ControllerConfig,
    ) -> Self {
        let ups_count = topology.ups_count();
        let rack_count = racks.len();
        Controller {
            id,
            epoch: 0,
            topology,
            racks,
            registry,
            config,
            ups_power: vec![None; ups_count],
            rack_power: vec![None; rack_count],
            oldest: None,
            action_log: BTreeMap::new(),
            healthy_since: None,
            engaged: false,
            recent: Vec::new(),
            last_ups_data: None,
            failover_known: None,
            alarmed: BTreeSet::new(),
            watchdog_fired: false,
            obs: Obs::noop(),
            readings_accepted: Counter::noop(),
            readings_stale: Counter::noop(),
            watchdog_fires: Counter::noop(),
        }
    }

    /// Attaches observability. Counters: `online/readings_accepted`,
    /// `online/readings_stale`, `online/watchdog_fires`. Recorder events
    /// cover telemetry ingest outcomes, alarms, and watchdog ticks —
    /// exactly the inputs `flex_online::replay` needs to re-drive the
    /// decision sequence. Recording never branches the decision logic,
    /// so attached and detached instances emit identical commands.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.readings_accepted = obs.counter("online/readings_accepted");
        self.readings_stale = obs.counter("online/readings_stale");
        self.watchdog_fires = obs.counter("online/watchdog_fires");
    }

    /// The instance id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The fencing epoch this instance issues commands under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the fencing epoch (the room supervisor owns the counter and
    /// bumps it on restart and on declared isolation).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// A blank instance with this one's identity, topology, placement,
    /// registry, configuration, observability, and epoch — what a cold
    /// restart produces. Recovery starts from here and layers the
    /// snapshot + catch-up on top ([`Controller::recover`]).
    pub fn fresh_like(&self) -> Controller {
        Controller {
            id: self.id,
            epoch: self.epoch,
            topology: self.topology.clone(),
            racks: self.racks.clone(),
            registry: self.registry.clone(),
            config: self.config,
            ups_power: vec![None; self.ups_power.len()],
            rack_power: vec![None; self.rack_power.len()],
            oldest: None,
            action_log: BTreeMap::new(),
            healthy_since: None,
            engaged: false,
            recent: Vec::new(),
            last_ups_data: None,
            failover_known: None,
            alarmed: BTreeSet::new(),
            watchdog_fired: false,
            obs: self.obs.clone(),
            readings_accepted: self.readings_accepted.clone(),
            readings_stale: self.readings_stale.clone(),
            watchdog_fires: self.watchdog_fires.clone(),
        }
    }

    /// The full decision-relevant state, for equality comparison in
    /// recovery and convergence tests.
    pub fn state(&self) -> ControllerState {
        ControllerState {
            epoch: self.epoch,
            ups_power: self.ups_power.clone(),
            rack_power: self.rack_power.clone(),
            action_log: self.action_log.clone(),
            healthy_since: self.healthy_since,
            engaged: self.engaged,
            recent: self.recent.clone(),
            last_ups_data: self.last_ups_data,
            failover_known: self.failover_known,
            alarmed: self.alarmed.clone(),
            watchdog_fired: self.watchdog_fired,
        }
    }

    /// Racks this instance believes it has acted on.
    pub fn action_log(&self) -> &BTreeMap<RackId, ActionKind> {
        &self.action_log
    }

    /// True once the controller has taken corrective actions that have
    /// not yet been restored.
    pub fn is_engaged(&self) -> bool {
        self.engaged
    }

    /// Ingests a telemetry delivery and returns any commands to enforce.
    ///
    /// `now` is the arrival time, `measured_at` the time the underlying
    /// meters were read. Readings are keyed by `measured_at`: a slot
    /// only accepts strictly newer data than what it already holds, so
    /// duplicated or reordered deliveries (pub/sub redelivery) are
    /// complete no-ops — they neither move state backwards nor trigger
    /// an extra decision round.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError`] if the decision policy hits inconsistent
    /// state (a rack referencing an unknown PDU-pair). A multi-primary
    /// deployment treats an erroring instance as contributing no
    /// commands this round; the other instances cover for it.
    pub fn on_delivery(
        &mut self,
        now: SimTime,
        measured_at: SimTime,
        payload: &TelemetryPayload,
    ) -> Result<Vec<Command>, OnlineError> {
        if self.ingest(now, measured_at, payload) {
            self.evaluate(now)
        } else {
            Ok(Vec::new())
        }
    }

    /// The pure state-update half of [`on_delivery`](Self::on_delivery):
    /// slot updates, freshness bookkeeping, watchdog re-arm, and eager
    /// staleness pruning — but no decision. Returns true when the
    /// delivery carried fresh UPS data and a decision round should run.
    ///
    /// Recovery catch-up drives this directly: replaying a half-window
    /// of telemetry through the full decision path would shed against
    /// half-loaded views.
    pub(crate) fn ingest(
        &mut self,
        now: SimTime,
        measured_at: SimTime,
        payload: &TelemetryPayload,
    ) -> bool {
        let evaluate = match payload {
            TelemetryPayload::UpsSnapshot(snapshot) => {
                // Accept only strictly newer readings: an equal
                // timestamp is a pub/sub redelivery of data this
                // instance already holds, and a redelivery must be a
                // complete no-op — it is not evidence of fresh
                // telemetry (so it must not re-arm the watchdog), and
                // letting it trigger an extra evaluation would make the
                // command stream depend on duplication patterns.
                let mut accepted = false;
                for &(ups, w) in snapshot {
                    if let Some(slot) = self.ups_power.get_mut(ups.0) {
                        if slot.map_or(true, |(t, _)| t < measured_at) {
                            *slot = Some((measured_at, w));
                            accepted = true;
                            self.lower_oldest(measured_at);
                        }
                    }
                }
                // Staleness, like acceptance, is counted but not
                // ring-recorded: both are re-derivable from the
                // delivery stream itself (a replayed controller makes
                // the same accept/ignore call), and duplicate-heavy
                // chaos would otherwise flood the ring.
                if accepted {
                    // Acceptance is the normal case: count it, but keep
                    // the flight ring for anomalies (stale deliveries
                    // get an event; accepted ones are implied by their
                    // delivery).
                    self.readings_accepted.inc();
                    if now.saturating_since(measured_at) <= self.config.staleness_limit {
                        self.last_ups_data = Some(match self.last_ups_data {
                            Some(t) => t.max(measured_at),
                            None => measured_at,
                        });
                        // Fresh data re-arms the blackout watchdog.
                        self.watchdog_fired = false;
                    }
                } else {
                    self.readings_stale.inc();
                }
                accepted
            }
            TelemetryPayload::RackSnapshot(snapshot) => {
                for &(rack, w) in snapshot {
                    if let Some(slot) = self.rack_power.get_mut(rack) {
                        if slot.map_or(true, |(t, _)| t < measured_at) {
                            *slot = Some((measured_at, w));
                            self.lower_oldest(measured_at);
                        }
                    }
                }
                false
            }
        };
        // Eagerly drop readings past the staleness limit. UPS slots:
        // no outcome change (`fresh_ups_powers` already ignored them by
        // timestamp). Rack slots: a reading dark for >15 s now degrades
        // to the provisioned estimate — the conservative side. The
        // point of pruning is that held state becomes a function of the
        // recent delivery window alone, which is what lets a catch-up
        // replay over that window reproduce it bit-identically.
        self.prune_stale(now);
        evaluate
    }

    /// Keeps [`oldest`](Self::oldest) a lower bound after a slot write.
    fn lower_oldest(&mut self, measured_at: SimTime) {
        self.oldest = Some(self.oldest.map_or(measured_at, |t| t.min(measured_at)));
    }

    /// Drops telemetry older than the staleness limit relative to `now`.
    /// The slots are scanned only when the oldest held reading may have
    /// expired; a scan also tightens the bound to the exact minimum.
    pub(crate) fn prune_stale(&mut self, now: SimTime) {
        let limit = self.config.staleness_limit;
        if self.oldest.is_some_and(|t| now.saturating_since(t) > limit) {
            let mut oldest: Option<SimTime> = None;
            for slot in self.ups_power.iter_mut().chain(self.rack_power.iter_mut()) {
                match *slot {
                    Some((t, _)) if now.saturating_since(t) > limit => *slot = None,
                    Some((t, _)) => oldest = Some(oldest.map_or(t, |o| o.min(t))),
                    None => {}
                }
            }
            self.oldest = oldest;
        }
        if self
            .last_ups_data
            .is_some_and(|t| now.saturating_since(t) > limit)
        {
            self.last_ups_data = None;
        }
    }

    /// Notifies this instance that a UPS raised a failover alarm (an
    /// out-of-band signal, independent of the metering pipeline). Arms
    /// the blackout watchdog.
    pub fn on_failover_alarm(&mut self, now: SimTime, ups: flex_power::UpsId) {
        self.obs.record(now, FlightEvent::FailoverAlarm {
            controller: self.id as u32,
            ups: ups.0 as u32,
        });
        self.alarmed.insert(ups);
        self.failover_known.get_or_insert(now);
    }

    /// Notifies this instance that a previously alarmed UPS is back in
    /// service. When no alarms remain the failover is no longer "known";
    /// a still-ongoing overdraw will re-arm it via telemetry.
    pub fn on_ups_restored(&mut self, now: SimTime, ups: flex_power::UpsId) {
        self.obs.record(now, FlightEvent::AlarmCleared {
            controller: self.id as u32,
            ups: ups.0 as u32,
        });
        self.alarmed.remove(&ups);
        if self.alarmed.is_empty() {
            self.failover_known = None;
            self.watchdog_fired = false;
        }
    }

    /// Periodic liveness tick for the telemetry-blackout watchdog.
    ///
    /// When a failover is known and no fresh UPS snapshot has arrived
    /// within [`ControllerConfig::blackout_deadline`], decides against a
    /// synthetic worst-case load view — alarmed UPSes at zero (failed),
    /// all others at 4/3 of capacity, the paper's worst-case failover
    /// overdraw — and sheds accordingly. Fires at most once per dark
    /// period (re-armed by fresh data).
    ///
    /// # Errors
    ///
    /// Propagates decision-policy errors exactly like
    /// [`on_delivery`](Self::on_delivery).
    pub fn on_tick(&mut self, now: SimTime) -> Result<Vec<Command>, OnlineError> {
        if !self.config.blackout_watchdog || self.watchdog_fired {
            return Ok(Vec::new());
        }
        let Some(known_at) = self.failover_known else {
            return Ok(Vec::new());
        };
        let dark_since = match self.last_ups_data {
            Some(t) => t.max(known_at),
            None => known_at,
        };
        if now.saturating_since(dark_since) < self.config.blackout_deadline {
            return Ok(Vec::new());
        }
        // Recorded only for the tick that fires: unarmed ticks and
        // armed ticks short of the blackout deadline are provably
        // no-ops (they mutate nothing and issue nothing), so replay
        // reproduces the decision sequence from firing ticks alone.
        self.obs.record(now, FlightEvent::WatchdogTick {
            controller: self.id as u32,
        });
        self.watchdog_fired = true;
        self.watchdog_fires.inc();
        self.obs.record(now, FlightEvent::WatchdogFired {
            controller: self.id as u32,
        });
        // Worst-case synthetic view of the room.
        let ups_power: Vec<Watts> = self
            .topology
            .upses()
            .iter()
            .map(|u| {
                if self.alarmed.contains(&u.id()) {
                    Watts::ZERO
                } else {
                    u.capacity() * (4.0 / 3.0)
                }
            })
            .collect();
        self.healthy_since = None;
        self.shed_against(now, &ups_power)
    }

    /// Records that a previously issued action could not be enforced
    /// (unreachable RM), so it will be retried on the next decision.
    pub fn on_enforcement_failed(&mut self, rack: RackId) {
        self.action_log.remove(&rack);
        self.recent.retain(|(_, r, _)| *r != rack);
    }

    /// Rebuilds a restarted instance from a [`RecoverySnapshot`] plus a
    /// bounded telemetry catch-up window (the deterministic recovery
    /// protocol, see `crate::recovery`).
    ///
    /// `base` supplies identity and configuration (typically the dead
    /// incarnation, whose volatile state is ignored); `now` is the
    /// restart instant. The rebuild:
    ///
    /// 1. adopts ownership of every enforced rack from the actuation
    ///    ground truth — including racks another dead instance acted
    ///    on, healing cross-instance orphans;
    /// 2. overlays the in-flight command set in apply order (an
    ///    accepted restore supersedes the Off state it will clear);
    /// 3. restores standing alarms, dating `failover_known` from the
    ///    earliest;
    /// 4. re-ingests the catch-up window at each item's original
    ///    arrival time — ingest only, never evaluating mid-replay
    ///    (deciding against a half-loaded view would over-shed);
    /// 5. seeds the reflect window from not-yet-applied corrective
    ///    commands, so the instance does not re-shed for power that an
    ///    in-flight command is already about to recover.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::SnapshotLength`] if the snapshot's rack
    /// states disagree with the room's rack count, and propagates
    /// policy errors from recovery-share projection.
    pub fn recover(
        base: &Controller,
        snapshot: &RecoverySnapshot,
        catch_up: &[BufferedDelivery],
        now: SimTime,
    ) -> Result<Controller, OnlineError> {
        if snapshot.rack_states.len() != base.racks.len() {
            return Err(OnlineError::SnapshotLength {
                what: "recovery rack states",
                expected: base.racks.len(),
                got: snapshot.rack_states.len(),
            });
        }
        let mut c = base.fresh_like();
        c.epoch = snapshot.epoch;

        // 1. Enforced racks, from actuation ground truth.
        for (i, state) in snapshot.rack_states.iter().enumerate() {
            match state {
                RackPowerState::Off => {
                    c.action_log.insert(RackId(i), ActionKind::Shutdown);
                }
                RackPowerState::Throttled => {
                    c.action_log.insert(RackId(i), ActionKind::Throttle);
                }
                RackPowerState::Normal => {}
            }
        }
        // 2. In-flight commands, in apply order.
        let mut inflight = snapshot.inflight.clone();
        inflight.sort_by_key(|p| (p.apply_at, p.rack));
        for cmd in &inflight {
            match cmd.new_state {
                RackPowerState::Off => {
                    c.action_log.insert(cmd.rack, ActionKind::Shutdown);
                }
                RackPowerState::Throttled => {
                    c.action_log.insert(cmd.rack, ActionKind::Throttle);
                }
                RackPowerState::Normal => {
                    c.action_log.remove(&cmd.rack);
                }
            }
        }
        c.engaged = !c.action_log.is_empty();

        // 3. Standing alarms.
        for &(ups, since) in &snapshot.alarmed {
            c.alarmed.insert(ups);
            c.failover_known = Some(match c.failover_known {
                Some(t) => t.min(since),
                None => since,
            });
        }

        // 4. Telemetry catch-up, ingest-only.
        for item in catch_up {
            let _ = c.ingest(item.arrive_at, item.measured_at, &item.payload);
        }
        c.prune_stale(now);

        // 5. Reflect pending corrective recoveries so the first
        // evaluation after restart does not double-shed mid-shed.
        let view = match c.fresh_ups_powers(now) {
            Some(v) => v,
            None => c.topology.upses().iter().map(|u| u.capacity()).collect(),
        };
        let online = crate::policy::infer_online(&c.topology, &view, &c.config.policy);
        for cmd in &inflight {
            if cmd.apply_at <= now {
                continue;
            }
            let Some(r) = c.racks.get(cmd.rack.0) else {
                continue;
            };
            let estimate = match cmd.new_state {
                RackPowerState::Off => match c.rack_power.get(cmd.rack.0).copied().flatten() {
                    Some((_, w)) => w.min(r.provisioned),
                    None => r.provisioned,
                },
                RackPowerState::Throttled => {
                    (r.provisioned - r.flex_power).clamp_non_negative() * 0.5
                }
                RackPowerState::Normal => continue,
            };
            if estimate.as_w() <= 0.0 {
                continue;
            }
            let shares =
                crate::policy::recovery_shares(&c.topology, r.pdu_pair, &online, estimate)?;
            c.recent.push((now, cmd.rack, shares));
        }
        Ok(c)
    }

    fn fresh_ups_powers(&self, now: SimTime) -> Option<Vec<Watts>> {
        // A UPS with no fresh reading is assumed at its limit — the
        // conservative treatment the paper requires when data is missing.
        // Zipping the topology with the slots sidesteps any id lookup
        // (`ups_power` is sized from `topology.ups_count()` at build).
        let mut out = Vec::with_capacity(self.ups_power.len());
        let mut any_fresh = false;
        for (ups, slot) in self.topology.upses().iter().zip(&self.ups_power) {
            match slot {
                Some((t, w)) if now.saturating_since(*t) <= self.config.staleness_limit => {
                    any_fresh = true;
                    out.push(*w);
                }
                _ => out.push(ups.capacity()),
            }
        }
        any_fresh.then_some(out)
    }

    fn rack_powers(&self) -> Vec<Watts> {
        // Missing rack data estimates the rack at its provisioned power
        // (conservative for recovery estimation).
        self.racks
            .iter()
            .map(|r| match self.rack_power.get(r.id.0).copied().flatten() {
                Some((_, w)) => w,
                None => r.provisioned,
            })
            .collect()
    }

    fn evaluate(&mut self, now: SimTime) -> Result<Vec<Command>, OnlineError> {
        let Some(mut ups_power) = self.fresh_ups_powers(now) else {
            return Ok(Vec::new());
        };
        // Project the recoveries of recently issued (not yet reflected)
        // actions onto the readings.
        self.recent
            .retain(|(t, _, _)| now.saturating_since(*t) < self.config.reflect_window);
        for (_, _, shares) in &self.recent {
            for (u, w) in shares.iter() {
                if let Some(slot) = ups_power.get_mut(u.0) {
                    *slot = (*slot - w).clamp_non_negative();
                }
            }
        }
        // Overdraw check against limit − buffer.
        let over = self.topology.upses().iter().any(|u| {
            let limit = u.capacity() * (1.0 - self.config.policy.buffer_fraction);
            ups_power
                .get(u.id().0)
                .is_some_and(|p| p.exceeds(limit))
        });
        if over {
            self.healthy_since = None;
            // An observed overdraw means a failover is in progress even
            // without an out-of-band alarm.
            self.failover_known.get_or_insert(now);
            return self.shed_against(now, &ups_power);
        }

        // Healthy: consider restoration if we are engaged.
        if !self.engaged {
            return Ok(Vec::new());
        }
        // A slot missing from the view (cannot happen: both are sized
        // from the topology) reads as "not healthy", the conservative
        // side for restoration.
        let all_in_service = self.topology.upses().iter().all(|u| {
            ups_power
                .get(u.id().0)
                .is_some_and(|p| *p > u.capacity() * self.config.policy.failed_threshold_fraction)
        });
        let all_below_restore = self.topology.upses().iter().all(|u| {
            ups_power
                .get(u.id().0)
                .is_some_and(|p| !p.exceeds(u.capacity() * self.config.restore_threshold_fraction))
        });
        if all_in_service && all_below_restore {
            let since = *self.healthy_since.get_or_insert(now);
            if now.saturating_since(since) >= self.config.restore_hysteresis {
                let commands: Vec<Command> = self
                    .action_log
                    .keys()
                    .map(|&rack| Command::Restore { rack })
                    .collect();
                self.action_log.clear();
                self.engaged = false;
                self.healthy_since = None;
                self.failover_known = None;
                self.alarmed.clear();
                self.watchdog_fired = false;
                return Ok(commands);
            }
            return Ok(Vec::new());
        }
        self.healthy_since = None;

        // Partial relief (the paper's "if the power draw falls
        // significantly, some power caps may be lifted or servers
        // restored", Section IV-D): while the failover persists but the
        // load has dropped well below the limit, lift one action per
        // telemetry round — the one whose reversal provably keeps every
        // UPS under limit − buffer.
        if self.config.partial_relief {
            let online =
                crate::policy::infer_online(&self.topology, &ups_power, &self.config.policy);
            let rack_power = self.rack_powers();
            let mut best = None;
            for (&rack, &kind) in &self.action_log {
                // Never lift an action that may still be in flight —
                // telemetry has not yet confirmed its effect.
                if self.recent.iter().any(|(_, r, _)| *r == rack) {
                    continue;
                }
                let Some(r) = self.racks.get(rack.0) else {
                    continue;
                };
                // Power that returns if this action is lifted.
                let returned = match kind {
                    ActionKind::Shutdown => rack_power
                        .get(rack.0)
                        .copied()
                        .unwrap_or(r.provisioned)
                        .min(r.provisioned),
                    ActionKind::Throttle => {
                        (r.provisioned - r.flex_power).clamp_non_negative() * 0.5
                    }
                };
                if returned.as_w() <= 0.0 {
                    continue;
                }
                let shares =
                    crate::policy::recovery_shares(&self.topology, r.pdu_pair, &online, returned)?;
                // A UPS missing from the topology can never be proven
                // safe, so such a share vetoes the lift.
                let safe = shares.iter().all(|(u, w)| {
                    self.topology.ups(u).is_ok_and(|ups| {
                        let limit =
                            ups.capacity() * (1.0 - 2.0 * self.config.policy.buffer_fraction);
                        ups_power
                            .get(u.0)
                            .is_some_and(|p| !(*p + w).exceeds(limit))
                    })
                });
                if safe {
                    // Prefer lifting the action that returns the least
                    // power (cheapest to re-take if load climbs back);
                    // ties break by rack id.
                    let better = match best {
                        Some((br, bw, _)) => {
                            returned < bw || (returned.approx_eq(bw, 1e-9) && rack < br)
                        }
                        None => true,
                    };
                    if better {
                        best = Some((rack, returned, r.pdu_pair));
                    }
                }
            }
            if let Some((rack, returned, pair)) = best {
                self.action_log.remove(&rack);
                // Account for the returning load in the reflect window
                // (negative recovery = added power).
                let shares = crate::policy::recovery_shares(
                    &self.topology,
                    pair,
                    &crate::policy::infer_online(&self.topology, &ups_power, &self.config.policy),
                    returned,
                )?
                .negated();
                self.recent.push((now, rack, shares));
                if self.action_log.is_empty() {
                    self.engaged = false;
                }
                return Ok(vec![Command::Restore { rack }]);
            }
        }
        Ok(Vec::new())
    }

    /// Runs the shedding policy against the given (possibly synthetic)
    /// per-UPS power view and records the resulting actions. Shared by
    /// the telemetry path and the blackout watchdog.
    fn shed_against(
        &mut self,
        now: SimTime,
        ups_power: &[Watts],
    ) -> Result<Vec<Command>, OnlineError> {
        let rack_power = self.rack_powers();
        let input = DecisionInput {
            topology: &self.topology,
            racks: &self.racks,
            rack_power: &rack_power,
            ups_power,
        };
        let outcome = decide(&input, &self.action_log, &self.registry, &self.config.policy)?;
        let online = crate::policy::infer_online(&self.topology, ups_power, &self.config.policy);
        let mut commands = Vec::with_capacity(outcome.actions.len());
        for action in outcome.actions {
            // Policy actions always name racks from `self.racks`; a
            // stray id simply yields no recovery projection.
            let Some(pair) = self.racks.get(action.rack.0).map(|r| r.pdu_pair) else {
                continue;
            };
            self.action_log.insert(action.rack, action.kind);
            let shares = crate::policy::recovery_shares(
                &self.topology,
                pair,
                &online,
                action.estimated_recovery,
            )?;
            self.recent.push((now, action.rack, shares));
            commands.push(Command::Act {
                rack: action.rack,
                kind: action.kind,
            });
        }
        if !commands.is_empty() {
            self.engaged = true;
        }
        Ok(commands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
    use flex_placement::{PlacedRoom, RoomConfig};
    use flex_power::{FeedState, Fraction, UpsId};
    use flex_workload::impact::scenarios;
    use flex_workload::power_model::RackPowerModel;
    use flex_workload::trace::{TraceConfig, TraceGenerator};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct Fixture {
        placed: PlacedRoom,
        draws: Vec<Watts>,
        controller: Controller,
    }

    fn fixture(util: f64) -> Fixture {
        let room = RoomConfig::paper_emulation_room().build().unwrap();
        let config = TraceConfig::microsoft(Watts::from_mw(4.8));
        let mut rng = SmallRng::seed_from_u64(11);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
        let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
            &provisioned,
            Fraction::clamped(util),
            &mut rng,
        );
        let registry = ImpactRegistry::from_scenario(
            placed.racks().iter().map(|r| (r.deployment, r.category)),
            &scenarios::realistic_1(),
        );
        let controller = Controller::new(
            0,
            room.topology().clone(),
            placed.racks().to_vec(),
            registry,
            ControllerConfig::default(),
        );
        Fixture {
            placed,
            draws,
            controller,
        }
    }

    fn snapshots(f: &Fixture, feed: &FeedState) -> (TelemetryPayload, TelemetryPayload) {
        let loads = f.placed.ups_loads(&f.draws, feed);
        let ups = TelemetryPayload::UpsSnapshot(
            f.placed
                .room()
                .topology()
                .ups_ids()
                .into_iter()
                .map(|u| (u, loads.load(u)))
                .collect(),
        );
        let racks = TelemetryPayload::RackSnapshot(
            f.draws.iter().enumerate().map(|(i, &w)| (i, w)).collect(),
        );
        (ups, racks)
    }

    #[test]
    fn healthy_room_produces_no_commands() {
        let mut f = fixture(0.8);
        let feed = FeedState::all_online(f.placed.room().topology());
        let (ups, racks) = snapshots(&f, &feed);
        let t = SimTime::from_secs_f64(1.0);
        assert!(f.controller.on_delivery(t, t, &racks).unwrap().is_empty());
        assert!(f.controller.on_delivery(t, t, &ups).unwrap().is_empty());
        assert!(!f.controller.is_engaged());
    }

    #[test]
    fn failover_triggers_actions_then_restore_after_hysteresis() {
        let mut f = fixture(0.85);
        let topo = f.placed.room().topology().clone();
        let normal = FeedState::all_online(&topo);
        let failed = FeedState::with_failed(&topo, [UpsId(0)]);

        // Prime rack telemetry, then deliver the failover snapshot.
        let (ups_ok, racks) = snapshots(&f, &normal);
        let (ups_bad, _) = snapshots(&f, &failed);
        let t1 = SimTime::from_secs_f64(1.0);
        f.controller.on_delivery(t1, t1, &racks).unwrap();
        f.controller.on_delivery(t1, t1, &ups_ok).unwrap();
        let commands = f
            .controller
            .on_delivery(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(2.0), &ups_bad).unwrap();
        assert!(!commands.is_empty(), "overdraw must trigger actions");
        assert!(f.controller.is_engaged());
        assert!(commands
            .iter()
            .all(|c| matches!(c, Command::Act { .. })));

        // Redelivering the same overdraw produces no duplicate actions
        // for the same racks (idempotency via the action log)…
        let again = f
            .controller
            .on_delivery(SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(3.0), &ups_bad).unwrap();
        let firsts: std::collections::HashSet<RackId> = commands
            .iter()
            .map(|c| match c {
                Command::Act { rack, .. } => *rack,
                Command::Restore { rack } => *rack,
            })
            .collect();
        for c in &again {
            if let Command::Act { rack, .. } = c {
                assert!(!firsts.contains(rack), "duplicate action on {rack}");
            }
        }

        // Recovery: healthy snapshots must persist for the hysteresis
        // before restores are issued.
        let t_ok = SimTime::from_secs_f64(10.0);
        let none_yet = f.controller.on_delivery(t_ok, t_ok, &ups_ok).unwrap();
        assert!(none_yet.is_empty(), "no restore before hysteresis");
        let t_late = t_ok + ControllerConfig::default().restore_hysteresis;
        let restores = f.controller.on_delivery(t_late, t_late, &ups_ok).unwrap();
        assert!(!restores.is_empty(), "restore after hysteresis");
        assert!(restores
            .iter()
            .all(|c| matches!(c, Command::Restore { .. })));
        assert!(!f.controller.is_engaged());
        assert!(f.controller.action_log().is_empty());
    }

    #[test]
    fn stale_ups_data_is_treated_conservatively() {
        let mut f = fixture(0.8);
        let topo = f.placed.room().topology().clone();
        let normal = FeedState::all_online(&topo);
        let (ups_ok, racks) = snapshots(&f, &normal);
        let t1 = SimTime::from_secs_f64(1.0);
        f.controller.on_delivery(t1, t1, &racks).unwrap();
        f.controller.on_delivery(t1, t1, &ups_ok).unwrap();
        // Much later, a snapshot covering only UPS 0 arrives; the other
        // three UPSes' readings are stale and assumed at capacity, so
        // the controller acts.
        let partial = TelemetryPayload::UpsSnapshot(vec![(UpsId(0), Watts::from_kw(900.0))]);
        let t2 = SimTime::from_secs_f64(120.0);
        let commands = f.controller.on_delivery(t2, t2, &partial).unwrap();
        assert!(
            !commands.is_empty(),
            "missing data must be treated as overdraw (safety first)"
        );
    }

    #[test]
    fn watchdog_sheds_on_dark_telemetry_after_alarm() {
        let mut f = fixture(0.9);
        let t_alarm = SimTime::from_secs_f64(5.0);
        f.controller.on_failover_alarm(t_alarm, UpsId(0));
        // Before the deadline: nothing.
        let early = f.controller.on_tick(SimTime::from_secs_f64(8.0)).unwrap();
        assert!(early.is_empty(), "watchdog fired before its deadline");
        // Past the deadline with zero deliveries ever received: shed.
        let fired = f.controller.on_tick(SimTime::from_secs_f64(9.5)).unwrap();
        assert!(!fired.is_empty(), "watchdog must shed on dark telemetry");
        assert!(fired.iter().all(|c| matches!(c, Command::Act { .. })));
        assert!(f.controller.is_engaged());
        // Fires at most once per dark period.
        let again = f.controller.on_tick(SimTime::from_secs_f64(20.0)).unwrap();
        assert!(again.is_empty(), "watchdog must latch until fresh data");
    }

    #[test]
    fn watchdog_stays_quiet_while_telemetry_flows() {
        let mut f = fixture(0.9);
        let topo = f.placed.room().topology().clone();
        let failed = FeedState::with_failed(&topo, [UpsId(0)]);
        let (ups_bad, racks) = snapshots(&f, &failed);
        let t1 = SimTime::from_secs_f64(1.0);
        f.controller.on_failover_alarm(t1, UpsId(0));
        f.controller.on_delivery(t1, t1, &racks).unwrap();
        // Fresh (overdraw) data arrives: the normal path sheds…
        let acted = f
            .controller
            .on_delivery(SimTime::from_secs_f64(1.5), SimTime::from_secs_f64(1.4), &ups_bad)
            .unwrap();
        assert!(!acted.is_empty());
        // …and the watchdog, armed but fed, produces nothing extra.
        let tick = f.controller.on_tick(SimTime::from_secs_f64(5.0)).unwrap();
        assert!(tick.is_empty(), "fed watchdog must not double-shed");
    }

    #[test]
    fn stale_redelivery_does_not_rewind_state() {
        let mut f = fixture(0.8);
        let topo = f.placed.room().topology().clone();
        let normal = FeedState::all_online(&topo);
        let (ups_ok, racks) = snapshots(&f, &normal);
        let t1 = SimTime::from_secs_f64(10.0);
        f.controller.on_delivery(t1, t1, &racks).unwrap();
        f.controller.on_delivery(t1, t1, &ups_ok).unwrap();
        // A duplicate of an *older* measurement arrives later (pub/sub
        // redelivery): it must not displace the newer reading, so the
        // command stream stays empty exactly as without the duplicate.
        let stale = f
            .controller
            .on_delivery(SimTime::from_secs_f64(12.0), SimTime::from_secs_f64(3.0), &ups_ok)
            .unwrap();
        assert!(stale.is_empty());
    }

    #[test]
    fn enforcement_failure_allows_retry() {
        let mut f = fixture(0.85);
        let topo = f.placed.room().topology().clone();
        let failed = FeedState::with_failed(&topo, [UpsId(0)]);
        let (ups_bad, racks) = snapshots(&f, &failed);
        let t = SimTime::from_secs_f64(1.0);
        f.controller.on_delivery(t, t, &racks).unwrap();
        let commands = f.controller.on_delivery(t, t, &ups_bad).unwrap();
        let Command::Act { rack, .. } = commands[0] else {
            panic!("expected an action");
        };
        assert!(f.controller.action_log().contains_key(&rack));
        f.controller.on_enforcement_failed(rack);
        assert!(!f.controller.action_log().contains_key(&rack));
        // The same rack may be selected again on the next snapshot.
        let retry = f
            .controller
            .on_delivery(SimTime::from_secs_f64(2.5), SimTime::from_secs_f64(2.5), &ups_bad).unwrap();
        assert!(retry.iter().any(|c| matches!(c, Command::Act { rack: r, .. } if *r == rack)));
    }

    /// The reference `prune_stale`: scans every slot on every call.
    fn prune_stale_full_scan(c: &mut Controller, now: SimTime) {
        let limit = c.config.staleness_limit;
        for slot in c.ups_power.iter_mut().chain(c.rack_power.iter_mut()) {
            if slot.is_some_and(|(t, _)| now.saturating_since(t) > limit) {
                *slot = None;
            }
        }
        if c.last_ups_data
            .is_some_and(|t| now.saturating_since(t) > limit)
        {
            c.last_ups_data = None;
        }
    }

    /// A 4-UPS controller over 8 racks; `ingest` never consults the
    /// placement beyond the slot counts.
    fn small_controller() -> Controller {
        let topology = Topology::distributed_redundant(4, Watts::from_kw(150.0)).unwrap();
        let pairs = topology.pdu_pairs().len();
        let racks = (0..8)
            .map(|i| PlacedRack {
                id: RackId(i),
                deployment: flex_workload::DeploymentId(i),
                category: flex_workload::WorkloadCategory::CapAble,
                pdu_pair: topology.pdu_pairs()[i % pairs].id(),
                provisioned: Watts::from_kw(15.0),
                flex_power: Watts::from_kw(10.0),
            })
            .collect();
        Controller::new(
            0,
            topology,
            racks,
            ImpactRegistry::new(),
            ControllerConfig::default(),
        )
    }

    /// One generated delivery: (kind, arrival step ms, age at arrival
    /// ms, first slot, slot count). Kinds 0-3 are UPS snapshots, 4-7
    /// rack snapshots, 8 a redelivery of the previous message, 9 a
    /// `fresh_like` rebuild; a step ≥ 8 s is stretched past the
    /// staleness limit.
    type Op = (u8, u64, u64, usize, usize);

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u8..10, 0u64..10_000, 0u64..18_000, 0usize..8, 1usize..9),
            1..60,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prune_bound_matches_full_scan(ops in arb_ops()) {
            let mut c = small_controller();
            let limit = c.config.staleness_limit;
            let mut now = SimTime::ZERO;
            let mut last: Option<(SimTime, TelemetryPayload)> = None;
            for (kind, step, age, first, count) in ops {
                let step = SimDuration::from_millis(step);
                now = now + if step >= SimDuration::from_secs(8) { step + limit } else { step };
                let measured_at =
                    SimTime::from_nanos(now.as_nanos().saturating_sub(age * 1_000_000));
                let w = Watts::from_kw(age as f64 / 1_000.0);
                let (measured_at, payload) = match kind {
                    0..=3 => (
                        measured_at,
                        TelemetryPayload::UpsSnapshot(
                            (first..first + count).map(|i| (UpsId(i % 4), w)).collect(),
                        ),
                    ),
                    4..=7 => (
                        measured_at,
                        TelemetryPayload::RackSnapshot(
                            (first..first + count).map(|i| (i % 8, w)).collect(),
                        ),
                    ),
                    8 => match &last {
                        Some(m) => m.clone(),
                        None => continue,
                    },
                    _ => {
                        c = c.fresh_like();
                        continue;
                    }
                };
                c.ingest(now, measured_at, &payload);
                last = Some((measured_at, payload));

                let mut reference = c.clone();
                prune_stale_full_scan(&mut reference, now);
                prop_assert_eq!(c.state(), reference.state(), "at {}", now);
                for (t, _) in c.ups_power.iter().chain(&c.rack_power).flatten() {
                    prop_assert!(
                        c.oldest.is_some_and(|o| o <= *t),
                        "bound {:?} above held reading at {}", c.oldest, t
                    );
                }
            }
        }
    }
}
