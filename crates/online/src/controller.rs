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
use flex_telemetry::{Delivery, TelemetryPayload};

use crate::actuation::RackPowerState;
use crate::policy::{
    decide, infer_online, recovery_shares, ActionKind, DecisionInput, RecoveryShares, POLICY,
};
use crate::recovery::RecoverySnapshot;
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

    /// The flight-recorder action code (0 = shutdown, 1 = throttle,
    /// 2 = restore).
    pub fn code(&self) -> u8 {
        match self {
            Command::Act { kind: ActionKind::Shutdown, .. } => 0,
            Command::Act { kind: ActionKind::Throttle, .. } => 1,
            Command::Restore { .. } => 2,
        }
    }

    /// Inverse of [`code`](Self::code) for a command on `rack`; an
    /// unknown code decodes to a restore.
    pub fn from_code(rack: RackId, code: u8) -> Command {
        match code {
            0 => Command::Act { rack, kind: ActionKind::Shutdown },
            1 => Command::Act { rack, kind: ActionKind::Throttle },
            _ => Command::Restore { rack },
        }
    }
}

/// How long every UPS must stay below [`RESTORE_THRESHOLD_FRACTION`]
/// of capacity, all back in service, before an engaged controller
/// restores its racks: 20 UPS poll rounds of sustained health. A
/// project choice; the paper gives no restore hysteresis.
const RESTORE_HYSTERESIS: SimDuration = SimDuration::from_secs(30);

/// The per-UPS load fraction the room must stay under for
/// [`RESTORE_HYSTERESIS`] before a full restore: 6 points below the
/// [`POLICY`] shed line at `1 − buffer_fraction` (0.98). A
/// project choice; the paper gives no restore threshold.
const RESTORE_THRESHOLD_FRACTION: f64 = 0.92;

/// Telemetry older than this is discarded when deciding: ten UPS poll
/// intervals (1.5 s each, Section IV-D). Crash-recovery catch-up relies
/// on it staying below `recovery::CATCH_UP_HORIZON` (checked at
/// compile time there).
pub(crate) const STALENESS_LIMIT: SimDuration = SimDuration::from_secs(15);

/// For this long after issuing an action, subtract its estimated
/// recovery from incoming UPS readings (the snapshot has not caught up
/// yet); limits self-overcorrection between telemetry rounds. 6 s
/// covers the actuation p99.9 (~2.4 s) plus one UPS poll round (1.5 s)
/// and the data latency (p99.9 < 1.5 s, Section VI).
const REFLECT_WINDOW: SimDuration = SimDuration::from_secs(6);

/// How long telemetry may stay dark during a known failover before the
/// blackout watchdog sheds. It exceeds one UPS poll interval plus the
/// data latency (1.5 s + 1.5 s), so it does not fire spuriously, and
/// with the actuation p99.9 (~2.4 s) it stays inside the 10 s trip
/// window at 133% load (Figure 6). The room's isolation deadline must
/// exceed it (checked at compile time in `sim`).
pub(crate) const BLACKOUT_DEADLINE: SimDuration = SimDuration::from_secs(4);

/// Controller tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Telemetry-blackout watchdog: when a failover is known (alarm or
    /// observed overdraw) and no fresh UPS snapshot has arrived for
    /// `BLACKOUT_DEADLINE` (4 s), shed preemptively against a worst-case
    /// load assumption instead of waiting out the trip window on stale
    /// hope.
    pub blackout_watchdog: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            blackout_watchdog: true,
        }
    }
}

/// Every decision-relevant field of a [`Controller`], held in one
/// place: the controller keeps its decision state in this struct, so a
/// field cannot be added to the controller and left out of the state
/// the recovery tests compare. Two instances with equal states issue
/// identical commands for identical future inputs — the equality the
/// crash-recovery property test asserts (recovered instance vs a
/// never-crashed twin).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// Fencing epoch of this incarnation: set when the instance is
    /// built or restarted ([`Controller::restarted`]). Commands
    /// submitted under an older epoch are rejected by the actuation
    /// fence.
    pub epoch: u64,
    /// Per-UPS telemetry slots (measured-at, reading).
    pub ups_power: Vec<Option<(SimTime, Watts)>>,
    /// Per-rack telemetry slots (measured-at, reading).
    pub rack_power: Vec<Option<(SimTime, Watts)>>,
    /// Racks this instance believes it has acted on. A BTreeMap so
    /// iteration order — and therefore command order — is the same on
    /// every run (lint rule D2).
    pub action_log: BTreeMap<RackId, ActionKind>,
    /// Time since when the room has continuously looked healthy.
    pub healthy_since: Option<SimTime>,
    /// Whether corrective actions are outstanding (set after a
    /// failover engaged; restore logic only runs then).
    pub engaged: bool,
    /// Recently issued actions whose effect telemetry has not yet
    /// reflected: (issued at, rack, estimated per-UPS recovery).
    pub recent: Vec<(SimTime, RackId, RecoveryShares)>,
    /// `measured_at` of the newest accepted fresh UPS snapshot.
    pub last_ups_data: Option<SimTime>,
    /// When this instance first learned a failover is in progress
    /// (failover alarm or observed overdraw); cleared on full recovery.
    pub failover_known: Option<SimTime>,
    /// UPSes with an outstanding failover alarm.
    pub alarmed: BTreeSet<flex_power::UpsId>,
    /// The watchdog fired for the current dark period; re-armed by
    /// fresh UPS data.
    pub watchdog_fired: bool,
}

impl ControllerState {
    /// The state of an instance that has seen nothing yet: empty slots
    /// for `ups_count` UPSes and `rack_count` racks, in `epoch`.
    pub fn blank(ups_count: usize, rack_count: usize, epoch: u64) -> Self {
        ControllerState {
            epoch,
            ups_power: vec![None; ups_count],
            rack_power: vec![None; rack_count],
            action_log: BTreeMap::new(),
            healthy_since: None,
            engaged: false,
            recent: Vec::new(),
            last_ups_data: None,
            failover_known: None,
            alarmed: BTreeSet::new(),
            watchdog_fired: false,
        }
    }
}

/// What a [`Controller`] derives from its [`ControllerState`]. Kept out
/// of the state: it is a cache, not decision state. Twins with equal
/// states may hold different caches (a prune scan tightens `oldest`),
/// and the caches change no decision, only how much work one takes.
#[derive(Debug, Clone)]
struct StateCache {
    /// A lower bound on the measured-at time of every held UPS and rack
    /// slot (`None` when none is held): [`Controller::prune_stale`]
    /// scans the slots only once this bound is past the staleness limit.
    oldest: Option<SimTime>,
    /// Which UPS slots hold the newest data: ingest skips a UPS
    /// snapshot that provably writes no slot without reading it.
    ups_held: Held,
    /// The same for the rack slots.
    rack_held: Held,
    /// Per rack (by id), how many entries of [`ControllerState::recent`]
    /// name it: non-zero while an action on the rack is in the reflect
    /// window.
    reflecting: Vec<u32>,
}

impl StateCache {
    /// The cache of [`ControllerState::blank`] over `ups_count` UPSes
    /// and `rack_count` racks.
    fn blank(ups_count: usize, rack_count: usize) -> Self {
        StateCache {
            oldest: None,
            ups_held: Held::blank(ups_count),
            rack_held: Held::blank(rack_count),
            reflecting: vec![0; rack_count],
        }
    }
}

/// How up to date the slots of one telemetry kind are, in O(1) space.
///
/// A snapshot measured at `m` writes no slot exactly when every slot of
/// its kind already holds data measured at or after `m`. An empty slot
/// (never written, or emptied by [`Controller::prune_stale`]) accepts a
/// reading of any age, so it counts as −∞. `Held` tracks the newest
/// measured-at time written and how many slots are behind it, which
/// decides that condition in O(1) whenever no slot is behind: then every
/// slot holds the newest time, and a snapshot measured no later writes
/// nothing. That is the common redelivery: a pub/sub copy or the other
/// poller's copy of the newest poll. A snapshot older than the newest
/// while some slot is behind is not skipped; the slot loop decides it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Held {
    /// The newest measured-at time ever written to a slot of the kind.
    newest: Option<SimTime>,
    /// Slots that are empty or hold data older than `newest`.
    behind: usize,
}

impl Held {
    /// `slots` empty slots.
    fn blank(slots: usize) -> Self {
        Held {
            newest: None,
            behind: slots,
        }
    }

    /// Whether every slot holds data measured at or after
    /// `measured_at`, as far as O(1) can tell: a snapshot measured then
    /// writes no slot.
    fn covers(&self, measured_at: SimTime) -> bool {
        self.behind == 0 && self.newest.is_some_and(|t| measured_at <= t)
    }

    /// Accounts for `written` slots of `slots` that a snapshot measured
    /// at `measured_at` wrote.
    fn wrote(&mut self, slots: usize, measured_at: SimTime, written: usize) {
        if written == 0 {
            return;
        }
        match self.newest {
            // Older data fills slots that stay behind the newest.
            Some(t) if measured_at < t => {}
            // Every slot written had been behind.
            Some(t) if measured_at == t => self.behind = self.behind.saturating_sub(written),
            // A newer snapshot writes every slot it names (each held
            // older data); the others now lag it.
            _ => {
                self.newest = Some(measured_at);
                self.behind = slots.saturating_sub(written);
            }
        }
    }

    /// Accounts for a slot measured at `t` that pruning emptied.
    fn emptied(&mut self, t: SimTime) {
        if self.newest.is_some_and(|newest| t >= newest) {
            self.behind += 1;
        }
    }
}

/// One multi-primary controller instance.
#[derive(Debug, Clone)]
pub struct Controller {
    id: usize,
    topology: Topology,
    racks: Vec<PlacedRack>,
    registry: ImpactRegistry,
    config: ControllerConfig,
    /// Everything the instance's decisions depend on.
    state: ControllerState,
    /// What the instance derives from `state` to keep a delivery's cost
    /// proportional to what is new in it.
    cache: StateCache,
    /// Buffers each decision round refills: the per-UPS view, the
    /// inferred feed state and the per-rack view. Their contents mean
    /// nothing between calls; they exist so that a delivery allocates
    /// nothing.
    ups_view: Vec<Watts>,
    online: Vec<bool>,
    rack_view: Vec<Watts>,
    /// Observability (noop unless attached): the recorder receives the
    /// alarm and watchdog transitions that `flex_online::replay` feeds
    /// back to reconstruct this instance's decisions.
    obs: Obs,
    readings_accepted: Counter,
    readings_stale: Counter,
    watchdog_fires: Counter,
}

impl Controller {
    /// Creates a controller instance in epoch 0.
    pub fn new(
        id: usize,
        topology: Topology,
        racks: Vec<PlacedRack>,
        registry: ImpactRegistry,
        config: ControllerConfig,
    ) -> Self {
        let state = ControllerState::blank(topology.ups_count(), racks.len(), 0);
        Controller {
            id,
            cache: StateCache::blank(topology.ups_count(), racks.len()),
            ups_view: Vec::with_capacity(topology.ups_count()),
            online: Vec::with_capacity(topology.ups_count()),
            rack_view: Vec::with_capacity(racks.len()),
            topology,
            racks,
            registry,
            config,
            state,
            obs: Obs::noop(),
            readings_accepted: Counter::noop(),
            readings_stale: Counter::noop(),
            watchdog_fires: Counter::noop(),
        }
    }

    /// Attaches observability. Counters: `online/readings_accepted`,
    /// `online/readings_stale`, `online/watchdog_fires`; ingest outcomes
    /// are counted only, never recorded. Recorder events cover alarms
    /// and firing watchdog ticks which, with the deliveries the room
    /// records, are exactly the inputs `flex_online::replay` needs to
    /// re-drive the decision sequence. Recording never branches the
    /// decision logic, so attached and detached instances emit
    /// identical commands.
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

    /// The fencing epoch this incarnation issues commands under.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// What a cold restart into `epoch` produces: this instance's
    /// identity, topology, placement, registry, configuration and
    /// observability over a blank [`ControllerState`]. Recovery starts
    /// from here and layers the snapshot + catch-up on top
    /// ([`Controller::recover`]).
    pub fn restarted(&self, epoch: u64) -> Controller {
        let ups_count = self.state.ups_power.len();
        let state = ControllerState::blank(ups_count, self.state.rack_power.len(), epoch);
        // Every other field carries over, so a field added to the
        // controller needs no edit here.
        Controller {
            state,
            cache: StateCache::blank(self.topology.ups_count(), self.racks.len()),
            ..self.clone()
        }
    }

    /// The full decision-relevant state, for equality comparison in
    /// recovery and convergence tests.
    pub fn state(&self) -> &ControllerState {
        &self.state
    }

    /// Racks this instance believes it has acted on.
    pub fn action_log(&self) -> &BTreeMap<RackId, ActionKind> {
        &self.state.action_log
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
        // A snapshot that every slot of its kind already covers writes
        // nothing (a pub/sub copy, or the other poller's copy), so it is
        // skipped without reading it: the slot loop would reach the same
        // outcome.
        let evaluate = match payload {
            TelemetryPayload::UpsSnapshot(_) => {
                // Accept only strictly newer readings: an equal
                // timestamp is a pub/sub redelivery of data this
                // instance already holds, and a redelivery must be a
                // complete no-op — it is not evidence of fresh
                // telemetry (so it must not re-arm the watchdog), and
                // letting it trigger an extra evaluation would make the
                // command stream depend on duplication patterns.
                let written = if self.cache.ups_held.covers(measured_at) {
                    0
                } else {
                    write_newer(
                        &mut self.state.ups_power,
                        &mut self.cache.ups_held,
                        payload.readings(),
                        measured_at,
                    )
                };
                let accepted = written > 0;
                // Staleness, like acceptance, is counted but not
                // ring-recorded: both are re-derivable from the
                // delivery stream itself (a replayed controller makes
                // the same accept/ignore call), and duplicate-heavy
                // chaos would otherwise flood the ring.
                if accepted {
                    self.lower_oldest(measured_at);
                    // Acceptance is the normal case: count it, but keep
                    // the flight ring for anomalies (stale deliveries
                    // get an event; accepted ones are implied by their
                    // delivery).
                    self.readings_accepted.inc();
                    if now.saturating_since(measured_at) <= STALENESS_LIMIT {
                        self.state.last_ups_data = Some(match self.state.last_ups_data {
                            Some(t) => t.max(measured_at),
                            None => measured_at,
                        });
                        // Fresh data re-arms the blackout watchdog.
                        self.state.watchdog_fired = false;
                    }
                } else {
                    self.readings_stale.inc();
                }
                accepted
            }
            TelemetryPayload::RackSnapshot(_) => {
                if !self.cache.rack_held.covers(measured_at)
                    && write_newer(
                        &mut self.state.rack_power,
                        &mut self.cache.rack_held,
                        payload.readings(),
                        measured_at,
                    ) > 0
                {
                    self.lower_oldest(measured_at);
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

    /// Keeps the cache's `oldest` a lower bound after slot writes
    /// measured at `measured_at`.
    fn lower_oldest(&mut self, measured_at: SimTime) {
        let oldest = &mut self.cache.oldest;
        *oldest = Some(oldest.map_or(measured_at, |t| t.min(measured_at)));
    }

    /// Drops telemetry older than the staleness limit relative to `now`.
    /// The slots are scanned only when the oldest held reading may have
    /// expired; a scan also tightens the bound to the exact minimum.
    pub(crate) fn prune_stale(&mut self, now: SimTime) {
        let limit = STALENESS_LIMIT;
        let cache = &mut self.cache;
        if cache
            .oldest
            .is_some_and(|t| now.saturating_since(t) > limit)
        {
            let mut oldest: Option<SimTime> = None;
            let mut prune = |slots: &mut [Option<(SimTime, Watts)>], held: &mut Held| {
                for slot in slots {
                    match *slot {
                        Some((t, _)) if now.saturating_since(t) > limit => {
                            *slot = None;
                            held.emptied(t);
                        }
                        Some((t, _)) => oldest = Some(oldest.map_or(t, |o| o.min(t))),
                        None => {}
                    }
                }
            };
            prune(&mut self.state.ups_power, &mut cache.ups_held);
            prune(&mut self.state.rack_power, &mut cache.rack_held);
            cache.oldest = oldest;
        }
        if self.state.last_ups_data.is_some_and(|t| now.saturating_since(t) > limit) {
            self.state.last_ups_data = None;
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
        self.state.alarmed.insert(ups);
        self.state.failover_known.get_or_insert(now);
    }

    /// Notifies this instance that a previously alarmed UPS is back in
    /// service. When no alarms remain the failover is no longer "known";
    /// a still-ongoing overdraw will re-arm it via telemetry.
    pub fn on_ups_restored(&mut self, now: SimTime, ups: flex_power::UpsId) {
        self.obs.record(now, FlightEvent::AlarmCleared {
            controller: self.id as u32,
            ups: ups.0 as u32,
        });
        self.state.alarmed.remove(&ups);
        if self.state.alarmed.is_empty() {
            self.state.failover_known = None;
            self.state.watchdog_fired = false;
        }
    }

    /// Periodic liveness tick for the telemetry-blackout watchdog.
    ///
    /// When a failover is known and no fresh UPS snapshot has arrived
    /// within `BLACKOUT_DEADLINE` (4 s), decides against a
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
        if !self.config.blackout_watchdog || self.state.watchdog_fired {
            return Ok(Vec::new());
        }
        let Some(known_at) = self.state.failover_known else {
            return Ok(Vec::new());
        };
        let dark_since = match self.state.last_ups_data {
            Some(t) => t.max(known_at),
            None => known_at,
        };
        if now.saturating_since(dark_since) < BLACKOUT_DEADLINE {
            return Ok(Vec::new());
        }
        // Recorded only for the tick that fires: unarmed ticks and
        // armed ticks short of the blackout deadline are provably
        // no-ops (they mutate nothing and issue nothing), so replay
        // reproduces the decision sequence from firing ticks alone.
        self.obs.record(now, FlightEvent::WatchdogTick {
            controller: self.id as u32,
        });
        self.state.watchdog_fired = true;
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
                if self.state.alarmed.contains(&u.id()) {
                    Watts::ZERO
                } else {
                    u.capacity() * (4.0 / 3.0)
                }
            })
            .collect();
        self.state.healthy_since = None;
        self.shed_against(now, &ups_power)
    }

    /// Records that a previously issued action could not be enforced
    /// (unreachable RM), so it will be retried on the next decision.
    pub fn on_enforcement_failed(&mut self, rack: RackId) {
        self.state.action_log.remove(&rack);
        self.state.recent.retain(|(_, r, _)| *r != rack);
        if let Some(n) = self.cache.reflecting.get_mut(rack.0) {
            *n = 0;
        }
    }

    /// Puts an issued action (or a lifted one, with negated shares) in
    /// the reflect window. Every caller names a rack of `self.racks`.
    fn push_recent(&mut self, at: SimTime, rack: RackId, shares: RecoveryShares) {
        self.state.recent.push((at, rack, shares));
        if let Some(n) = self.cache.reflecting.get_mut(rack.0) {
            *n += 1;
        }
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
        catch_up: &[Delivery],
        now: SimTime,
    ) -> Result<Controller, OnlineError> {
        if snapshot.rack_states.len() != base.racks.len() {
            return Err(OnlineError::SnapshotLength {
                what: "recovery rack states",
                expected: base.racks.len(),
                got: snapshot.rack_states.len(),
            });
        }
        let mut c = base.restarted(snapshot.epoch);
        let s = &mut c.state;

        // 1. Enforced racks, from actuation ground truth.
        for (i, state) in snapshot.rack_states.iter().enumerate() {
            match state {
                RackPowerState::Off => {
                    s.action_log.insert(RackId(i), ActionKind::Shutdown);
                }
                RackPowerState::Throttled => {
                    s.action_log.insert(RackId(i), ActionKind::Throttle);
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
                    s.action_log.insert(cmd.rack, ActionKind::Shutdown);
                }
                RackPowerState::Throttled => {
                    s.action_log.insert(cmd.rack, ActionKind::Throttle);
                }
                RackPowerState::Normal => {
                    s.action_log.remove(&cmd.rack);
                }
            }
        }
        s.engaged = !s.action_log.is_empty();

        // 3. Standing alarms.
        for &(ups, since) in &snapshot.alarmed {
            s.alarmed.insert(ups);
            s.failover_known = Some(match s.failover_known {
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
        if !c.fill_ups_view(now) {
            c.ups_view.clear();
            c.ups_view
                .extend(c.topology.upses().iter().map(|u| u.capacity()));
        }
        infer_online(&c.topology, &c.ups_view, &POLICY, &mut c.online);
        for cmd in &inflight {
            if cmd.apply_at <= now {
                continue;
            }
            let Some(r) = c.racks.get(cmd.rack.0) else {
                continue;
            };
            let kind = match cmd.new_state {
                RackPowerState::Off => ActionKind::Shutdown,
                RackPowerState::Throttled => ActionKind::Throttle,
                RackPowerState::Normal => continue,
            };
            let slot = c.state.rack_power.get(cmd.rack.0).copied().flatten();
            let estimate = action_power(r, kind, slot.map(|(_, w)| w));
            if estimate.as_w() <= 0.0 {
                continue;
            }
            let shares = recovery_shares(&c.topology, r.pdu_pair, &c.online, estimate)?;
            c.push_recent(now, cmd.rack, shares);
        }
        Ok(c)
    }

    /// Fills `ups_view` with the held UPS readings; returns whether any
    /// is fresh (if none is, no decision can be made).
    fn fill_ups_view(&mut self, now: SimTime) -> bool {
        // A UPS with no fresh reading is assumed at its limit — the
        // conservative treatment the paper requires when data is missing.
        // Zipping the topology with the slots sidesteps any id lookup
        // (`ups_power` is sized from `topology.ups_count()` at build).
        self.ups_view.clear();
        let mut any_fresh = false;
        for (ups, slot) in self.topology.upses().iter().zip(&self.state.ups_power) {
            match slot {
                Some((t, w)) if now.saturating_since(*t) <= STALENESS_LIMIT => {
                    any_fresh = true;
                    self.ups_view.push(*w);
                }
                _ => self.ups_view.push(ups.capacity()),
            }
        }
        any_fresh
    }

    /// The held reading of rack `r`. Missing rack data estimates the
    /// rack at its provisioned power (conservative for recovery
    /// estimation).
    fn rack_reading(&self, r: &PlacedRack) -> Watts {
        match self.state.rack_power.get(r.id.0).copied().flatten() {
            Some((_, w)) => w,
            None => r.provisioned,
        }
    }

    fn evaluate(&mut self, now: SimTime) -> Result<Vec<Command>, OnlineError> {
        if !self.fill_ups_view(now) {
            return Ok(Vec::new());
        }
        // Project the recoveries of recently issued (not yet reflected)
        // actions onto the readings.
        let reflecting = &mut self.cache.reflecting;
        self.state.recent.retain(|&(t, rack, _)| {
            let keep = now.saturating_since(t) < REFLECT_WINDOW;
            if !keep {
                if let Some(n) = reflecting.get_mut(rack.0) {
                    *n = n.saturating_sub(1);
                }
            }
            keep
        });
        for (_, _, shares) in &self.state.recent {
            for (u, w) in shares.iter() {
                if let Some(slot) = self.ups_view.get_mut(u.0) {
                    *slot = (*slot - w).clamp_non_negative();
                }
            }
        }
        let ups_power = &self.ups_view;
        // Overdraw check against limit − buffer.
        let over = self.topology.upses().iter().any(|u| {
            let limit = u.capacity() * (1.0 - POLICY.buffer_fraction);
            ups_power
                .get(u.id().0)
                .is_some_and(|p| p.exceeds(limit))
        });
        if over {
            self.state.healthy_since = None;
            // An observed overdraw means a failover is in progress even
            // without an out-of-band alarm.
            self.state.failover_known.get_or_insert(now);
            let ups_power = std::mem::take(&mut self.ups_view);
            let commands = self.shed_against(now, &ups_power);
            self.ups_view = ups_power;
            return commands;
        }

        // Healthy: consider restoration if we are engaged.
        if !self.state.engaged {
            return Ok(Vec::new());
        }
        // A slot missing from the view (cannot happen: both are sized
        // from the topology) reads as "not healthy", the conservative
        // side for restoration.
        let all_in_service = self.topology.upses().iter().all(|u| {
            ups_power
                .get(u.id().0)
                .is_some_and(|p| *p > u.capacity() * POLICY.failed_threshold_fraction)
        });
        let all_below_restore = self.topology.upses().iter().all(|u| {
            ups_power
                .get(u.id().0)
                .is_some_and(|p| !p.exceeds(u.capacity() * RESTORE_THRESHOLD_FRACTION))
        });
        if all_in_service && all_below_restore {
            let since = *self.state.healthy_since.get_or_insert(now);
            if now.saturating_since(since) >= RESTORE_HYSTERESIS {
                let commands: Vec<Command> = self
                    .state
                    .action_log
                    .keys()
                    .map(|&rack| Command::Restore { rack })
                    .collect();
                let s = &mut self.state;
                s.action_log.clear();
                s.engaged = false;
                s.healthy_since = None;
                s.failover_known = None;
                s.alarmed.clear();
                s.watchdog_fired = false;
                return Ok(commands);
            }
            return Ok(Vec::new());
        }
        self.state.healthy_since = None;

        // Partial relief (the paper's "if the power draw falls
        // significantly, some power caps may be lifted or servers
        // restored", Section IV-D): while the failover persists but the
        // load has dropped well below the limit, lift one action per
        // telemetry round — the one whose reversal provably keeps every
        // UPS under limit − buffer.
        infer_online(&self.topology, &self.ups_view, &POLICY, &mut self.online);
        let ups_power = &self.ups_view;
        let mut best = None;
        for (&rack, &kind) in &self.state.action_log {
            // Never lift an action that may still be in flight —
            // telemetry has not yet confirmed its effect.
            if self.cache.reflecting.get(rack.0).is_some_and(|&n| n > 0) {
                continue;
            }
            let Some(r) = self.racks.get(rack.0) else {
                continue;
            };
            let returned = action_power(r, kind, Some(self.rack_reading(r)));
            if returned.as_w() <= 0.0 {
                continue;
            }
            let shares = recovery_shares(&self.topology, r.pdu_pair, &self.online, returned)?;
            // A UPS missing from the topology can never be proven
            // safe, so such a share vetoes the lift.
            let safe = shares.iter().all(|(u, w)| {
                self.topology.ups(u).is_ok_and(|ups| {
                    let limit = ups.capacity() * (1.0 - 2.0 * POLICY.buffer_fraction);
                    ups_power.get(u.0).is_some_and(|p| !(*p + w).exceeds(limit))
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
            self.state.action_log.remove(&rack);
            // Account for the returning load in the reflect window
            // (negative recovery = added power).
            let shares = recovery_shares(&self.topology, pair, &self.online, returned)?.negated();
            self.push_recent(now, rack, shares);
            if self.state.action_log.is_empty() {
                self.state.engaged = false;
            }
            return Ok(vec![Command::Restore { rack }]);
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
        let mut rack_view = std::mem::take(&mut self.rack_view);
        rack_view.clear();
        rack_view.extend(self.racks.iter().map(|r| self.rack_reading(r)));
        let input = DecisionInput {
            topology: &self.topology,
            racks: &self.racks,
            rack_power: &rack_view,
            ups_power,
        };
        let outcome = decide(&input, &self.state.action_log, &self.registry, &POLICY);
        self.rack_view = rack_view;
        let outcome = outcome?;
        infer_online(&self.topology, ups_power, &POLICY, &mut self.online);
        let mut commands = Vec::with_capacity(outcome.actions.len());
        for action in outcome.actions {
            // Policy actions always name racks from `self.racks`; a
            // stray id simply yields no recovery projection.
            let Some(pair) = self.racks.get(action.rack.0).map(|r| r.pdu_pair) else {
                continue;
            };
            self.state.action_log.insert(action.rack, action.kind);
            let shares = recovery_shares(
                &self.topology,
                pair,
                &self.online,
                action.estimated_recovery,
            )?;
            self.push_recent(now, action.rack, shares);
            commands.push(Command::Act {
                rack: action.rack,
                kind: action.kind,
            });
        }
        if !commands.is_empty() {
            self.state.engaged = true;
        }
        Ok(commands)
    }
}

/// Writes each `(slot, reading)` measured at `measured_at` into a slot
/// that is empty or holds older data, and accounts the writes in
/// `held`; a slot outside `slots` is ignored. Returns how many slots
/// were written.
fn write_newer(
    slots: &mut [Option<(SimTime, Watts)>],
    held: &mut Held,
    readings: impl Iterator<Item = (usize, Watts)>,
    measured_at: SimTime,
) -> usize {
    let mut written = 0;
    for (i, w) in readings {
        if let Some(slot) = slots.get_mut(i) {
            if slot.is_none_or(|(t, _)| t < measured_at) {
                *slot = Some((measured_at, w));
                written += 1;
            }
        }
    }
    held.wrote(slots.len(), measured_at, written);
    written
}

/// The power an action on rack `r` takes out of the room, which is
/// also what returns when it is lifted. A shutdown removes the rack's
/// `reading` (its provisioned power when there is none), capped at the
/// provisioned power; a throttle removes half the headroom between the
/// provisioned and the flex power.
fn action_power(r: &PlacedRack, kind: ActionKind, reading: Option<Watts>) -> Watts {
    match kind {
        ActionKind::Shutdown => reading.unwrap_or(r.provisioned).min(r.provisioned),
        ActionKind::Throttle => (r.provisioned - r.flex_power).clamp_non_negative() * 0.5,
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
        let ups = TelemetryPayload::ups(
            f.placed
                .room()
                .topology()
                .ups_ids()
                .map(|u| (u, loads.load(u))),
        );
        let racks = TelemetryPayload::racks(
            f.draws.iter().enumerate().map(|(i, &w)| (i, w)),
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
        assert!(!f.controller.state().engaged);
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
        assert!(f.controller.state().engaged);
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
        let t_late = t_ok + RESTORE_HYSTERESIS;
        let restores = f.controller.on_delivery(t_late, t_late, &ups_ok).unwrap();
        assert!(!restores.is_empty(), "restore after hysteresis");
        assert!(restores
            .iter()
            .all(|c| matches!(c, Command::Restore { .. })));
        assert!(!f.controller.state().engaged);
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
        let partial = TelemetryPayload::ups(vec![(UpsId(0), Watts::from_kw(900.0))]);
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
        assert!(f.controller.state().engaged);
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

    #[test]
    fn command_codes_round_trip() {
        let rack = RackId(17);
        let all = [
            Command::Act { rack, kind: ActionKind::Shutdown },
            Command::Act { rack, kind: ActionKind::Throttle },
            Command::Restore { rack },
        ];
        for (code, cmd) in all.into_iter().enumerate() {
            assert_eq!(cmd.code(), code as u8);
            assert_eq!(Command::from_code(rack, cmd.code()), cmd);
        }
        // Unknown codes fall back to a restore.
        assert_eq!(Command::from_code(rack, 3), Command::Restore { rack });
        assert_eq!(Command::from_code(rack, u8::MAX), Command::Restore { rack });
    }

    /// A fixture controller that has acted on a failover: alarmed,
    /// engaged, with telemetry, an action log and a reflect window.
    fn acted(util: f64) -> Fixture {
        let mut f = fixture(util);
        let topo = f.placed.room().topology().clone();
        let (ups_bad, racks) = snapshots(&f, &FeedState::with_failed(&topo, [UpsId(0)]));
        let t = SimTime::from_secs_f64(1.0);
        f.controller.on_failover_alarm(t, UpsId(0));
        f.controller.on_delivery(t, t, &racks).unwrap();
        let commands = f.controller.on_delivery(t, t, &ups_bad).unwrap();
        assert!(!commands.is_empty(), "the fixture must act");
        f
    }

    #[test]
    fn restarted_equals_new_in_that_epoch() {
        let f = acted(0.85);
        let ups = f.placed.room().topology().ups_count();
        let racks = f.placed.racks().len();
        let mut fresh = fixture(0.85).controller;
        assert_eq!(fresh.state(), &ControllerState::blank(ups, racks, 0));
        assert_ne!(f.controller.state(), fresh.state());

        let mut restarted = f.controller.restarted(7);
        assert_eq!(restarted.state(), &ControllerState::blank(ups, racks, 7));
        assert_eq!(restarted.id(), fresh.id());
        assert_eq!(restarted.cache.oldest, None);
        // Apart from the epoch it behaves as a new instance: the same
        // inputs give the same commands and the same state.
        let topo = f.placed.room().topology().clone();
        let (ups_bad, rack_snap) = snapshots(&f, &FeedState::with_failed(&topo, [UpsId(0)]));
        let t = SimTime::from_secs_f64(30.0);
        for c in [&mut restarted, &mut fresh] {
            c.on_delivery(t, t, &rack_snap).unwrap();
        }
        assert_eq!(
            restarted.on_delivery(t, t, &ups_bad).unwrap(),
            fresh.on_delivery(t, t, &ups_bad).unwrap()
        );
        let mut expected = fresh.state().clone();
        expected.epoch = 7;
        assert_eq!(restarted.state(), &expected);
    }

    #[test]
    fn recover_from_empty_snapshot_equals_restarted() {
        let f = acted(0.85);
        let snapshot = RecoverySnapshot {
            epoch: 5,
            rack_states: vec![RackPowerState::Normal; f.placed.racks().len()],
            inflight: Vec::new(),
            alarmed: Vec::new(),
            last_seq: vec![0; f.placed.room().topology().ups_count()],
        };
        let now = SimTime::from_secs_f64(2.0);
        let recovered = Controller::recover(&f.controller, &snapshot, &[], now).unwrap();
        assert_eq!(recovered.state(), f.controller.restarted(5).state());
        assert_eq!(recovered.epoch(), 5);
    }

    /// The reference `prune_stale`: scans every slot on every call.
    fn prune_stale_full_scan(c: &mut Controller, now: SimTime) {
        for slot in c.state.ups_power.iter_mut().chain(c.state.rack_power.iter_mut()) {
            if slot.is_some_and(|(t, _)| now.saturating_since(t) > STALENESS_LIMIT) {
                *slot = None;
            }
        }
        if c.state.last_ups_data
            .is_some_and(|t| now.saturating_since(t) > STALENESS_LIMIT)
        {
            c.state.last_ups_data = None;
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
    /// `restarted` rebuild; a step ≥ 8 s is stretched past the
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
            let mut now = SimTime::ZERO;
            let mut last: Option<(SimTime, TelemetryPayload)> = None;
            for (kind, step, age, first, count) in ops {
                let step = SimDuration::from_millis(step);
                now = now + if step >= SimDuration::from_secs(8) { step + STALENESS_LIMIT } else { step };
                let measured_at =
                    SimTime::from_nanos(now.as_nanos().saturating_sub(age * 1_000_000));
                let w = Watts::from_kw(age as f64 / 1_000.0);
                let (measured_at, payload) = match kind {
                    0..=3 => (
                        measured_at,
                        TelemetryPayload::ups(
                            (first..first + count).map(|i| (UpsId(i % 4), w)),
                        ),
                    ),
                    4..=7 => (
                        measured_at,
                        TelemetryPayload::racks(
                            (first..first + count).map(|i| (i % 8, w)),
                        ),
                    ),
                    8 => match &last {
                        Some(m) => m.clone(),
                        None => continue,
                    },
                    _ => {
                        c = c.restarted(c.epoch());
                        continue;
                    }
                };
                c.ingest(now, measured_at, &payload);
                last = Some((measured_at, payload));

                let mut reference = c.clone();
                prune_stale_full_scan(&mut reference, now);
                prop_assert_eq!(c.state(), reference.state(), "at {}", now);
                for (t, _) in c.state.ups_power.iter().chain(&c.state.rack_power).flatten() {
                    prop_assert!(
                        c.cache.oldest.is_some_and(|o| o <= *t),
                        "bound {:?} above held reading at {}", c.cache.oldest, t
                    );
                }
            }
        }

        #[test]
        fn skipping_ingest_matches_the_per_reading_loop(ops in arb_deliveries()) {
            let fast_obs = Obs::recording();
            let slow_obs = Obs::recording();
            let mut fast = small_controller();
            fast.set_obs(&fast_obs);
            let mut slow = small_controller();
            slow.set_obs(&slow_obs);
            let mut now = SimTime::ZERO;
            let mut sent: Vec<(SimTime, TelemetryPayload)> = Vec::new();
            for (step, (kind, step_ms, age, mask, level)) in ops.into_iter().enumerate() {
                let step_ms = SimDuration::from_millis(step_ms);
                now += if step_ms >= SimDuration::from_secs(8) { step_ms + STALENESS_LIMIT } else { step_ms };
                let fresh = SimTime::from_nanos(now.as_nanos().saturating_sub(age * 1_000_000));
                let kw = |i: usize| Watts::from_kw(((level as usize + 37 * i) % 200) as f64);
                let in_mask = move |i: usize| mask & (1 << i) != 0;
                let delivery = match kind {
                    0..=2 => Some((
                        fresh,
                        TelemetryPayload::ups((0..4).filter(|&i| in_mask(i)).map(|i| (UpsId(i), kw(i)))),
                    )),
                    3..=5 => Some((
                        fresh,
                        TelemetryPayload::racks(
                            (0..8).filter(|&i| in_mask(i)).map(|i| (i, kw(i) * 0.1)),
                        ),
                    )),
                    6 => sent.last().cloned(),
                    7 => sent.get(level as usize % sent.len().max(1)).cloned(),
                    _ => None,
                };
                let (got, want) = match (kind, delivery) {
                    (0..=7, Some((measured_at, payload))) => {
                        let got = fast.on_delivery(now, measured_at, &payload);
                        let want = on_delivery_reference(&mut slow, now, measured_at, &payload);
                        sent.push((measured_at, payload));
                        (got, want)
                    }
                    (8, _) => {
                        fast = fast.restarted(fast.epoch() + 1);
                        slow = slow.restarted(slow.epoch() + 1);
                        (Ok(Vec::new()), Ok(Vec::new()))
                    }
                    (9, _) => (fast.on_tick(now), slow.on_tick(now)),
                    (10, _) => {
                        for c in [&mut fast, &mut slow] {
                            c.on_failover_alarm(now, UpsId(level as usize % 4));
                        }
                        (Ok(Vec::new()), Ok(Vec::new()))
                    }
                    (11, _) => {
                        for c in [&mut fast, &mut slow] {
                            c.on_enforcement_failed(RackId(level as usize % 8));
                        }
                        (Ok(Vec::new()), Ok(Vec::new()))
                    }
                    _ => continue,
                };
                prop_assert_eq!(got, want, "commands at step {}", step);
                prop_assert_eq!(fast.state(), slow.state(), "state at step {}", step);
                prop_assert_eq!(
                    fast_obs.snapshot().counters,
                    slow_obs.snapshot().counters,
                    "counters at step {}", step
                );
                // The caches are exact: `behind` counts the slots that
                // are empty or older than the newest write, and the
                // reflect markers count the window's entries.
                let c = &fast;
                for (held, slots) in [
                    (c.cache.ups_held, &c.state.ups_power),
                    (c.cache.rack_held, &c.state.rack_power),
                ] {
                    let behind = slots
                        .iter()
                        .filter(|s| s.is_none_or(|(t, _)| held.newest.is_none_or(|n| t < n)))
                        .count();
                    prop_assert_eq!(held.behind, behind, "behind {:?}", held.newest);
                    let newest = slots.iter().flatten().map(|&(t, _)| t).max();
                    prop_assert!(newest <= held.newest, "newest {:?} above {:?}", newest, held.newest);
                }
                for (i, n) in c.cache.reflecting.iter().enumerate() {
                    let entries = c.state.recent.iter().filter(|(_, r, _)| r.0 == i).count();
                    prop_assert_eq!(*n as usize, entries, "reflect marker of rack {}", i);
                }
            }
        }
    }

    /// The per-reading ingest loop that the floor skip replaces: every
    /// snapshot compares all its readings, and each accepted reading
    /// lowers `oldest`.
    fn ingest_reference(
        c: &mut Controller,
        now: SimTime,
        measured_at: SimTime,
        payload: &TelemetryPayload,
    ) -> bool {
        let evaluate = match payload {
            TelemetryPayload::UpsSnapshot(_) => {
                let mut accepted = false;
                for (ups, w) in payload.readings() {
                    if let Some(slot) = c.state.ups_power.get_mut(ups) {
                        if slot.is_none_or(|(t, _)| t < measured_at) {
                            *slot = Some((measured_at, w));
                            accepted = true;
                            c.lower_oldest(measured_at);
                        }
                    }
                }
                if accepted {
                    c.readings_accepted.inc();
                    if now.saturating_since(measured_at) <= STALENESS_LIMIT {
                        c.state.last_ups_data = Some(match c.state.last_ups_data {
                            Some(t) => t.max(measured_at),
                            None => measured_at,
                        });
                        c.state.watchdog_fired = false;
                    }
                } else {
                    c.readings_stale.inc();
                }
                accepted
            }
            TelemetryPayload::RackSnapshot(_) => {
                for (rack, w) in payload.readings() {
                    if let Some(slot) = c.state.rack_power.get_mut(rack) {
                        if slot.is_none_or(|(t, _)| t < measured_at) {
                            *slot = Some((measured_at, w));
                            c.lower_oldest(measured_at);
                        }
                    }
                }
                false
            }
        };
        c.prune_stale(now);
        evaluate
    }

    /// [`Controller::on_delivery`] over [`ingest_reference`].
    fn on_delivery_reference(
        c: &mut Controller,
        now: SimTime,
        measured_at: SimTime,
        payload: &TelemetryPayload,
    ) -> Result<Vec<Command>, OnlineError> {
        if ingest_reference(c, now, measured_at, payload) {
            c.evaluate(now)
        } else {
            Ok(Vec::new())
        }
    }

    /// One generated step of the ingest comparison: (kind, arrival step
    /// ms, age at arrival ms, reading mask, reading level). Kinds 0-2
    /// are UPS snapshots and 3-5 rack snapshots carrying the readings
    /// the mask selects (partial snapshots model dropped readings), 6
    /// redelivers the last message, 7 an earlier one (reordering), 8
    /// restarts both instances, 9 ticks the watchdog, 10 raises a
    /// failover alarm and 11 reports an enforcement failure. Readings
    /// span 0-199 kW per 150 kW UPS, so overdraws shed and relieve. A
    /// step ≥ 8 s is stretched past the staleness limit.
    fn arb_deliveries() -> impl Strategy<Value = Vec<(u8, u64, u64, u16, u64)>> {
        proptest::collection::vec(
            (0u8..12, 0u64..10_000, 0u64..18_000, 0u16..256, 0u64..1_000),
            1..80,
        )
    }
}
