//! Out-of-band actuation through rack managers and BMCs.
//!
//! Flex-Online enforces actions via the rack manager (RM) / baseboard
//! management controller (BMC) out-of-band path (Section VI): commands
//! take ~hundreds of milliseconds to a couple of seconds (p99.9 ≈ 2 s in
//! production for a 10 MW room), RMs can be unreachable, and repeated
//! commands must be idempotent.
//!
//! The actuator is also the fencing point of the recovery protocol (see
//! `crate::recovery`): every submission carries the issuing instance's
//! epoch, and with [`ActuatorConfig::fencing`] on, a command whose epoch
//! is older than the newest the actuator has seen for that instance is
//! rejected outright — a stale or partitioned controller can never move
//! a rack after its successor has acted.

use std::collections::BTreeMap;

use flex_obs::{Counter, FlightEvent, Obs, Span};
use flex_placement::RackId;
use flex_sim::dist::{LogNormal, Sample};
use flex_sim::fault::{names as fault_names, FaultPlan};
use flex_sim::rng::RngPool;
use flex_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;

use crate::policy::ActionKind;

/// Electrical state of a rack as enforced by its rack manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RackPowerState {
    /// Unconstrained.
    #[default]
    Normal,
    /// Capped at the rack's flex power.
    Throttled,
    /// Powered off.
    Off,
}

/// Actuator tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuatorConfig {
    /// Median command latency (RM/BMC round trip + enforcement).
    pub latency_median_ms: f64,
    /// Log-normal sigma of the command latency.
    pub latency_sigma: f64,
    /// Extra delay for a rack to boot back up after a restore command.
    pub restart_delay: SimDuration,
    /// First-retry backoff after a rejected submission; doubles per
    /// attempt up to [`retry_backoff_max`](Self::retry_backoff_max).
    pub retry_backoff_base: SimDuration,
    /// Backoff ceiling.
    pub retry_backoff_max: SimDuration,
    /// Maximum resubmissions of a rejected command before giving up and
    /// reporting enforcement failure to the controller. `0` disables
    /// retries (the pre-hardening behavior: wait for the next decision
    /// round).
    pub max_retries: u32,
    /// Reject submissions carrying an epoch older than the newest seen
    /// for the issuing instance. Off reproduces the pre-fencing bug
    /// mode: stale commands are accepted (tagged, so the simulation can
    /// flag their application) — the A/B lever of the chaos campaign.
    pub fencing: bool,
}

impl Default for ActuatorConfig {
    fn default() -> Self {
        ActuatorConfig {
            latency_median_ms: 600.0,
            latency_sigma: 0.45,
            restart_delay: SimDuration::from_secs(90),
            retry_backoff_base: SimDuration::from_millis(250),
            retry_backoff_max: SimDuration::from_secs(2),
            max_retries: 6,
            fencing: true,
        }
    }
}

impl ActuatorConfig {
    /// Deterministic exponential backoff before resubmission number
    /// `attempt` (1-based): `base × 2^(attempt−1)`, capped at
    /// [`retry_backoff_max`](Self::retry_backoff_max). No jitter — the
    /// simulation's determinism guarantees depend on it, and distinct
    /// controllers already desynchronize through their command streams.
    pub fn retry_backoff(&self, attempt: u32) -> SimDuration {
        let doublings = attempt.saturating_sub(1).min(16);
        (self.retry_backoff_base * (1u64 << doublings)).min(self.retry_backoff_max)
    }
}

/// A command accepted by the actuator, to be applied at `apply_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingCommand {
    /// Target rack.
    pub rack: RackId,
    /// State the rack will be in once applied.
    pub new_state: RackPowerState,
    /// When the state change takes effect.
    pub apply_at: SimTime,
    /// The controller instance that issued the command.
    pub issuer: usize,
    /// The issuer's epoch at submission time.
    pub epoch: u64,
    /// True if the epoch was already superseded at submission — only
    /// possible with fencing off, where the stale command is accepted
    /// anyway (the bug mode the chaos A/B exposes).
    pub stale: bool,
}

/// The actuator's verdict on a submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Submission {
    /// Accepted; the command applies at `apply_at`.
    Accepted(PendingCommand),
    /// The rack manager is unreachable (or the rack id is foreign);
    /// worth retrying.
    Unreachable,
    /// Rejected by the epoch fence: the issuer has been superseded.
    /// Never retried — the successor instance owns the rack now.
    Fenced,
}

impl Submission {
    /// The accepted command, if any.
    pub fn accepted(self) -> Option<PendingCommand> {
        match self {
            Submission::Accepted(cmd) => Some(cmd),
            _ => None,
        }
    }
}

/// The rack-manager actuation path: latency, reachability, idempotency.
///
/// Reachability is governed by a [`FaultPlan`] with component names
/// `"rm/{rack}"`. Commands to unreachable RMs are rejected (the
/// controller retries on its next decision round).
#[derive(Debug, Clone)]
pub struct Actuator {
    config: ActuatorConfig,
    states: Vec<RackPowerState>,
    faults: FaultPlan,
    latency: LogNormal,
    rng: SmallRng,
    /// Per-rack time of the latest scheduled enforcement: commands to
    /// the same rack manager apply in submission order (the RM serializes
    /// its command queue), so a restore can never overtake an in-flight
    /// action.
    last_apply: Vec<SimTime>,
    /// Per-issuer epoch high-water mark (the fence).
    fence: BTreeMap<usize, u64>,
    /// Accepted commands not yet applied, in acceptance order — the
    /// in-flight set a `RecoverySnapshot` hands to a restarted instance.
    pending: Vec<PendingCommand>,
    /// Precomputed `"rm/{rack}"` fault-plan names: reachability is
    /// checked on every submission and formatting the name there showed
    /// up in the closed-loop hot path (see benches/fault_plan.rs).
    rm_names: Vec<String>,
    /// Observability (noop unless attached).
    obs: Obs,
    submissions: Counter,
    rejections: Counter,
    fenced: Counter,
    submit_to_apply: Span,
}

impl Actuator {
    /// Creates an actuator for `rack_count` racks, all initially normal.
    pub fn new(rack_count: usize, config: ActuatorConfig, pool: &RngPool) -> Self {
        Actuator {
            states: vec![RackPowerState::Normal; rack_count],
            latency: LogNormal::from_median(config.latency_median_ms.max(1e-3), config.latency_sigma.max(1e-6)),
            rng: pool.stream("actuator"),
            faults: FaultPlan::new(),
            last_apply: vec![SimTime::ZERO; rack_count],
            fence: BTreeMap::new(),
            pending: Vec::new(),
            rm_names: (0..rack_count).map(fault_names::rack_manager).collect(),
            obs: Obs::noop(),
            submissions: Counter::noop(),
            rejections: Counter::noop(),
            fenced: Counter::noop(),
            submit_to_apply: Span::noop(),
            config,
        }
    }

    /// Attaches observability. `actuation/submissions` counts accepted
    /// submissions, `actuation/rejections` unreachable-RM rejections,
    /// and `span/actuate/submit_to_apply` histograms the enforcement
    /// latency the actuator just sampled — the last leg of the
    /// detect-to-shed budget. Recording happens after the latency RNG
    /// draw and never feeds back into scheduling, so an instrumented
    /// actuator applies commands at bit-identical times.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.submissions = obs.counter("actuation/submissions");
        self.rejections = obs.counter("actuation/rejections");
        self.fenced = obs.counter("actuation/fenced");
        self.submit_to_apply = obs.span("span/actuate/submit_to_apply");
    }

    /// The actuator's configuration.
    pub fn config(&self) -> &ActuatorConfig {
        &self.config
    }

    /// Attaches a fault plan (`"rm/{rack}"` outages).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Current state of a rack, or `None` for a foreign rack id.
    pub fn state(&self, rack: RackId) -> Option<RackPowerState> {
        self.states.get(rack.0).copied()
    }

    /// All rack states (index = rack id).
    pub fn states(&self) -> &[RackPowerState] {
        &self.states
    }

    /// Accepted commands not yet applied, in acceptance order.
    pub fn pending(&self) -> &[PendingCommand] {
        &self.pending
    }

    /// The newest epoch observed for an issuing instance (0 if never
    /// seen).
    pub fn latest_epoch(&self, issuer: usize) -> u64 {
        self.fence.get(&issuer).copied().unwrap_or(0)
    }

    /// Advances the fence for `issuer` to at least `epoch`. The room
    /// simulation calls this at every epoch bump so the fence closes
    /// the moment a successor exists, not at its first command.
    pub fn observe_epoch(&mut self, issuer: usize, epoch: u64) {
        let slot = self.fence.entry(issuer).or_insert(0);
        *slot = (*slot).max(epoch);
    }

    /// Submits a corrective action on behalf of instance `issuer` at
    /// `epoch`. Submitting an action the rack is already in (or heading
    /// to) is accepted and harmless — the application is idempotent.
    pub fn submit_action(
        &mut self,
        now: SimTime,
        issuer: usize,
        epoch: u64,
        rack: RackId,
        kind: ActionKind,
    ) -> Submission {
        self.submit(now, issuer, epoch, rack, match kind {
            ActionKind::Shutdown => RackPowerState::Off,
            ActionKind::Throttle => RackPowerState::Throttled,
        }, SimDuration::ZERO)
    }

    /// Submits a restore (lift cap / power on). Powering on adds the
    /// configured restart delay.
    pub fn submit_restore(
        &mut self,
        now: SimTime,
        issuer: usize,
        epoch: u64,
        rack: RackId,
    ) -> Submission {
        let extra = if self.states.get(rack.0) == Some(&RackPowerState::Off) {
            self.config.restart_delay
        } else {
            SimDuration::ZERO
        };
        self.submit(now, issuer, epoch, rack, RackPowerState::Normal, extra)
    }

    fn submit(
        &mut self,
        now: SimTime,
        issuer: usize,
        epoch: u64,
        rack: RackId,
        new_state: RackPowerState,
        extra_delay: SimDuration,
    ) -> Submission {
        // Foreign rack ids have no precomputed RM name and are rejected.
        if rack.0 >= self.rm_names.len() {
            return Submission::Unreachable;
        }
        // The fence sits at the actuation entry, ahead of reachability:
        // a superseded issuer is refused even for racks whose RM happens
        // to be down (so its retry chain dies instead of respinning).
        // Rejecting before the latency draw keeps the RNG stream
        // identical whether or not stale traffic shows up.
        let latest = self.latest_epoch(issuer);
        if self.config.fencing && epoch < latest {
            self.fenced.inc();
            self.obs.record_with(now, || FlightEvent::CommandFenced {
                controller: issuer as u32,
                rack: rack.0 as u32,
                epoch,
                latest,
            });
            return Submission::Fenced;
        }
        let stale = epoch < latest;
        self.observe_epoch(issuer, epoch);
        let reachable = self
            .rm_names
            .get(rack.0)
            .is_some_and(|rm| self.faults.is_up(rm, now));
        if !reachable {
            self.rejections.inc();
            return Submission::Unreachable;
        }
        let latency_ms = self.latency.sample(&mut self.rng);
        let mut apply_at = now + SimDuration::from_secs_f64(latency_ms / 1_000.0) + extra_delay;
        // Per-rack FIFO: the RM serializes commands.
        let Some(last) = self.last_apply.get_mut(rack.0) else {
            return Submission::Unreachable;
        };
        apply_at = apply_at.max(*last + SimDuration::from_millis(1));
        *last = apply_at;
        self.submissions.inc();
        self.submit_to_apply.record_between(now, apply_at);
        self.obs.record_with(now, || FlightEvent::CommandSubmitted {
            rack: rack.0 as u32,
            state: state_code(new_state),
            apply_at_ns: apply_at.as_nanos(),
        });
        let cmd = PendingCommand {
            rack,
            new_state,
            apply_at,
            issuer,
            epoch,
            stale,
        };
        self.pending.push(cmd);
        Submission::Accepted(cmd)
    }

    /// Applies a pending command (call at its `apply_at` time).
    /// Idempotent: re-applying the current state is a no-op. The command
    /// leaves the in-flight set whether or not its issuer still lives —
    /// an accepted command always runs to completion (the RM already
    /// holds it), which is what lets a recovered instance adopt it.
    pub fn apply(&mut self, cmd: &PendingCommand) {
        if let Some(pos) = self.pending.iter().position(|p| p == cmd) {
            self.pending.remove(pos);
        }
        if let Some(slot) = self.states.get_mut(cmd.rack.0) {
            *slot = cmd.new_state;
        }
    }

    /// The effective power a rack draws given its demand and envelope.
    /// A foreign rack id is not under this actuator's control and passes
    /// its demand through unconstrained.
    pub fn effective_power(
        &self,
        rack: RackId,
        demand: flex_power::Watts,
        flex_power: flex_power::Watts,
    ) -> flex_power::Watts {
        match self.states.get(rack.0).copied().unwrap_or_default() {
            RackPowerState::Normal => demand,
            RackPowerState::Throttled => demand.min(flex_power),
            RackPowerState::Off => flex_power::Watts::ZERO,
        }
    }
}

/// The flight-recorder wire code for a rack power state
/// (0 = normal, 1 = throttled, 2 = off).
pub fn state_code(state: RackPowerState) -> u8 {
    match state {
        RackPowerState::Normal => 0,
        RackPowerState::Throttled => 1,
        RackPowerState::Off => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flex_power::Watts;

    fn actuator(n: usize) -> Actuator {
        Actuator::new(n, ActuatorConfig::default(), &RngPool::new(9))
    }

    fn ok(s: Submission) -> PendingCommand {
        match s {
            Submission::Accepted(cmd) => cmd,
            other => panic!("expected acceptance, got {other:?}"),
        }
    }

    #[test]
    fn submit_and_apply_changes_state() {
        let mut a = actuator(4);
        let cmd = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(2), ActionKind::Throttle));
        assert!(cmd.apply_at > SimTime::ZERO);
        assert_eq!(a.state(RackId(2)), Some(RackPowerState::Normal), "not yet applied");
        a.apply(&cmd);
        assert_eq!(a.state(RackId(2)), Some(RackPowerState::Throttled));
    }

    #[test]
    fn idempotent_application() {
        let mut a = actuator(2);
        let c1 = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Shutdown));
        let c2 = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Shutdown));
        a.apply(&c1);
        a.apply(&c2);
        assert_eq!(a.state(RackId(0)), Some(RackPowerState::Off));
    }

    #[test]
    fn unreachable_rm_rejects_commands() {
        let mut a = actuator(2);
        let mut plan = FaultPlan::new();
        plan.add_outage("rm/1", SimTime::ZERO, SimTime::from_secs_f64(100.0));
        a.set_fault_plan(plan);
        assert_eq!(
            a.submit_action(SimTime::from_secs_f64(5.0), 0, 0, RackId(1), ActionKind::Throttle),
            Submission::Unreachable
        );
        // Other racks unaffected.
        ok(a.submit_action(SimTime::from_secs_f64(5.0), 0, 0, RackId(0), ActionKind::Throttle));
        // After the outage, reachable again.
        ok(a.submit_action(SimTime::from_secs_f64(101.0), 0, 0, RackId(1), ActionKind::Throttle));
    }

    #[test]
    fn restore_from_off_includes_restart_delay() {
        let mut a = actuator(1);
        let down = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Shutdown));
        a.apply(&down);
        let now = SimTime::from_secs_f64(60.0);
        let up = ok(a.submit_restore(now, 0, 0, RackId(0)));
        assert!(up.apply_at >= now + ActuatorConfig::default().restart_delay);
        a.apply(&up);
        assert_eq!(a.state(RackId(0)), Some(RackPowerState::Normal));
        // Restoring a throttled rack has no restart delay.
        let t = ok(a.submit_action(up.apply_at, 0, 0, RackId(0), ActionKind::Throttle));
        a.apply(&t);
        let lift = ok(a.submit_restore(t.apply_at, 0, 0, RackId(0)));
        assert!(lift.apply_at < t.apply_at + SimDuration::from_secs(30));
    }

    #[test]
    fn effective_power_by_state() {
        let mut a = actuator(1);
        let demand = Watts::from_kw(14.0);
        let flex = Watts::from_kw(11.0);
        assert_eq!(a.effective_power(RackId(0), demand, flex), demand);
        let t = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Throttle));
        a.apply(&t);
        assert_eq!(a.effective_power(RackId(0), demand, flex), flex);
        // Throttle only binds when demand exceeds flex.
        assert_eq!(
            a.effective_power(RackId(0), Watts::from_kw(5.0), flex),
            Watts::from_kw(5.0)
        );
        let off = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Shutdown));
        a.apply(&off);
        assert_eq!(a.effective_power(RackId(0), demand, flex), Watts::ZERO);
    }

    #[test]
    fn apply_latency_is_subsecondish() {
        let mut a = actuator(100);
        let mut latencies: Vec<f64> = (0..100)
            .map(|i| {
                let cmd = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(i), ActionKind::Throttle));
                (cmd.apply_at - SimTime::ZERO).as_secs_f64()
            })
            .collect();
        latencies.sort_by(f64::total_cmp);
        let p50 = latencies[latencies.len() / 2];
        assert!((0.2..2.0).contains(&p50), "median latency {p50}s");
    }

    #[test]
    fn per_rack_commands_apply_in_submission_order() {
        // Regression: a restore submitted just after an action must
        // never take effect before it (the RM serializes its queue) —
        // otherwise the rack would end up acted-on with no owner.
        let mut a = actuator(1);
        for _ in 0..200 {
            let act =
                ok(a.submit_action(SimTime::from_secs_f64(1.0), 0, 0, RackId(0), ActionKind::Throttle));
            let restore = ok(a.submit_restore(SimTime::from_secs_f64(1.01), 0, 0, RackId(0)));
            assert!(
                restore.apply_at > act.apply_at,
                "restore ({}) overtook action ({})",
                restore.apply_at,
                act.apply_at
            );
        }
    }

    #[test]
    fn foreign_rack_rejected() {
        let mut a = actuator(1);
        assert_eq!(
            a.submit_action(SimTime::ZERO, 0, 0, RackId(5), ActionKind::Throttle),
            Submission::Unreachable
        );
        assert_eq!(a.state(RackId(5)), None);
        // A foreign rack is not under actuator control: demand passes
        // through instead of panicking.
        assert_eq!(
            a.effective_power(RackId(5), Watts::from_kw(7.0), Watts::from_kw(5.0)),
            Watts::from_kw(7.0)
        );
    }

    #[test]
    fn fence_rejects_superseded_epochs() {
        let mut a = actuator(3);
        // Epoch 0 commands flow while it is the newest.
        ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Throttle));
        // A successor appears (restart): epoch 1 observed out of band.
        a.observe_epoch(0, 1);
        assert_eq!(
            a.submit_action(SimTime::from_secs_f64(1.0), 0, 0, RackId(1), ActionKind::Shutdown),
            Submission::Fenced,
            "stale epoch must be fenced"
        );
        assert_eq!(
            a.submit_restore(SimTime::from_secs_f64(1.0), 0, 0, RackId(0)),
            Submission::Fenced,
            "restores are fenced too"
        );
        // The new epoch itself flows, and other issuers are unaffected.
        ok(a.submit_action(SimTime::from_secs_f64(1.0), 0, 1, RackId(1), ActionKind::Shutdown));
        ok(a.submit_action(SimTime::from_secs_f64(1.0), 1, 0, RackId(2), ActionKind::Throttle));
        assert_eq!(a.latest_epoch(0), 1);
        assert_eq!(a.latest_epoch(1), 0);
    }

    #[test]
    fn fencing_off_accepts_but_tags_stale_commands() {
        let mut a = Actuator::new(
            2,
            ActuatorConfig {
                fencing: false,
                ..ActuatorConfig::default()
            },
            &RngPool::new(9),
        );
        a.observe_epoch(0, 2);
        let cmd = ok(a.submit_action(SimTime::ZERO, 0, 1, RackId(0), ActionKind::Shutdown));
        assert!(cmd.stale, "superseded epoch must be tagged");
        let fresh = ok(a.submit_action(SimTime::ZERO, 0, 2, RackId(1), ActionKind::Throttle));
        assert!(!fresh.stale);
        // The stale command still applies — the bug mode under test.
        a.apply(&cmd);
        assert_eq!(a.state(RackId(0)), Some(RackPowerState::Off));
    }

    #[test]
    fn pending_tracks_the_inflight_set() {
        let mut a = actuator(3);
        let c1 = ok(a.submit_action(SimTime::ZERO, 0, 0, RackId(0), ActionKind::Shutdown));
        let c2 = ok(a.submit_action(SimTime::ZERO, 1, 0, RackId(1), ActionKind::Throttle));
        assert_eq!(a.pending(), &[c1, c2]);
        a.apply(&c1);
        assert_eq!(a.pending(), &[c2], "applied commands leave the set");
        a.apply(&c2);
        assert!(a.pending().is_empty());
        // Re-applying is harmless.
        a.apply(&c2);
        assert!(a.pending().is_empty());
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let c = ActuatorConfig::default();
        assert_eq!(c.retry_backoff(1), SimDuration::from_millis(250));
        assert_eq!(c.retry_backoff(2), SimDuration::from_millis(500));
        assert_eq!(c.retry_backoff(3), SimDuration::from_millis(1000));
        assert_eq!(c.retry_backoff(4), SimDuration::from_millis(2000));
        // Capped at the ceiling from then on.
        assert_eq!(c.retry_backoff(5), SimDuration::from_secs(2));
        assert_eq!(c.retry_backoff(60), SimDuration::from_secs(2));
    }
}
