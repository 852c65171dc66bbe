//! The post-run safety oracle: decides whether a finished scenario run
//! violated the closed loop's safety contract.
//!
//! Four checks, mirroring the paper's availability argument:
//!
//! 1. **No unexcused UPS trip.** A survivor tripping on its overload
//!    curve is a room-availability loss — the one outcome Flex promises
//!    to avoid. A trip is *excused* only when no correct system could
//!    have prevented it: the contiguous overload window was shorter
//!    than the physical response floor, or no controller instance was
//!    alive anywhere in the actionable window, or every rack manager
//!    was unreachable throughout it. Telemetry darkness is **not** an
//!    excuse: the out-of-band failover alarm plus the blackout watchdog
//!    exist precisely so the loop sheds blind rather than waiting out
//!    the trip curve on stale hope.
//! 2. **No orphaned rack.** A rack left `Off` at the horizon must have
//!    an owner: either an in-flight enforcement (apply or retry), or a
//!    live controller holding the action in its log. Powered-off racks
//!    nobody will ever restore are silent capacity loss.
//! 3. **Bounded over-shed.** Shedding is allowed to overshoot (the
//!    watchdog sheds against a worst-case view), but the estimated shed
//!    power may never exceed three times the failed capacity plus a 2%
//!    slack of provisioned — beyond that the loop is amputating, not
//!    containing.
//! 4. **No stale-epoch actuation.** A rack must never transition on a
//!    command whose issuer epoch was already superseded (its
//!    incarnation crashed or was declared isolated). With fencing on
//!    the actuation layer rejects these outright; this check catches
//!    the tagged applies the ablated (no-fencing) configuration lets
//!    through.

use flex_obs::json::{obj, Value};
use flex_online::sim::SimEvent;
use flex_online::RackPowerState;
use flex_sim::{SimDuration, SimTime};

use crate::scenario::{fault_plan_of, RunOutcome, CONTROLLERS};

/// Minimum seconds any implementation needs between *knowing* about an
/// overload and racks actually shedding: alarm/data propagation, one
/// decision round, actuation latency. Trips with less actionable time
/// than this are physics, not bugs.
const RESP_FLOOR_SECS: f64 = 3.0;

/// Out-of-band alarm latency (mirrors `RoomSimConfig::default`).
const ALARM_LATENCY_SECS: f64 = 0.2;

/// Oracle sampling step when scanning availability windows.
const SCAN_STEP_SECS: f64 = 0.1;

/// Over-shed bound: shed ≤ `failed capacity × OVERSHED_FACTOR + slack`.
const OVERSHED_FACTOR: f64 = 3.0;

/// Over-shed slack as a fraction of provisioned room power.
const OVERSHED_SLACK_FRACTION: f64 = 0.02;

/// One safety violation found by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Violation class: `"unexcused-trip"`, `"orphaned-rack"`,
    /// `"over-shed"`, `"stale-command"`.
    pub kind: String,
    /// Human-readable specifics (deterministic across runs).
    pub detail: String,
}

impl Violation {
    /// Serializes to a JSON value.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("kind", Value::Str(self.kind.clone())),
            ("detail", Value::Str(self.detail.clone())),
        ])
    }
}

/// Runs every oracle check against a finished run.
pub fn check(out: &RunOutcome) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_trips(out, &mut violations);
    check_orphans(out, &mut violations);
    check_overshed(out, &mut violations);
    check_fencing(out, &mut violations);
    violations
}

/// No rack may transition on a command from a superseded epoch. Fenced
/// submissions never apply, so with fencing enabled this is vacuously
/// clean; the ablated configuration tags each stale apply instead.
fn check_fencing(out: &RunOutcome, violations: &mut Vec<Violation>) {
    for (at, event) in &out.sim.world().stats.events {
        let SimEvent::StaleApplied { rack } = event else {
            continue;
        };
        violations.push(Violation {
            kind: "stale-command".to_string(),
            detail: format!(
                "rack {} transitioned at {:.3}s on a command issued under a superseded \
                 controller epoch",
                rack.0,
                at.as_secs_f64()
            ),
        });
    }
}

fn sample_times(from: f64, until: f64) -> impl Iterator<Item = SimTime> {
    let steps = (((until - from) / SCAN_STEP_SECS).ceil() as usize).max(1);
    (0..=steps).map(move |i| {
        let t = (from + i as f64 * SCAN_STEP_SECS).min(until);
        SimTime::from_secs_f64(t.max(0.0))
    })
}

fn check_trips(out: &RunOutcome, violations: &mut Vec<Violation>) {
    let world = out.sim.world();
    let scenario = &out.scenario;
    let controller_plan = fault_plan_of(&scenario.controller_faults);
    let rm_plan = fault_plan_of(&scenario.rm_faults);
    let pipeline_plan = fault_plan_of(&scenario.pipeline_faults);
    let rack_count = world.racks().len();

    for (at, event) in &world.stats.events {
        let SimEvent::UpsTripped(ups) = event else {
            continue;
        };
        let trip_secs = at.as_secs_f64();
        let window_secs = world
            .accumulators()
            .get(ups.0)
            .and_then(|a| a.trip_overload_secs())
            .unwrap_or(0.0);
        // Physics excuse: the overload window was too short for any
        // response (e.g. a second transfer pushing a survivor to 2×
        // load, 0.5 s tolerance).
        if window_secs < RESP_FLOOR_SECS + ALARM_LATENCY_SECS {
            continue;
        }
        let known_from = trip_secs - window_secs + ALARM_LATENCY_SECS;
        let actionable_until = trip_secs - RESP_FLOOR_SECS;
        if actionable_until <= known_from {
            continue;
        }
        // Liveness excuses: scan the actionable window.
        let mut controller_alive = false;
        let mut rm_reachable = false;
        let mut dark_samples = 0usize;
        let mut samples = 0usize;
        for t in sample_times(known_from, actionable_until) {
            samples += 1;
            if !controller_alive {
                for c in 0..CONTROLLERS {
                    if controller_plan.is_up(&flex_sim::fault::names::controller(c), t) {
                        controller_alive = true;
                        break;
                    }
                }
            }
            if !rm_reachable {
                for r in 0..rack_count {
                    if rm_plan.is_up(&flex_sim::fault::names::rack_manager(r), t) {
                        rm_reachable = true;
                        break;
                    }
                }
            }
            if telemetry_dark(&pipeline_plan, t) {
                dark_samples += 1;
            }
        }
        if !controller_alive || !rm_reachable {
            continue;
        }
        let dark_fraction = dark_samples as f64 / samples.max(1) as f64;
        violations.push(Violation {
            kind: "unexcused-trip".to_string(),
            detail: format!(
                "{ups} tripped at {trip_secs:.3}s after {window_secs:.3}s of contiguous \
                 overload; controllers alive and RMs reachable in the actionable window \
                 ({known_from:.3}s..{actionable_until:.3}s, telemetry dark {:.0}% of it)",
                dark_fraction * 100.0
            ),
        });
    }
}

/// True if no UPS snapshot can be produced at `t`: every poller, every
/// pub/sub instance, or every switch group is down. (Production config:
/// two of each.)
fn telemetry_dark(pipeline_plan: &flex_sim::fault::FaultPlan, t: SimTime) -> bool {
    let all_down = |name: fn(usize) -> String| {
        (0..2).all(|i| !pipeline_plan.is_up(&name(i), t))
    };
    all_down(flex_sim::fault::names::poller)
        || all_down(flex_sim::fault::names::pubsub)
        || all_down(flex_sim::fault::names::switch)
}

fn check_orphans(out: &RunOutcome, violations: &mut Vec<Violation>) {
    let world = out.sim.world();
    let scenario = &out.scenario;
    let horizon = SimTime::ZERO + SimDuration::from_millis(scenario.horizon_ms);
    let controller_plan = fault_plan_of(&scenario.controller_faults);
    let live: Vec<bool> = (0..CONTROLLERS)
        .map(|c| controller_plan.is_up(&flex_sim::fault::names::controller(c), horizon))
        .collect();
    for (i, state) in world.rack_states().iter().enumerate() {
        if *state != RackPowerState::Off {
            continue;
        }
        let rack = flex_placement::RackId(i);
        if world.pending_enforcement(rack) {
            continue;
        }
        let owned = world.controllers().iter().enumerate().any(|(c, ctrl)| {
            live.get(c).copied().unwrap_or(true) && ctrl.action_log().contains_key(&rack)
        });
        if !owned {
            violations.push(Violation {
                kind: "orphaned-rack".to_string(),
                detail: format!(
                    "rack {i} is Off at the horizon with no in-flight enforcement and \
                     no live controller owning the action"
                ),
            });
        }
    }
}

fn check_overshed(out: &RunOutcome, violations: &mut Vec<Violation>) {
    let world = out.sim.world();
    let scenario = &out.scenario;
    let racks = world.racks();
    let topo = world.topology();
    let provisioned: f64 = racks.iter().map(|r| r.provisioned.as_w()).sum();
    let slack_w = provisioned * OVERSHED_SLACK_FRACTION;

    // Estimated steady demand per rack (the demand fn draws ±2% around
    // util × provisioned; the bound below is far looser than that).
    let est: Vec<f64> = racks.iter().map(|r| (r.provisioned * scenario.util).as_w()).collect();
    let flex: Vec<f64> = racks.iter().map(|r| r.flex_power.as_w()).collect();

    let mut states = vec![RackPowerState::Normal; racks.len()];
    let mut failed_capacity_w = 0.0_f64;
    let mut peak_shed_w = 0.0_f64;
    let mut peak_at = 0.0_f64;
    for (at, event) in &world.stats.events {
        match event {
            SimEvent::UpsFailed(u) | SimEvent::UpsTripped(u) => {
                if let Some(ups) = topo.upses().get(u.0) {
                    failed_capacity_w += ups.capacity().as_w();
                }
            }
            SimEvent::UpsRestored(u) => {
                if let Some(ups) = topo.upses().get(u.0) {
                    failed_capacity_w -= ups.capacity().as_w();
                }
            }
            SimEvent::Applied { rack, state } => {
                if let Some(slot) = states.get_mut(rack.0) {
                    *slot = *state;
                }
                let shed: f64 = states
                    .iter()
                    .enumerate()
                    .map(|(i, s)| match s {
                        RackPowerState::Normal => 0.0,
                        RackPowerState::Off => est.get(i).copied().unwrap_or(0.0),
                        RackPowerState::Throttled => {
                            let e = est.get(i).copied().unwrap_or(0.0);
                            let f = flex.get(i).copied().unwrap_or(0.0);
                            (e - f).max(0.0)
                        }
                    })
                    .sum();
                let bound = failed_capacity_w * OVERSHED_FACTOR + slack_w;
                if shed > bound && shed > peak_shed_w {
                    peak_shed_w = shed;
                    peak_at = at.as_secs_f64();
                }
            }
            _ => {}
        }
    }
    if peak_shed_w > 0.0 {
        violations.push(Violation {
            kind: "over-shed".to_string(),
            detail: format!(
                "estimated shed power peaked at {:.1} kW at {peak_at:.3}s, exceeding \
                 {OVERSHED_FACTOR}x the failed capacity plus {:.1} kW slack",
                peak_shed_w / 1_000.0,
                slack_w / 1_000.0
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate, run_scenario, Scenario};

    #[test]
    fn baseline_failover_passes_the_oracle() {
        let out = run_scenario(&Scenario::baseline(41));
        let v = check(&out);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn hardened_families_pass_the_oracle() {
        // One scenario per family; the hardened loop must survive all.
        for i in 0..8 {
            let s = generate(0xFEED, i);
            let out = run_scenario(&s);
            let v = check(&out);
            assert!(v.is_empty(), "family {} violations: {v:?}", s.family);
        }
    }

    #[test]
    fn blackout_without_watchdog_is_an_unexcused_trip() {
        // The load-bearing A/B: family 1 is blackout_at_failover.
        let mut s = generate(0xFEED, 1);
        assert_eq!(s.family, "blackout_at_failover");
        s.watchdog = false;
        let out = run_scenario(&s);
        let v = check(&out);
        assert!(
            v.iter().any(|x| x.kind == "unexcused-trip"),
            "expected a trip violation, got {v:?}"
        );
    }
}
