//! Property: the blackout watchdog keeps survivors off the trip curve.
//!
//! Sampled high-utilization failovers run under a total telemetry
//! blackout of sampled length. Writing `tol` for the tripped-into
//! survivor's trip-curve tolerance at its post-failover overload:
//!
//! 1. If the blackout is shorter than `tol` minus the loop's response
//!    budget (telemetry return → poll → decide → actuate at p99.9),
//!    the room must never trip — with or without a watchdog, the loop
//!    recovers in time once data flows again.
//! 2. If `tol` itself exceeds the watchdog's worst-case response chain
//!    (blackout deadline + watchdog poll + actuation p99.9), the room
//!    must never trip *no matter how long the blackout lasts*: the
//!    watchdog sheds blind off the out-of-band failover alarm.

mod common;

use common::{registry_for, small_room};
use flex_online::sim::{DemandFn, RoomSim, RoomSimConfig, SimEvent};
use flex_power::trip_curve::TripCurve;
use flex_power::UpsId;
use flex_sim::SimTime;
use flex_telemetry::fault::{Component, FaultPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Loop response once telemetry is back: poll + decision + actuation
/// p99.9 (600 ms median lognormal), with slack.
const RESPONSE_BUDGET_SECS: f64 = 5.0;

/// Watchdog worst case: 4 s blackout deadline + 0.5 s watchdog poll +
/// actuation p99.9, with slack.
const WATCHDOG_BUDGET_SECS: f64 = 8.5;

#[test]
fn no_trip_inside_the_tolerance_window() {
    let fail_at = 20.0;
    let curve = TripCurve::end_of_life();
    let mut overloaded = 0;
    let mut watchdog_saves = 0;
    for case in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0xD06 + case);
        let placed = small_room(7 + case % 3);
        let util = rng.gen_range(0.92..1.0);
        let darkness = rng.gen_range(3.0..30.0);
        let fail_ups = (case % 4) as usize;

        let registry = registry_for(&placed);
        let demand: DemandFn = Box::new(move |rack, _, rng: &mut SmallRng| {
            rack.provisioned * rng.gen_range((util - 0.02)..(util + 0.02))
        });
        let config = RoomSimConfig {
            seed: 0xACE + case,
            ..RoomSimConfig::default()
        };
        let mut sim = RoomSim::new(&placed, registry, demand, config);
        let mut plan = FaultPlan::new();
        for p in 0..2 {
            plan.add_outage(
                Component::Poller(p),
                SimTime::from_secs_f64(fail_at - 0.1),
                SimTime::from_secs_f64(fail_at + darkness),
            );
        }
        sim.world_mut().set_fault_plan(plan);
        sim.fail_ups_at(SimTime::from_secs_f64(fail_at), UpsId(fail_ups));
        sim.run_until(SimTime::from_secs_f64(fail_at + 45.0));

        let w = sim.world();
        // Post-failover, pre-shed overload of the worst survivor (the
        // stats tick lands at 21.0 s; the earliest shed ever observed
        // is later, and a trip cannot precede it at these fractions).
        let peak = w
            .stats
            .ups_fraction
            .iter()
            .filter_map(|ts| ts.value_at(SimTime::from_secs_f64(fail_at + 1.5)))
            .fold(0.0_f64, f64::max);
        let tolerance = curve.tolerance(peak);
        let tripped = w
            .stats
            .count_events(|e| matches!(e, SimEvent::UpsTripped(_)));

        let Some(tol) = tolerance else {
            assert_eq!(
                tripped, 0,
                "case {case}: no overload (peak {peak:.3}) yet a UPS tripped"
            );
            continue;
        };
        overloaded += 1;
        if darkness < tol - RESPONSE_BUDGET_SECS {
            assert_eq!(
                tripped, 0,
                "case {case}: {darkness:.1}s of darkness inside a {tol:.1}s \
                 tolerance (peak {peak:.3}) must not trip"
            );
        }
        if tol > WATCHDOG_BUDGET_SECS {
            assert_eq!(
                tripped, 0,
                "case {case}: tolerance {tol:.1}s (peak {peak:.3}) exceeds the \
                 watchdog budget; the blind shed must beat the curve even \
                 through {darkness:.1}s of darkness"
            );
            if darkness >= tol - RESPONSE_BUDGET_SECS {
                watchdog_saves += 1;
            }
        }
    }
    assert!(
        overloaded >= 8,
        "only {overloaded} of 16 cases overloaded a survivor — the property is vacuous"
    );
    assert!(
        watchdog_saves >= 2,
        "only {watchdog_saves} cases exercised the watchdog-only region \
         (darkness beyond the recoverable window)"
    );
}
