//! Ablations called out in DESIGN.md: safety-buffer size and
//! multi-primary controller count.

use std::collections::BTreeMap;

use flex_online::policy::{decide, DecisionInput, PolicyConfig};
use flex_online::sim::{DemandFn, RoomSim, RoomSimConfig, SimEvent};
use flex_online::{ImpactRegistry, RackPowerState};
use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
use flex_placement::{PlacedRoom, RoomConfig};
use flex_power::{FeedState, Fraction, UpsId, Watts};
use flex_sim::{SimDuration, SimTime};
use flex_workload::impact::scenarios;
use flex_workload::power_model::RackPowerModel;
use flex_workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn placed_room(seed: u64) -> PlacedRoom {
    let room = RoomConfig::paper_emulation_room().build().unwrap();
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
    PlacedRoom::materialize(&room, &trace, &placement)
}

/// A larger safety buffer sheds to a lower target, so it can only
/// increase the number of corrective actions — and the projected loads
/// always respect the tighter target.
#[test]
fn buffer_size_monotonically_increases_actions() {
    let placed = placed_room(1);
    let topo = placed.room().topology().clone();
    let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
    let mut rng = SmallRng::seed_from_u64(2);
    let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
        &provisioned,
        Fraction::clamped(0.84),
        &mut rng,
    );
    let feed = FeedState::with_failed(&topo, [UpsId(0)]);
    let loads = placed.ups_loads(&draws, &feed);
    let ups_power: Vec<Watts> = topo.ups_ids().map(|u| loads.load(u)).collect();
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    let input = DecisionInput {
        topology: &topo,
        racks: placed.racks(),
        rack_power: &draws,
        ups_power: &ups_power,
    };
    let mut prev_actions = 0usize;
    for buffer in [0.0, 0.02, 0.05, 0.08] {
        let config = PolicyConfig {
            buffer_fraction: buffer,
            ..PolicyConfig::default()
        };
        let outcome = decide(&input, &BTreeMap::new(), &registry, &config).unwrap();
        assert!(outcome.safe, "buffer {buffer}: unsafe");
        assert!(
            outcome.actions.len() >= prev_actions,
            "buffer {buffer}: fewer actions ({}) than smaller buffer ({prev_actions})",
            outcome.actions.len()
        );
        for u in topo.upses() {
            if u.id() != UpsId(0) {
                let target = u.capacity() * (1.0 - buffer);
                assert!(
                    !outcome.projected_ups_power[u.id().0].exceeds(target),
                    "buffer {buffer}: {} above its buffered target",
                    u.id()
                );
            }
        }
        prev_actions = outcome.actions.len();
    }
    assert!(prev_actions > 0, "the largest buffer must require actions");
}

fn run_with_controllers(controllers: usize, seed: u64) -> (usize, bool) {
    let placed = placed_room(seed);
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    let demand: DemandFn =
        Box::new(|rack, _, rng: &mut SmallRng| rack.provisioned * rng.gen_range(0.78..0.86));
    let config = RoomSimConfig {
        controllers,
        seed: seed ^ 0xC0C0,
        ..RoomSimConfig::default()
    };
    let mut sim = RoomSim::new(&placed, registry, demand, config);
    sim.fail_ups_at(SimTime::from_secs_f64(20.0), UpsId(0));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(90));
    let w = sim.world();
    let acted = w
        .rack_states()
        .iter()
        .filter(|s| **s != RackPowerState::Normal)
        .count();
    (acted, w.stats.cascaded())
}

/// Multi-primary controllers may overcorrect (the paper accepts this)
/// but only within a small factor of what one controller does, thanks to
/// idempotent actions and the reflect window.
#[test]
fn multi_primary_overcorrection_is_bounded() {
    let (acted_1, cascaded_1) = run_with_controllers(1, 11);
    let (acted_3, cascaded_3) = run_with_controllers(3, 11);
    assert!(!cascaded_1 && !cascaded_3);
    assert!(acted_1 > 0 && acted_3 > 0);
    assert!(
        acted_3 <= acted_1 * 2 + 8,
        "3 controllers acted on {acted_3} racks vs {acted_1} for one — unbounded overcorrection"
    );
}

/// Partial relief (paper §IV-D, "some power caps may be lifted… (not
/// shown here)"): when demand drops sharply while the failover
/// persists, the controller lifts actions one at a time — and safety is
/// never violated, even when demand climbs back.
#[test]
fn partial_relief_lifts_actions_during_long_failover() {
    let placed = placed_room(31);
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    );
    // High demand until t=120 s, then a deep dip, then back up.
    let demand: DemandFn = Box::new(|rack, now, rng: &mut SmallRng| {
        let t = now.as_secs_f64();
        let base = if (120.0..240.0).contains(&t) { 0.55 } else { 0.82 };
        rack.provisioned * rng.gen_range((base - 0.02)..(base + 0.02))
    });
    let config = RoomSimConfig {
        seed: 0xBEE,
        ..RoomSimConfig::default()
    };
    let mut sim = RoomSim::new(&placed, registry, demand, config);
    sim.fail_ups_at(SimTime::from_secs_f64(20.0), UpsId(0));
    // The UPS stays out for the whole run.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(110));
    let engaged_actions = sim
        .world()
        .rack_states()
        .iter()
        .filter(|s| **s != RackPowerState::Normal)
        .count();
    assert!(engaged_actions > 0, "failover must engage actions first");
    // During the dip, relief restores some racks while UPS 0 is still out.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(230));
    let during_dip = sim
        .world()
        .rack_states()
        .iter()
        .filter(|s| **s != RackPowerState::Normal)
        .count();
    assert!(
        during_dip < engaged_actions,
        "relief should lift some actions: {during_dip} vs {engaged_actions}"
    );
    assert!(!sim.world().feed().is_online(UpsId(0)), "failover persists");
    // Demand returns: the room must stay safe (re-shedding as needed).
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(360));
    assert!(!sim.world().stats.cascaded(), "{:?}", sim.world().stats.events);
    let loads = sim.world().ups_loads();
    for u in placed.room().topology().upses() {
        if sim.world().feed().is_online(u.id()) {
            assert!(
                !loads.load(u.id()).exceeds(u.capacity()),
                "{} overloaded after demand returned",
                u.id()
            );
        }
    }
}

/// With five controllers and an aggressive failure, every instance's
/// actions commute: the final rack states are identical to a re-run
/// (determinism across multi-primary execution).
#[test]
fn multi_primary_execution_is_deterministic() {
    let placed = placed_room(21);
    let run = || {
        let registry = ImpactRegistry::from_scenario(
            placed.racks().iter().map(|r| (r.deployment, r.category)),
            &scenarios::extreme_2(),
        );
        let demand: DemandFn =
            Box::new(|rack, _, rng: &mut SmallRng| rack.provisioned * rng.gen_range(0.80..0.88));
        let config = RoomSimConfig {
            controllers: 5,
            seed: 99,
            ..RoomSimConfig::default()
        };
        let mut sim = RoomSim::new(&placed, registry, demand, config);
        sim.fail_ups_at(SimTime::from_secs_f64(15.0), UpsId(2));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        (
            sim.world().rack_states().to_vec(),
            sim.world()
                .stats
                .count_events(|e| matches!(e, SimEvent::Applied { .. })),
        )
    };
    assert_eq!(run(), run());
}
