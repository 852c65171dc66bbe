//! Cross-crate integration: the offline → online contract.
//!
//! The core promise of Flex is that *any* placement accepted by
//! Flex-Offline can be kept safe by Flex-Online under *any* single-UPS
//! failover, at any utilization up to 100%. These tests exercise that
//! contract end to end across the placement, workload, power, and online
//! crates.

use std::collections::BTreeMap;

use flex_core::online::policy::{decide, DecisionInput, PolicyConfig};
use flex_core::online::ImpactRegistry;
use flex_core::placement::policies::{
    replay, BalancedRoundRobin, FlexOffline, PlacementPolicy, Random,
};
use flex_core::placement::{PlacedRoom, RoomConfig};
use flex_core::power::{FeedState, Fraction, Watts};
use flex_core::workload::impact::scenarios;
use flex_core::workload::power_model::RackPowerModel;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn placed_room(seed: u64, policy: &str) -> PlacedRoom {
    let room = RoomConfig::paper_placement_room().build().unwrap();
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    let placement = match policy {
        "random" => Random.place(&room, &trace, &mut rng),
        "brr" => BalancedRoundRobin.place(&room, &trace, &mut rng),
        "flex" => FlexOffline::short().place(&room, &trace, &mut rng),
        other => panic!("unknown policy {other}"),
    };
    // Every policy must produce a provably safe placement.
    let state = replay(&room, &trace, &placement);
    assert!(
        state.verify_safety(trace.deployments()).is_empty(),
        "{policy} produced an unsafe placement"
    );
    PlacedRoom::materialize(&room, &trace, &placement)
}

/// The offline→online safety contract: worst-case utilization, every
/// failover, every policy, every scenario — Algorithm 1 always finds a
/// safe action set.
#[test]
fn any_placement_any_failover_is_recoverable() {
    for policy in ["random", "brr"] {
        let placed = placed_room(0xA11CE, policy);
        let topo = placed.room().topology().clone();
        // Worst case: every rack at its full provisioned power.
        let draws: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
        for scenario in scenarios::all() {
            let registry = ImpactRegistry::from_scenario(
                placed.racks().iter().map(|r| (r.deployment, r.category)),
                &scenario,
            );
            for failed in topo.ups_ids() {
                let feed = FeedState::with_failed(&topo, [failed]);
                let loads = placed.ups_loads(&draws, &feed);
                let ups_power: Vec<Watts> = topo.ups_ids().map(|u| loads.load(u)).collect();
                let input = DecisionInput {
                    topology: &topo,
                    racks: placed.racks(),
                    rack_power: &draws,
                    ups_power: &ups_power,
                };
                let outcome = decide(
                    &input,
                    &BTreeMap::new(),
                    &registry,
                    &PolicyConfig::default(),
                )
                .unwrap();
                assert!(
                    outcome.safe,
                    "{policy}/{}: failover of {failed} unrecoverable at 100% utilization",
                    scenario.name
                );
                // Projected loads actually sit below capacity.
                for u in topo.upses() {
                    if u.id() != failed {
                        assert!(
                            !outcome.projected_ups_power[u.id().0].exceeds(u.capacity()),
                            "{policy}/{}: {} projected above capacity",
                            scenario.name,
                            u.id()
                        );
                    }
                }
            }
        }
    }
}

/// Flex-Offline's ILP placement reproduces the contract too, and beats
/// the baselines on stranded power for the same trace.
#[test]
fn flex_offline_contract_and_quality() {
    let room = RoomConfig::paper_placement_room().build().unwrap();
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let trace = TraceGenerator::new(config).generate(&mut rng);

    let flex = FlexOffline::short().place(&room, &trace, &mut rng);
    let random = Random.place(&room, &trace, &mut rng);
    let s_flex = replay(&room, &trace, &flex);
    let s_random = replay(&room, &trace, &random);
    assert!(s_flex.verify_safety(trace.deployments()).is_empty());
    let flex_stranded = s_flex.stranded_power() / room.provisioned_power();
    let random_stranded = s_random.stranded_power() / room.provisioned_power();
    assert!(
        flex_stranded <= random_stranded + 1e-9,
        "flex {flex_stranded} vs random {random_stranded}"
    );
    assert!(flex_stranded < 0.08, "flex stranded {flex_stranded}");
}

/// Realistic utilizations (the paper's 74–85% band): actions scale with
/// utilization and never touch non-cap-able racks.
#[test]
fn action_counts_scale_with_utilization() {
    let placed = placed_room(0xCAFE, "brr");
    let topo = placed.room().topology().clone();
    let registry = ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_2(),
    );
    let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
    let mut rng = SmallRng::seed_from_u64(5);
    let mut prev = 0usize;
    for util in [0.74, 0.78, 0.82, 0.86] {
        let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
            &provisioned,
            Fraction::clamped(util),
            &mut rng,
        );
        let failed = topo.ups_ids().next().unwrap();
        let feed = FeedState::with_failed(&topo, [failed]);
        let loads = placed.ups_loads(&draws, &feed);
        let ups_power: Vec<Watts> = topo.ups_ids().map(|u| loads.load(u)).collect();
        let input = DecisionInput {
            topology: &topo,
            racks: placed.racks(),
            rack_power: &draws,
            ups_power: &ups_power,
        };
        let outcome = decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default()).unwrap();
        assert!(outcome.safe);
        assert!(
            outcome.actions.len() + 3 >= prev,
            "actions should roughly grow with utilization"
        );
        prev = outcome.actions.len();
        for a in &outcome.actions {
            let cat = placed.racks()[a.rack.0].category;
            assert_ne!(
                cat,
                flex_core::workload::WorkloadCategory::NonCapAble,
                "non-cap-able rack touched"
            );
        }
    }
    assert!(prev > 0, "86% utilization failover must require actions");
}

/// The facade ties it together.
#[test]
fn facade_round_trip() {
    let dc = flex_core::FlexDatacenter::builder()
        .policy(flex_core::PolicyKind::BalancedRoundRobin)
        .seed(99)
        .build()
        .unwrap();
    let drill = dc
        .decide_failover(flex_core::power::UpsId(2), 0.9)
        .unwrap();
    assert!(drill.outcome.safe);
    assert!(dc.extra_capacity_fraction() > 0.0);
}
