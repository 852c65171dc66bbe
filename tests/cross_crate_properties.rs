//! Property-based tests spanning crates: random traces, random
//! utilizations, random failovers — safety invariants must hold.

use std::collections::BTreeMap;

use flex_core::online::policy::{decide, DecisionInput, PolicyConfig};
use flex_core::online::ImpactRegistry;
use flex_core::placement::policies::{replay, BalancedRoundRobin, PlacementPolicy, Random};
use flex_core::placement::{PlacedRoom, RoomConfig};
use flex_core::power::{FeedState, Fraction, Watts};
use flex_core::workload::impact::scenarios;
use flex_core::workload::power_model::RackPowerModel;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn placed(seed: u64, use_random_policy: bool, mix: [f64; 3]) -> PlacedRoom {
    let room = RoomConfig::paper_placement_room().build().unwrap();
    let config = TraceConfig::microsoft(room.provisioned_power()).with_category_mix(mix);
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    let placement = if use_random_policy {
        Random.place(&room, &trace, &mut rng)
    } else {
        BalancedRoundRobin.place(&room, &trace, &mut rng)
    };
    let state = replay(&room, &trace, &placement);
    assert!(state.verify_safety(trace.deployments()).is_empty());
    PlacedRoom::materialize(&room, &trace, &placement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any accepted placement, any utilization, any single failover,
    /// Algorithm 1 finds a safe action set whose projections respect
    /// capacity, and never double-acts a rack.
    #[test]
    fn online_safety_holds_for_random_inputs(
        seed in 0u64..10_000,
        util in 0.70f64..1.0,
        failed_idx in 0usize..4,
        use_random in proptest::bool::ANY,
        scenario_idx in 0usize..4,
    ) {
        let placed = placed(seed, use_random, [0.13, 0.56, 0.31]);
        let topo = placed.room().topology().clone();
        let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x55);
        let draws = RackPowerModel::default_microsoft().sample_room_at_utilization(
            &provisioned,
            Fraction::clamped(util),
            &mut rng,
        );
        let failed = topo.ups_ids().nth(failed_idx).unwrap();
        let feed = FeedState::with_failed(&topo, [failed]);
        let loads = placed.ups_loads(&draws, &feed);
        let ups_power: Vec<Watts> = topo.ups_ids().map(|u| loads.load(u)).collect();
        let scenario = &scenarios::all()[scenario_idx];
        let registry = ImpactRegistry::from_scenario(
            placed.racks().iter().map(|r| (r.deployment, r.category)),
            scenario,
        );
        let input = DecisionInput {
            topology: &topo,
            racks: placed.racks(),
            rack_power: &draws,
            ups_power: &ups_power,
        };
        let outcome = decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default()).unwrap();
        prop_assert!(outcome.safe, "unsafe at util {util} failing {failed}");
        // No duplicate racks.
        let mut seen = std::collections::HashSet::new();
        for a in &outcome.actions {
            prop_assert!(seen.insert(a.rack), "rack {} acted twice", a.rack);
            let cat = placed.racks()[a.rack.0].category;
            prop_assert!(cat.is_actionable());
        }
        // Projections within capacity on survivors.
        for u in topo.upses() {
            if u.id() != failed {
                prop_assert!(!outcome.projected_ups_power[u.id().0].exceeds(u.capacity()));
            }
        }
        // Estimated recoveries are positive and bounded by rack draws.
        for a in &outcome.actions {
            prop_assert!(a.estimated_recovery.as_w() > 0.0);
            prop_assert!(a.estimated_recovery <= draws[a.rack.0] + Watts::new(1e-6));
        }
    }

    /// Placement accounting: for any seed and mix, every deployment is
    /// either assigned once or rejected, and rack materialization
    /// matches the accepted deployments exactly.
    #[test]
    fn placement_accounting_is_exact(
        seed in 0u64..10_000,
        sr_share in 0.0f64..0.3,
    ) {
        let cap = (1.0 - 0.31 - sr_share).max(0.0);
        let mix = [sr_share, cap, 1.0 - sr_share - cap];
        let room = RoomConfig::paper_placement_room().build().unwrap();
        let config = TraceConfig::microsoft(room.provisioned_power()).with_category_mix(mix);
        let mut rng = SmallRng::seed_from_u64(seed);
        let trace = TraceGenerator::new(config).generate(&mut rng);
        let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
        prop_assert_eq!(
            placement.assignments.len() + placement.rejected.len(),
            trace.len()
        );
        // No deployment appears twice.
        let mut ids: Vec<_> = placement.assignments.iter().map(|(d, _)| *d).collect();
        ids.extend(placement.rejected.iter().copied());
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicate deployment handling");
        // Materialized racks match accepted deployments.
        let placed = PlacedRoom::materialize(&room, &trace, &placement);
        let expected: usize = placement
            .assignments
            .iter()
            .map(|(d, _)| {
                trace
                    .deployments()
                    .iter()
                    .find(|x| x.id() == *d)
                    .unwrap()
                    .racks()
            })
            .sum();
        prop_assert_eq!(placed.rack_count(), expected);
    }
}
