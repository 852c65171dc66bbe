//! Fixtures shared by the online integration tests.

use flex_online::ImpactRegistry;
use flex_placement::policies::{BalancedRoundRobin, PlacementPolicy};
use flex_placement::{PlacedRoom, RoomConfig};
use flex_power::Watts;
use flex_workload::impact::scenarios;
use flex_workload::trace::{TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A small, fast room that still fills to the Equation-2/4 limits (the
/// paper-scale deployment mix would be rejected wholesale by its
/// 5-10-slot PDU pairs).
pub fn small_room(seed: u64) -> PlacedRoom {
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
    let mut config = TraceConfig::microsoft(room.provisioned_power());
    config.deployment_sizes = vec![(5, 0.4), (3, 0.35), (2, 0.25)];
    config.target_power = room.provisioned_power() * 2.0;
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    let placement = BalancedRoundRobin.place(&room, &trace, &mut rng);
    PlacedRoom::materialize(&room, &trace, &placement)
}

/// The realistic-1 impact scenario over the room's racks.
pub fn registry_for(placed: &PlacedRoom) -> ImpactRegistry {
    ImpactRegistry::from_scenario(
        placed.racks().iter().map(|r| (r.deployment, r.category)),
        &scenarios::realistic_1(),
    )
}
