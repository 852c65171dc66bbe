//! Figure 12: Flex-Online's runtime decisions during a failover, by
//! impact scenario and room utilization.
//!
//! For each scenario and utilization in the paper's 74–85% band, fail
//! each UPS in turn and report mean ± std of (a) impacted racks as % of
//! all racks, (b) shutdowns as % of shut-down-able racks, (c) throttles
//! as % of throttle-able racks.
//!
//! Paper: up to 30–40% of racks impacted only at the highest
//! utilizations; Extreme-1 impacts the fewest racks (shutdowns recover
//! the most) and throttles the fewest; Extreme-2 throttles everything
//! before shutting anything down; Realistic-1 shuts down more /
//! throttles less than Realistic-2.

use std::collections::BTreeMap;

use flex_core::online::policy::{decide, ActionSummary, DecisionInput, PolicyConfig};
use flex_core::online::ImpactRegistry;
use flex_core::placement::policies::{FlexOffline, PlacementPolicy};
use flex_core::placement::{PlacedRoom, RoomConfig};
use flex_core::power::{FeedState, Fraction, Watts};
use flex_core::sim::stats::OnlineStats;
use flex_core::workload::impact::scenarios;
use flex_core::workload::power_model::RackPowerModel;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};
use flex_bench::study_ilp_config;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // Placement from Flex-Offline-Short, as in the paper's methodology.
    let room = RoomConfig::paper_placement_room()
        .build()
        .expect("room builds");
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut rng = SmallRng::seed_from_u64(0xF16);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    let placement = FlexOffline::short()
        .with_config(study_ilp_config())
        .place(&room, &trace, &mut rng);
    let placed = PlacedRoom::materialize(&room, &trace, &placement);
    let topo = placed.room().topology().clone();
    let provisioned: Vec<Watts> = placed.racks().iter().map(|r| r.provisioned).collect();
    let model = RackPowerModel::default_microsoft();

    println!("Figure 12 — runtime decisions during a failover (mean ± std across all UPS failures)\n");
    for scenario in scenarios::all() {
        let registry = ImpactRegistry::from_scenario(
            placed.racks().iter().map(|r| (r.deployment, r.category)),
            &scenario,
        );
        println!("scenario {}:", scenario.name);
        println!(
            "  {:<6} {:>20} {:>20} {:>20}",
            "util", "impacted (% all)", "shut down (% SR)", "throttled (% cap)"
        );
        for util in [0.74, 0.76, 0.78, 0.80, 0.82, 0.85] {
            let mut impacted = OnlineStats::new();
            let mut shut = OnlineStats::new();
            let mut throttled = OnlineStats::new();
            for failed in topo.ups_ids() {
                let mut draw_rng = SmallRng::seed_from_u64(0xD0_u64 + (util * 1000.0) as u64);
                let draws = model.sample_room_at_utilization(
                    &provisioned,
                    Fraction::clamped(util),
                    &mut draw_rng,
                );
                let feed = FeedState::with_failed(&topo, [failed]);
                let loads = placed.ups_loads(&draws, &feed);
                let ups_power: Vec<Watts> = topo.ups_ids().map(|u| loads.load(u)).collect();
                let input = DecisionInput {
                    topology: &topo,
                    racks: placed.racks(),
                    rack_power: &draws,
                    ups_power: &ups_power,
                };
                let outcome =
                    decide(&input, &BTreeMap::new(), &registry, &PolicyConfig::default())
                        .expect("decision failed");
                assert!(outcome.safe, "{}: unsafe at {util}", scenario.name);
                let s = ActionSummary::compute(&outcome.actions, placed.racks());
                impacted.record(s.impacted_fraction * 100.0);
                shut.record(s.shutdown_fraction * 100.0);
                throttled.record(s.throttled_fraction * 100.0);
            }
            println!(
                "  {:<6.0}% {:>12.1} ± {:>4.1} {:>12.1} ± {:>4.1} {:>12.1} ± {:>4.1}",
                util * 100.0,
                impacted.mean(),
                impacted.population_std_dev(),
                shut.mean(),
                shut.population_std_dev(),
                throttled.mean(),
                throttled.population_std_dev(),
            );
        }
        println!();
    }
    println!("paper: ≤30–40% impacted only at the top of the band; Extreme-1 fewest impacted");
    println!("racks and fewest throttles; Extreme-2 throttles all candidates before any shutdown.");
}
