//! Ablation (§II-A): why distributed redundancy is key for Flex.
//!
//! N+1 cannot host Flex at all (the backup supply is passive — no
//! servers can be attached to it). 2N works electrically but a failover
//! doubles the survivor's load, far beyond any overload tolerance. The
//! xN/(x−1) distributed designs keep the worst-case transfer at
//! x/(x−1), inside the battery ride-through window.

use flex_bench::{study, study_ilp_config};
use flex_core::placement::metrics::stranded_fraction;
use flex_core::placement::policies::FlexOffline;
use flex_core::placement::RoomConfig;
use flex_core::power::trip_curve::TripCurve;
use flex_core::power::Watts;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};

fn main() {
    let curve = TripCurve::end_of_life();
    let short = FlexOffline::short().with_config(study_ilp_config());
    println!(
        "Redundancy-design ablation — 9.6 MW provisioned, Microsoft mix, Flex-Offline-Short\n"
    );
    println!(
        "{:<8} {:>16} {:>18} {:>20} {:>16}",
        "design", "reserve freed", "worst failover", "overload tolerance", "stranded (Flex)"
    );
    for x in [2usize, 3, 4, 6] {
        let ups_capacity = Watts::from_mw(9.6 / x as f64);
        let room = RoomConfig {
            ups_count: x,
            ups_capacity,
            rows: 60,
            racks_per_row: 10,
            cooling_cfm_per_slot: 2_500.0,
            pdu_pair_capacity: None,
        }
        .build()
        .expect("room builds");
        let worst = x as f64 / (x as f64 - 1.0);
        let tolerance = curve
            .tolerance(worst)
            .map(|t| format!("{t:.1} s"))
            .unwrap_or_else(|| "∞".into());
        let generator = TraceGenerator::new(TraceConfig::microsoft(room.provisioned_power()));
        let states = study(&room, &short, 2026, 1, |rng| generator.generate(rng));
        println!(
            "{:<8} {:>15.0}% {:>17.0}% {:>20} {:>15.2}%",
            format!("{x}N/{}", x - 1),
            room.topology().reserved_power() / room.provisioned_power() * 100.0,
            worst * 100.0,
            tolerance,
            stranded_fraction(&states[0]) * 100.0,
        );
    }
    println!(
        "\n2N frees the most reserve but its 200% failover gives well under a second of\n\
         tolerance — no software can react. 4N/3's 133% with ~10 s is the paper's sweet\n\
         spot; wider designs free less reserve for diminishing returns. N+1 (passive\n\
         backup) is not representable: no servers can attach to the reserve at all."
    );
}
