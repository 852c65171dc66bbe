//! Section V-A, "Impact of software-redundant workloads": sweep the
//! software-redundant power share with non-cap-able fixed at 31%.
//!
//! Paper (Flex-Offline-Long): 0% SR → 15% median stranded; 5% → 4%;
//! 10% → 3%; larger shares within ±1% of that.

use flex_bench::{median, study, study_ilp_config, trace_count};
use flex_core::placement::metrics::stranded_fraction;
use flex_core::placement::policies::FlexOffline;
use flex_core::placement::RoomConfig;
use flex_core::workload::trace::{TraceConfig, TraceGenerator};

fn main() {
    let room = RoomConfig::paper_placement_room()
        .build()
        .expect("paper room builds");
    let n = trace_count();
    let long = FlexOffline::long().with_config(study_ilp_config());
    println!(
        "Software-redundant share sweep — Flex-Offline-Long over {n} traces\n\
         (non-cap-able fixed at 31%; cap-able takes the remainder)\n"
    );
    println!("{:<10} {:>22}", "SR share", "median stranded power");
    for sr in [0.0, 0.05, 0.10, 0.15, 0.20] {
        let mix = [sr, 1.0 - 0.31 - sr, 0.31];
        let config = TraceConfig::microsoft(room.provisioned_power()).with_category_mix(mix);
        let generator = TraceGenerator::new(config);
        let states = study(&room, &long, 0x5123, n, |rng| generator.generate(rng));
        let stranded: Vec<f64> = states.iter().map(stranded_fraction).collect();
        println!("{:<10.0}% {:>21.2}%", sr * 100.0, median(&stranded) * 100.0);
    }
    println!("\npaper: 0% → 15%, 5% → 4%, 10% → 3%, then flat within ±1%");
}
