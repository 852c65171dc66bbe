//! Section V-A, "Impact of deployment sizes": cap the largest deployment
//! at 20/10/5 racks and re-run Flex-Offline-Short.
//!
//! Paper: capping at 10 racks roughly halves Flex-Offline-Short's median
//! stranded power and throttling imbalance versus 20-rack deployments.

use flex_bench::{median, paper_room_and_trace, study, study_ilp_config, trace_count};
use flex_core::placement::metrics::{stranded_fraction, throttling_imbalance};
use flex_core::placement::policies::FlexOffline;

fn main() {
    let (room, base) = paper_room_and_trace(2026);
    let n = trace_count();
    let short = FlexOffline::short().with_config(study_ilp_config());
    println!(
        "Deployment-size sweep — Flex-Offline-Short over {n} shuffled traces\n\
         (larger deployments are split into chunks of at most `max racks`)\n"
    );
    println!(
        "{:<12} {:>22} {:>24}",
        "max racks", "median stranded power", "median throttling imbal."
    );
    for max_racks in [20usize, 10, 5] {
        let capped = base.split_max_racks(max_racks);
        let states = study(&room, &short, 0xDE9, n, |rng| capped.shuffled(rng));
        let stranded: Vec<f64> = states.iter().map(stranded_fraction).collect();
        let imbalance: Vec<f64> = states.iter().map(throttling_imbalance).collect();
        println!(
            "{:<12} {:>21.2}% {:>24.3}",
            max_racks,
            median(&stranded) * 100.0,
            median(&imbalance)
        );
    }
    println!("\npaper: max 10 racks ≈ half the stranded power and imbalance of max 20");
}
