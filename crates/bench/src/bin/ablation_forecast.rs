//! Ablation: forecast-aware placement (the paper's §V-A future work,
//! implemented). Short batches plus discounted phantom demand sampled
//! from the demand *distribution* should close part of the gap between
//! Flex-Offline-Short and the full-visibility Oracle — without peeking
//! at the actual future.

use flex_bench::{median, paper_room_and_trace, study, study_ilp_config, trace_count};
use flex_core::placement::forecast::ForecastAware;
use flex_core::placement::metrics::{stranded_fraction, throttling_imbalance};
use flex_core::placement::policies::{FlexOffline, PlacementPolicy};
use flex_core::placement::RoomState;
use flex_core::workload::trace::TraceConfig;
use rand::rngs::SmallRng;

fn main() {
    let (room, base) = paper_room_and_trace(2026);
    let n = trace_count().min(5);
    let ilp = study_ilp_config();
    let forecast_model = TraceConfig::microsoft(room.provisioned_power());

    println!("Forecast-aware placement ablation over {n} shuffled traces\n");
    println!(
        "{:<24} {:>18} {:>22}",
        "policy", "median stranded", "median imbalance"
    );
    let report = |name: &str, states: Vec<RoomState>| {
        let stranded: Vec<f64> = states.iter().map(stranded_fraction).collect();
        let imbalance: Vec<f64> = states.iter().map(throttling_imbalance).collect();
        println!(
            "{name:<24} {:>17.2}% {:>22.3}",
            median(&stranded) * 100.0,
            median(&imbalance)
        );
    };
    let shuffle = |rng: &mut SmallRng| base.shuffled(rng);
    let short = FlexOffline::short().with_config(ilp.clone());
    report(short.name(), study(&room, &short, 0xF0C, n, shuffle));
    let forecast = ForecastAware::short(forecast_model).with_config(ilp.clone());
    report(forecast.name(), study(&room, &forecast, 0xF0C, n, shuffle));
    let oracle = FlexOffline::oracle().with_config(ilp);
    report(oracle.name(), study(&room, &oracle, 0xF0C, n, shuffle));
    println!(
        "\nthe forecast policy sees only the demand *distribution*, not the actual\n\
         future trace; any gap it closes toward the Oracle is honest lookahead value."
    );
}
