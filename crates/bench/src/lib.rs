//! Shared harness code for the per-figure experiment binaries.
//!
//! Every binary prints the rows/series the paper's corresponding figure
//! or table reports, plus the paper's numbers for comparison. Absolute
//! values depend on the simulated substrate; the *shape* (orderings,
//! rough factors, crossovers) is what reproduces.
//!
//! Environment knobs:
//! - `FLEX_BENCH_TRACES` — number of shuffled traces for the placement
//!   studies (default 10, as in the paper);
//! - `FLEX_BENCH_FAST` — set to `1` to cut solver time limits for smoke
//!   runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use flex_core::placement::ilp::IlpConfig;
use flex_core::placement::metrics::{stranded_fraction, throttling_imbalance};
use flex_core::placement::policies::{
    replay, BalancedRoundRobin, FlexOffline, PlacementPolicy, Random,
};
use flex_core::placement::{Room, RoomConfig};
use flex_core::sim::stats::Percentiles;
use flex_core::workload::trace::{DemandTrace, TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Number of shuffled traces to evaluate (paper: 10).
pub fn trace_count() -> usize {
    std::env::var("FLEX_BENCH_TRACES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// Whether to run with reduced solver budgets.
pub fn fast_mode() -> bool {
    std::env::var("FLEX_BENCH_FAST").map(|v| v == "1").unwrap_or(false)
}

/// The ILP configuration for the study binaries.
pub fn study_ilp_config() -> IlpConfig {
    IlpConfig {
        time_limit: if fast_mode() {
            Duration::from_secs(1)
        } else {
            Duration::from_secs(8)
        },
    }
}

/// Per-policy per-trace metric values.
pub struct PolicyStudy {
    /// Policy display name.
    pub name: String,
    /// Stranded-power fraction per trace.
    pub stranded: Vec<f64>,
    /// Throttling imbalance per trace.
    pub imbalance: Vec<f64>,
}

/// Runs the Section V-A placement study: the given base trace shuffled
/// `n` times, placed by every policy; returns both Figure 9 and Figure
/// 10 metrics.
pub fn run_placement_study(room: &Room, base: &DemandTrace, n: usize) -> Vec<PolicyStudy> {
    let ilp = study_ilp_config();
    let policies: Vec<(String, Box<dyn Fn(&DemandTrace, &mut SmallRng) -> flex_core::placement::Placement>)> = vec![
        (
            "Random".into(),
            Box::new(|t, rng| Random.place(room, t, rng)),
        ),
        (
            "Balanced Round-Robin".into(),
            Box::new(|t, rng| BalancedRoundRobin.place(room, t, rng)),
        ),
        (
            "Flex-Offline-Short".into(),
            Box::new({
                let ilp = ilp.clone();
                move |t, rng| FlexOffline::short().with_config(ilp.clone()).place(room, t, rng)
            }),
        ),
        (
            "Flex-Offline-Long".into(),
            Box::new({
                let ilp = ilp.clone();
                move |t, rng| FlexOffline::long().with_config(ilp.clone()).place(room, t, rng)
            }),
        ),
        (
            "Flex-Offline-Oracle".into(),
            Box::new({
                let ilp = ilp.clone();
                move |t, rng| FlexOffline::oracle().with_config(ilp.clone()).place(room, t, rng)
            }),
        ),
    ];

    let mut out = Vec::new();
    for (name, place) in policies {
        let mut stranded = Vec::with_capacity(n);
        let mut imbalance = Vec::with_capacity(n);
        for s in 0..n {
            let mut rng = SmallRng::seed_from_u64(0x51AB + s as u64);
            let trace = base.shuffled(&mut rng);
            let placement = place(&trace, &mut rng);
            let state = replay(room, &trace, &placement);
            debug_assert!(state.verify_safety(trace.deployments()).is_empty());
            stranded.push(stranded_fraction(&state));
            imbalance.push(throttling_imbalance(&state));
        }
        out.push(PolicyStudy {
            name,
            stranded,
            imbalance,
        });
    }
    out
}

/// Builds the paper's 9.6 MW placement room and its base demand trace.
pub fn paper_room_and_trace(seed: u64) -> (Room, DemandTrace) {
    let room = RoomConfig::paper_placement_room()
        .build()
        .expect("paper room builds");
    let config = TraceConfig::microsoft(room.provisioned_power());
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = TraceGenerator::new(config).generate(&mut rng);
    (room, trace)
}

/// Prints a five-number summary row (min, quartiles, max): the box
/// plots of Figures 9 and 10 as text.
pub fn print_box_row(label: &str, values: &[f64], scale: f64, unit: &str) {
    let [min, p25, median, p75, max] = quantiles(values, [0.0, 0.25, 0.5, 0.75, 1.0]);
    println!(
        "{label:<22} min {:>6.2}{unit}  p25 {:>6.2}{unit}  median {:>6.2}{unit}  p75 {:>6.2}{unit}  max {:>6.2}{unit}",
        min * scale,
        p25 * scale,
        median * scale,
        p75 * scale,
        max * scale,
    );
}

/// Median helper for report lines.
pub fn median(values: &[f64]) -> f64 {
    let [median] = quantiles(values, [0.5]);
    median
}

/// The linear-interpolated quantiles `qs` of `values`, in order.
///
/// # Panics
///
/// Panics on an empty or NaN-containing input.
fn quantiles<const N: usize>(values: &[f64], qs: [f64; N]) -> [f64; N] {
    let mut p: Percentiles = values.iter().copied().collect();
    qs.map(|q| p.quantile(q).expect("box stats need at least one value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_smoke_runs_with_one_trace() {
        std::env::set_var("FLEX_BENCH_FAST", "1");
        let (room, trace) = paper_room_and_trace(3);
        let study = run_placement_study(&room, &trace, 1);
        assert_eq!(study.len(), 5);
        for s in &study {
            assert_eq!(s.stranded.len(), 1);
            assert!(s.stranded[0] >= 0.0 && s.stranded[0] <= 1.0);
            assert!(s.imbalance[0] >= 0.0);
        }
        std::env::remove_var("FLEX_BENCH_FAST");
    }

    #[test]
    fn env_knobs_parse() {
        std::env::set_var("FLEX_BENCH_TRACES", "4");
        assert_eq!(trace_count(), 4);
        std::env::remove_var("FLEX_BENCH_TRACES");
        assert_eq!(trace_count(), 10);
    }

    #[test]
    fn box_stats_quartiles() {
        let five = [0.0, 0.25, 0.5, 0.75, 1.0];
        let odd: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        assert_eq!(quantiles(&odd, five), [1.0, 3.0, 5.0, 7.0, 9.0]);
        // Even length, unsorted: every inner quantile falls between two
        // order statistics and is interpolated at q·(n−1).
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantiles(&even, five), [1.0, 1.75, 2.5, 3.25, 4.0]);
        assert_eq!(median(&even), 2.5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn box_stats_empty_panics() {
        let _ = median(&[]);
    }
}
