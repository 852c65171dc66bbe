//! Shared harness code for the per-figure experiment binaries.
//!
//! Every binary prints the rows/series the paper's corresponding figure
//! or table reports, plus the paper's numbers for comparison. Absolute
//! values depend on the simulated substrate; the *shape* (orderings,
//! rough factors, crossovers) is what reproduces.
//!
//! [`study`] is the one placement study loop (§V-A): every binary that
//! places demand traces (Figures 9 and 10, both sweeps, the baseline
//! comparison and both ablations) seeds, draws, places and replays
//! through it, each with its own seed base, trace source and metric.
//!
//! Environment knobs, each parsed once per process; a bad value ends
//! the binary with a message naming the variable and exit status 2:
//! - `FLEX_BENCH_TRACES` — number of traces for the placement studies,
//!   a positive integer (default 10, as in the paper);
//! - `FLEX_BENCH_FAST` — `1` cuts solver time limits and run lengths
//!   for smoke runs, `0` or unset keeps the full budgets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;
use std::time::Duration;

use flex_core::placement::ilp::IlpConfig;
use flex_core::placement::metrics::{stranded_fraction, throttling_imbalance};
use flex_core::placement::policies::{
    replay, BalancedRoundRobin, FlexOffline, PlacementPolicy, Random,
};
use flex_core::placement::{Room, RoomConfig, RoomState};
use flex_core::sim::stats::Percentiles;
use flex_core::workload::trace::{DemandTrace, TraceConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Number of traces to evaluate per policy (`FLEX_BENCH_TRACES`;
/// paper: 10).
pub fn trace_count() -> usize {
    static TRACES: OnceLock<usize> = OnceLock::new();
    *TRACES.get_or_init(|| env_knob("FLEX_BENCH_TRACES", parse_trace_count))
}

/// Whether to run with reduced solver budgets (`FLEX_BENCH_FAST`).
pub fn fast_mode() -> bool {
    static FAST: OnceLock<bool> = OnceLock::new();
    *FAST.get_or_init(|| env_knob("FLEX_BENCH_FAST", parse_fast))
}

/// Reads `name` and parses it with `parse`; on a bad value prints the
/// parser's message and exits with status 2 rather than run a study
/// the user did not ask for.
fn env_knob<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(value.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// `FLEX_BENCH_TRACES`: unset is the paper's 10, otherwise a positive
/// integer (zero traces leave every median undefined).
fn parse_trace_count(value: Option<&str>) -> Result<usize, String> {
    let Some(v) = value else { return Ok(10) };
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "FLEX_BENCH_TRACES must be a positive integer, got {v:?}"
        )),
    }
}

/// `FLEX_BENCH_FAST`: `1` is fast; `0` or unset is the full budget.
fn parse_fast(value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("FLEX_BENCH_FAST must be 0 or 1, got {v:?}")),
    }
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

/// The placement study loop: for each `s in 0..n`, seeds a `SmallRng`
/// with `seed + s`, draws a trace from it with `trace` (a shuffle of a
/// base trace, or a fresh one), places that trace with `policy` on the
/// same stream, and replays the placement into `room`. Returns the `n`
/// replayed room states in order.
pub fn study<P: PlacementPolicy>(
    room: &Room,
    policy: &P,
    seed: u64,
    n: usize,
    mut trace: impl FnMut(&mut SmallRng) -> DemandTrace,
) -> Vec<RoomState> {
    (0..n as u64)
        .map(|s| {
            let mut rng = SmallRng::seed_from_u64(seed + s);
            let trace = trace(&mut rng);
            let placement = policy.place(room, &trace, &mut rng);
            let state = replay(room, &trace, &placement);
            debug_assert!(state.verify_safety(trace.deployments()).is_empty());
            state
        })
        .collect()
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

/// Seed base of the Figure 9/10 shuffles.
const FIG09_SEED: u64 = 0x51AB;

/// Runs the Section V-A placement study: the given base trace shuffled
/// `n` times, placed by every policy (the ILP ones under `ilp`);
/// returns both Figure 9 and Figure 10 metrics.
pub fn run_placement_study(
    room: &Room,
    base: &DemandTrace,
    n: usize,
    ilp: &IlpConfig,
) -> Vec<PolicyStudy> {
    let shuffle = |rng: &mut SmallRng| base.shuffled(rng);
    let row = |name: &str, states: Vec<RoomState>| PolicyStudy {
        name: name.to_string(),
        stranded: states.iter().map(stranded_fraction).collect(),
        imbalance: states.iter().map(throttling_imbalance).collect(),
    };
    let short = FlexOffline::short().with_config(ilp.clone());
    let long = FlexOffline::long().with_config(ilp.clone());
    let oracle = FlexOffline::oracle().with_config(ilp.clone());
    vec![
        row(Random.name(), study(room, &Random, FIG09_SEED, n, shuffle)),
        row(
            BalancedRoundRobin.name(),
            study(room, &BalancedRoundRobin, FIG09_SEED, n, shuffle),
        ),
        row(short.name(), study(room, &short, FIG09_SEED, n, shuffle)),
        row(long.name(), study(room, &long, FIG09_SEED, n, shuffle)),
        row(oracle.name(), study(room, &oracle, FIG09_SEED, n, shuffle)),
    ]
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
        let (room, trace) = paper_room_and_trace(3);
        let ilp = IlpConfig {
            time_limit: Duration::from_secs(1),
        };
        let study = run_placement_study(&room, &trace, 1, &ilp);
        assert_eq!(study.len(), 5);
        for s in &study {
            assert_eq!(s.stranded.len(), 1);
            assert!(s.stranded[0] >= 0.0 && s.stranded[0] <= 1.0);
            assert!(s.imbalance[0] >= 0.0);
        }
    }

    #[test]
    fn env_knobs_parse() {
        assert_eq!(parse_trace_count(None), Ok(10));
        assert_eq!(parse_trace_count(Some("4")), Ok(4));
        assert_eq!(parse_fast(None), Ok(false));
        assert_eq!(parse_fast(Some("0")), Ok(false));
        assert_eq!(parse_fast(Some("1")), Ok(true));
        for bad in ["0", "abc", "-1", "2.5", ""] {
            let err = parse_trace_count(Some(bad)).unwrap_err();
            assert!(err.contains("FLEX_BENCH_TRACES"), "{err}");
        }
        for bad in ["true", "yes", "2", ""] {
            let err = parse_fast(Some(bad)).unwrap_err();
            assert!(err.contains("FLEX_BENCH_FAST"), "{err}");
        }
    }

    /// Random and Balanced Round-Robin never call the ILP, so their
    /// Figure 9/10 values are exact on any machine and pinned here bit
    /// for bit.
    #[test]
    fn deadline_free_rows_are_pinned() {
        let (room, base) = paper_room_and_trace(2026);
        let bits = |states: &[RoomState]| {
            let stranded = states.iter().map(|s| stranded_fraction(s).to_bits());
            let imbalance = states.iter().map(|s| throttling_imbalance(s).to_bits());
            (stranded.collect::<Vec<_>>(), imbalance.collect::<Vec<_>>())
        };
        let shuffle = |rng: &mut SmallRng| base.shuffled(rng);
        assert_eq!(
            bits(&study(&room, &Random, FIG09_SEED, 2, shuffle)),
            (
                vec![0x3fb3_0a3d_70a3_d70a, 0x3fb2_eeee_eeee_eeef], // 0.074375, 0.0739583…
                vec![0x3fc3_bbbb_bbbb_bbbc, 0x3fbc_cccc_cccc_cccd], // 0.1541666…, 0.1125
            )
        );
        assert_eq!(
            bits(&study(&room, &BalancedRoundRobin, FIG09_SEED, 2, shuffle)),
            (
                vec![0x3fa6_b851_eb85_1eb8, 0x3fa9_b4e8_1b4e_81b5], // 0.044375, 0.0502083…
                vec![0x3fbe_4b17_e4b1_7e4b, 0x3fb7_0a3d_70a3_d70a], // 0.1183333…, 0.09
            )
        );
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
