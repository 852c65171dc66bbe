//! Self-test of the benchmark at a smoke size (`--seconds 0.1`; each
//! workload still completes its minimum set of operations). Build in
//! release, as the benchmark runs:
//!
//! ```text
//! cargo test --release --offline --manifest-path flexbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use flex_obs::json::{self, Value};
use flexbench::{placement, room};

/// Per-layer ratios computed from counts alone, so they repeat exactly
/// too.
const COUNT_RATIOS: [&str; 4] = [
    "telemetry.meter_unavailable_frac",
    "online.readings_stale_frac",
    "actuation.apply_frac",
    "placement.lns_closed_frac",
];

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("list present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// `name -> unit` of one metric list of the spec.
fn units(spec: &Value, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("list present")
        .iter()
        .map(|m| {
            let get = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (get("name"), get("unit"))
        })
        .collect()
}

/// Runs one workload and returns its result line, parsed.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_flexbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("result line parses");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: an output digest differs from the reference:\n{stdout}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    result
}

/// `name -> (value, unit)` of a result line.
fn metrics(result: &Value) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_num).expect("value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn assert_units(
    workload: &str,
    got: &BTreeMap<String, (f64, String)>,
    want: &BTreeMap<String, String>,
) {
    let got_units: BTreeMap<String, String> = got
        .iter()
        .map(|(n, (_, u))| (n.clone(), u.clone()))
        .collect();
    assert_eq!(
        &got_units, want,
        "{workload}: metric names or units differ from BENCHMARK.json"
    );
}

#[test]
fn end_to_end_runs_emit_every_metric_with_its_unit() {
    let spec = spec();
    let want = units(&spec, "end_to_end");
    for workload in names(&spec, "workloads") {
        let got = metrics(&run(&workload, false));
        assert_units(&workload, &got, &want);
        for (name, (value, _)) in &got {
            assert!(*value > 0.0, "{workload}: {name} reads {value}");
        }
    }
}

#[test]
fn traced_runs_repeat_their_counts_and_shares_stay_within_one() {
    let spec = spec();
    let want = units(&spec, "per_layer");
    for workload in names(&spec, "workloads") {
        let a = metrics(&run(&workload, true));
        let b = metrics(&run(&workload, true));
        assert_units(&workload, &a, &want);
        for (name, (value, unit)) in &a {
            if unit == "count" || COUNT_RATIOS.contains(&name.as_str()) {
                assert_eq!(
                    value.to_bits(),
                    b[name].0.to_bits(),
                    "{workload}: {name} differs"
                );
            }
        }
        let share = a["attributed_share"].0;
        assert!(
            (0.0..=1.0).contains(&share),
            "{workload}: attributed_share {share}"
        );
        let ups_loads = a["power.ups_loads_share"].0;
        assert!(
            ups_loads <= share,
            "{workload}: ups_loads share {ups_loads} > {share}"
        );
    }
}

#[test]
fn room_split_reproduces_emulation_run() {
    let seed = room::SEEDS[0];
    let split = room::drive(room::setup(seed, flex_obs::Obs::noop()));
    let whole = flex_emulation::run(flex_emulation::EmulationConfig {
        seed,
        ..flex_emulation::EmulationConfig::default()
    });
    assert_eq!(room::digest(&split), room::digest(&whole));
}

#[test]
fn placement_batches_reproduce_flex_offline() {
    use flex_placement::metrics::stranded_fraction;
    use flex_placement::policies::{replay, FlexOffline, PlacementPolicy};
    let s = placement::SHUFFLES[0];
    let mut input = placement::setup(s);
    let ours = placement::place(&mut input).placement;
    let ours = stranded_fraction(&replay(&input.room, &input.trace, &ours));
    let mut input = placement::setup(s);
    let theirs = FlexOffline::short()
        .with_config(placement::ilp_config())
        .place(&input.room, &input.trace, &mut input.rng);
    let theirs = stranded_fraction(&replay(&input.room, &input.trace, &theirs));
    assert_eq!(format!("{ours:.12}"), format!("{theirs:.12}"));
}
