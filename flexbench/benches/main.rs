//! `flexbench`: the repository benchmark.
//!
//! One process runs one workload (`room_failover`, `chaos_campaign` or
//! `placement_solve`) over a fixed input set, checks every output
//! against a kept reference digest, and prints as the last line of
//! standard output one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` they are per-layer, measured by
//! timing calls into each layer's public functions from this package.
//! Lines before it carry run metadata (`meta {...}`) and one
//! `digest <key> <hex> <ok|MISMATCH|MISSING>` line per checked output.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path flexbench/Cargo.toml -- \
//!     --workload room_failover --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `flexbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flexbench::common::{self, json_num, json_str, Args, END_TO_END, PER_LAYER};
use flexbench::{chaos, placement, room};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "flexbench: {e}\nusage: flexbench --workload <room_failover|chaos_campaign|placement_solve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "room_failover" => room::run(&args),
        "chaos_campaign" => chaos::run(&args),
        "placement_solve" => placement::run(&args),
        other => {
            eprintln!("flexbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        let ok = outcome.attempted.saturating_sub(outcome.failed);
        outcome.set("ok_frac", ok as f64 / outcome.attempted.max(1) as f64);
    }

    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \
         \"profile\": {}, \"nproc\": {}, \"threads\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&common::commit()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        outcome.threads,
    );
    let mut correct = true;
    for (key, digest) in &outcome.digests {
        let status = match common::reference(key) {
            Some(r) if r == *digest => "ok",
            Some(_) => "MISMATCH",
            None => "MISSING",
        };
        correct &= status == "ok";
        println!("digest {key} {digest:016x} {status}");
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
