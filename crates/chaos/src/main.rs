//! `flex-chaos` — fault-campaign harness for the Flex-Online loop.
//!
//! ```console
//! $ flex-chaos run --seed 42 --scenarios 200
//! $ flex-chaos run --scenarios 60 --ab --json report.json
//! $ flex-chaos replay --file minimized.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use flex_chaos::{ab_probe, campaign, CampaignConfig, Scenario};
use flex_obs::json;

fn usage() -> ExitCode {
    eprintln!(
        "flex-chaos — seeded fault campaigns against the Flex-Online closed loop\n\
         \n\
         USAGE:\n\
           flex-chaos run [--seed N] [--scenarios N] [--family NAME]\n\
                          [--no-watchdog] [--no-retry] [--no-fencing] [--no-recovery]\n\
                          [--no-minimize] [--no-obs] [--ab] [--json PATH]\n\
           flex-chaos replay --file PATH [--harden] [--json PATH]\n\
         \n\
         `run` generates N fault-combination scenarios from the seed, drives the\n\
         closed room loop through each, judges every run against the safety oracle\n\
         (no unexcused UPS trip, no orphaned rack, bounded over-shed, no stale-\n\
         epoch actuation), and delta-minimizes failures into replayable\n\
         reproducers. Failing scenarios embed their flex-obs flight-recorder dump\n\
         unless --no-obs. `--family` restricts the run to one generator family.\n\
         `--ab` disables all hardening features (blackout watchdog, actuation\n\
         retry, epoch fencing, crash recovery) for the campaign and re-judges\n\
         every failure with them enabled. `replay` re-runs one scenario from a\n\
         JSON file (a campaign report, one of its failure entries, or a bare\n\
         `scenario`/`minimized` object), reports the verdict, and attaches a\n\
         fresh recorder dump to the JSON output; `--harden` forces every\n\
         hardening switch on before judging."
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    const BARE: [&str; 8] = [
        "no-watchdog",
        "no-retry",
        "no-fencing",
        "no-recovery",
        "no-minimize",
        "no-obs",
        "ab",
        "harden",
    ];
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'", args[i]))?;
        if BARE.contains(&key) {
            flags.insert(key.to_string(), "1".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn emit(flags: &BTreeMap<String, String>, json_text: &str) -> Result<(), String> {
    match flags.get("json").map(String::as_str) {
        None => Ok(()),
        Some("-") => {
            println!("{json_text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, json_text)
            .map_err(|e| format!("writing {path}: {e}")),
    }
}

fn cmd_run(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let config = CampaignConfig {
        seed: flags
            .get("seed")
            .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
            .transpose()?
            .unwrap_or(CampaignConfig::default().seed),
        scenarios: flags
            .get("scenarios")
            .map(|s| s.parse().map_err(|_| format!("bad scenario count '{s}'")))
            .transpose()?
            .unwrap_or(CampaignConfig::default().scenarios),
        watchdog: !flags.contains_key("no-watchdog"),
        retries: !flags.contains_key("no-retry"),
        fencing: !flags.contains_key("no-fencing"),
        recovery: !flags.contains_key("no-recovery"),
        minimize: !flags.contains_key("no-minimize"),
        obs: !flags.contains_key("no-obs"),
    };
    let family = flags.get("family").map(String::as_str);
    let (report, survived) = if flags.contains_key("ab") {
        let (report, survived) = ab_probe(config);
        (report, Some(survived))
    } else {
        (campaign::run_filtered(config, family), None)
    };
    println!(
        "campaign: seed {} | {} scenarios | watchdog {} | retries {} | fencing {} | recovery {}",
        report.config.seed,
        report.config.scenarios,
        if report.config.watchdog { "on" } else { "off" },
        if report.config.retries { "on" } else { "off" },
        if report.config.fencing { "on" } else { "off" },
        if report.config.recovery { "on" } else { "off" },
    );
    for (family, run, failed) in &report.family_counts {
        println!("  {family:<28} {run:>4} run  {failed:>3} failed");
    }
    println!(
        "  {} clean, {} failing scenarios",
        report.clean,
        report.failures.len()
    );
    for f in &report.failures {
        println!("  scenario {} ({}):", f.scenario.id, f.scenario.family);
        for v in &f.violations {
            println!("    [{}] {}", v.kind, v.detail);
        }
        if let Some(min) = &f.minimized {
            println!(
                "    minimized: {} fault atoms (from {})",
                min.atom_count(),
                f.scenario.atom_count()
            );
        }
    }
    if let Some(survived) = survived {
        println!(
            "  A/B: {} of {} unhardened failures pass with watchdog+retry+fencing+recovery enabled",
            survived,
            report.failures.len()
        );
    }
    emit(flags, &report.to_json())?;
    Ok(report.failures.is_empty() || flags.contains_key("ab"))
}

fn cmd_replay(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let path = flags.get("file").ok_or("replay needs --file PATH")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| e.to_string())?;
    // Accept a bare scenario object, a campaign failure entry, or a
    // whole campaign report (first failure).
    let failure_value = value
        .get("failures")
        .and_then(|f| f.as_arr())
        .and_then(|arr| arr.first())
        .unwrap_or(&value);
    let scenario_value = failure_value.get("scenario").unwrap_or(failure_value);
    let mut scenario =
        Scenario::from_value(scenario_value).ok_or("file does not describe a scenario")?;
    if flags.contains_key("harden") {
        scenario.watchdog = true;
        scenario.retries = true;
        scenario.fencing = true;
        scenario.recovery = true;
    }
    println!(
        "replaying scenario {} ({}, seed {}, util {:.3}, watchdog {}, retries {}, fencing {}, recovery {})",
        scenario.id,
        scenario.family,
        scenario.seed,
        scenario.util,
        if scenario.watchdog { "on" } else { "off" },
        if scenario.retries { "on" } else { "off" },
        if scenario.fencing { "on" } else { "off" },
        if scenario.recovery { "on" } else { "off" },
    );
    let obs = flex_obs::Obs::recording();
    let violations = campaign::judge_obs(&scenario, &obs);
    if violations.is_empty() {
        println!("verdict: CLEAN (no safety violations)");
    } else {
        println!("verdict: {} violation(s)", violations.len());
        for v in &violations {
            println!("  [{}] {}", v.kind, v.detail);
        }
    }
    let dump = obs.dump();
    println!(
        "recorder: {} flight events captured ({} dropped)",
        dump.events.len(),
        dump.dropped
    );
    let report = json::obj(vec![
        ("scenario", scenario.to_value()),
        (
            "violations",
            json::Value::Arr(violations.iter().map(|v| v.to_value()).collect()),
        ),
        ("recorder", dump.to_value()),
    ]);
    emit(flags, &report.to_json())?;
    Ok(violations.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&flags),
        "replay" => cmd_replay(&flags),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
