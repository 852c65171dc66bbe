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

use flex_chaos::scenario::{fresh_controllers, FAMILIES};
use flex_chaos::{ab_probe, campaign, CampaignConfig, Scenario};
use flex_obs::cli::{parse_flags, print};
use flex_obs::{json, say};
use flex_online::replay::{recorded_commands, replay_decisions};

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
         hardening switch on before judging. `replay` also re-derives the\n\
         run's decisions from the dump alone, through fresh controllers, and\n\
         fails unless they equal the recorded commands."
    );
    ExitCode::from(2)
}

fn emit(
    flags: &BTreeMap<String, String>,
    json_text: &str,
    out: &mut String,
) -> Result<(), String> {
    match flags.get("json").map(String::as_str) {
        None => Ok(()),
        Some("-") => {
            say!(out, "{json_text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, json_text)
            .map_err(|e| format!("writing {path}: {e}")),
    }
}

fn cmd_run(flags: &BTreeMap<String, String>, out: &mut String) -> Result<bool, String> {
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
        let (report, survived) = ab_probe(config, family);
        (report, Some(survived))
    } else {
        (campaign::run_filtered(config, family), None)
    };
    say!(
        out,
        "campaign: seed {} | {} scenarios | watchdog {} | retries {} | fencing {} | recovery {}",
        report.config.seed,
        report.config.scenarios,
        if report.config.watchdog { "on" } else { "off" },
        if report.config.retries { "on" } else { "off" },
        if report.config.fencing { "on" } else { "off" },
        if report.config.recovery { "on" } else { "off" },
    );
    for (family, run, failed) in &report.family_counts {
        say!(out, "  {family:<28} {run:>4} run  {failed:>3} failed");
    }
    say!(
        out,
        "  {} clean, {} failing scenarios",
        report.clean,
        report.failures.len()
    );
    for f in &report.failures {
        say!(out, "  scenario {} ({}):", f.scenario.id, f.scenario.family);
        for v in &f.violations {
            say!(out, "    [{}] {}", v.kind, v.detail);
        }
        if let Some(min) = &f.minimized {
            say!(
                out,
                "    minimized: {} fault atoms (from {})",
                min.atom_count(),
                f.scenario.atom_count()
            );
        }
    }
    if let Some(survived) = survived {
        say!(
            out,
            "  A/B: {} of {} unhardened failures pass with watchdog+retry+fencing+recovery enabled",
            survived,
            report.failures.len()
        );
    }
    emit(flags, &report.to_json(), out)?;
    Ok(report.failures.is_empty() || flags.contains_key("ab"))
}

fn cmd_replay(flags: &BTreeMap<String, String>, out: &mut String) -> Result<bool, String> {
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
    say!(
        out,
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
        say!(out, "verdict: CLEAN (no safety violations)");
    } else {
        say!(out, "verdict: {} violation(s)", violations.len());
        for v in &violations {
            say!(out, "  [{}] {}", v.kind, v.detail);
        }
    }
    let dump = obs.dump();
    say!(
        out,
        "recorder: {} flight events captured ({} dropped)",
        dump.events.len(),
        dump.dropped
    );
    let recorded = recorded_commands(&dump.events);
    let replayed = replay_decisions(&mut fresh_controllers(&scenario), &dump.events);
    // A dump missing its oldest events cannot re-derive the run.
    let replay_matches = dump.dropped == 0 && replayed == recorded;
    say!(
        out,
        "decision replay: {} ({} commands replayed from the dump, {} recorded)",
        if replay_matches {
            "identical"
        } else {
            "DIVERGED"
        },
        replayed.len(),
        recorded.len()
    );
    let report = json::obj(vec![
        ("scenario", scenario.to_value()),
        (
            "violations",
            json::Value::Arr(violations.iter().map(|v| v.to_value()).collect()),
        ),
        ("recorder", dump.to_value()),
    ]);
    emit(flags, &report.to_json(), out)?;
    Ok(violations.is_empty() && replay_matches)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let (valued, bare): (&[&str], &[&str]) = match command.as_str() {
        "run" => (
            &["seed", "scenarios", "family", "json"],
            &[
                "no-watchdog", "no-retry", "no-fencing", "no-recovery", "no-minimize", "no-obs",
                "ab",
            ],
        ),
        "replay" => (&["file", "json"], &["harden"]),
        _ => return usage(),
    };
    let flags = match parse_flags(rest, valued, bare) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    if let Some(f) = flags.get("family").filter(|f| !FAMILIES.contains(&f.as_str())) {
        eprintln!("error: unknown family '{f}' (one of: {})\n", FAMILIES.join(", "));
        return usage();
    }
    let mut out = String::new();
    let result = match command.as_str() {
        "run" => cmd_run(&flags, &mut out),
        _ => cmd_replay(&flags, &mut out),
    };
    // `flex-chaos run | head` closes the pipe early; that is no failure
    // (see `print`).
    let result = print(&out)
        .map_err(|e| format!("writing output: {e}"))
        .and(result);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
