//! `flex` — command-line interface to the Flex reproduction.
//!
//! ```console
//! $ flex place --policy short --seed 42
//! $ flex drill --ups 0 --util 0.85 --scenario realistic-1
//! $ flex feasibility
//! $ flex emulate --fast
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use flex_core::obs::cli::{parse_flags, print};
use flex_core::obs::say;
use flex_core::power::UpsId;
use flex_core::workload::impact::scenarios;
use flex_core::{FlexDatacenter, PolicyKind};

fn usage() -> ExitCode {
    eprintln!(
        "flex — zero-reserved-power datacenter toolkit (Flex, ISCA 2021 reproduction)\n\
         \n\
         USAGE:\n\
           flex place [--policy random|firstfit|brr|short|long|oracle] [--seed N] [--room placement|emulation]\n\
           flex drill [--ups N] [--util F] [--scenario extreme-1|extreme-2|realistic-1|realistic-2]\n\
                      [--policy …] [--seed N] [--room …]\n\
           flex feasibility\n\
           flex emulate [--fast]\n\
         \n\
         `place` builds a room, places a Microsoft-like demand trace, and reports the\n\
         placement metrics. `drill` additionally war-games a UPS failover. `feasibility`\n\
         prints the Section III analysis. `emulate` runs the Figure 13 end-to-end\n\
         experiment."
    );
    ExitCode::from(2)
}

fn policy_of(flags: &BTreeMap<String, String>) -> Result<PolicyKind, String> {
    Ok(match flags.get("policy").map(String::as_str) {
        None | Some("brr") => PolicyKind::BalancedRoundRobin,
        Some("random") => PolicyKind::Random,
        Some("firstfit") => PolicyKind::FirstFit,
        Some("short") => PolicyKind::FlexOfflineShort,
        Some("long") => PolicyKind::FlexOfflineLong,
        Some("oracle") => PolicyKind::FlexOfflineOracle,
        Some(other) => return Err(format!("unknown policy '{other}'")),
    })
}

fn build(flags: &BTreeMap<String, String>) -> Result<FlexDatacenter, String> {
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| format!("bad seed '{s}'")))
        .transpose()?
        .unwrap_or(42);
    let room = match flags.get("room").map(String::as_str) {
        None | Some("placement") => flex_core::placement::RoomConfig::paper_placement_room(),
        Some("emulation") => flex_core::placement::RoomConfig::paper_emulation_room(),
        Some(other) => return Err(format!("unknown room '{other}'")),
    };
    let scenario = match flags.get("scenario").map(String::as_str) {
        None | Some("realistic-1") => scenarios::realistic_1(),
        Some("realistic-2") => scenarios::realistic_2(),
        Some("extreme-1") => scenarios::extreme_1(),
        Some("extreme-2") => scenarios::extreme_2(),
        Some(other) => return Err(format!("unknown scenario '{other}'")),
    };
    FlexDatacenter::builder()
        .room(room)
        .policy(policy_of(flags)?)
        .scenario(scenario)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_place(flags: &BTreeMap<String, String>, out: &mut String) -> Result<(), String> {
    let dc = build(flags)?;
    let room = dc.room();
    say!(
        out,
        "room: {} provisioned | {} conventional budget | {} reserve",
        room.provisioned_power(),
        room.failover_budget(),
        room.provisioned_power() - room.failover_budget()
    );
    say!(
        out,
        "placed {} deployments / {} racks ({} rejected to other rooms)",
        dc.placement().assignments.len(),
        dc.placed().rack_count(),
        dc.placement().rejected.len()
    );
    say!(
        out,
        "stranded power:      {:.2}% of provisioned",
        dc.stranded_fraction() * 100.0
    );
    say!(
        out,
        "throttling imbalance: {:.3}",
        dc.throttling_imbalance()
    );
    say!(
        out,
        "extra servers vs conventional room: +{:.1}%",
        dc.extra_capacity_fraction() * 100.0
    );
    Ok(())
}

fn cmd_drill(flags: &BTreeMap<String, String>, out: &mut String) -> Result<(), String> {
    let dc = build(flags)?;
    let ups: usize = flags
        .get("ups")
        .map(|s| s.parse().map_err(|_| format!("bad ups '{s}'")))
        .transpose()?
        .unwrap_or(0);
    let util: f64 = flags
        .get("util")
        .map(|s| s.parse().map_err(|_| format!("bad util '{s}'")))
        .transpose()?
        .unwrap_or(0.85);
    let drill = dc
        .decide_failover(UpsId(ups), util)
        .map_err(|e| e.to_string())?;
    say!(
        out,
        "failover drill: UPS{ups} out at {:.0}% room utilization",
        util * 100.0
    );
    say!(out, "  safe: {}", drill.outcome.safe);
    say!(
        out,
        "  actions: {} ({:.1}% of racks), shedding {}",
        drill.outcome.actions.len(),
        drill.summary.impacted_fraction * 100.0,
        drill.shed_power
    );
    say!(
        out,
        "  shut down: {:.1}% of software-redundant racks | throttled: {:.1}% of cap-able racks",
        drill.summary.shutdown_fraction * 100.0,
        drill.summary.throttled_fraction * 100.0
    );
    for (u, w) in dc
        .room()
        .topology()
        .ups_ids()
        .zip(drill.outcome.projected_ups_power.iter())
    {
        say!(out, "  projected {u}: {w}");
    }
    Ok(())
}

fn cmd_feasibility(out: &mut String) -> Result<(), String> {
    use flex_core::analysis::feasibility::FeasibilityModel;
    let m = FeasibilityModel::paper();
    let avail = m.no_action_availability();
    say!(out, "Section III feasibility (paper inputs):");
    say!(
        out,
        "  operation without corrective actions: {:.5}% ({:.1} nines)",
        avail * 100.0,
        FeasibilityModel::nines(avail)
    );
    say!(
        out,
        "  P(software-redundant shutdown): {:.4}%",
        m.shutdown_probability() * 100.0
    );
    Ok(())
}

fn cmd_emulate(flags: &BTreeMap<String, String>, out: &mut String) -> Result<(), String> {
    use flex_core::emulation::{run, EmulationConfig};
    use flex_core::sim::SimDuration;
    let fast = flags.contains_key("fast");
    let config = if fast {
        EmulationConfig {
            fail_at: SimDuration::from_secs(60),
            restore_at: SimDuration::from_secs(240),
            duration: SimDuration::from_secs(600),
            ..EmulationConfig::default()
        }
    } else {
        EmulationConfig {
            ilp_placement: true,
            ..EmulationConfig::default()
        }
    };
    let report = run(config);
    say!(out, "end-to-end emulation (Figure 13):");
    say!(
        out,
        "  SR shut down: {:.1}% | cap-able throttled: {:.1}%",
        report.sr_shutdown_fraction * 100.0,
        report.capable_throttled_fraction * 100.0
    );
    if let Some(d) = report.detection_latency {
        say!(out, "  detection: {d}");
    }
    if let Some(d) = report.enforcement_duration {
        say!(out, "  enforcement burst: {d}");
    }
    say!(
        out,
        "  p95 inflation: +{:.1}% mean / +{:.1}% worst",
        report.mean_p95_inflation * 100.0,
        report.worst_p95_inflation * 100.0
    );
    say!(
        out,
        "  cascaded: {} | fully recovered: {}",
        report.cascaded, report.fully_recovered
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let (valued, bare): (&[&str], &[&str]) = match command.as_str() {
        "place" => (&["policy", "seed", "room"], &[]),
        "drill" => (&["ups", "util", "scenario", "policy", "seed", "room"], &[]),
        "feasibility" => (&[], &[]),
        "emulate" => (&[], &["fast"]),
        _ => return usage(),
    };
    let flags = match parse_flags(rest, valued, bare) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    let mut out = String::new();
    let result = match command.as_str() {
        "place" => cmd_place(&flags, &mut out),
        "drill" => cmd_drill(&flags, &mut out),
        "feasibility" => cmd_feasibility(&mut out),
        _ => cmd_emulate(&flags, &mut out),
    };
    // `flex feasibility | head` closes the pipe early; that is no
    // failure (see `print`).
    let result = print(&out)
        .map_err(|e| format!("writing output: {e}"))
        .and(result);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
