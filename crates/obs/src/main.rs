//! `flex-obs` — inspect observability dumps from the Flex control path.
//!
//! ```console
//! $ flex-obs summary --file dump.json
//! $ flex-obs print --file report.json --limit 40
//! $ flex-obs diff --a run1.json --b run2.json
//! ```
//!
//! Any of the following JSON shapes is accepted wherever a dump is
//! expected — the tool digs the dump out itself:
//!
//! - a bare [`ObsDump`] (`{"dropped":…,"events":…,"metrics":…}`);
//! - anything with a `recorder` field holding a dump (a chaos failure
//!   entry, a `flex-chaos replay` report);
//! - a campaign report (`failures[0].recorder` is used).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use flex_obs::cli::{parse_flags, print};
use flex_obs::say;
use flex_obs::json::{self, Value};
use flex_obs::{FlightEvent, HistogramSnapshot, ObsDump};
use flex_sim::SimDuration;

fn usage() -> ExitCode {
    eprintln!(
        "flex-obs — pretty-print, summarize, and diff Flex observability dumps\n\
         \n\
         USAGE:\n\
           flex-obs summary --file PATH\n\
           flex-obs print --file PATH [--limit N]\n\
           flex-obs diff --a PATH --b PATH\n\
         \n\
         `summary` prints counter totals, gauges, and per-histogram\n\
         count/p50/p99/max (span histograms render as durations), plus an\n\
         event census. `print` renders the flight-recorder timeline.\n\
         `diff` compares two dumps field by field and exits non-zero when\n\
         they differ. PATH may be '-' for stdin. Inputs may be bare dumps,\n\
         chaos failure entries, replay reports, or campaign reports — the\n\
         embedded recorder dump is located automatically."
    );
    ExitCode::from(2)
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

/// Locates the dump inside any of the accepted JSON shapes.
fn extract_dump(value: &Value) -> Option<&Value> {
    if value.get("events").is_some() && value.get("metrics").is_some() {
        return Some(value);
    }
    if let Some(recorder) = value.get("recorder") {
        if let Some(found) = extract_dump(recorder) {
            return Some(found);
        }
    }
    if let Some(failures) = value.get("failures").and_then(Value::as_arr) {
        for f in failures {
            if let Some(found) = extract_dump(f) {
                return Some(found);
            }
        }
    }
    None
}

fn load_dump(path: &str) -> Result<ObsDump, String> {
    let text = read_input(path)?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let dump_value =
        extract_dump(&value).ok_or_else(|| format!("{path}: no observability dump found"))?;
    ObsDump::from_value(dump_value).ok_or_else(|| format!("{path}: malformed dump"))
}

/// Span histograms store sim-time nanoseconds; render those as
/// durations and everything else as plain numbers.
fn sample(name: &str, v: u64) -> String {
    if name.starts_with("span/") {
        SimDuration::from_nanos(v).to_string()
    } else {
        v.to_string()
    }
}

fn histogram_line(name: &str, h: &HistogramSnapshot) -> String {
    let q = |p: f64| h.quantile(p).map_or("-".to_string(), |v| sample(name, v));
    format!(
        "  {name:<40} n={:<7} p50={:<12} p99={:<12} max={}",
        h.count,
        q(0.5),
        q(0.99),
        q(1.0),
    )
}

fn sim_seconds(ns: u64) -> String {
    format!("{:>12.6}s", ns as f64 / 1e9)
}

/// Renders a delivery's controller bitmask as the indices it covers.
fn mask_list(mask: u32) -> String {
    let ids: Vec<String> = (0..32)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| i.to_string())
        .collect();
    ids.join(",")
}

fn describe(event: &FlightEvent) -> String {
    let action_name = |a: u8| match a {
        0 => "shutdown",
        1 => "throttle",
        _ => "restore",
    };
    let state_name = |s: u8| match s {
        0 => "normal",
        1 => "throttled",
        _ => "off",
    };
    match event {
        FlightEvent::UpsDelivery {
            controllers,
            measured_at_ns,
            readings,
        } => format!(
            "controllers {} <- ups snapshot ({} readings, measured {})",
            mask_list(*controllers),
            readings.len(),
            sim_seconds(*measured_at_ns).trim()
        ),
        FlightEvent::RackDelivery {
            controllers,
            measured_at_ns,
            readings,
        } => format!(
            "controllers {} <- rack snapshot ({} readings, measured {})",
            mask_list(*controllers),
            readings.len(),
            sim_seconds(*measured_at_ns).trim()
        ),
        FlightEvent::FailoverAlarm { controller, ups } => {
            format!("controller {controller} <- failover alarm for ups {ups}")
        }
        FlightEvent::AlarmCleared { controller, ups } => {
            format!("controller {controller}: alarm cleared for ups {ups}")
        }
        FlightEvent::WatchdogTick { controller } => {
            format!("controller {controller} watchdog armed tick")
        }
        FlightEvent::WatchdogFired { controller } => {
            format!("controller {controller} WATCHDOG FIRED (blind shed)")
        }
        FlightEvent::CommandIssued {
            controller,
            rack,
            action,
        } => format!(
            "controller {controller} issued {} for rack {rack}",
            action_name(*action)
        ),
        FlightEvent::CommandSubmitted {
            rack,
            state,
            apply_at_ns,
        } => format!(
            "actuator accepted rack {rack} -> {} (applies at {})",
            state_name(*state),
            sim_seconds(*apply_at_ns).trim()
        ),
        FlightEvent::CommandRetried { rack, attempt } => {
            format!("actuator retry #{attempt} scheduled for rack {rack}")
        }
        FlightEvent::CommandApplied { rack, state } => {
            format!("rack {rack} is now {}", state_name(*state))
        }
        FlightEvent::EnforcementDropped { controller, rack } => {
            format!("enforcement DROPPED for rack {rack} (controller {controller} told)")
        }
        FlightEvent::UpsFailed { ups } => format!("ups {ups} FAILED"),
        FlightEvent::UpsRestored { ups } => format!("ups {ups} restored"),
        FlightEvent::UpsTripped { ups } => format!("ups {ups} TRIPPED on overload"),
        FlightEvent::TripMargin { ups, damage } => {
            format!("ups {ups} trip-curve damage {damage:.4}")
        }
        FlightEvent::EpochBump { controller, epoch } => {
            format!("controller {controller} epoch bumped to {epoch}")
        }
        FlightEvent::CommandFenced {
            controller,
            rack,
            epoch,
            latest,
        } => format!(
            "actuator FENCED rack {rack} command from controller {controller} \
             (epoch {epoch} < latest {latest})"
        ),
        FlightEvent::RecoveryStarted { controller, epoch } => {
            format!("controller {controller} recovery started (epoch {epoch})")
        }
        FlightEvent::RecoveryCompleted {
            controller,
            epoch,
            recovered,
        } => format!(
            "controller {controller} recovery completed (epoch {epoch}, \
             {} in-flight, {} alarmed)",
            recovered.inflight.len(),
            recovered.alarmed.len()
        ),
    }
}

fn cmd_summary(flags: &BTreeMap<String, String>, out: &mut String) -> Result<bool, String> {
    let path = flags.get("file").ok_or("summary needs --file PATH")?;
    let dump = load_dump(path)?;
    say!(
        out,
        "dump: {} events ({} dropped from ring)",
        dump.events.len(),
        dump.dropped
    );
    if !dump.metrics.counters.is_empty() {
        say!(out, "counters:");
        for (name, v) in &dump.metrics.counters {
            say!(out, "  {name:<40} {v}");
        }
    }
    if !dump.metrics.gauges.is_empty() {
        say!(out, "gauges:");
        for (name, v) in &dump.metrics.gauges {
            say!(out, "  {name:<40} {v:.6}");
        }
    }
    if !dump.metrics.histograms.is_empty() {
        say!(out, "histograms:");
        for (name, h) in &dump.metrics.histograms {
            say!(out, "{}", histogram_line(name, h));
        }
    }
    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, e) in &dump.events {
        *census.entry(e.kind()).or_insert(0) += 1;
    }
    if !census.is_empty() {
        say!(out, "events:");
        for (kind, n) in &census {
            say!(out, "  {kind:<40} {n}");
        }
    }
    Ok(true)
}

fn cmd_print(flags: &BTreeMap<String, String>, out: &mut String) -> Result<bool, String> {
    let path = flags.get("file").ok_or("print needs --file PATH")?;
    let limit = flags
        .get("limit")
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad limit '{s}'")))
        .transpose()?
        .unwrap_or(usize::MAX);
    let dump = load_dump(path)?;
    if dump.dropped > 0 {
        say!(out, "... {} earlier events overwritten in the ring ...", dump.dropped);
    }
    let skipped = dump.events.len().saturating_sub(limit);
    if skipped > 0 {
        say!(out, "... {skipped} events elided by --limit (showing the tail) ...");
    }
    for (t, e) in dump.events.iter().skip(skipped) {
        say!(out, "{}  {:<20} {}", sim_seconds(*t), e.kind(), describe(e));
    }
    Ok(true)
}

fn cmd_diff(flags: &BTreeMap<String, String>, out: &mut String) -> Result<bool, String> {
    let path_a = flags.get("a").ok_or("diff needs --a PATH")?;
    let path_b = flags.get("b").ok_or("diff needs --b PATH")?;
    let a = load_dump(path_a)?;
    let b = load_dump(path_b)?;
    let mut differences = 0usize;
    let mut report = |line: String| {
        differences += 1;
        say!(out, "{line}");
    };
    let names = |ka: Vec<&String>, kb: Vec<&String>| -> Vec<String> {
        let mut all: Vec<String> = ka.into_iter().chain(kb).cloned().collect();
        all.sort();
        all.dedup();
        all
    };
    for name in names(
        a.metrics.counters.keys().collect(),
        b.metrics.counters.keys().collect(),
    ) {
        let name = &name;
        let (va, vb) = (a.metrics.counters.get(name), b.metrics.counters.get(name));
        if va != vb {
            report(format!(
                "counter {name}: {} vs {}",
                va.map_or("-".to_string(), u64::to_string),
                vb.map_or("-".to_string(), u64::to_string),
            ));
        }
    }
    for name in names(
        a.metrics.gauges.keys().collect(),
        b.metrics.gauges.keys().collect(),
    ) {
        let name = &name;
        let (va, vb) = (a.metrics.gauges.get(name), b.metrics.gauges.get(name));
        if va.map(|v| v.to_bits()) != vb.map(|v| v.to_bits()) {
            report(format!("gauge {name}: {va:?} vs {vb:?}"));
        }
    }
    for name in names(
        a.metrics.histograms.keys().collect(),
        b.metrics.histograms.keys().collect(),
    ) {
        let name = &name;
        let (ha, hb) = (a.metrics.histograms.get(name), b.metrics.histograms.get(name));
        if ha != hb {
            report(format!(
                "histogram {name}: n={} sum={} vs n={} sum={}",
                ha.map_or(0, |h| h.count),
                ha.map_or(0, |h| h.sum),
                hb.map_or(0, |h| h.count),
                hb.map_or(0, |h| h.sum),
            ));
        }
    }
    if a.dropped != b.dropped {
        report(format!("dropped: {} vs {}", a.dropped, b.dropped));
    }
    if a.events.len() != b.events.len() {
        report(format!(
            "event count: {} vs {}",
            a.events.len(),
            b.events.len()
        ));
    }
    if let Some(i) = a
        .events
        .iter()
        .zip(b.events.iter())
        .position(|(ea, eb)| ea != eb)
    {
        let show = |side: &ObsDump| {
            side.events
                .get(i)
                .map_or("-".to_string(), |(t, e)| {
                    format!("{} {}", sim_seconds(*t).trim(), e.kind())
                })
        };
        report(format!(
            "first event divergence at index {i}: {} vs {}",
            show(&a),
            show(&b)
        ));
    }
    if differences == 0 {
        say!(out, "dumps are identical");
        Ok(true)
    } else {
        say!(out, "{differences} difference(s)");
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let valued: &[&str] = match command.as_str() {
        "summary" => &["file"],
        "print" => &["file", "limit"],
        "diff" => &["a", "b"],
        _ => return usage(),
    };
    let flags = match parse_flags(rest, valued, &[]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            return usage();
        }
    };
    let mut out = String::new();
    let result = match command.as_str() {
        "summary" => cmd_summary(&flags, &mut out),
        "print" => cmd_print(&flags, &mut out),
        _ => cmd_diff(&flags, &mut out),
    };
    // `flex-obs summary | head` closes the pipe early; that is no
    // failure (see `print`): the command's verdict is what callers
    // script on.
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
