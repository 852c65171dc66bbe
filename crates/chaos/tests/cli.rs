//! The `flex-chaos` binary end to end, on the fixed-seed campaigns that
//! gate the chaos harness, the flight recorder and crash recovery, each
//! within a wall-clock budget; misspelt flags and families, and a
//! replayed scenario whose utilization, failure time or horizon is out
//! of range, or whose faults name components the room lacks, are
//! refused; a reader that closes stdout early ends the
//! output without a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use flex_obs::json::{self, Value};
use flex_obs::{FlightEvent, ObsDump};

/// The gate seed: 0xC4005, not the campaign default 0xC4A05.
const SEED: &str = "802821";

/// An empty scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs `flex-chaos` in `dir` with `args` split on whitespace, so file
/// names are relative to `dir`.
fn chaos(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flex-chaos"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("flex-chaos starts")
}

/// One `flex-chaos` invocation: its verdict, stdout and JSON report.
struct Run {
    ok: bool,
    stdout: String,
    json: String,
    report: Value,
}

/// Runs `flex-chaos <args> --json <name>.json` in `dir`. A usage error
/// (exit 2) or a crash fails the test, so a misspelt flag here cannot
/// pass as a verdict.
fn run(dir: &Path, name: &str, args: &str) -> Run {
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::remove_file(&path);
    let out = chaos(dir, &format!("{args} --json {name}.json"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "flex-chaos {args}: {stderr}");
    let json = std::fs::read_to_string(&path).expect("report written");
    Run {
        ok: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        report: json::parse(&json).expect("the report parses"),
        json,
    }
}

fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap_or_else(|| panic!("no `{key}` array"))
}

/// The violation kinds of a campaign report's failures, or of a replay
/// report.
fn kinds(report: &Value) -> Vec<&str> {
    let verdicts = report.get("failures").and_then(Value::as_arr);
    verdicts
        .unwrap_or(std::slice::from_ref(report))
        .iter()
        .flat_map(|v| arr(v, "violations"))
        .filter_map(|v| v.get("kind")?.as_str())
        .collect()
}

#[test]
fn gate_campaign_is_deterministic_and_hardening_is_load_bearing() {
    let start = Instant::now();
    let dir = scratch("campaign");
    let hardened = format!("run --seed {SEED} --scenarios 60");
    let (a, b) = (run(&dir, "a", &hardened), run(&dir, "b", &hardened));
    assert!(a.ok, "the hardened campaign failed:\n{}", a.stdout);
    assert_eq!(a.json, b.json, "fixed-seed reports differ between runs");
    assert!(arr(&a.report, "failures").is_empty());

    let ab = run(&dir, "ab", &format!("{hardened} --ab"));
    assert!(kinds(&ab.report).contains(&"unexcused-trip"), "the unhardened run found no trip");
    let survived: u64 = ab
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("  A/B: ")?.split_once(" of ")?.0.parse().ok())
        .unwrap_or_else(|| panic!("no `A/B: N of` line:\n{}", ab.stdout));
    assert!(survived >= 1, "hardening survived no unhardened failure");

    // The reproducer is unhardened, so replay must report the violation,
    // the same way twice, and re-derive the recorded decisions from the
    // dump both as recorded and hardened (whose recording holds the
    // watchdog ticks the unhardened one lacks).
    let failure = &arr(&ab.report, "failures")[0];
    let minimized = failure.get("minimized").filter(|m| **m != Value::Null);
    let repro = minimized.or(failure.get("scenario")).expect("failure scenario");
    std::fs::write(dir.join("repro.json"), repro.to_json()).expect("reproducer written");
    let r1 = run(&dir, "r1", "replay --file repro.json");
    let r2 = run(&dir, "r2", "replay --file repro.json");
    assert!(!r1.ok, "the reproducer replayed clean:\n{}", r1.stdout);
    assert_eq!(r1.json, r2.json, "replay verdicts differ");
    assert!(kinds(&r1.report).contains(&"unexcused-trip"), "replay lost the trip");
    let identical = "\ndecision replay: identical";
    assert!(r1.stdout.contains(identical), "the replayed decisions diverged:\n{}", r1.stdout);
    let h = run(&dir, "h", "replay --file repro.json --harden");
    assert!(h.stdout.contains(identical), "hardened, they diverged:\n{}", h.stdout);

    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}, budget 30 s");
}

#[test]
fn failure_reports_embed_a_dump_that_replay_records_again() {
    let start = Instant::now();
    let dir = scratch("obs");
    // Scenario 1 is blackout_at_failover, which fails unhardened;
    // unminimized, the failure's dump is exactly the instrumented run.
    let args = format!("run --seed {SEED} --scenarios 2 --no-watchdog --no-retry --no-minimize");
    let (camp, camp2) = (run(&dir, "camp", &args), run(&dir, "camp2", &args));
    assert!(!camp.ok, "the unhardened campaign was clean:\n{}", camp.stdout);
    assert_eq!(camp.json, camp2.json, "instrumented reports differ between runs");
    let recorder = arr(&camp.report, "failures")[0].get("recorder").expect("recorder");
    let dump = ObsDump::from_value(recorder).expect("the embedded dump parses");
    assert!(
        dump.events.iter().any(|(_, e)| matches!(e, FlightEvent::CommandIssued { .. })),
        "the dump carries no controller decisions: {} events",
        dump.events.len()
    );

    let replay = run(&dir, "replay", "replay --file camp.json");
    assert!(!replay.ok, "replay lost the violation:\n{}", replay.stdout);
    assert!(kinds(&replay.report).contains(&"unexcused-trip"), "replay lost the trip");
    assert_eq!(replay.report.get("recorder"), Some(recorder), "the replay's trace diverged");

    let bare = run(&dir, "bare", &format!("{args} --no-obs"));
    assert!(!bare.ok, "--no-obs changed the verdict");
    assert_eq!(kinds(&bare.report), kinds(&camp.report), "--no-obs changed the violations");
    for f in arr(&bare.report, "failures") {
        assert_eq!(f.get("recorder"), Some(&Value::Null), "--no-obs still embeds a dump");
    }

    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(20), "took {elapsed:?}, budget 20 s");
}

/// Asserts that a `--family` campaign of 64 scenarios ran exactly the
/// family's 8 and nothing else.
fn ran_only(report: &Value, family: &str) {
    for entry in arr(report, "families") {
        let name = entry.get("family").and_then(Value::as_str).expect("family");
        let ran = entry.get("run").and_then(Value::as_u64).expect("run");
        assert_eq!(ran, if name == family { 8 } else { 0 }, "{name} under --family {family}");
    }
}

#[test]
fn lifecycle_families_need_fencing_and_recovery() {
    let start = Instant::now();
    let dir = scratch("recovery");
    for family in ["restart_storm", "split_brain"] {
        let hardened =
            format!("run --seed {SEED} --scenarios 64 --family {family} --no-minimize --no-obs");
        let (a, b) = (run(&dir, "a", &hardened), run(&dir, "b", &hardened));
        assert!(a.ok, "hardened {family} failed:\n{}", a.stdout);
        assert_eq!(a.json, b.json, "{family} reports differ between runs");
        assert!(arr(&a.report, "failures").is_empty());
        ran_only(&a.report, family);
        ran_only(&run(&dir, "ab", &format!("{hardened} --ab")).report, family);

        let ablated = format!("{hardened} --no-fencing --no-recovery");
        let (a, b) = (run(&dir, "a", &ablated), run(&dir, "b", &ablated));
        assert_eq!(a.json, b.json, "ablated {family} reports differ between runs");
        ran_only(&a.report, family);
        assert!(kinds(&a.report).contains(&"orphaned-rack"), "{family}: no orphaned rack");
        if family != "restart_storm" {
            continue;
        }
        // Stale-epoch actuation needs live retry chains straddling a
        // restart: the restart storm's signature failure.
        assert!(kinds(&a.report).contains(&"stale-command"), "no stale command");

        // The reproducer carries fencing and recovery off, so it fails;
        // with every hardening switch forced back on it comes back clean.
        let scenario = arr(&a.report, "failures")[0].get("scenario").expect("scenario");
        std::fs::write(dir.join("repro.json"), scenario.to_json()).expect("reproducer written");
        let r1 = run(&dir, "r1", "replay --file repro.json");
        assert!(!r1.ok, "the ablated reproducer replayed clean");
        assert!(kinds(&r1.report).contains(&"stale-command"), "replay lost the stale command");
        let r2 = run(&dir, "r2", "replay --file repro.json --harden");
        assert!(r2.ok, "the hardened replay still fails:\n{}", r2.stdout);
    }

    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}, budget 30 s");
}

#[test]
fn unknown_flags_and_families_are_usage_errors() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for args in [
        "run --scenaros 3",
        "run --scenarios 16 --family restart_strom",
        "run --scenarios 1 --harden",
        "replay --file report.json --seed 1",
    ] {
        let out = chaos(dir, args);
        assert_eq!(out.status.code(), Some(2), "flex-chaos {args}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE:"), "flex-chaos {args}");
    }
}

#[test]
fn replay_refuses_a_utilization_outside_its_range() {
    // Refused before the run: 1e30 leaves the demand draw an empty
    // range, and -0.5 and 0.0 draw negative rack demand.
    let dir = scratch("util");
    for util in [1e30, -0.5, 0.0] {
        let mut scenario = flex_chaos::scenario::generate(1, 0);
        scenario.util = util;
        std::fs::write(dir.join("bad.json"), scenario.to_value().to_json()).expect("file written");
        let out = chaos(&dir, "replay --file bad.json");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "util {util}: {stderr}");
        assert!(stderr.contains("file does not describe a scenario"), "util {util}: {stderr}");
        assert!(!stderr.contains("panicked"), "util {util}: {stderr}");
    }
}

#[test]
fn replay_refuses_a_failure_outside_its_horizon() {
    // A failure at or past the horizon (or a zero horizon) would replay
    // as CLEAN without ever failing; a horizon of 10^13 ms, about 317
    // simulated years, kept an unchecked replay running past 10 s. Each
    // is refused while the file is parsed, before any run starts.
    let dir = scratch("horizon");
    type Edit = (&'static str, fn(&mut flex_chaos::scenario::Scenario));
    let edits: [Edit; 4] = [
        ("fail_at_ms = horizon_ms", |s| s.fail_at_ms = s.horizon_ms),
        ("fail_at_ms = 10^13", |s| s.fail_at_ms = 10_000_000_000_000),
        ("horizon_ms = 0", |s| s.horizon_ms = 0),
        ("horizon_ms = 10^13", |s| s.horizon_ms = 10_000_000_000_000),
    ];
    for (label, edit) in edits {
        let mut scenario = flex_chaos::scenario::generate(1, 0);
        edit(&mut scenario);
        std::fs::write(dir.join("bad.json"), scenario.to_value().to_json()).expect("file written");
        // A replay that runs instead of being refused is killed at the
        // deadline, so a regression fails here rather than hangs.
        let mut child = Command::new(env!("CARGO_BIN_EXE_flex-chaos"))
            .current_dir(&dir)
            .args(["replay", "--file", "bad.json"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("flex-chaos starts");
        let start = Instant::now();
        while child.try_wait().expect("flex-chaos waits").is_none() {
            if start.elapsed() > Duration::from_secs(2) {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{label}: not refused within 2 s");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = child.wait_with_output().expect("flex-chaos output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{label}: {stderr}");
        assert!(
            stderr.contains("file does not describe a scenario"),
            "{label}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{label} ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn replay_refuses_a_fault_on_a_component_the_room_lacks() {
    // Each edit once replayed as if its fault were absent: a misspelt
    // or out-of-range component, or one filed in the wrong list, was
    // always up, and a partition pinning a foreign instance pinned none.
    // Each is refused while the file is parsed, before any run starts.
    let dir = scratch("components");
    let swap_lists = |text: &str| {
        text.replace("\"pipeline_faults\"", "\"swap\"")
            .replace("\"rm_faults\"", "\"pipeline_faults\"")
            .replace("\"swap\"", "\"rm_faults\"")
    };
    // Scenario 1 is blackout_at_failover (both pollers dark, nothing
    // else), scenario 7 split_brain (`side_a: [0]`).
    let blackout = flex_chaos::scenario::generate(1, 1).to_value().to_json();
    let split = flex_chaos::scenario::generate(1, 7).to_value().to_json();
    assert!(blackout.contains("\"poller/1\"") && split.contains("\"side_a\":[0]"));
    let edits = [
        ("misspelt", blackout.replace("\"poller/1\"", "\"poler/1\"")),
        ("out of range", blackout.replace("\"poller/1\"", "\"poller/7\"")),
        ("misfiled", swap_lists(&blackout)),
        ("foreign partition side", split.replace("\"side_a\":[0]", "\"side_a\":[9]")),
    ];
    for (label, text) in edits {
        std::fs::write(dir.join("bad.json"), text).expect("file written");
        let out = chaos(&dir, "replay --file bad.json");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{label}: {stderr}");
        assert!(stderr.contains("file does not describe a scenario"), "{label}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "{label} ran: {stdout}");
    }
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    // The read end is gone before `flex-chaos` starts, so its first
    // write meets a broken pipe, as under `flex-chaos run | true`.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_flex-chaos"))
        .args(["run", "--scenarios", "16"])
        .stdout(writer)
        .output()
        .expect("flex-chaos starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "flex-chaos run: {stderr}");
    assert!(!stderr.contains("panicked"), "flex-chaos run: {stderr}");
}
