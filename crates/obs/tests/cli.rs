//! The `flex-obs` binary end to end: each of the three JSON shapes it
//! accepts (a bare dump, `{"recorder": dump}` as in a failure entry or a
//! replay report, and `{"failures": [{"recorder": dump}]}` as in a
//! campaign report) summarizes, prints, and diffs, and a diff finds one
//! changed event; flags a subcommand does not take are usage errors.

use std::path::Path;
use std::process::Command;

use flex_obs::json::{obj, Value};
use flex_obs::{FlightEvent, Obs, ObsDump};
use flex_sim::{SimDuration, SimTime};

/// Runs `flex-obs` in `dir` with `args` split on whitespace, so file
/// names are relative to `dir`; returns the exit code and stdout
/// followed by stderr.
fn flex_obs(dir: &Path, args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flex-obs"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("flex-obs starts");
    let text = [out.stdout, out.stderr].concat();
    (out.status.code(), String::from_utf8_lossy(&text).into_owned())
}

/// A small recorded run: a failure, the decision it drew and its
/// enforcement, with a counter and a span alongside. `action` is the
/// decision's action code.
fn recorded_dump(action: u8) -> ObsDump {
    let obs = Obs::recording();
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    obs.record(at(20_000), FlightEvent::UpsFailed { ups: 1 });
    obs.record(at(21_500), FlightEvent::CommandIssued { controller: 0, rack: 7, action });
    obs.record(at(23_000), FlightEvent::CommandApplied { rack: 7, state: 2 });
    obs.counter("online/commands_issued").inc();
    obs.span("span/failure_to_command").record_between(at(20_000), at(21_500));
    obs.dump()
}

/// Writes `dump` in each of the three shapes as `<shape>-<tag>.json`.
fn write_shapes(dir: &Path, tag: &str, dump: &ObsDump) {
    let bare = dump.to_value();
    let entry = obj(vec![("recorder", bare.clone())]);
    let report = obj(vec![("failures", Value::Arr(vec![entry.clone()]))]);
    for (shape, value) in [("bare", bare), ("entry", entry), ("report", report)] {
        let path = dir.join(format!("{shape}-{tag}.json"));
        std::fs::write(path, value.to_json()).expect("dump written");
    }
}

#[test]
fn every_shape_summarizes_prints_and_diffs() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-cli");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    write_shapes(&dir, "a", &recorded_dump(0));
    write_shapes(&dir, "b", &recorded_dump(1));
    for shape in ["bare", "entry", "report"] {
        let (code, out) = flex_obs(&dir, &format!("summary --file {shape}-a.json"));
        assert_eq!(code, Some(0), "{shape}: {out}");
        assert!(out.starts_with("dump: 3 events") && out.contains("command_issued"), "{out}");

        let (code, out) = flex_obs(&dir, &format!("print --file {shape}-a.json --limit 5"));
        assert_eq!(code, Some(0), "{shape}: {out}");

        let (code, out) = flex_obs(&dir, &format!("diff --a {shape}-a.json --b {shape}-a.json"));
        assert_eq!(code, Some(0), "{shape}: {out}");
        assert!(out.contains("dumps are identical"), "{shape}: {out}");

        let (code, out) = flex_obs(&dir, &format!("diff --a {shape}-a.json --b {shape}-b.json"));
        assert_eq!(code, Some(1), "{shape}: a changed event went unseen: {out}");
        assert!(!out.contains("dumps are identical"), "{shape}: {out}");
    }
}

#[test]
fn integers_out_of_range_make_a_malformed_dump() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-cli-range");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let obs = Obs::recording();
    obs.record(
        SimTime::ZERO,
        FlightEvent::CommandIssued {
            controller: 1,
            rack: 7,
            action: 2,
        },
    );
    let good = obs.dump().to_json();
    // Narrowed with `as`, controller 2^32 + 1 and action 258 would
    // read as controller 1 and action 2: the same event.
    let wrapped = good.replace(r#""a":2,"c":1,"#, r#""a":258,"c":4294967297,"#);
    assert_ne!(wrapped, good, "the event's fields moved: {good}");
    std::fs::write(dir.join("good.json"), &good).expect("dump written");
    std::fs::write(dir.join("wrapped.json"), &wrapped).expect("dump written");
    for args in [
        "diff --a good.json --b wrapped.json",
        "print --file wrapped.json",
    ] {
        let (code, out) = flex_obs(&dir, args);
        assert_eq!(code, Some(1), "flex-obs {args}: {out}");
        assert!(
            out.contains("wrapped.json: malformed dump"),
            "flex-obs {args}: {out}"
        );
        assert!(!out.contains("identical"), "flex-obs {args}: {out}");
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        "summary --file dump.json --bogus 1",
        "print --file dump.json --a dump.json",
        "diff --a dump.json --b dump.json --verbose",
    ] {
        let (code, out) = flex_obs(Path::new(env!("CARGO_TARGET_TMPDIR")), args);
        assert_eq!(code, Some(2), "flex-obs {args}: {out}");
        assert!(out.contains("USAGE:"), "flex-obs {args} printed no usage");
    }
}
