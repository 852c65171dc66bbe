//! The `flex` binary end to end: each subcommand refuses the flags of
//! the others, a drill refuses a utilization outside `[0, 1]`, and a
//! reader that closes stdout early ends the output without a panic.

use std::process::{Command, Output, Stdio};

/// Runs `flex` with `args` and stdout sent to `stdout`.
fn flex(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flex"))
        .args(args)
        .stdout(stdout)
        .output()
        .expect("flex starts")
}

#[test]
fn a_subcommand_refuses_the_flags_of_the_others() {
    for args in [
        &["feasibility", "--seed", "3"][..],
        &["place", "--ups", "1"],
        &["place", "--fast"],
        &["emulate", "--seed", "1"],
        &["drill", "--fast"],
    ] {
        let out = flex(args, Stdio::piped());
        assert_eq!(out.status.code(), Some(2), "flex {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE:"), "flex {args:?}");
    }
    let out = flex(&["feasibility"], Stdio::piped());
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Section III feasibility"));
}

#[test]
fn a_drill_refuses_a_utilization_outside_the_unit_range() {
    // Refused, not clamped: a clamped drill runs at 0% or 100% while
    // its report prints the value as given.
    for util in ["NaN", "-3", "inf", "1.5"] {
        let out = flex(&["drill", "--util", util], Stdio::piped());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--util {util}: {stderr}");
        assert!(
            stderr.contains("is outside [0, 1]"),
            "--util {util}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--util {util}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    // The read end is gone before `flex` starts, so its first write
    // meets a broken pipe, as under `flex feasibility | true`.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = flex(&["feasibility"], writer.into());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "flex feasibility: {stderr}");
    assert!(!stderr.contains("panicked"), "flex feasibility: {stderr}");
}
