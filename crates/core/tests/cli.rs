//! The `flex` binary end to end: each subcommand refuses the flags of
//! the others, and a reader that closes stdout early ends the output
//! without a panic.

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
