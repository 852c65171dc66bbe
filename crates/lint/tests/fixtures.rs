//! Fixture tests: one intentionally-violating and one clean source per
//! rule, driven through [`flex_lint::lint_sources`] under synthetic
//! workspace paths (so crate-scoped rules see the crate they expect).
//!
//! The fixture files live in `tests/fixtures/`, which `lint.toml` skips
//! during the workspace walk — they exist only for these tests. The A1
//! cases build small multi-file workspaces inline.

use flex_lint::{lint_sources, Diagnostic, LintConfig, Severity};

/// The defaults with A1 off: a one-file workspace has no callers, so
/// the per-file rules' fixtures would all trip the workspace rule.
fn per_file_config() -> LintConfig {
    let mut config = LintConfig::default();
    if let Some(a1) = config.rules.get_mut("A1") {
        a1.severity = Severity::Off;
    }
    config
}

/// Lints embedded fixture source as if it lived at `rel_path`.
fn lint(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(&[(rel_path, source)], &per_file_config()).diagnostics
}

fn rule_lines(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_wall_clock() {
    let diags = lint(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/d1_violation.rs"),
    );
    let lines = rule_lines(&diags, "D1");
    assert!(
        lines.len() >= 3,
        "Instant::now, SystemTime, and thread::sleep should all fire: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.rule != "D1" || d.severity == Severity::Error));
}

#[test]
fn d1_is_silent_on_sim_time() {
    let diags = lint(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/d1_clean.rs"),
    );
    assert!(
        diags.is_empty(),
        "SimTime-only code (wall-clock confined to #[cfg(test)]) is clean: {diags:?}"
    );
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_hash_collections_in_deterministic_crates() {
    let diags = lint(
        "crates/online/src/fixture.rs",
        include_str!("fixtures/d2_violation.rs"),
    );
    let lines = rule_lines(&diags, "D2");
    assert!(
        lines.len() >= 2,
        "HashMap and HashSet should both fire: {diags:?}"
    );
}

#[test]
fn d2_ignores_non_deterministic_crates() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d2_violation.rs"),
    );
    assert!(
        rule_lines(&diags, "D2").is_empty(),
        "bench is not a deterministic-tagged crate: {diags:?}"
    );
}

#[test]
fn d2_is_silent_on_btree_collections() {
    let diags = lint(
        "crates/online/src/fixture.rs",
        include_str!("fixtures/d2_clean.rs"),
    );
    assert!(diags.is_empty(), "BTreeMap/BTreeSet are clean: {diags:?}");
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_fires_on_panics_in_panic_free_crates() {
    let diags = lint(
        "crates/online/src/fixture.rs",
        include_str!("fixtures/p1_violation.rs"),
    );
    let errors: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "P1" && d.severity == Severity::Error)
        .collect();
    // unwrap(), expect(), panic!, unreachable! — all unconditional.
    assert!(
        errors.len() >= 4,
        "all four unconditional panic forms should fire as errors: {diags:?}"
    );
    let warns: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "P1" && d.severity == Severity::Warn)
        .collect();
    assert_eq!(warns.len(), 1, "the slice index reports at warn: {diags:?}");
}

#[test]
fn p1_ignores_crates_outside_the_control_path() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/p1_violation.rs"),
    );
    assert!(
        rule_lines(&diags, "P1").is_empty(),
        "bench may panic freely: {diags:?}"
    );
}

#[test]
fn p1_is_silent_on_fallible_style() {
    let diags = lint(
        "crates/online/src/fixture.rs",
        include_str!("fixtures/p1_clean.rs"),
    );
    assert!(
        diags.is_empty(),
        "Option/Result/.get() style (with unwrap confined to tests) is clean: {diags:?}"
    );
}

// ---------------------------------------------------------------- U1

#[test]
fn u1_fires_on_raw_literal_accessor_arithmetic() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/u1_violation.rs"),
    );
    let lines = rule_lines(&diags, "U1");
    assert_eq!(
        lines.len(),
        2,
        "`.as_kw() * 1.2` and `0.05 * limit.as_kw()` should both fire: {diags:?}"
    );
}

#[test]
fn u1_is_silent_when_scaling_inside_the_unit_type() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/u1_clean.rs"),
    );
    assert!(
        diags.is_empty(),
        "`(p * 1.2).as_kw()` keeps the arithmetic in Watts: {diags:?}"
    );
}

// ---------------------------------------------------------------- F1

#[test]
fn f1_fires_on_exact_float_comparison() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/f1_violation.rs"),
    );
    let lines = rule_lines(&diags, "F1");
    assert!(
        lines.len() >= 3,
        "literal-right, literal-left, and accessor-left comparisons should fire: {diags:?}"
    );
}

#[test]
fn f1_is_silent_on_epsilon_and_total_cmp() {
    let diags = lint(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/f1_clean.rs"),
    );
    assert!(
        diags.is_empty(),
        "epsilon/total_cmp comparisons (exact == confined to tests) are clean: {diags:?}"
    );
}

// ---------------------------------------------------------------- H1

#[test]
fn h1_fires_on_a_bare_crate_root() {
    let diags = lint(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/h1_violation.rs"),
    );
    let lines = rule_lines(&diags, "H1");
    assert_eq!(
        lines.len(),
        2,
        "both missing inner attributes should be named: {diags:?}"
    );
}

#[test]
fn h1_only_applies_to_crate_roots() {
    let diags = lint(
        "crates/demo/src/util.rs",
        include_str!("fixtures/h1_violation.rs"),
    );
    assert!(
        rule_lines(&diags, "H1").is_empty(),
        "non-root modules carry no header obligation: {diags:?}"
    );
}

#[test]
fn h1_is_silent_on_a_well_formed_root() {
    let diags = lint(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/h1_clean.rs"),
    );
    assert!(diags.is_empty(), "both attributes present: {diags:?}");
}

// ---------------------------------------------------------------- S1

#[test]
fn s1_fires_on_a_justification_free_suppression() {
    let diags = lint(
        "crates/online/src/fixture.rs",
        include_str!("fixtures/s1_unjustified.rs"),
    );
    let s1 = rule_lines(&diags, "S1");
    assert_eq!(s1.len(), 1, "the bare directive is a violation: {diags:?}");
    // And the unjustified directive is inert: the D2 finding it tried to
    // cover still reports.
    assert!(
        !rule_lines(&diags, "D2").is_empty(),
        "unjustified suppressions must not suppress: {diags:?}"
    );
}

#[test]
fn s1_accepts_justified_suppressions_and_they_work() {
    let report = lint_sources(
        &[(
            "crates/online/src/fixture.rs",
            include_str!("fixtures/s1_justified.rs"),
        )],
        &per_file_config(),
    );
    let (diags, suppressed) = (report.diagnostics, report.suppressed);
    assert!(
        diags.is_empty(),
        "every D2 site is covered by a justified directive: {diags:?}"
    );
    assert!(suppressed >= 2, "the directives did the suppressing");
}

#[test]
fn s1_fires_on_malformed_directives() {
    let source = "// flex-lint: allow(NOT_A_RULE): reason\n\
                  // flex-lint: permit(D1): wrong verb\n\
                  pub fn f() {}\n";
    let diags = lint("crates/bench/src/fixture.rs", source);
    assert_eq!(
        rule_lines(&diags, "S1").len(),
        2,
        "unknown rule ids and unknown verbs are malformed: {diags:?}"
    );
}

// ---------------------------------------------------------------- A1

/// The names of the `pub fn`s A1 flags in a small workspace.
fn a1_flagged(files: &[(&str, &str)]) -> Vec<String> {
    lint_sources(files, &LintConfig::default())
        .diagnostics
        .iter()
        .filter(|d| d.rule == "A1")
        .map(|d| {
            assert_eq!(d.severity, Severity::Error, "A1 defaults to error: {d:?}");
            d.message.split('`').nth(1).unwrap_or_default().to_string()
        })
        .collect()
}

const LIB: &str = "\
/// Called by the binary.
pub fn used() {}

/// Called by nothing.
pub fn dead() {}
";

#[test]
fn a1_flags_a_pub_fn_no_code_calls() {
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", LIB),
        ("crates/demo/src/main.rs", "fn main() { demo::used(); }\n"),
    ]);
    assert_eq!(flagged, vec!["dead"]);
}

#[test]
fn a1_ignores_uses_from_tests_docs_strings_and_plain_use_lines() {
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", LIB),
        (
            "crates/demo/src/main.rs",
            "\
//! Calls `dead()` only in prose:
/// ```
/// demo::dead();
/// ```
use demo::dead;
fn main() {
    demo::used();
    println!(\"dead()\");
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::dead(); }
}
",
        ),
        (
            "crates/demo/tests/it.rs",
            "#[test]\nfn t() { demo::dead(); }\n",
        ),
        ("tests/workspace.rs", "#[test]\nfn t() { demo::dead(); }\n"),
    ]);
    assert_eq!(flagged, vec!["dead"]);
}

#[test]
fn a1_counts_benches_and_examples_as_callers() {
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", LIB),
        ("flexbench/benches/main.rs", "fn main() { demo::used(); }\n"),
        ("examples/tour.rs", "fn main() { demo::dead(); }\n"),
    ]);
    assert!(flagged.is_empty(), "{flagged:?}");
}

#[test]
fn a1_counts_a_renaming_use_as_a_caller() {
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", LIB),
        (
            "crates/demo/src/main.rs",
            "use demo::{dead as revived, used};\nfn main() { used(); revived(); }\n",
        ),
    ]);
    assert!(flagged.is_empty(), "{flagged:?}");
}

#[test]
fn a1_justified_suppression_silences_the_finding() {
    let lib = LIB.replace(
        "pub fn dead",
        "// flex-lint: allow(A1): kept for a caller that lands next\npub fn dead",
    );
    let report = lint_sources(
        &[
            ("crates/demo/src/api.rs", lib.as_str()),
            ("crates/demo/src/main.rs", "fn main() { demo::used(); }\n"),
        ],
        &LintConfig::default(),
    );
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 1);
}

#[test]
fn a1_flags_a_dead_pub_fn_named_like_a_local_variable() {
    // `dead` is only ever a variable: bound by `let`, a parameter, a
    // `for`, a match arm and a closure, then read bare. None of that
    // names the fn.
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", LIB),
        (
            "crates/demo/src/main.rs",
            "\
fn main() {
    demo::used();
    let mut dead = false;
    dead = !dead;
    if dead {}
    report(dead);
    for dead in 0..2 { report(dead > 0); }
    match Some(1) { Some(dead) if dead > 0 => report(true), _ => {} }
    let _ = [1].iter().map(|dead| dead + 1);
}
fn report(dead: bool) { let _ = dead; }
",
        ),
    ]);
    assert_eq!(flagged, vec!["dead"]);
}

#[test]
fn a1_counts_a_pub_fn_passed_by_value() {
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", LIB),
        (
            "crates/demo/src/main.rs",
            "use demo::{dead, used};\nfn main() { used(); let n = [1].iter().map(dead).count(); }\n",
        ),
    ]);
    assert!(flagged.is_empty(), "{flagged:?}");
}

#[test]
fn a1_misses_a_dead_pub_fn_that_shares_a_used_name() {
    // The documented false negative: the match is by name, so the dead
    // `Meter::used` hides behind the live free function of that name.
    let lib = format!("{LIB}\npub struct Meter;\nimpl Meter {{\n    pub fn used(&self) {{}}\n}}\n");
    let flagged = a1_flagged(&[
        ("crates/demo/src/api.rs", lib.as_str()),
        ("crates/demo/src/main.rs", "fn main() { demo::used(); }\n"),
    ]);
    assert_eq!(flagged, vec!["dead"]);
}
