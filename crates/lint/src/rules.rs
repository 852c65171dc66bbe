//! The rule catalog.
//!
//! | Rule | Guards | Scope |
//! |------|--------|-------|
//! | D1 | no wall-clock (`Instant::now`, `SystemTime`, `thread::sleep`) | all non-test code minus allowlist |
//! | D2 | no `HashMap`/`HashSet` | deterministic-tagged crates, non-test |
//! | P1 | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`/slice-index | panic-free crates, library non-test |
//! | U1 | no raw float literal arithmetic on unit-accessor results | all non-test code outside `units.rs` |
//! | F1 | no `==`/`!=` on float expressions | all non-test code |
//! | H1 | crate roots carry `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` | `crates/*/src/lib.rs` |
//! | S1 | suppressions must parse and carry a justification | everywhere |
//! | A1 | no `pub fn` whose name no non-test code uses (local bindings are not uses) | `pub fn`s in `crates/*/src`; uses from the whole walk minus tests |
//!
//! D1–S1 look at one file at a time ([`check_file`]); A1 needs the
//! whole walk at once (`ApiIndex`).

use std::collections::HashSet;

use crate::config::{LintConfig, Severity};
use crate::context::{FileClass, FileContext};
use crate::lexer::TokenKind;
use crate::locals::local_names;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`"D1"`, …).
    pub rule: String,
    /// Resolved severity (never `Off`).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

/// Runs every rule over one file and applies suppressions.
///
/// Returns the surviving diagnostics plus the number suppressed.
pub fn check_file(ctx: &FileContext, config: &LintConfig) -> (Vec<Diagnostic>, usize) {
    let mut raw: Vec<Diagnostic> = Vec::new();
    rule_d1(ctx, config, &mut raw);
    rule_d2(ctx, config, &mut raw);
    rule_p1(ctx, config, &mut raw);
    rule_u1(ctx, config, &mut raw);
    rule_f1(ctx, config, &mut raw);
    rule_h1(ctx, config, &mut raw);
    rule_s1(ctx, config, &mut raw);

    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for d in raw {
        if d.severity == Severity::Off {
            continue;
        }
        // S1 findings are about the suppression mechanism itself and
        // cannot be suppressed.
        if d.rule != "S1" && ctx.is_suppressed(&d.rule, d.line) {
            suppressed += 1;
            continue;
        }
        out.push(d);
    }
    (out, suppressed)
}

fn push(
    out: &mut Vec<Diagnostic>,
    ctx: &FileContext,
    line: u32,
    rule: &str,
    severity: Severity,
    message: String,
) {
    out.push(Diagnostic {
        file: ctx.rel_path.clone(),
        line,
        rule: rule.to_string(),
        severity,
        message,
    });
}

/// D1 — determinism: wall-clock and sleeps are banned outside the
/// allowlist. The simulation replays the same decision trace at any
/// thread count only if no code path consults real time.
fn rule_d1(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("D1");
    if rc.severity == Severity::Off
        || ctx.class == FileClass::TestContext
        || config.is_allowed("D1", &ctx.rel_path)
    {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(t) = ctx.code_token(ci) else { break };
        if ctx.in_test(t.line) {
            continue;
        }
        let pat = if t.is_ident("Instant")
            && ctx.code_token(ci + 1).is_some_and(|n| n.is_punct("::"))
            && ctx.code_token(ci + 2).is_some_and(|n| n.is_ident("now"))
        {
            Some("Instant::now()")
        } else if t.is_ident("SystemTime") {
            Some("SystemTime")
        } else if t.is_ident("thread")
            && ctx.code_token(ci + 1).is_some_and(|n| n.is_punct("::"))
            && ctx.code_token(ci + 2).is_some_and(|n| n.is_ident("sleep"))
        {
            Some("thread::sleep")
        } else {
            None
        };
        if let Some(pat) = pat {
            push(
                out,
                ctx,
                t.line,
                "D1",
                rc.severity,
                format!("{pat} breaks deterministic replay; use SimTime or add this path to the D1 allowlist"),
            );
        }
    }
}

/// D2 — determinism: randomized-iteration-order collections are banned in
/// crates whose outputs must be bit-identical run to run.
fn rule_d2(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("D2");
    let in_scope = ctx
        .crate_name
        .as_ref()
        .is_some_and(|c| config.deterministic_crates.iter().any(|d| d == c));
    if rc.severity == Severity::Off
        || !in_scope
        || ctx.class == FileClass::TestContext
        || config.is_allowed("D2", &ctx.rel_path)
    {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(t) = ctx.code_token(ci) else { break };
        if ctx.in_test(t.line) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push(
                out,
                ctx,
                t.line,
                "D2",
                rc.severity,
                format!(
                    "{} in deterministic crate `{}`: iteration order can reach results; use BTreeMap/BTreeSet",
                    t.text,
                    ctx.crate_name.as_deref().unwrap_or("?")
                ),
            );
        }
    }
}

/// P1 — panic safety: the online control path must degrade, not die,
/// mid-shed. Unconditional panics are errors; slice indexing reports at
/// its own (default `warn`) severity.
fn rule_p1(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("P1");
    let in_scope = ctx
        .crate_name
        .as_ref()
        .is_some_and(|c| config.panic_free_crates.iter().any(|p| p == c));
    if rc.severity == Severity::Off
        || !in_scope
        || ctx.class == FileClass::TestContext
        || config.is_allowed("P1", &ctx.rel_path)
    {
        return;
    }
    for ci in 0..ctx.code.len() {
        let Some(t) = ctx.code_token(ci) else { break };
        if ctx.in_test(t.line) {
            continue;
        }
        let prev = ci.checked_sub(1).and_then(|p| ctx.code_token(p));
        // `.unwrap()` / `.expect(` — method calls only.
        if prev.is_some_and(|p| p.is_punct("."))
            && ctx.code_token(ci + 1).is_some_and(|n| n.is_punct("("))
        {
            let banned = match t.text.as_str() {
                "unwrap" if ctx.code_token(ci + 2).is_some_and(|n| n.is_punct(")")) => {
                    Some("unwrap()")
                }
                "expect" => Some("expect()"),
                _ => None,
            };
            if let Some(name) = banned {
                push(
                    out,
                    ctx,
                    t.line,
                    "P1",
                    rc.severity,
                    format!("{name} can panic mid-shed; return the crate's error type instead"),
                );
                continue;
            }
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if ctx.code_token(ci + 1).is_some_and(|n| n.is_punct("!"))
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && t.kind == TokenKind::Ident
        {
            push(
                out,
                ctx,
                t.line,
                "P1",
                rc.severity,
                format!("{}! can panic mid-shed; handle the case or return an error", t.text),
            );
            continue;
        }
        // Slice/array indexing `expr[…]`: `[` preceded by an identifier,
        // `)`, or `]` (macros `m![…]` have `!` before `[`, attributes
        // have `#`, so neither matches).
        if rc.index_severity != Severity::Off
            && t.is_punct("[")
            && prev.is_some_and(|p| {
                p.kind == TokenKind::Ident && !is_keyword_before_bracket(&p.text)
                    || p.is_punct(")")
                    || p.is_punct("]")
            })
        {
            push(
                out,
                ctx,
                t.line,
                "P1",
                rc.index_severity,
                "slice index can panic on out-of-bounds; prefer .get() on untrusted indices".to_string(),
            );
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`impl Index<…> for T`, `return [a, b]`, …).
fn is_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "else" | "match" | "mut" | "dyn" | "as" | "const"
    )
}

/// U1 — unit safety: raw `f64` literals must not be mixed arithmetically
/// with unit-accessor results; wrap the literal in the newtype instead.
fn rule_u1(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("U1");
    if rc.severity == Severity::Off
        || ctx.class == FileClass::TestContext
        || ctx.rel_path.ends_with("/units.rs")
        || config.is_allowed("U1", &ctx.rel_path)
    {
        return;
    }
    let is_accessor = |s: &str| config.unit_accessors.iter().any(|a| a == s);
    let is_arith = |ci: usize| {
        ctx.code_token(ci).is_some_and(|t| {
            t.is_punct("+") || t.is_punct("-") || t.is_punct("*") || t.is_punct("/")
        })
    };
    for ci in 0..ctx.code.len() {
        let Some(t) = ctx.code_token(ci) else { break };
        if ctx.in_test(t.line) {
            continue;
        }
        // Forward: `.as_w() <op> 3.0`.
        if t.is_punct(".")
            && ctx
                .code_token(ci + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident && is_accessor(&n.text))
            && ctx.code_token(ci + 2).is_some_and(|n| n.is_punct("("))
            && ctx.code_token(ci + 3).is_some_and(|n| n.is_punct(")"))
            && is_arith(ci + 4)
            && ctx
                .code_token(ci + 5)
                .is_some_and(|n| n.kind == TokenKind::FloatLit)
        {
            push(
                out,
                ctx,
                t.line,
                "U1",
                rc.severity,
                "raw float literal combined with a unit accessor; construct the unit type instead (units.rs)"
                    .to_string(),
            );
            continue;
        }
        // Backward: `3.0 <op> x.y.as_w()` — scan a short ident/dot chain.
        if t.kind == TokenKind::FloatLit && is_arith(ci + 1) {
            let mut k = ci + 2;
            let mut steps = 0;
            while steps < 8 {
                let Some(tk) = ctx.code_token(k) else { break };
                if tk.is_punct(".")
                    && ctx
                        .code_token(k + 1)
                        .is_some_and(|n| n.kind == TokenKind::Ident && is_accessor(&n.text))
                    && ctx.code_token(k + 2).is_some_and(|n| n.is_punct("("))
                {
                    push(
                        out,
                        ctx,
                        t.line,
                        "U1",
                        rc.severity,
                        "raw float literal combined with a unit accessor; construct the unit type instead (units.rs)"
                            .to_string(),
                    );
                    break;
                }
                // Stay within a simple postfix chain.
                if tk.kind == TokenKind::Ident || tk.is_punct(".") {
                    k += 1;
                    steps += 1;
                } else {
                    break;
                }
            }
        }
    }
}

/// F1 — float comparisons: `==`/`!=` with a float operand is almost
/// always an epsilon bug; the codebase offers `approx_eq` and
/// `total_cmp`.
fn rule_f1(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("F1");
    if rc.severity == Severity::Off
        || ctx.class == FileClass::TestContext
        || config.is_allowed("F1", &ctx.rel_path)
    {
        return;
    }
    let is_accessor = |s: &str| config.unit_accessors.iter().any(|a| a == s);
    for ci in 0..ctx.code.len() {
        let Some(t) = ctx.code_token(ci) else { break };
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.in_test(t.line) {
            continue;
        }
        let prev = ci.checked_sub(1).and_then(|p| ctx.code_token(p));
        let next = ctx.code_token(ci + 1);
        let float_neighbor = prev.is_some_and(|p| p.kind == TokenKind::FloatLit)
            || next.is_some_and(|n| n.kind == TokenKind::FloatLit)
            // `x.as_w() == …`
            || (prev.is_some_and(|p| p.is_punct(")"))
                && ci >= 3
                && ctx.code_token(ci - 2).is_some_and(|p| p.is_punct("("))
                && ctx
                    .code_token(ci - 3)
                    .is_some_and(|p| p.kind == TokenKind::Ident && is_accessor(&p.text)));
        if float_neighbor {
            push(
                out,
                ctx,
                t.line,
                "F1",
                rc.severity,
                format!(
                    "`{}` on a float expression; use approx_eq/total_cmp or an explicit epsilon",
                    t.text
                ),
            );
        }
    }
}

/// H1 — header hygiene: every crate root forbids `unsafe` and warns on
/// missing docs, so the safety argument holds workspace-wide.
fn rule_h1(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("H1");
    if rc.severity == Severity::Off || !ctx.is_crate_root || config.is_allowed("H1", &ctx.rel_path)
    {
        return;
    }
    let mut has_forbid_unsafe = false;
    let mut has_warn_missing_docs = false;
    for ci in 0..ctx.code.len() {
        // Inner attribute `#![…]`.
        let Some(t) = ctx.code_token(ci) else { break };
        if !(t.is_punct("#") && ctx.code_token(ci + 1).is_some_and(|n| n.is_punct("!"))) {
            continue;
        }
        let idents: Vec<String> = (ci + 2..ctx.code.len())
            .map_while(|k| ctx.code_token(k))
            .take_while(|tk| !tk.is_punct("]"))
            .filter(|tk| tk.kind == TokenKind::Ident)
            .map(|tk| tk.text.clone())
            .collect();
        if idents.first().is_some_and(|s| s == "forbid")
            && idents.iter().any(|s| s == "unsafe_code")
        {
            has_forbid_unsafe = true;
        }
        if idents.first().is_some_and(|s| s == "warn")
            && idents.iter().any(|s| s == "missing_docs")
        {
            has_warn_missing_docs = true;
        }
    }
    if !has_forbid_unsafe {
        push(
            out,
            ctx,
            1,
            "H1",
            rc.severity,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        );
    }
    if !has_warn_missing_docs {
        push(
            out,
            ctx,
            1,
            "H1",
            rc.severity,
            "crate root is missing #![warn(missing_docs)]".to_string(),
        );
    }
}

/// S1 — suppression hygiene: every `flex-lint:` directive must parse and
/// carry a non-empty justification after the rule list.
fn rule_s1(ctx: &FileContext, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let rc = config.rule("S1");
    if rc.severity == Severity::Off {
        return;
    }
    for s in &ctx.suppressions {
        if let Some(why) = &s.malformed {
            push(out, ctx, s.line, "S1", rc.severity, why.clone());
        } else if !s.justified {
            push(
                out,
                ctx,
                s.line,
                "S1",
                rc.severity,
                format!(
                    "suppression of {} lacks a justification; write `flex-lint: allow({}): <why this site is safe>`",
                    s.rules.join(", "),
                    s.rules.join(", ")
                ),
            );
        }
    }
}

/// A1 — no public API without a non-test caller. rustc's `dead_code`
/// lint stops at the crate boundary for `pub` items, so a `pub fn` that
/// only its own tests call builds warning-free forever, and its tests
/// keep passing on code no binary runs.
///
/// The index records every `pub fn` defined outside test code in
/// `crates/*/src`, and every identifier that non-test code anywhere in
/// the walk names: libraries, binaries, benches and examples. These
/// never count as a use: `#[cfg(test)]`/`#[test]` items, files under a
/// `tests/` or `fixtures/` directory, comments (doc examples included),
/// string literals, the name of any `fn` definition, a `use` line,
/// unless it renames the item (`use a::f as g`), and a local binding
/// (a `let`, parameter, `for`, `match`-arm or closure pattern) or a
/// bare read of one (see `locals::local_names`). A `pub fn` whose name
/// is never used is a finding at its definition; a justified
/// `// flex-lint: allow(A1): …` there exempts it.
///
/// The match is by name, not by path: a dead `pub fn` that shares its
/// name with another item that is used (a `new`, a trait method, a
/// field) is missed. A `pub fn` that non-test code calls, names by
/// path or passes by value (`.map(f)`) is never flagged, unless a body
/// passes it bare from outside the block where it binds a local of
/// the same name. Trait impls define no `pub fn` and are out of scope.
#[derive(Debug, Default)]
pub(crate) struct ApiIndex {
    /// `pub fn` definitions in walk order.
    defs: Vec<PubFn>,
    /// Identifiers named by non-test code.
    used: HashSet<String>,
}

#[derive(Debug)]
struct PubFn {
    file: String,
    line: u32,
    name: String,
    suppressed: bool,
}

impl ApiIndex {
    /// Records one file's `pub fn` definitions and non-test uses.
    pub(crate) fn add(&mut self, ctx: &FileContext) {
        let in_crate_src = ctx.crate_name.is_some()
            && ctx.rel_path.split('/').nth(2) == Some("src")
            && ctx.class == FileClass::Library;
        let test_path = ctx.rel_path.starts_with("tests/")
            || ctx.rel_path.contains("/tests/")
            || ctx.rel_path.contains("/fixtures/");
        let locals = local_names(ctx);
        let mut in_use = false;
        for ci in 0..ctx.code.len() {
            let Some(t) = ctx.code_token(ci) else { break };
            if in_crate_src && t.is_ident("pub") && !ctx.in_test_region(t.line) {
                if let Some(name) = pub_fn_name(ctx, ci + 1) {
                    self.defs.push(PubFn {
                        file: ctx.rel_path.clone(),
                        line: t.line,
                        name: name.to_string(),
                        suppressed: ctx.is_suppressed("A1", t.line),
                    });
                }
            }
            if test_path || ctx.in_test_region(t.line) {
                continue;
            }
            let next = ctx.code_token(ci + 1);
            if in_use {
                in_use = !t.is_punct(";");
                if t.kind == TokenKind::Ident && next.is_some_and(|n| n.is_ident("as")) {
                    self.note(&t.text);
                }
            } else if t.is_ident("use") {
                in_use = true;
            } else if t.kind == TokenKind::Ident
                && !locals.get(ci).copied().unwrap_or(false)
                && !ci
                    .checked_sub(1)
                    .and_then(|p| ctx.code_token(p))
                    .is_some_and(|p| p.is_ident("fn"))
            {
                self.note(&t.text);
            }
        }
    }

    fn note(&mut self, name: &str) {
        if !self.used.contains(name) {
            self.used.insert(name.to_string());
        }
    }

    /// The A1 findings over everything added, plus the number a
    /// justified suppression silenced.
    pub(crate) fn finish(self, config: &LintConfig) -> (Vec<Diagnostic>, usize) {
        let rc = config.rule("A1");
        let mut out = Vec::new();
        let mut suppressed = 0usize;
        if rc.severity == Severity::Off {
            return (out, suppressed);
        }
        for def in self.defs {
            if self.used.contains(&def.name) || config.is_allowed("A1", &def.file) {
                continue;
            }
            if def.suppressed {
                suppressed += 1;
                continue;
            }
            out.push(Diagnostic {
                file: def.file,
                line: def.line,
                rule: "A1".to_string(),
                severity: rc.severity,
                message: format!(
                    "pub fn `{}` has no caller outside tests; delete it, call it, or justify keeping it",
                    def.name
                ),
            });
        }
        (out, suppressed)
    }
}

/// The name in `pub [const] [async] [unsafe] [extern "abi"] fn NAME`,
/// reading from the token after `pub`. `pub(crate)` and other restricted
/// visibilities are rustc's `dead_code` lint's to check.
fn pub_fn_name(ctx: &FileContext, mut ci: usize) -> Option<&str> {
    while let Some(t) = ctx.code_token(ci) {
        if t.is_ident("fn") {
            return ctx
                .code_token(ci + 1)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text.as_str());
        }
        let qualifier = ["const", "async", "unsafe", "extern"]
            .iter()
            .any(|q| t.is_ident(q))
            || t.kind == TokenKind::StrLit;
        if !qualifier {
            return None;
        }
        ci += 1;
    }
    None
}
