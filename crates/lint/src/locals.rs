//! Local bindings, for rule A1: which identifiers of a file name a
//! variable of the enclosing fn rather than an item.
//!
//! A1 counts a `pub fn` as used when non-test code names it. A `let`,
//! a parameter or a pattern that binds the same name is not such a use,
//! nor is a read of that binding, so [`local_names`] finds them. It
//! works per fn body, token by token, in two passes: the first collects
//! every name a body binds (match-arm bindings come before the `=>`
//! that reveals them), the second marks the binding sites and bare
//! reads of those names.

use std::collections::HashSet;

use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};

/// Identifiers that can sit in a pattern without binding anything.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "self", "true", "false", "if", "in"];

/// Marks, per code index of `ctx`, the identifiers that name a local
/// binding of the enclosing fn body: a name that a fn parameter or a
/// `let`, `for`, `match`-arm or closure-parameter pattern in that body
/// binds, at the binding and wherever it appears bare. A bare name is
/// not a call (`name(`), a path segment (`a::name`, `name::`), a macro
/// (`name!`) or a field or method (`.name`).
///
/// The bound names are kept per fn body, not per block: a body that
/// binds a name in one block and names a fn of that name bare (not
/// calling it) in another would hide that use. Rust resolves a bare
/// name to the local wherever both are in scope, so nothing else does.
pub(crate) fn local_names(ctx: &FileContext) -> Vec<bool> {
    let n = ctx.code.len();
    let mut frame_of: Vec<Option<usize>> = vec![None; n];
    let mut bound: Vec<HashSet<String>> = Vec::new();
    // (frame, brace depth inside its body) of the open fn bodies.
    let mut open: Vec<(usize, usize)> = Vec::new();
    // (frame, code index of the `{` or `;` that ends it) of the fn
    // signature being read: its parameters belong to the fn's frame.
    let mut signature: Option<(usize, usize)> = None;
    let mut depth = 0usize;
    for ci in 0..n {
        let Some(t) = ctx.code_token(ci) else { break };
        if signature.is_some_and(|(_, end)| ci > end) {
            signature = None;
        }
        let frame = signature
            .map(|(f, _)| f)
            .or_else(|| open.last().map(|&(f, _)| f));
        if let Some(slot) = frame_of.get_mut(ci) {
            *slot = frame;
        }
        if t.is_punct("{") {
            depth += 1;
            if let Some((f, _)) = signature.filter(|&(_, end)| end == ci) {
                open.push((f, depth));
            }
            continue;
        }
        if t.is_punct("}") {
            if open.last().is_some_and(|&(_, d)| d == depth) {
                open.pop();
            }
            depth = depth.saturating_sub(1);
            continue;
        }
        if t.is_ident("fn") {
            if let Some((end, params)) = fn_signature(ctx, ci) {
                bound.push(params);
                signature = Some((bound.len() - 1, end));
            }
            continue;
        }
        let Some(names) = frame.and_then(|f| bound.get_mut(f)) else {
            continue;
        };
        if t.is_ident("let") {
            if let Some(end) = find_at_depth0(ctx, ci + 1, |t| {
                t.is_punct("=") || t.is_punct(";") || t.is_punct(":")
            }) {
                pattern_bindings(ctx, ci + 1, end, names);
            }
        } else if t.is_ident("for") {
            let stop = find_at_depth0(ctx, ci + 1, |t| {
                t.is_ident("in") || t.is_punct("{") || t.is_punct(";")
            });
            let at_in = |e: &usize| ctx.code_token(*e).is_some_and(|t| t.is_ident("in"));
            if let Some(end) = stop.filter(at_in) {
                pattern_bindings(ctx, ci + 1, end, names);
            }
        } else if t.is_punct("=>") {
            let start = arm_start(ctx, ci);
            let end = find_at_depth0(ctx, start, |t| t.is_ident("if") || t.is_punct("=>"))
                .map_or(ci, |e| e.min(ci));
            pattern_bindings(ctx, start, end, names);
        } else if t.is_punct("|") && opens_closure(ctx, ci) {
            if let Some(close) = find_at_depth0(ctx, ci + 1, |t| t.is_punct("|")) {
                parameter_bindings(ctx, ci + 1, close, names);
            }
        }
    }
    (0..n)
        .map(|ci| {
            let (Some(t), Some(Some(f))) = (ctx.code_token(ci), frame_of.get(ci)) else {
                return false;
            };
            t.kind == TokenKind::Ident
                && bound.get(*f).is_some_and(|names| names.contains(&t.text))
                && !ci
                    .checked_sub(1)
                    .and_then(|p| ctx.code_token(p))
                    .is_some_and(|p| p.is_punct(".") || p.is_punct("::"))
                && !ctx
                    .code_token(ci + 1)
                    .is_some_and(|n| n.is_punct("(") || n.is_punct("::") || n.is_punct("!"))
        })
        .collect()
}

/// For `fn NAME[<…>](PARAMS) … {` (or `… ;`), with `ci` at `fn`: the
/// code index of the `{` that opens the body (or of the `;`) and the
/// names the parameters bind. `None` for a fn pointer type (`fn(u8)`).
fn fn_signature(ctx: &FileContext, ci: usize) -> Option<(usize, HashSet<String>)> {
    if ctx.code_token(ci + 1)?.kind != TokenKind::Ident {
        return None;
    }
    let mut open = ci + 2;
    if ctx.code_token(open)?.is_punct("<") {
        let mut angle = 0i32;
        while let Some(t) = ctx.code_token(open) {
            angle += match t.text.as_str() {
                "<" => 1,
                ">" => -1,
                ">>" => -2,
                _ => 0,
            };
            open += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    if !ctx.code_token(open)?.is_punct("(") {
        return None;
    }
    let close = find_at_depth0(ctx, open + 1, |t| t.is_punct(")"))?;
    let mut params = HashSet::new();
    parameter_bindings(ctx, open + 1, close, &mut params);
    let end = find_at_depth0(ctx, close + 1, |t| t.is_punct("{") || t.is_punct(";"))?;
    Some((end, params))
}

/// The names bound by a comma-separated parameter list in code indices
/// `from..to`: each parameter's pattern runs to its `:` type ascription.
fn parameter_bindings(ctx: &FileContext, from: usize, to: usize, out: &mut HashSet<String>) {
    let mut start = from;
    while start < to {
        let end = find_at_depth0(ctx, start, |t| t.is_punct(",") || t.is_punct("|"))
            .map_or(to, |e| e.min(to));
        let pattern_end = find_at_depth0(ctx, start, |t| t.is_punct(":") || t.is_punct(","))
            .map_or(end, |e| e.min(end));
        pattern_bindings(ctx, start, pattern_end, out);
        start = end + 1;
    }
}

/// The names a pattern in code indices `from..to` binds: lowercase
/// identifiers that are not a keyword, a path segment, a tuple-struct,
/// struct or macro head, or a field name (`name:` inside the pattern).
fn pattern_bindings(ctx: &FileContext, from: usize, to: usize, out: &mut HashSet<String>) {
    for ci in from..to {
        let Some(t) = ctx.code_token(ci) else { return };
        let binding_like = t.kind == TokenKind::Ident
            && t.text != "_"
            && t.text
                .starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && !PATTERN_KEYWORDS.contains(&t.text.as_str());
        if !binding_like {
            continue;
        }
        let after_path = ci
            .checked_sub(1)
            .and_then(|p| ctx.code_token(p))
            .is_some_and(|p| p.is_punct("::") || p.is_punct("."));
        let head = ctx.code_token(ci + 1).is_some_and(|n| {
            ["::", "(", "{", "!"].iter().any(|s| n.is_punct(s)) || (ci + 1 < to && n.is_punct(":"))
        });
        if !after_path && !head {
            out.insert(t.text.clone());
        }
    }
}

/// The first code index at or after `from`, at bracket depth 0
/// relative to `from`, whose token satisfies `stop`; `None` when an
/// enclosing bracket closes first or the file ends.
fn find_at_depth0(ctx: &FileContext, from: usize, stop: impl Fn(&Token) -> bool) -> Option<usize> {
    let mut depth = 0i32;
    let mut ci = from;
    while let Some(t) = ctx.code_token(ci) {
        if depth == 0 && stop(t) {
            return Some(ci);
        }
        depth += nesting(t);
        if depth < 0 {
            return None;
        }
        ci += 1;
    }
    None
}

/// +1 for an opening bracket, −1 for a closing one, 0 otherwise.
fn nesting(t: &Token) -> i32 {
    match t.text.as_str() {
        "(" | "[" | "{" if t.kind == TokenKind::Punct => 1,
        ")" | "]" | "}" if t.kind == TokenKind::Punct => -1,
        _ => 0,
    }
}

/// The code index where the match arm whose `=>` is at `arrow` starts:
/// just after the enclosing `{`, the previous arm's `,`, or the `}`
/// that closes the previous arm's block. A `}` followed by `=>`, `|`
/// or `if` closes a struct pattern of this arm instead.
fn arm_start(ctx: &FileContext, arrow: usize) -> usize {
    let mut depth = 0i32;
    let mut ci = arrow;
    while let Some(prev) = ci.checked_sub(1).and_then(|p| ctx.code_token(p)) {
        if depth == 0 {
            let struct_close = prev.is_punct("}")
                && ctx
                    .code_token(ci)
                    .is_some_and(|n| n.is_punct("=>") || n.is_punct("|") || n.is_ident("if"));
            let boundary = prev.is_punct(",") || (prev.is_punct("}") && !struct_close);
            if boundary || nesting(prev) > 0 {
                return ci;
            }
        }
        depth -= nesting(prev);
        ci -= 1;
    }
    ci
}

/// True when the `|` at `ci` opens a closure's parameter list rather
/// than being a bitwise or a pattern alternative: it follows a token
/// that cannot end an operand.
fn opens_closure(ctx: &FileContext, ci: usize) -> bool {
    ci.checked_sub(1)
        .and_then(|p| ctx.code_token(p))
        .is_some_and(|p| {
            ["(", "[", "{", ",", "=", ";", "=>"]
                .iter()
                .any(|s| p.is_punct(s))
                || p.is_ident("move")
                || p.is_ident("return")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// The identifiers `local_names` marks in `src`, in order.
    fn locals(src: &str) -> Vec<String> {
        let ctx = FileContext::new("crates/demo/src/lib.rs", lex(src));
        let marks = local_names(&ctx);
        (0..ctx.code.len())
            .filter(|&ci| marks[ci])
            .map(|ci| ctx.code_token(ci).unwrap().text.clone())
            .collect()
    }

    #[test]
    fn let_bindings_and_their_bare_reads_are_local() {
        let src = "fn f() { let mut hit = false; hit = true; if hit { g(hit); } }";
        assert_eq!(locals(src), ["hit", "hit", "hit", "hit"]);
    }

    #[test]
    fn calls_paths_methods_fields_and_macros_are_not_local() {
        let src = "fn f(hit: u8) { hit(); a::hit; hit::b; x.hit; x.hit(); hit!(); }";
        assert_eq!(locals(src), ["hit"]);
    }

    #[test]
    fn parameters_for_arms_and_closures_bind() {
        let src = "\
fn f<T: Into<u8>>(a: u8, (b, c): (u8, u8)) {
    for d in xs {}
    match v { Some(e) if e > 0 => {}, Foo { g: h } | Bar { h } => h, _ => {} }
    xs.map(|k, m: u8| k + m);
}";
        let got = locals(src);
        for name in ["a", "b", "c", "d", "e", "h", "k", "m"] {
            assert!(got.iter().any(|g| g == name), "{name} not local in {got:?}");
        }
        for name in ["Some", "Foo", "g", "u8", "v", "xs", "map"] {
            assert!(
                !got.iter().any(|g| g == name),
                "{name} wrongly local in {got:?}"
            );
        }
    }

    #[test]
    fn bindings_stay_in_their_fn() {
        let src = "fn f() { let hit = 1; } fn g() { xs.map(hit); }";
        assert_eq!(locals(src), ["hit"], "only f's binding is local");
    }

    #[test]
    fn item_level_code_has_no_locals() {
        assert!(locals("const HIT: u8 = 1; static X: fn(u8) = f;").is_empty());
    }
}
