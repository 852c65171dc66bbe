//! Per-file analysis context: path classification, `#[cfg(test)]`
//! region tracking, and `// flex-lint: allow(...)` suppressions.

use crate::config::RULE_IDS;
use crate::lexer::{Token, TokenKind};

/// What kind of code a file holds, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<c>/src/**` — shipping library/binary code.
    Library,
    /// Integration tests, benches, examples, fixtures — exempt from the
    /// runtime-safety rules, still subject to suppression hygiene.
    TestContext,
}

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment sits on; it covers this line and the next.
    pub line: u32,
    /// Rule ids listed in `allow(...)`.
    pub rules: Vec<String>,
    /// True if a non-empty justification followed the rule list.
    pub justified: bool,
    /// `Some(message)` if the comment failed to parse (malformed rule
    /// list or unknown rule id).
    pub malformed: Option<String>,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The crate this file belongs to (`crates/<name>/…`), if any.
    pub crate_name: Option<String>,
    /// Path-derived classification.
    pub class: FileClass,
    /// True for a crate root (`crates/<c>/src/lib.rs`).
    pub is_crate_root: bool,
    /// Full token stream (comments included).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Line-indexed (1-based) flags: inside a `#[cfg(test)]`/`#[test]`
    /// item body.
    test_lines: Vec<bool>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
}

impl FileContext {
    /// Builds the context for one file.
    pub fn new(rel_path: &str, tokens: Vec<Token>) -> FileContext {
        let rel_path = rel_path.replace('\\', "/");
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(String::from);
        let class = classify(&rel_path);
        let is_crate_root = crate_name.is_some() && rel_path.ends_with("/src/lib.rs");
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let last_line = tokens.last().map_or(1, |t| t.line) as usize;
        let mut ctx = FileContext {
            rel_path,
            crate_name,
            class,
            is_crate_root,
            test_lines: vec![false; last_line + 2],
            suppressions: Vec::new(),
            tokens,
            code,
        };
        ctx.mark_test_regions();
        ctx.parse_suppressions();
        ctx
    }

    /// True if the (1-based) line is inside a test-gated item, or the
    /// whole file is test context.
    pub fn in_test(&self, line: u32) -> bool {
        self.class == FileClass::TestContext || self.in_test_region(line)
    }

    /// True if the (1-based) line is inside a `#[cfg(test)]`/`#[test]`
    /// item, whatever the file's class.
    pub(crate) fn in_test_region(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// The non-comment token at code-index `ci`, if any.
    pub fn code_token(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    /// True if a valid suppression for `rule` covers `line`.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.iter().any(|s| {
            s.malformed.is_none()
                && s.justified
                && (s.line == line || s.line + 1 == line)
                && s.rules.iter().any(|r| r == rule)
        })
    }

    /// Finds `#[cfg(test)]` / `#[test]` attributes and marks the line
    /// span of the item body that follows (attribute through matching
    /// closing brace).
    fn mark_test_regions(&mut self) {
        let code = &self.code;
        let toks = &self.tokens;
        let mut regions: Vec<(u32, u32)> = Vec::new();
        let mut ci = 0;
        while ci < code.len() {
            let t = &toks[code[ci]];
            if !t.is_punct("#") {
                ci += 1;
                continue;
            }
            let attr_line = t.line;
            // `#` `[` … `]` (also inner `#![…]`, which never gates tests).
            let mut j = ci + 1;
            if self
                .code_token(j)
                .is_some_and(|t| t.is_punct("!"))
            {
                j += 1;
            }
            if !self.code_token(j).is_some_and(|t| t.is_punct("[")) {
                ci += 1;
                continue;
            }
            // Collect idents until the matching `]`.
            let mut depth = 0usize;
            let mut idents: Vec<&str> = Vec::new();
            let mut end = j;
            for k in j..code.len() {
                let tk = &toks[code[k]];
                if tk.is_punct("[") {
                    depth += 1;
                } else if tk.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                } else if tk.kind == TokenKind::Ident {
                    idents.push(tk.text.as_str());
                }
                end = k;
            }
            let is_test_attr = match idents.first() {
                Some(&"test") => idents.len() == 1,
                Some(&"cfg") | Some(&"cfg_attr") => idents.iter().any(|&s| s == "test"),
                _ => false,
            };
            if !is_test_attr {
                ci = end + 1;
                continue;
            }
            // Find the gated item's body: skip any further attributes,
            // then scan to the first `{` (or give up at a top-level `;`).
            let mut k = end + 1;
            loop {
                if self.code_token(k).is_some_and(|t| t.is_punct("#")) {
                    // Skip the attribute's bracket group.
                    let mut d = 0usize;
                    let mut m = k + 1;
                    if self.code_token(m).is_some_and(|t| t.is_punct("!")) {
                        m += 1;
                    }
                    while let Some(tm) = self.code_token(m) {
                        if tm.is_punct("[") {
                            d += 1;
                        } else if tm.is_punct("]") {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        m += 1;
                    }
                    k = m + 1;
                } else {
                    break;
                }
            }
            let mut body_open = None;
            let mut m = k;
            while let Some(tm) = self.code_token(m) {
                if tm.is_punct("{") {
                    body_open = Some(m);
                    break;
                }
                if tm.is_punct(";") {
                    break; // item without a body (e.g. `#[cfg(test)] use …;`)
                }
                m += 1;
            }
            let Some(open) = body_open else {
                ci = end + 1;
                continue;
            };
            // Matching close brace.
            let mut depth = 0usize;
            let mut close = open;
            while let Some(tm) = self.code_token(close) {
                if tm.is_punct("{") {
                    depth += 1;
                } else if tm.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                close += 1;
            }
            let end_line = self
                .code_token(close)
                .map_or_else(|| toks.last().map_or(attr_line, |t| t.line), |t| t.line);
            regions.push((attr_line, end_line));
            ci = open + 1; // nested test attrs inside are re-marked harmlessly
        }
        for (a, b) in regions {
            for l in a..=b {
                if let Some(slot) = self.test_lines.get_mut(l as usize) {
                    *slot = true;
                }
            }
        }
    }

    /// Parses `// flex-lint: allow(R1, R2): justification` comments.
    fn parse_suppressions(&mut self) {
        let mut found = Vec::new();
        for t in &self.tokens {
            if t.kind != TokenKind::LineComment {
                continue;
            }
            let body = t.text.trim_start_matches('/').trim();
            let Some(rest) = body.strip_prefix("flex-lint:") else {
                // Not a directive; ignore (but catch near-misses).
                if body.starts_with("flex-lint") {
                    found.push(Suppression {
                        line: t.line,
                        rules: Vec::new(),
                        justified: false,
                        malformed: Some("malformed flex-lint directive (expected `flex-lint: allow(<RULES>): <justification>`)".into()),
                    });
                }
                continue;
            };
            let rest = rest.trim();
            let mut s = Suppression {
                line: t.line,
                rules: Vec::new(),
                justified: false,
                malformed: None,
            };
            let parsed = (|| -> Result<(), String> {
                let rest = rest
                    .strip_prefix("allow")
                    .ok_or("only `allow(...)` directives are supported")?
                    .trim_start();
                let rest = rest.strip_prefix('(').ok_or("expected `(` after allow")?;
                let (list, tail) = rest
                    .split_once(')')
                    .ok_or("unterminated allow(...) rule list")?;
                for rule in list.split(',') {
                    let rule = rule.trim();
                    if rule.is_empty() {
                        continue;
                    }
                    if !RULE_IDS.contains(&rule) {
                        return Err(format!("unknown rule id {rule:?} in allow(...)"));
                    }
                    s.rules.push(rule.to_string());
                }
                if s.rules.is_empty() {
                    return Err("allow(...) lists no rules".to_string());
                }
                let tail = tail.trim();
                if let Some(justification) = tail.strip_prefix(':') {
                    s.justified = !justification.trim().is_empty();
                }
                Ok(())
            })();
            if let Err(e) = parsed {
                s.malformed = Some(e);
            }
            found.push(s);
        }
        self.suppressions = found;
    }
}

fn classify(rel_path: &str) -> FileClass {
    let test_markers = ["/tests/", "/benches/", "/examples/", "/fixtures/"];
    if test_markers.iter().any(|m| rel_path.contains(m))
        || rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.starts_with("benches/")
    {
        FileClass::TestContext
    } else {
        FileClass::Library
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(path: &str, src: &str) -> FileContext {
        FileContext::new(path, lex(src))
    }

    #[test]
    fn classification_by_path() {
        assert_eq!(ctx("crates/online/src/policy.rs", "").class, FileClass::Library);
        assert_eq!(
            ctx("crates/online/tests/ablation.rs", "").class,
            FileClass::TestContext
        );
        assert_eq!(ctx("tests/integration.rs", "").class, FileClass::TestContext);
        assert_eq!(
            ctx("crates/bench/benches/milp.rs", "").class,
            FileClass::TestContext
        );
        assert_eq!(ctx("examples/quickstart.rs", "").class, FileClass::TestContext);
        let c = ctx("crates/power/src/lib.rs", "");
        assert!(c.is_crate_root);
        assert_eq!(c.crate_name.as_deref(), Some("power"));
    }

    #[test]
    fn cfg_test_module_region() {
        let src = "fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let c = ctx("crates/power/src/a.rs", src);
        assert!(!c.in_test(1));
        assert!(c.in_test(3));
        assert!(c.in_test(6));
        assert!(c.in_test(7));
        assert!(!c.in_test(8));
    }

    #[test]
    fn cfg_test_without_body_does_not_swallow_file() {
        let src = "#[cfg(test)]\nuse foo::bar;\n\nfn lib() {}\n";
        let c = ctx("crates/power/src/a.rs", src);
        assert!(!c.in_test(4));
    }

    #[test]
    fn test_attr_with_second_attribute() {
        let src = "#[test]\n#[should_panic]\nfn t() {\n  boom();\n}\nfn lib() {}\n";
        let c = ctx("crates/power/src/a.rs", src);
        assert!(c.in_test(4));
        assert!(!c.in_test(6));
    }

    #[test]
    fn suppression_parsing() {
        let src = "\
// flex-lint: allow(P1): static data validated at build time
let a = x.unwrap();
// flex-lint: allow(P1)
let b = y.unwrap();
// flex-lint: allow(Q9): no such rule
// flex-lint allow(P1): missing colon
";
        let c = ctx("crates/power/src/a.rs", src);
        assert_eq!(c.suppressions.len(), 4);
        assert!(c.is_suppressed("P1", 2));
        assert!(!c.is_suppressed("P1", 4), "unjustified suppression is inert");
        assert!(c.suppressions[2].malformed.is_some());
        assert!(c.suppressions[3].malformed.is_some());
        assert!(!c.is_suppressed("D1", 2), "only listed rules are covered");
    }

    #[test]
    fn suppression_multi_rule() {
        let src = "// flex-lint: allow(P1, D2): both justified here\nlet a = m.unwrap();\n";
        let c = ctx("crates/online/src/a.rs", src);
        assert!(c.is_suppressed("P1", 2));
        assert!(c.is_suppressed("D2", 2));
    }
}
