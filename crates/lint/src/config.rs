//! `lint.toml` configuration: per-rule severity and path allowlists.
//!
//! The parser understands the TOML subset the linter needs — top-level
//! `key = value` pairs, `[rules.<ID>]` tables, string / single-line
//! string-array / boolean values, and `#` comments — so the crate stays
//! zero-dependency.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// How a finding is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled.
    Off,
    /// Reported but does not fail the gate.
    Warn,
    /// Fails the gate (non-zero exit / test failure).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Off => "off",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

impl Severity {
    fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "off" => Ok(Severity::Off),
            "warn" => Ok(Severity::Warn),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity {other:?} (off|warn|error)")),
        }
    }
}

/// Per-rule settings.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Severity of findings from this rule.
    pub severity: Severity,
    /// Workspace-relative path prefixes exempt from this rule.
    pub allow: Vec<String>,
    /// P1 only: separate severity for slice-index findings (indexing is
    /// pervasive and bounds-checked by construction in most call sites,
    /// so it defaults to `warn` while the unconditional panics stay
    /// `error`).
    pub index_severity: Severity,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            severity: Severity::Error,
            allow: Vec::new(),
            index_severity: Severity::Warn,
        }
    }
}

/// The rule identifiers flex-lint knows about.
pub const RULE_IDS: &[&str] = &["D1", "D2", "P1", "U1", "F1", "H1", "S1", "A1"];

/// Whole-workspace lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes skipped entirely (fixtures with intentional
    /// violations, generated code…).
    pub skip: Vec<String>,
    /// Crates whose results must not depend on iteration order (D2).
    pub deterministic_crates: Vec<String>,
    /// Crates whose library paths must not panic (P1).
    pub panic_free_crates: Vec<String>,
    /// Method names that expose raw unit magnitudes (U1).
    pub unit_accessors: Vec<String>,
    /// Per-rule settings, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        for id in RULE_IDS {
            rules.insert((*id).to_string(), RuleConfig::default());
        }
        LintConfig {
            skip: Vec::new(),
            deterministic_crates: ["sim", "online", "placement", "analysis", "core"]
                .map(String::from)
                .to_vec(),
            panic_free_crates: ["online", "telemetry", "power"].map(String::from).to_vec(),
            unit_accessors: ["as_w", "as_kw", "as_mw", "as_watts", "as_joules"]
                .map(String::from)
                .to_vec(),
            rules,
        }
    }
}

impl LintConfig {
    /// Settings for `rule`, falling back to defaults for unknown ids.
    pub fn rule(&self, rule: &str) -> RuleConfig {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// True if `rel_path` matches one of the rule's allow prefixes.
    pub fn is_allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.rule(rule)
            .allow
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()))
    }

    /// True if `rel_path` should not be linted at all.
    pub fn is_skipped(&self, rel_path: &str) -> bool {
        self.skip.iter().any(|p| rel_path.starts_with(p.as_str()))
    }

    /// Loads a config file; a missing file yields the defaults.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unreadable or malformed
    /// files.
    pub fn load(path: &Path) -> Result<LintConfig, String> {
        if !path.exists() {
            return Ok(LintConfig::default());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        LintConfig::parse(&text)
    }

    /// Parses `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for malformed input.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut config = LintConfig::default();
        let mut section: Option<String> = None; // rule id inside [rules.X]
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or(format!("line {lineno}: unterminated table header"))?
                    .trim();
                let rule = header
                    .strip_prefix("rules.")
                    .ok_or(format!("line {lineno}: unknown table [{header}] (expected [rules.<ID>])"))?;
                if !RULE_IDS.contains(&rule) {
                    return Err(format!("line {lineno}: unknown rule id {rule:?}"));
                }
                section = Some(rule.to_string());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected key = value"))?;
            let key = key.trim();
            let value = value.trim();
            match &section {
                None => match key {
                    "skip" => config.skip = parse_string_array(value, lineno)?,
                    "deterministic-crates" => {
                        config.deterministic_crates = parse_string_array(value, lineno)?
                    }
                    "panic-free-crates" => {
                        config.panic_free_crates = parse_string_array(value, lineno)?
                    }
                    "unit-accessors" => config.unit_accessors = parse_string_array(value, lineno)?,
                    other => return Err(format!("line {lineno}: unknown key {other:?}")),
                },
                Some(rule) => {
                    let entry = config.rules.entry(rule.clone()).or_default();
                    match key {
                        "severity" => {
                            entry.severity = Severity::parse(parse_string(value, lineno)?.as_str())
                                .map_err(|e| format!("line {lineno}: {e}"))?
                        }
                        "index-severity" => {
                            entry.index_severity =
                                Severity::parse(parse_string(value, lineno)?.as_str())
                                    .map_err(|e| format!("line {lineno}: {e}"))?
                        }
                        "allow" => entry.allow = parse_string_array(value, lineno)?,
                        other => {
                            return Err(format!("line {lineno}: unknown rule key {other:?}"))
                        }
                    }
                }
            }
        }
        Ok(config)
    }
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or(format!("line {lineno}: expected a \"string\""))?;
    Ok(inner.to_string())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or(format!("line {lineno}: expected a [\"…\", …] array on one line"))?;
    let mut out = Vec::new();
    for item in split_top_level_commas(inner) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_rules() {
        let c = LintConfig::default();
        for id in RULE_IDS {
            assert_eq!(c.rule(id).severity, Severity::Error);
        }
        assert!(c.deterministic_crates.contains(&"online".to_string()));
    }

    #[test]
    fn parses_rules_and_top_level_keys() {
        let c = LintConfig::parse(
            r#"
# comment
skip = ["crates/lint/tests/fixtures"]
deterministic-crates = ["sim", "online"]

[rules.D1]
severity = "error"
allow = ["crates/milp/src/solver.rs"] # trailing comment

[rules.P1]
index-severity = "warn"
"#,
        )
        .unwrap();
        assert_eq!(c.skip, vec!["crates/lint/tests/fixtures"]);
        assert_eq!(c.deterministic_crates, vec!["sim", "online"]);
        assert!(c.is_allowed("D1", "crates/milp/src/solver.rs"));
        assert!(!c.is_allowed("D1", "crates/online/src/policy.rs"));
        assert_eq!(c.rule("P1").index_severity, Severity::Warn);
    }

    #[test]
    fn rejects_unknown_rules_and_keys() {
        assert!(LintConfig::parse("[rules.Z9]\n").is_err());
        assert!(LintConfig::parse("bogus = \"x\"\n").is_err());
        assert!(LintConfig::parse("[rules.D1]\nseverity = \"fatal\"\n").is_err());
    }

    #[test]
    fn missing_file_falls_back_to_defaults() {
        let c = LintConfig::load(Path::new("/nonexistent/lint.toml")).unwrap();
        assert_eq!(c.rule("D2").severity, Severity::Error);
    }
}
