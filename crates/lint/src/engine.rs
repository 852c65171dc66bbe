//! Workspace walking and report assembly.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::{LintConfig, Severity};
use crate::context::FileContext;
use crate::lexer::lex;
use crate::rules::{check_file, ApiIndex, Diagnostic};

/// The outcome of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files linted.
    pub files: usize,
    /// Findings silenced by justified suppressions.
    pub suppressed: usize,
}

impl Report {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warn-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Serializes the report as JSON (hand-rolled; no dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"errors\": {},\n", self.error_count()));
        s.push_str(&format!("  \"warnings\": {},\n", self.warning_count()));
        s.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \"message\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(&d.rule),
                json_str(&d.severity.to_string()),
                json_str(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints in-memory `(workspace-relative path, source)` pairs: the
/// per-file rules on each file, then the workspace pass (A1) over all of
/// them together.
///
/// This is the core entry point; the fixtures tests drive it directly.
pub fn lint_sources<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)], config: &LintConfig) -> Report {
    let mut report = Report::default();
    let mut api = ApiIndex::default();
    for (rel, source) in files {
        let ctx = FileContext::new(rel.as_ref(), lex(source.as_ref()));
        let (diags, suppressed) = check_file(&ctx, config);
        api.add(&ctx);
        report.diagnostics.extend(diags);
        report.suppressed += suppressed;
        report.files += 1;
    }
    let (diags, suppressed) = api.finish(config);
    report.diagnostics.extend(diags);
    report.suppressed += suppressed;
    report.diagnostics.sort();
    report
}

/// Lints every `.rs` file under `root`, honoring `config.skip`.
///
/// `target/`, `vendor/`, and dot-directories are never descended into.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> io::Result<Report> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, config, &mut paths)?;
    paths.sort();
    let files = paths
        .iter()
        .map(|path| Ok((rel_path(root, path), fs::read_to_string(path)?)))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(lint_sources(&files, config))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &LintConfig,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            if config.is_skipped(&rel_path(root, &path)) {
                continue;
            }
            collect_rs_files(root, &path, config, out)?;
        } else if name.ends_with(".rs") && !config.is_skipped(&rel_path(root, &path)) {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_flags_and_suppresses() {
        let config = LintConfig::default();
        let src = "\
use std::collections::HashMap;
// flex-lint: allow(D2): test of the suppression machinery
use std::collections::HashSet;
";
        let report = lint_sources(&[("crates/online/src/x.rs", src)], &config);
        let diags = &report.diagnostics;
        assert_eq!(report.suppressed, 1, "HashSet import is suppressed");
        assert_eq!(diags.len(), 1, "HashMap import survives: {diags:?}");
        assert_eq!(diags[0].rule, "D2");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn json_escapes_and_shape() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                file: "a\"b.rs".into(),
                line: 3,
                rule: "P1".into(),
                severity: Severity::Error,
                message: "tab\there".into(),
            }],
            files: 1,
            suppressed: 0,
        };
        let json = report.to_json();
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("tab\\there"));
    }

    #[test]
    fn workspace_walk_skips_configured_paths() {
        let dir = std::env::temp_dir().join(format!("flex_lint_walk_{}", std::process::id()));
        let sub = dir.join("crates/online/src");
        fs::create_dir_all(&sub).unwrap();
        fs::create_dir_all(dir.join("skipme")).unwrap();
        fs::write(sub.join("x.rs"), "use std::collections::HashMap;\n").unwrap();
        fs::write(dir.join("skipme/y.rs"), "use std::collections::HashMap;\n").unwrap();
        let mut config = LintConfig::default();
        config.skip.push("skipme".into());
        let report = lint_workspace(&dir, &config).unwrap();
        assert_eq!(report.files, 1);
        assert_eq!(report.error_count(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
