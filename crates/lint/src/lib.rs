//! flex-lint: domain-aware static analysis for the Flex workspace.
//!
//! The Rust compiler proves memory safety; it cannot prove the
//! *process* invariants Flex's availability argument rests on:
//!
//! - **Determinism** — the paper's Algorithm 1 is validated by
//!   deterministic simulation, and the parallel engines introduced in
//!   PR 1 are bit-identical at any thread count *only if* no code path
//!   consults wall-clock time (rule **D1**) or iterates a
//!   randomized-order hash collection (rule **D2**).
//! - **Panic safety** — the online controller must shed load, not die,
//!   mid-failover (rule **P1**).
//! - **Unit safety** — power quantities flow through the `Watts`
//!   newtype; raw `f64` literal arithmetic on accessor results
//!   reintroduces the unit bugs the newtype exists to prevent (rule
//!   **U1**), and float `==` is an epsilon bug waiting to fire (rule
//!   **F1**).
//! - **Header hygiene** — every crate root forbids `unsafe` and warns
//!   on missing docs (rule **H1**).
//! - **No dead public API** — a `pub fn` that no non-test code names is
//!   a finding (rule **A1**); rustc's `dead_code` lint stops at the
//!   crate boundary for `pub` items.
//!
//! The analyzer is built from scratch on a hand-rolled lexer
//! ([`lexer`]) and a token-level rule engine ([`rules`]) — no `syn`, no
//! dependencies — so it builds before, and independently of, everything
//! it checks. Configuration lives in `lint.toml` ([`config`]); inline
//! escapes use `// flex-lint: allow(<RULE>): <justification>` comments,
//! and a missing justification is itself a violation (rule **S1**).
//!
//! Run it three ways:
//!
//! - `cargo run -p flex-lint` — CLI with text + JSON output;
//! - `tests/lint_gate.rs` — workspace test, so `cargo test` fails on
//!   new violations;
//! - [`lint_sources`] — in-memory API, used by the fixtures tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod engine;
pub mod lexer;
mod locals;
pub mod rules;

pub use config::{LintConfig, RuleConfig, Severity, RULE_IDS};
pub use context::{FileClass, FileContext, Suppression};
pub use engine::{lint_sources, lint_workspace, Report};
pub use rules::Diagnostic;
