//! # tamp-lint
//!
//! A dependency-free static-analysis pass enforcing the workspace's
//! determinism and safety invariants, CI-gated.
//!
//! The whole reproduction rests on one invariant: **prepared schedules
//! replay bit-identically** across backends, retries, checkpoints, and
//! chaos seeds. That invariant is easy to break silently — PR 8 shipped
//! a latent bug where exchange strategies emitted sends by iterating
//! grouping `HashMap`s, so two executions of the same pinned plan
//! produced differently-ordered schedules and a faulted run's parked
//! checkpoint could never match its own retry. The defect class is
//! structural (any unordered iteration, clock read, or unseeded RNG in
//! result-affecting code), so it is enforced structurally: this crate
//! tokenizes every `.rs` file in the workspace with a hand-rolled
//! [`lexer`] (comments, strings, and attributes are understood, so a
//! `HashMap` in a doc string never fires) and runs the [`rules`] over
//! the token stream.
//!
//! One rule, U1, reads the whole workspace at once: the [`census`]
//! classes every unrestricted `pub` item by who names it outside its
//! file (another crate's code, tests and examples only, its own crate
//! only, or nowhere). A *nowhere* item is a violation; the text report
//! lists the *own crate only* and *tests/examples only* items below the
//! allow inventory.
//!
//! The rule table, scoping model, and how to add a rule live in the
//! [`rules`] module docs. Suppression syntax and the allow-budget
//! mechanics live in the [`engine`] module docs.
//!
//! Shipped three ways:
//!
//! - `cargo run -p tamp-lint` — the CLI (add `--json` for tooling);
//!   exits non-zero on any violation and always prints the allow-site
//!   inventory and the U1 census,
//! - `tests/lint.rs` at the workspace root — the tier-1 gate asserting
//!   zero violations,
//! - the `x-lint` experiment suite — violation/allow counts stored as
//!   ceilings in `BENCH_baseline.json`: the budget may shrink, and a rise
//!   fails the baseline check and the size-ratchet test.
//!
//! The same token stream and test scoping also feed the [`size`]
//! counters (non-test lines, `pub` items, `unsafe` sites) that the
//! `x-size` suite tracks per crate, next to the census classes.
//!
//! The lint itself is regression-tested against a fixture corpus of
//! known-bad snippets with golden diagnostics (`fixtures/`, exercised
//! by `tests/fixtures.rs`; U1's is a mini-workspace with a golden
//! census), and the lexer's span arithmetic is pinned
//! by a lex-then-rejoin roundtrip proptest (`tests/lexer_roundtrip.rs`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod census;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod size;
pub mod walk;

pub use engine::{scan_source, scan_workspace, AllowSite, Diagnostic, Report};
pub use rules::RuleId;
pub use size::{measure_source, SourceSize};

use std::path::PathBuf;

/// The workspace root this crate was built in — the default scan root
/// for the CLI, the tier-1 test, and the bench suite.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}
