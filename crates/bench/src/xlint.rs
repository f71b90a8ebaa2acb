//! X-LINT — the suppression budget, tracked like a measurement.
//!
//! `tamp-lint` (see `crates/lint`) gates CI on zero violations, so the
//! interesting *trajectory* is the allow inventory: every
//! `// lint: allow(..)` site is a documented exception to the
//! determinism/safety invariants, and the count creeping upward is the
//! early signal that exceptions are becoming the norm. This suite runs
//! the same workspace scan as `tests/lint.rs` and tabulates per-rule
//! violation/allow counts. `BENCH_baseline.json` stores the violation
//! and allow counts as ceilings: `--check` and the `size_ratchet` test
//! fail when one rises. `files_scanned` grows with tests, so it is
//! printed but not pinned.

use tamp_lint::{scan_workspace, workspace_root, Report, RuleId};

use crate::table::Table;

/// Run the workspace scan once, for both the table and any caller that
/// wants the raw report.
pub fn scan() -> Report {
    scan_workspace(&workspace_root()).expect("scan workspace sources")
}

/// Build the X-LINT tables from a finished report.
pub fn tables(report: &Report) -> Vec<Table> {
    let mut per_rule = Table::new(
        "X-LINT: per-rule violation/allow counts",
        &["rule", "violations", "allows"],
    )
    .ceilings(&["violations", "allows"]);
    for (rule, (violations, allows)) in report.rule_counts() {
        per_rule.row(vec![
            rule.id().to_string(),
            violations.to_string(),
            allows.to_string(),
        ]);
    }
    per_rule.note(
        "gate: violations must be 0 (enforced by tests/lint.rs and CI); \
         allows is the suppression budget — every site carries a reason",
    );

    let mut totals = Table::new(
        "X-LINT: workspace totals",
        &["files_scanned", "violations", "allow_sites"],
    )
    .unpinned(&["files_scanned"])
    .ceilings(&["violations", "allow_sites"]);
    totals.row(vec![
        report.files.to_string(),
        report.diagnostics.len().to_string(),
        report.allows.len().to_string(),
    ]);
    for a in &report.allows {
        totals.note(format!(
            "allow {}:{} ({}) — {}",
            a.file,
            a.line,
            a.rule.id(),
            a.reason
        ));
    }
    vec![per_rule, totals]
}

/// The `x-lint` experiment: scan, tabulate, and hard-fail on any
/// violation so a dirty tree cannot silently mint a new baseline.
pub fn x_lint() -> Vec<Table> {
    let report = scan();
    assert!(
        report.is_clean(),
        "x-lint: workspace has violations — fix or annotate before \
         regenerating baselines:\n{}",
        report.render_text()
    );
    // Sanity: the rule universe is stable; a new rule must show up here
    // (and in the baseline row count) the day it lands.
    assert_eq!(RuleId::ALL.len(), 8);
    tables(&report)
}
