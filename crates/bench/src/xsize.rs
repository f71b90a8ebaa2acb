//! X-SIZE — lines of code per crate, tracked like a measurement.
//!
//! ROADMAP aim 2 asks for "the same behaviour and the same numbers from
//! the simplest design and the least code"; this suite is the number.
//! Per crate (and for the umbrella `src/`, `tests/` and `examples/`) it
//! tabulates total and non-test lines, `pub` items, `unsafe` sites,
//! live lint allows and lint rule U1's census of the `pub` items no
//! other crate's code names, counted by `tamp-lint`'s own lexer and
//! `#[cfg(test)]` scoping ([`tamp_lint::size`]) so comments, strings and
//! test modules are told apart the same way the rules tell them apart.
//!
//! All cells are deterministic counts over the checked-in sources.
//! `BENCH_baseline.json` stores every count but `files` and `lines` as
//! a ceiling: `--check` and the `size_ratchet`
//! test fail when one rises, and lowering one is free. `files` and
//! `lines` grow with tests, so they are printed but not pinned.

use std::collections::BTreeMap;

use tamp_lint::census::Reach;
use tamp_lint::{measure_source, scan_workspace, walk, workspace_root};

use crate::table::Table;

/// The table row a workspace-relative path is counted under: its crate,
/// or the umbrella's `src` / `tests` / `examples`. Anything else
/// (`benchmark/` is a separate package with its own gates) is out of
/// scope.
fn crate_of(rel: &str) -> Option<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let depth = match parts[..] {
        ["crates", "compat", ..] => 3,
        ["crates", ..] => 2,
        ["src" | "tests" | "examples", ..] => 1,
        _ => return None,
    };
    Some(parts[..depth].join("/"))
}

/// The columns after `crate`; all but `files` and `lines` are ceilings.
const COLUMNS: [&str; 9] = [
    "files",
    "lines",
    "non_test_lines",
    "pub_items",
    "unsafe",
    "lint_allows",
    "pub_nowhere",
    "pub_own_crate",
    "pub_tests_only",
];

/// The `x-size` experiment.
pub fn x_size() -> Vec<Table> {
    let root = workspace_root();
    // Allows and the U1 census come from the workspace scan: the census
    // reads every file, `benchmark/src`'s uses included.
    let report = scan_workspace(&root).expect("scan workspace sources");
    let mut per_crate: BTreeMap<String, [usize; 9]> = BTreeMap::new();
    let mut count = |file: &str, column: usize, n: usize| {
        if let Some(name) = crate_of(file) {
            per_crate.entry(name).or_default()[column] += n;
        }
    };
    for path in walk::rust_files(&root).expect("walk workspace sources") {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path).expect("read workspace source");
        let s = measure_source(&rel, &src);
        let sizes = [1, s.lines, s.non_test_lines, s.pub_items, s.unsafe_sites];
        for (column, n) in sizes.into_iter().enumerate() {
            count(&rel, column, n);
        }
    }
    for a in &report.allows {
        count(&a.file, 5, 1);
    }
    for item in &report.census {
        let column = match item.reach {
            Reach::Nowhere => 6,
            Reach::OwnCrate => 7,
            Reach::TestsOnly => 8,
            Reach::Used => continue,
        };
        count(&item.file, column, 1);
    }

    let mut t = Table::new(
        "X-SIZE: source size per crate (tamp-lint lexer, #[cfg(test)]-scoped)",
        &[&["crate"][..], &COLUMNS].concat(),
    )
    .unpinned(&COLUMNS[..2])
    .ceilings(&COLUMNS[2..]);
    let mut total = [0; 9];
    for (name, cells) in &per_crate {
        t.row(row(name, cells));
        for (sum, cell) in total.iter_mut().zip(cells) {
            *sum += cell;
        }
    }
    t.row(row("total", &total));
    t.note(
        "non_test_lines: lines outside #[cfg(test)] modules and tests/ directories; \
         pub_items: unrestricted `pub` (fields and re-exports included); \
         unsafe: blocks + impls (lint rule S1's sites); pub_nowhere / pub_own_crate / \
         pub_tests_only: `pub` items lint rule U1's census finds named in no other file, \
         only in their own crate, or outside it only by tests, examples and doc tests. \
         The trend to watch is down.",
    );
    vec![t]
}

fn row(name: &str, cells: &[usize; 9]) -> Vec<String> {
    std::iter::once(name.to_string())
        .chain(cells.iter().map(usize::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_map_to_their_crate_row() {
        for (rel, want) in [
            ("crates/query/src/exec/mod.rs", Some("crates/query")),
            ("crates/compat/rand/src/lib.rs", Some("crates/compat/rand")),
            ("crates/core/tests/props.rs", Some("crates/core")),
            ("src/lib.rs", Some("src")),
            ("tests/serving.rs", Some("tests")),
            ("examples/quickstart.rs", Some("examples")),
            ("benchmark/src/main.rs", None),
        ] {
            assert_eq!(crate_of(rel).as_deref(), want, "{rel}");
        }
    }

    #[test]
    fn the_table_adds_up_and_sees_this_workspace() {
        let t = &x_size()[0];
        let col = |r: usize, c: usize| t.cell(r, c).parse::<usize>().unwrap();
        let last = t.num_rows() - 1;
        assert_eq!(t.cell(last, 0), "total");
        for c in 1..10 {
            let sum: usize = (0..last).map(|r| col(r, c)).sum();
            assert_eq!(sum, col(last, c), "column {c}");
        }
        let query = (0..last).find(|&r| t.cell(r, 0) == "crates/query").unwrap();
        assert!(col(query, 3) > 5_000 && col(query, 3) < col(query, 2));
        // The one place the workspace launders a lifetime.
        let runtime = (0..last)
            .find(|&r| t.cell(r, 0) == "crates/runtime")
            .unwrap();
        assert!(col(runtime, 5) > 0);
    }
}
