//! X-SIZE — lines of code per crate, tracked like a measurement.
//!
//! ROADMAP aim 2 asks for "the same behaviour and the same numbers from
//! the simplest design and the least code"; this suite is the number.
//! Per crate (and for the umbrella `src/`, `tests/` and `examples/`) it
//! tabulates total and non-test lines, `pub` items, `unsafe` sites and
//! live lint allows, counted by `tamp-lint`'s own lexer and
//! `#[cfg(test)]` scoping ([`tamp_lint::size`]) so comments, strings and
//! test modules are told apart the same way the rules tell them apart.
//!
//! All cells are deterministic counts over the checked-in sources.
//! `BENCH_baseline.json` stores non-test lines, `pub` items, `unsafe`
//! sites and lint allows as ceilings: `--check` and the `size_ratchet`
//! test fail when one rises, and lowering one is free. `files` and
//! `lines` grow with tests, so they are printed but not pinned.

use std::collections::BTreeMap;

use tamp_lint::{measure_source, scan_source, walk, workspace_root, SourceSize};

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

/// The `x-size` experiment.
pub fn x_size() -> Vec<Table> {
    let root = workspace_root();
    let mut per_crate: BTreeMap<String, (usize, SourceSize, usize)> = BTreeMap::new();
    for path in walk::rust_files(&root).expect("walk workspace sources") {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(name) = crate_of(&rel) else { continue };
        let src = std::fs::read_to_string(&path).expect("read workspace source");
        let (files, size, allows) = per_crate.entry(name).or_default();
        *files += 1;
        *size += measure_source(&rel, &src);
        *allows += scan_source(&rel, &src).allows.len();
    }

    let mut t = Table::new(
        "X-SIZE: source size per crate (tamp-lint lexer, #[cfg(test)]-scoped)",
        &[
            "crate",
            "files",
            "lines",
            "non_test_lines",
            "pub_items",
            "unsafe",
            "lint_allows",
        ],
    )
    .unpinned(&["files", "lines"])
    .ceilings(&["non_test_lines", "pub_items", "unsafe", "lint_allows"]);
    let mut total = (0, SourceSize::default(), 0);
    for (name, (files, size, allows)) in per_crate {
        t.row(row(&name, files, size, allows));
        total.0 += files;
        total.1 += size;
        total.2 += allows;
    }
    t.row(row("total", total.0, total.1, total.2));
    t.note(
        "non_test_lines: lines outside #[cfg(test)] modules and tests/ directories; \
         pub_items: unrestricted `pub` (fields and re-exports included); \
         unsafe: blocks + impls (lint rule S1's sites). The trend to watch is down.",
    );
    vec![t]
}

fn row(name: &str, files: usize, size: SourceSize, allows: usize) -> Vec<String> {
    vec![
        name.to_string(),
        files.to_string(),
        size.lines.to_string(),
        size.non_test_lines.to_string(),
        size.pub_items.to_string(),
        size.unsafe_sites.to_string(),
        allows.to_string(),
    ]
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
        for c in 1..7 {
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
