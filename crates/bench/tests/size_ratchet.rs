//! The size ratchet: `x-size`'s non-test lines, `pub` items, `unsafe`
//! sites and lint allows, and `x-lint`'s violations and allows, may fall
//! but never rise above their ceilings in `BENCH_baseline.json`. A change
//! that raises one regenerates the file
//! (`cargo run --release -p tamp-bench --bin experiments -- all --json`)
//! and says why in `CHANGES.md`. Lowering a ceiling is free.

use tamp_bench::baseline::{check, from_json};
use tamp_bench::{xlint, xsize};

#[test]
fn sizes_and_lint_counts_stay_under_their_ceilings() {
    let path = tamp_lint::workspace_root().join("BENCH_baseline.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH_baseline.json");
    let committed = from_json(&text).expect("parse BENCH_baseline.json");
    let run = vec![
        ("x-size".to_string(), xsize::x_size()),
        ("x-lint".to_string(), xlint::x_lint()),
    ];
    let diffs = check(&run, &committed, false);
    assert!(
        diffs.is_empty(),
        "a ceiling rose; regenerate BENCH_baseline.json and say why in CHANGES.md:\n{}",
        diffs.join("\n")
    );
}
