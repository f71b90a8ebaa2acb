//! The allocation ratchet: `x-alloc`'s allocations and bytes per
//! prepared-plan run may fall but never rise above their ceilings in
//! `BENCH_baseline.json`. A change that raises one regenerates the file
//! (`cargo run --release -p tamp-bench --bin experiments -- all --json`)
//! and says why in `CHANGES.md`. Lowering a ceiling is free.
//!
//! This binary installs the counting allocator and holds one test, so
//! nothing else allocates while a run is counted.

use tamp_bench::baseline::{check, from_json};
use tamp_bench::xalloc::{x_alloc, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn allocations_per_run_stay_under_their_ceilings() {
    let path = tamp_lint::workspace_root().join("BENCH_baseline.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH_baseline.json");
    let committed = from_json(&text).expect("parse BENCH_baseline.json");
    let diffs = check(&vec![("x-alloc".to_string(), x_alloc())], &committed, false);
    assert!(
        diffs.is_empty(),
        "an allocation ceiling rose; regenerate BENCH_baseline.json and say why in CHANGES.md:\n{}",
        diffs.join("\n")
    );
}
