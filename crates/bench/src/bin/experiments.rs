//! The experiment harness CLI: regenerates every table and figure of the
//! paper against the executable cost model.
//!
//! ```text
//! cargo run --release -p tamp-bench --bin experiments            # all
//! cargo run --release -p tamp-bench --bin experiments -- t1-si f4
//! cargo run --release -p tamp-bench --bin experiments -- --list
//! cargo run --release -p tamp-bench --bin experiments -- all --json
//! cargo run --release -p tamp-bench --bin experiments -- all --json=out.json
//! cargo run --release -p tamp-bench --bin experiments -- all --check=BENCH_baseline.json
//! ```
//!
//! Every id is resolved before any suite runs: an unknown id or flag
//! exits 2 having run nothing.
//!
//! With `--json` (or `--json=PATH`), every pinned cell of every table
//! the run printed is also written to `PATH` (default
//! `BENCH_baseline.json`), one table row per line; see
//! [`tamp_bench::baseline`]. The `=` form is deliberate: a free-standing
//! operand after `--json` would be ambiguous with a (possibly typo'd)
//! experiment id.
//!
//! With `--check=PATH`, the run is compared with the baseline at `PATH`
//! cell by cell, and the process exits 1 after printing one line per
//! moved, new or missing cell. Cells compare by exact text, except the
//! `x-size` / `x-lint` counts, which are ceilings that may only fall. A
//! subset run compares only the suites it ran. Nothing here reads a
//! clock: wall time is measured by `benchmark/`.

use tamp_bench::baseline;
use tamp_bench::suite::{run_experiment, ALL_EXPERIMENTS};
use tamp_bench::xalloc::Counting;

/// `x-alloc` counts this binary's allocations.
#[global_allocator]
static ALLOC: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut ids: Vec<&str> = Vec::new();
    for arg in &args {
        if arg == "--json" {
            json_path = Some("BENCH_baseline.json".to_string());
        } else if let Some(path) = arg.strip_prefix("--json=") {
            if path.is_empty() {
                eprintln!("--json= requires a path");
                std::process::exit(2);
            }
            json_path = Some(path.to_string());
        } else if let Some(path) = arg.strip_prefix("--check=") {
            if path.is_empty() {
                eprintln!("--check= requires a baseline path");
                std::process::exit(2);
            }
            check_path = Some(path.to_string());
        } else if arg.starts_with("--") {
            eprintln!("unknown flag: {arg}");
            std::process::exit(2);
        } else {
            ids.push(arg.as_str());
        }
    }
    let ids: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids
    };
    if let Some(id) = ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        eprintln!("unknown experiment id: {id} (try --list)");
        std::process::exit(2);
    }
    let committed = check_path.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("failed to read baseline {path}: {e}");
            std::process::exit(1);
        });
        let suites = baseline::from_json(&text).unwrap_or_else(|e| {
            eprintln!("failed to parse baseline {path}: {e}");
            std::process::exit(1);
        });
        (path, suites)
    });
    println!("tamp experiment harness — PODS 2021 topology-aware MPC reproduction");
    let mut suites = Vec::new();
    for &id in &ids {
        let tables = run_experiment(id).expect("ids are resolved above");
        for table in &tables {
            println!("{table}");
        }
        suites.push((id.to_string(), tables));
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, baseline::to_json(&suites)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote the pinned table cells to {path}");
    }
    if let Some((path, committed)) = committed {
        let ran_all = ALL_EXPERIMENTS.iter().all(|id| ids.contains(id));
        let diffs = baseline::check(&suites, &committed, ran_all);
        if diffs.is_empty() {
            println!(
                "baseline check passed against {path} ({} suites)",
                suites.len()
            );
        } else {
            for diff in &diffs {
                eprintln!("baseline moved: {diff}");
            }
            eprintln!(
                "baseline check failed against {path} ({} differences)",
                diffs.len()
            );
            std::process::exit(1);
        }
    }
}
