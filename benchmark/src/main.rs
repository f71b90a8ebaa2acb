//! `tamp-benchmark`: the repo's end-to-end and per-layer benchmark.
//!
//! `run.sh` builds this binary and hands it its arguments. Sub-commands:
//!
//! - `run` (the default): launches fresh child processes of this binary
//!   per workload, aggregates their records, writes `result.json` and
//!   the trace files, prints the report;
//! - `launch`: one such child (see [`launch`]);
//! - `compare A.json B.json` and `aa`: see [`report`].
//!
//! See `README.md` for the workloads and the metric glossary.

mod alloc;
mod json;
mod launch;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run::main(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tamp-benchmark: {message}");
            2
        }
    };
    std::process::exit(code);
}
