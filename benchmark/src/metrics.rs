//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics with the workloads they describe.
//! `../BENCHMARK.json` states the same tables for the driver; a test at
//! the bottom keeps the two from drifting apart.

/// A workload and why it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve-hot",
        why: "Orchestrator on a 64-compute fat-tree, crew 2: three cached x-serve plans + one small PageRank per op; exec, crew replay and the admit-tick-pin loop do the work, the planner none",
    },
    WorkloadDef {
        name: "serve-churn",
        why: "Same tree, tables and plans via QueryService on the simulator: register(dims) + three plan-cache misses per op; optimizer, strategy pricing and LCA routing dominate, the crew is bypassed",
    },
    WorkloadDef {
        name: "scan-join",
        why: "16-compute fat-tree, 120k Zipf-keyed skew-placed fact rows x 2k dims, three prepared plans run on the simulator per op; columnar kernels and payload delivery dominate, planner and cache do nothing",
    },
    WorkloadDef {
        name: "paper-scale",
        why: "Paper tasks (TreeIntersect, tree cartesian product, weighted TeraSort) on a skewed 1,024-compute tree + meter rounds up to a 65,536-compute fat-tree; Session and meter scale, no query crate",
    },
];

/// An end-to-end metric: what a user of the system would see. Every one
/// is "lower is better" and is printed for every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline by which the value may worsen before it
    /// counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        what: "median set-up time: topology/index build, registration, service/pool construction, prepare, first op",
    },
    EndToEnd {
        name: "op_ms_quiet",
        unit: "ms",
        bound: 0.25,
        what: "5th percentile of op wall time over all launches: what an op costs when the host leaves it alone",
    },
    EndToEnd {
        name: "model_cost",
        unit: "tuples/bw",
        bound: 0.05,
        what: "sum over the op's calls of the metered Cost::tuple_cost(): the paper's quantity, exact per seed",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        bound: 0.10,
        what: "heap allocations per op in the count pass",
    },
    EndToEnd {
        name: "alloc_kb_per_op",
        unit: "KB",
        bound: 0.10,
        what: "heap bytes requested per op in the count pass",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
        what: "VmHWM of a launch, median over launches",
    },
];

/// A per-layer metric, taken in the traced launch. `on` lists the
/// workloads whose op runs the layer; elsewhere the layer is bypassed,
/// the probe is skipped and the value reads 0.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub on: &'static [&'static str],
    /// The end-to-end metric and workloads it should move.
    pub moves: &'static str,
}

const ALL: &[&str] = &["serve-hot", "serve-churn", "scan-join", "paper-scale"];
const HOT: &[&str] = &["serve-hot"];
const CHURN: &[&str] = &["serve-churn"];
const SERVE: &[&str] = &["serve-hot", "serve-churn"];
const SCAN: &[&str] = &["scan-join"];
const PAPER: &[&str] = &["paper-scale"];
const QUERY: &[&str] = &["serve-hot", "serve-churn", "scan-join"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    on: &'static [&'static str],
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        on,
        moves,
    }
}

const fn rising(
    name: &'static str,
    unit: &'static str,
    on: &'static [&'static str],
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
        on,
        moves,
    }
}

pub const LAYERS: [Layer; 54] = [
    layer(
        "topology.tree_build_ms",
        "ms",
        PAPER,
        "setup_s on paper-scale",
    ),
    layer(
        "topology.lca_build_ms",
        "ms",
        PAPER,
        "setup_s on paper-scale",
    ),
    layer(
        "topology.lca_query_ns",
        "ns",
        PAPER,
        "op_ms_quiet on paper-scale",
    ),
    layer(
        "topology.path_edge_ns",
        "ns",
        CHURN,
        "op_ms_quiet on serve-churn",
    ),
    layer(
        "simulator.meter_new_ms",
        "ms",
        PAPER,
        "setup_s on paper-scale",
    ),
    layer(
        "simulator.charge_unicast_ns",
        "ns",
        PAPER,
        "op_ms_quiet on paper-scale",
    ),
    layer(
        "simulator.charge_multicast_us",
        "us",
        PAPER,
        "op_ms_quiet on paper-scale",
    ),
    layer(
        "simulator.commit_round_ms",
        "ms",
        PAPER,
        "op_ms_quiet on paper-scale",
    ),
    layer(
        "simulator.commit_round_small_us",
        "us",
        SERVE,
        "op_ms_quiet on serve-hot, serve-churn",
    ),
    layer(
        "simulator.rounds_per_op",
        "count",
        ALL,
        "nothing unless model_cost moves",
    ),
    layer(
        "simulator.ledger_entries_per_op",
        "count",
        ALL,
        "nothing unless model_cost moves",
    ),
    layer(
        "core.intersect_ms",
        "ms",
        PAPER,
        "op_ms_quiet on paper-scale",
    ),
    layer(
        "core.cartesian_ms",
        "ms",
        PAPER,
        "op_ms_quiet on paper-scale",
    ),
    layer("core.sort_ms", "ms", PAPER, "op_ms_quiet on paper-scale"),
    layer(
        "core.intersect_ratio",
        "ratio",
        PAPER,
        "model_cost on paper-scale",
    ),
    layer(
        "core.cartesian_ratio",
        "ratio",
        PAPER,
        "model_cost on paper-scale",
    ),
    layer(
        "core.sort_ratio",
        "ratio",
        PAPER,
        "model_cost on paper-scale",
    ),
    layer(
        "core.lower_bound_ms",
        "ms",
        CHURN,
        "op_ms_quiet on serve-churn",
    ),
    layer(
        "workloads.generate_ms",
        "ms",
        ALL,
        "no gated metric; bounds run length",
    ),
    layer("runtime.pool_spawn_ms", "ms", HOT, "setup_s on serve-hot"),
    layer(
        "runtime.pool_dispatch_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "runtime.cluster_run_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "runtime.replay_overhead_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "runtime.us_per_superstep",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "runtime.supersteps_per_op",
        "count",
        HOT,
        "nothing unless the schedules change",
    ),
    layer(
        "query.optimizer.optimize_us",
        "us",
        CHURN,
        "op_ms_quiet on serve-churn",
    ),
    layer(
        "query.context.prepare_us",
        "us",
        CHURN,
        "op_ms_quiet on serve-churn",
    ),
    layer(
        "query.service.miss_us",
        "us",
        CHURN,
        "op_ms_quiet on serve-churn",
    ),
    layer(
        "query.service.register_us",
        "us",
        CHURN,
        "op_ms_quiet on serve-churn",
    ),
    layer(
        "query.service.hit_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "query.service.queued_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "query.orchestrator.overhead_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "query.service.exec_us",
        "us",
        SERVE,
        "op_ms_quiet on serve-hot, serve-churn",
    ),
    layer(
        "query.exec.run_sim_us",
        "us",
        SERVE,
        "op_ms_quiet on serve-hot, serve-churn",
    ),
    rising(
        "query.service.cache_hit_ratio",
        "ratio",
        SERVE,
        "self-check: 1.0 on serve-hot, 0.0 on serve-churn",
    ),
    layer(
        "query.exec.filter_project_ms",
        "ms",
        SCAN,
        "op_ms_quiet on scan-join",
    ),
    layer("query.exec.join_ms", "ms", SCAN, "op_ms_quiet on scan-join"),
    layer(
        "query.exec.sort_limit_ms",
        "ms",
        SCAN,
        "op_ms_quiet on scan-join",
    ),
    rising(
        "query.exec.scan_rows_per_s",
        "1/s",
        SCAN,
        "op_ms_quiet on scan-join",
    ),
    layer(
        "query.iterative.prepare_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "query.iterative.replay_us",
        "us",
        HOT,
        "op_ms_quiet on serve-hot",
    ),
    layer(
        "query.iterative.iterations",
        "count",
        HOT,
        "nothing unless the fixpoint changes",
    ),
    layer(
        "query.iterative.supersteps",
        "count",
        HOT,
        "nothing unless the fixpoint changes",
    ),
    layer(
        "query.reference.evaluate_ms",
        "ms",
        QUERY,
        "none (verification cost)",
    ),
    rising("bench.samples", "count", ALL, "none (ops timed)"),
    layer(
        "bench.op_ms_p50",
        "ms",
        ALL,
        "none (measures the neighbours)",
    ),
    layer(
        "bench.op_ms_tail",
        "ms",
        ALL,
        "none (measures the neighbours)",
    ),
    rising(
        "bench.tail_pct",
        "%",
        ALL,
        "none (the percentile op_ms_tail is taken at)",
    ),
    layer(
        "bench.op_ms_mean",
        "ms",
        ALL,
        "none (measures the neighbours)",
    ),
    rising(
        "bench.ops_per_s",
        "1/s",
        ALL,
        "none (1 / mean op time, one closed-loop client)",
    ),
    layer(
        "bench.cpu_ms_per_op",
        "ms",
        ALL,
        "none (moves with wall time on this host)",
    ),
    layer(
        "bench.launch_spread",
        "ratio",
        ALL,
        "none (max / min per-launch op_ms_quiet)",
    ),
    layer(
        "bench.ref_ms_p50",
        "ms",
        ALL,
        "none (the machine's weather)",
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        ALL,
        "none (traced vs untraced op_ms_quiet)",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");

        let workloads: Vec<(&str, &str)> = doc
            .arr("workloads")
            .iter()
            .map(|w| (w.str("name").unwrap(), w.str("why").unwrap()))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, want);
        assert!(
            WORKLOADS.iter().all(|w| w.why.len() <= 200),
            "a why is one line of at most 200"
        );

        let e2e: Vec<(&str, &str, &str, f64)> = doc
            .arr("end_to_end")
            .iter()
            .map(|m| {
                (
                    m.str("name").unwrap(),
                    m.str("unit").unwrap(),
                    m.str("better").unwrap(),
                    m.num("bound").unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, "lower", m.bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(&str, &str, &str)> = doc
            .arr("per_layer")
            .iter()
            .map(|m| {
                (
                    m.str("name").unwrap(),
                    m.str("unit").unwrap(),
                    m.str("better").unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str, &str)> = LAYERS
            .iter()
            .map(|l| {
                let better = if l.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (l.name, l.unit, better)
            })
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn names_are_unique_and_layers_name_real_workloads() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(LAYERS.iter().map(|l| l.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(LAYERS.iter().all(|l| l.on.iter().all(|w| is_workload(w))));
        assert!(LAYERS.iter().all(|l| !l.on.is_empty()));
    }
}
