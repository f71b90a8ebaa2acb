//! X-CHAOS — seeded chaos schedules against checkpointed recovery.
//!
//! For each seed, [`chaos::schedule`] generates a deterministic fault
//! plan queue (worker kills, subtree detaches, link degradations and
//! stalls over valid targets), arms it on a multi-tenant service with
//! per-superstep checkpointing, and streams a mixed workload through the
//! recovery loop. The two degraded-mode guarantees are asserted per
//! seed:
//!
//! 1. **Bit-identical recovery** — every served answer (canonical rows
//!    *and* metered `edge_totals`) equals the fault-free serial run's,
//!    whatever the schedule threw at the crew;
//! 2. **Partial restart** — every recovery that resumed from a
//!    checkpoint replayed *strictly fewer* supersteps (the
//!    [`RecoveryEvent`](tamp_query::RecoveryEvent)'s
//!    `replayed_supersteps`) than the fault-free reference run of the
//!    query it served executed.
//!
//! The release gate sweeps [`GATE_SEEDS`] seeds; the debug test a small
//! prefix.

use tamp_query::chaos::{self, ChaosSpec};
use tamp_query::prelude::*;
use tamp_query::RecoveryEvent;
use tamp_runtime::PooledClusterBackend;
use tamp_topology::builders;

use crate::table::Table;

/// Seeds swept by the release gate (and `experiments -- x-chaos`).
const GATE_SEEDS: u64 = 64;
/// Fault plans armed per seed (all consumed: one per execution attempt).
const PLANS_PER_SEED: usize = 3;
/// Queries served per seed (enough to drain every armed plan).
const SERVES_PER_SEED: usize = 6;

fn chaos_context() -> QueryContext {
    let tree = builders::star(6, 1.0);
    let mut ctx = QueryContext::new(tree.clone()).with_seed(41);
    let facts: Vec<Vec<u64>> = (0..180).map(|i| vec![i, i % 7, (i * 53) % 400]).collect();
    ctx.register(DistributedTable::round_robin(
        "facts",
        Schema::new(vec!["id", "g", "x"]).unwrap(),
        facts,
        &tree,
    ))
    .unwrap();
    ctx
}

fn workload() -> Vec<LogicalPlan> {
    vec![
        LogicalPlan::scan("facts").aggregate("g", AggFunc::Sum, "x"),
        LogicalPlan::scan("facts")
            .filter(col("x").lt(lit(200)))
            .aggregate("g", AggFunc::Count, "id"),
        LogicalPlan::scan("facts").order_by("x").limit(20),
    ]
}

/// What one chaos sweep measured.
#[derive(Debug)]
pub struct ChaosMeasurement {
    /// Seeds swept.
    seeds: u64,
    /// Queries served across all seeds.
    serves: u64,
    /// Nodes felled mid-execution: the recovery events' `faults`,
    /// summed (a detach at a subtree root fells several in one attempt).
    pub(crate) faults_fired: u64,
    /// Replay recoveries (one per killed attempt).
    pub recoveries: u64,
    /// Recoveries that resumed from a superstep checkpoint.
    partial_restarts: u64,
    /// Supersteps skipped by checkpointed resumes, summed.
    pub supersteps_skipped: u64,
    /// Every served answer matched the fault-free serial run bit for bit.
    pub(crate) identical: bool,
    /// Every partial restart replayed strictly fewer supersteps than the
    /// fault-free run of its query.
    strictly_fewer: bool,
}

/// Whether a resumed recovery replayed strictly fewer supersteps than
/// `whole`, the superstep count of a fault-free run of its query.
fn replays_fewer(rec: &RecoveryEvent, whole: usize) -> bool {
    rec.replayed_supersteps.is_some_and(|n| n < whole)
}

/// Sweep `seeds` seeded chaos schedules, checking every answer and every
/// recovery event.
pub fn measure(seeds: u64) -> ChaosMeasurement {
    let queries = workload();
    // On a crew, like the service's, so that `supersteps` counts what a
    // whole-query replay executes.
    let reference: Vec<QueryResult> = {
        let ctx = chaos_context();
        let crew = PooledClusterBackend::with_workers(1);
        queries
            .iter()
            .map(|q| ctx.prepare(q).unwrap().run_on(&crew).unwrap())
            .collect()
    };

    let mut serves = 0u64;
    let mut faults_fired = 0u64;
    let mut recoveries = 0u64;
    let mut partial_restarts = 0u64;
    let mut supersteps_skipped = 0u64;
    let mut identical = true;
    let mut strictly_fewer = true;

    for seed in 0..seeds {
        let service = QueryService::builder(chaos_context())
            .tenant(TenantSpec::new("chaos", 1, 64))
            .checkpoints(1)
            .build()
            .unwrap();
        let tree = service.context().tree().clone();
        let spec = ChaosSpec::new(seed)
            .with_plans(PLANS_PER_SEED)
            .with_max_round(3);
        for plan in chaos::schedule(&tree, &spec) {
            service.inject_faults(plan).unwrap();
        }
        let mut seen = 0;
        for i in 0..SERVES_PER_SEED {
            let k = i % queries.len();
            let served = service
                .serve_as("chaos", &queries[k])
                .unwrap_or_else(|e| panic!("seed {seed}: serve failed: {e}"));
            serves += 1;
            identical &= served.result.rows(false) == reference[k].rows(false)
                && served.result.cost.edge_totals == reference[k].cost.edge_totals;
            // The events this serve appended are its own query's.
            let events = service.recovery_events();
            for rec in &events[seen..] {
                faults_fired += rec.faults.len() as u64;
                recoveries += 1;
                if let Some(from) = rec.resumed_from {
                    partial_restarts += 1;
                    supersteps_skipped += from as u64;
                    strictly_fewer &= replays_fewer(rec, reference[k].supersteps);
                }
            }
            seen = events.len();
        }
    }
    ChaosMeasurement {
        seeds,
        serves,
        faults_fired,
        recoveries,
        partial_restarts,
        supersteps_skipped,
        identical,
        strictly_fewer,
    }
}

/// X-CHAOS — the seeded chaos harness: bit-identical recovery and
/// strictly-fewer-superstep partial restarts across [`GATE_SEEDS`]
/// deterministic fault schedules.
pub(crate) fn x_chaos() -> Vec<Table> {
    let m = measure(GATE_SEEDS);
    let mut t = Table::new(
        "X-CHAOS  seeded fault schedules vs checkpointed recovery",
        &[
            "seeds",
            "serves",
            "faults",
            "recoveries",
            "partial_restarts",
            "supersteps_skipped",
            "identical",
            "strictly_fewer",
        ],
    );
    t.row(vec![
        m.seeds.to_string(),
        m.serves.to_string(),
        m.faults_fired.to_string(),
        m.recoveries.to_string(),
        m.partial_restarts.to_string(),
        m.supersteps_skipped.to_string(),
        if m.identical { "yes" } else { "NO" }.into(),
        if m.strictly_fewer { "yes" } else { "NO" }.into(),
    ]);
    t.note(
        "Expected shape: identical = yes (every answer under every seeded schedule \
         matches the fault-free serial run bit for bit) and strictly_fewer = yes \
         (every checkpointed resume's RecoveryEvent replayed fewer supersteps than \
         the fault-free reference run of its query executed). Fault/recovery counts \
         are deterministic per seed set.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_whole_query_replay_is_not_strictly_fewer() {
        let rec = |from, replayed| RecoveryEvent {
            tenant: "chaos".into(),
            ticket: 0,
            faults: Vec::new(),
            attempt: 1,
            resumed_from: Some(from),
            replayed_supersteps: Some(replayed),
        };
        // A fault-free run of 4 supersteps, resumed after 1: 3 replayed.
        assert!(replays_fewer(&rec(1, 3), 4));
        // A resume that nonetheless replayed all 4 reads NO.
        assert!(!replays_fewer(&rec(0, 4), 4));
        assert!(!replays_fewer(&rec(1, 4), 4));
    }

    #[test]
    fn small_chaos_sweep_is_identical_with_partial_restarts() {
        let m = measure(8);
        assert!(m.identical, "a chaos-recovered answer diverged");
        assert!(m.strictly_fewer, "a resume replayed the whole query");
        assert!(m.recoveries >= 1, "8 seeds must fire at least one fault");
        assert_eq!(m.serves, 8 * SERVES_PER_SEED as u64);
    }

    /// The release acceptance gate: 64 seeded schedules, every answer
    /// bit-identical, every checkpointed resume strictly cheaper than a
    /// whole-query replay, and at least one partial restart observed.
    #[test]
    #[ignore = "full chaos sweep; run in release (CI does)"]
    fn gate_chaos_sweep_is_bit_identical_and_partially_restarts() {
        let m = measure(GATE_SEEDS);
        assert!(m.identical, "a chaos-recovered answer diverged");
        assert!(m.strictly_fewer, "a resume replayed the whole query");
        assert!(
            m.partial_restarts >= 1,
            "64 seeds with checkpoint-every-superstep must resume at least once"
        );
        assert!(
            m.recoveries >= m.partial_restarts,
            "recovery ledger inconsistent: {m:?}"
        );
        assert_eq!(m.serves, GATE_SEEDS * SERVES_PER_SEED as u64);
    }
}
