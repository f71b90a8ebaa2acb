//! The seeded chaos harness, end to end: randomized fault schedules
//! against the orchestrator's checkpointed recovery loop.
//!
//! Three properties, each over many seeds:
//!
//! 1. **Bit-identical recovery.** Whatever a seeded schedule throws at
//!    the crew — kills, detaches, degrades, stalls — every served answer
//!    (rows *and* metered `edge_totals`) equals the fault-free run's.
//! 2. **Bounded retry.** Total loss (every compute node killed, re-armed
//!    across retries) terminates with a typed `RecoveryExhausted` after
//!    exactly `RetryPolicy::max_attempts` executions — never a loop.
//! 3. **No leaked plans.** An armed plan whose query dies before the
//!    trigger superstep is dropped with the failed query, not left to
//!    fell the next unrelated tenant's query.

use proptest::prelude::*;
use tamp::query::orchestrator::chaos::{self, ChaosSpec};
use tamp::query::orchestrator::{Orchestrator, RetryPolicy};
use tamp::query::prelude::*;
use tamp::query::QueryError;
use tamp::runtime::FaultPlan;
use tamp::topology::builders;
use tamp::workloads::{GraphSpec, PlacementStrategy, VertexPartition};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn seeded_chaos_schedules_recover_bit_identically(seed in 0u64..1024) {
        let orch = Orchestrator::builder(chaos_context())
            .tenant(TenantSpec::new("t", 1, 64))
            .checkpoints(2)
            .build()
            .unwrap();
        let queries = workload();
        let reference: Vec<QueryResult> = queries
            .iter()
            .map(|q| chaos_context().prepare(q).unwrap().run().unwrap())
            .collect();

        // 3 plans vs the default 5-attempt budget: even if every fault
        // lands on one query, it recovers on attempt 4.
        let spec = ChaosSpec::new(seed).with_plans(3).with_max_round(3);
        let tree = orch.service().context().tree().clone();
        for plan in chaos::schedule(&tree, &spec) {
            orch.inject_faults(plan).unwrap();
        }

        for i in 0..6 {
            let k = i % queries.len();
            let served = orch
                .serve_as("t", &queries[k])
                .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
            prop_assert_eq!(
                served.result.rows(false),
                reference[k].rows(false),
                "seed {}: rows diverged under chaos",
                seed
            );
            prop_assert_eq!(
                &served.result.cost.edge_totals,
                &reference[k].cost.edge_totals,
                "seed {}: metered ledger diverged under chaos",
                seed
            );
        }
        // Every recovery that resumed from a checkpoint replayed only
        // the tail: replayed + skipped = that run's supersteps, with a
        // strictly positive skip.
        for rec in orch.recovery_events() {
            if let (Some(from), Some(replayed)) = (rec.resumed_from, rec.replayed_supersteps) {
                prop_assert!(from > 0);
                prop_assert_eq!(rec.skipped_supersteps, from);
                prop_assert!(replayed > 0);
            }
        }
    }

    #[test]
    fn total_loss_exhausts_after_exactly_max_attempts(
        seed in 0u64..64,
        max_attempts in 1u32..4,
    ) {
        let orch = Orchestrator::builder(chaos_context())
            .tenant(TenantSpec::new("t", 1, 64))
            .retry(RetryPolicy::new(max_attempts))
            .build()
            .unwrap();
        let tree = orch.service().context().tree().clone();
        let computes = tree.compute_nodes().to_vec();

        // Total loss, re-armed across every retry: each armed plan kills
        // *every* compute node at superstep 0, and there are more plans
        // than the retry budget.
        for _ in 0..(max_attempts + 2) {
            let mut plan = FaultPlan::new();
            for &v in &computes {
                plan = plan.kill_worker(v, (seed % 2) as usize);
            }
            orch.inject_faults(plan).unwrap();
        }

        let err = orch.serve_as("t", &workload()[0]).unwrap_err();
        match err {
            QueryError::RecoveryExhausted { attempts, .. } => {
                prop_assert_eq!(attempts, max_attempts, "seed {}", seed);
            }
            other => return Err(TestCaseError::fail(format!("expected exhaustion, got {other}"))),
        }
        prop_assert_eq!(orch.recovery_events().len(), max_attempts as usize);
        // Every kill in the fired plan is logged: one event per compute
        // node per attempt.
        let fired = orch.fault_events().len();
        prop_assert_eq!(fired, max_attempts as usize * computes.len());

        // Exhaustion drained the surplus plans: the next serve runs on a
        // healthy crew with nothing armed.
        let clean = orch.serve_as("t", &workload()[0]).unwrap();
        prop_assert_eq!(
            clean.result.rows(false),
            chaos_context().prepare(&workload()[0]).unwrap().run().unwrap().rows(false)
        );
        prop_assert_eq!(orch.fault_events().len(), fired);
    }
}

#[test]
fn killed_pagerank_resumes_from_the_last_iteration_checkpoint() {
    // An iterative job checkpointed at its iteration barriers
    // (`checkpoints(rounds_per_iteration)` ≡
    // `CheckpointSpec::at_iteration_barriers`): a worker killed
    // mid-fixpoint resumes from the last completed iteration, replays
    // strictly fewer supersteps than a from-scratch run, and still lands
    // on bit-identical final ranks and ledger.
    let c = chaos_context();
    let tree = c.tree().clone();
    let g = GraphSpec::power_law(80, 420, 1.0).generate(9);
    let owners = VertexPartition::Blocked(PlacementStrategy::Uniform).owners(&tree, &g, 9);
    let job = IterativeJob::pagerank(
        g.arcs().to_vec(),
        owners,
        0.5,
        IterativeSpec::jacobi(30, 1e-3),
    );

    // Fault-free reference, and the job's iteration geometry.
    let prepared = job.prepare(&tree).unwrap();
    let rpi = prepared.rounds_per_iteration();
    assert!(prepared.iterations() >= 3, "scenario needs a real fixpoint");
    let reference = prepared.run(&tree).unwrap();

    let orch = Orchestrator::builder(chaos_context())
        .tenant(TenantSpec::new("graphs", 1, 4).with_priority(Priority::Batch))
        .checkpoints(rpi)
        .build()
        .unwrap();
    // Kill mid-second-iteration: the first iteration barrier is already
    // snapshotted when the worker dies.
    let victim = tree.compute_nodes()[1];
    orch.inject_faults(FaultPlan::new().kill_worker(victim, rpi + 1))
        .unwrap();

    let served = orch.serve_iterative("graphs", &job).unwrap();
    assert_eq!(served.outcome.values, reference.values, "ranks diverged");
    assert_eq!(served.outcome.cost.edge_totals, reference.cost.edge_totals);
    assert_eq!(served.outcome.iterations, reference.iterations);

    // Exactly one recovery, resumed from an iteration barrier.
    let recs = orch.recovery_events();
    assert_eq!(recs.len(), 1);
    let from = recs[0].resumed_from.expect("resumed from a checkpoint");
    assert!(
        from > 0 && from.is_multiple_of(rpi),
        "resume superstep {from} is not an iteration barrier (rpi {rpi})"
    );
    assert_eq!(recs[0].skipped_supersteps, from);
    let replayed = recs[0].replayed_supersteps.expect("successful replay");
    assert!(
        replayed < served.outcome.supersteps,
        "replay must skip the checkpointed prefix ({replayed} vs {})",
        served.outcome.supersteps
    );
    let cp = orch.checkpoint_stats().unwrap();
    assert_eq!((cp.saved, cp.resumed, cp.retained), (1, 1, 0));

    // The faulted serve was the cache miss; the retry replayed the same
    // pinned prepared job. Fault-free, the second serve is a hit on that
    // job: identical ranks and ledger, no new recovery.
    assert!(!served.stats.cache_hit);
    let again = orch.serve_iterative("graphs", &job).unwrap();
    assert!(again.stats.cache_hit);
    assert_eq!(again.outcome.values, reference.values);
    assert_eq!(again.outcome.cost.edge_totals, reference.cost.edge_totals);
    assert_eq!(again.outcome.iterations, reference.iterations);
    assert_eq!(again.outcome.resumed_from, None);
    assert_eq!(orch.recovery_events().len(), 1);
}

#[test]
fn armed_plan_is_dropped_when_its_query_dies_before_the_trigger() {
    // Regression: an armed plan whose query errors before the trigger
    // superstep fires must fall with that query, not survive to fell the
    // next unrelated one.
    let orch = Orchestrator::builder(chaos_context())
        .tenant(TenantSpec::new("t", 1, 64))
        .build()
        .unwrap();
    let victim = orch.service().context().tree().compute_nodes()[0];
    orch.inject_faults(FaultPlan::new().kill_worker(victim, 0))
        .unwrap();

    // The doomed query dies at preparation — the armed kill never fires.
    let doomed = LogicalPlan::scan("no_such_table").aggregate("g", AggFunc::Sum, "x");
    let err = orch.serve_as("t", &doomed).unwrap_err();
    assert!(
        !err.is_recoverable(),
        "the plan must not fire on a query that never executed: {err}"
    );

    // The unrelated query must see a healthy crew: no fault, no recovery.
    let served = orch.serve_as("t", &workload()[0]).unwrap();
    let reference = chaos_context()
        .prepare(&workload()[0])
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(served.result.rows(false), reference.rows(false));
    assert!(orch.fault_events().is_empty(), "leaked armed plan fired");
    assert!(orch.recovery_events().is_empty());
}
