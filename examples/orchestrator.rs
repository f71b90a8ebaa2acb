//! A multi-tenant serving walkthrough: three tenants on one fixed crew,
//! and a worker killed mid-query that recovers by deterministic replay.
//!
//! The serving example showed one shared `QueryService` behind FIFO
//! admission. Built with `QueryService::builder`, the same type adds:
//!
//! 1. **weighted-fair admission** — three tenants with different DRR
//!    weights (and one in the `Interactive` priority class) share a
//!    deliberately small admission capacity, so grants interleave by
//!    weight instead of arrival order;
//! 2. **one fixed crew** — every query replays on the same two-worker
//!    shared crew; its width changes wall time only, never a row or a
//!    ledger;
//! 3. **one plan cache** — the batch tenant serves a PageRank twice:
//!    the second call is a cache hit that replays the prepared fixpoint;
//! 4. **fault injection + recovery** — a `FaultPlan` kills a worker at
//!    superstep 1 mid-query; the service resumes the prepared plan
//!    from the last superstep checkpoint on the healthy crew and the
//!    answer stays bit-identical, with the recovery log recording how
//!    many supersteps were replayed vs skipped.
//!
//! ```text
//! cargo run --release --example orchestrator
//! ```

use std::time::Instant;

use tamp::query::prelude::*;
use tamp::runtime::FaultPlan;
use tamp::topology::builders;

const QUERIES_PER_TENANT: usize = 30;
const CLIENTS_PER_TENANT: usize = 3;

fn context() -> QueryContext {
    let tree = builders::star(8, 1.0);
    let mut ctx = QueryContext::new(tree.clone()).with_seed(41);
    let facts: Vec<Vec<u64>> = (0..240).map(|i| vec![i, i % 10, (i * 47) % 1024]).collect();
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
            .filter(col("x").lt(lit(512)))
            .aggregate("g", AggFunc::Count, "id"),
        LogicalPlan::scan("facts").order_by("x").limit(20),
    ]
}

fn main() {
    // Three tenants: a heavy analytics tenant, a light batch tenant, and
    // an interactive dashboard that jumps the queue by priority class.
    let service = QueryService::builder(context())
        .tenant(TenantSpec::new("analytics", 4, 64))
        .tenant(TenantSpec::new("batch", 1, 64))
        .tenant(TenantSpec::new("dashboard", 2, 64).with_priority(Priority::Interactive))
        .capacity(2)
        .crew(2)
        .checkpoints(1)
        .build()
        .unwrap();
    println!(
        "service: capacity {}, crew {}\n",
        service.admission_stats().max_inflight,
        service.backend().name()
    );

    // Serial single-session ground truth for the bit-identity checks.
    let queries = workload();
    let serial_ctx = context();
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| serial_ctx.prepare(q).unwrap().run().unwrap())
        .collect();

    // Kill the worker on the first compute node at superstep 1, armed
    // before the streams start: some in-flight query will hit it.
    let victim = service.context().tree().compute_nodes()[0];
    let kill = FaultPlan::new().kill_worker(victim, 1);
    service.inject_faults(kill).unwrap();
    println!("armed fault: kill worker on node {victim} at superstep 1\n");

    let start = Instant::now();
    std::thread::scope(|scope| {
        for tenant in ["analytics", "batch", "dashboard"] {
            for c in 0..CLIENTS_PER_TENANT {
                let (service, queries, reference) = (&service, &queries, &reference);
                scope.spawn(move || {
                    for i in 0..QUERIES_PER_TENANT / CLIENTS_PER_TENANT {
                        let k = (c + i) % queries.len();
                        let served = service.serve_as(tenant, &queries[k]).unwrap();
                        assert_eq!(
                            served.result.rows(false),
                            reference[k].rows(false),
                            "{tenant}: rows diverged from single-session execution"
                        );
                        assert_eq!(
                            served.result.cost.edge_totals, reference[k].cost.edge_totals,
                            "{tenant}: metered ledger diverged"
                        );
                    }
                });
            }
        }
    });
    let wall = start.elapsed();
    let total = 3 * QUERIES_PER_TENANT;
    println!(
        "served {total} queries across 3 tenants in {:.1} ms, all bit-identical to serial\n",
        wall.as_secs_f64() * 1e3
    );

    // A fixpoint job goes through the same serve loop and the same
    // plan cache: the first serve prepares the PageRank (runs it locally
    // to convergence and builds its replay schedule), the second is a
    // cache hit that only replays it.
    let vc = service.context().tree().compute_nodes().to_vec();
    let n = 32u64;
    let arcs = (0..n)
        .flat_map(|u| [(u, (u + 1) % n), (u, (u * u + 1) % n)])
        .collect();
    let owners = (0..n).map(|v| vc[(v % 8) as usize]).collect();
    let pagerank = IterativeJob::pagerank(arcs, owners, 0.85, IterativeSpec::jacobi(60, 1e-6));
    let first = service.serve_iterative("batch", &pagerank).unwrap();
    let second = service.serve_iterative("batch", &pagerank).unwrap();
    assert_eq!(first.outcome.values, second.outcome.values);
    assert_eq!(
        first.outcome.cost.edge_totals,
        second.outcome.cost.edge_totals
    );
    for (call, served) in [("first", &first), ("second", &second)] {
        println!(
            "pagerank {call} serve: cache_hit {}, plan {:?}, replay {:?} ({} iterations)",
            served.stats.cache_hit,
            served.stats.plan,
            served.stats.exec,
            served.outcome.iterations.len()
        );
    }
    println!();

    // The recovery log: every killed attempt is one event naming the
    // nodes its fault felled, and records the partial restart — which
    // checkpointed superstep it resumed from, and how many supersteps
    // were replayed vs skipped.
    for rec in service.recovery_events() {
        let restart = match rec.resumed_from {
            Some(r) => format!(
                "resumed from checkpointed superstep {r} ({} replayed, {r} skipped)",
                rec.replayed_supersteps.unwrap_or(0),
            ),
            None => "replayed from superstep 0".to_string(),
        };
        for fault in &rec.faults {
            println!(
                "fault fired: node {} killed at superstep {} -> tenant '{}' \
                 (ticket #{}, attempt {}): {restart}, recovered bit-identical",
                fault.node, fault.round, rec.tenant, rec.ticket, rec.attempt
            );
        }
    }
    if service.recovery_events().is_empty() {
        println!("(fault did not fire: every query finished before superstep 1)");
    }
    if let Some(cp) = service.checkpoint_stats() {
        println!(
            "checkpoints: {} saved, {} resumed, {} still parked",
            cp.saved, cp.resumed, cp.retained
        );
    }

    // Per-tenant serving stats: DRR weights show up as queue-wait
    // separation; the interactive tenant pre-empts both classes.
    println!("\nper-tenant serving stats:");
    println!(
        "  {:<10} {:>6} {:>5} {:>6} {:>9} {:>7} {:>11} {:>11} {:>10}",
        "tenant",
        "weight",
        "prio",
        "served",
        "recovered",
        "skipped",
        "p50 queue",
        "p99 queue",
        "waited_max"
    );
    for t in service.tenant_stats() {
        println!(
            "  {:<10} {:>6} {:>5} {:>6} {:>9} {:>7} {:>11} {:>11} {:>10}",
            t.tenant,
            t.weight,
            format!("{:?}", t.priority)
                .chars()
                .take(5)
                .collect::<String>(),
            t.served,
            t.recovered,
            t.supersteps_skipped,
            format!("{:?}", t.queue_p50),
            format!("{:?}", t.queue_p99),
            t.max_waited_grants
        );
    }
}
