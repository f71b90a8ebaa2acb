//! Integration tests for the multi-tenant service (`QueryService::builder`): weighted-fair
//! admission under adversarial bursts, fault injection with bit-identical
//! replay recovery, and a prepared plan's width-invariance across fixed
//! crews.

use std::sync::Arc;

use tamp::query::prelude::*;
use tamp::query::QueryError;
use tamp::runtime::{FaultPlan, PooledClusterBackend};
use tamp::topology::builders;

/// Serve while a chaos thread arms plans concurrently. Armed plans queue
/// FIFO in the injector, so a burst of arms can exhaust one query's
/// retry budget; the exhausting serve drains the queue, so retrying is
/// bounded and lands on a healthy crew.
fn serve_tolerating_exhaustion(
    service: &QueryService,
    tenant: &str,
    plan: &LogicalPlan,
) -> tamp::query::ServedQuery {
    loop {
        match service.serve_as(tenant, plan) {
            Ok(served) => return served,
            Err(QueryError::RecoveryExhausted { .. }) => continue,
            Err(e) => panic!("serve_as failed non-recoverably: {e}"),
        }
    }
}

fn orch_context() -> QueryContext {
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

#[test]
fn adversarial_burst_cannot_starve_polite_tenants() {
    const BURST_THREADS: usize = 6;
    const BURST_QUERIES: usize = 20;
    const POLITE_TENANTS: usize = 4;
    const POLITE_QUERIES: usize = 8;

    let mut builder = QueryService::builder(orch_context())
        .tenant(TenantSpec::new("burst", 1, 512))
        .capacity(2)
        .crew(2);
    for p in 0..POLITE_TENANTS {
        builder = builder.tenant(TenantSpec::new(format!("polite-{p}"), 4, 64));
    }
    let service = Arc::new(builder.build().unwrap());

    let queries = workload();
    let serial: Vec<QueryResult> = queries
        .iter()
        .map(|q| orch_context().prepare(q).unwrap().run().unwrap())
        .collect();

    std::thread::scope(|scope| {
        // The adversary: six threads flooding the weight-1 tenant.
        for t in 0..BURST_THREADS {
            let (service, queries, serial) = (&service, &queries, &serial);
            scope.spawn(move || {
                for i in 0..BURST_QUERIES {
                    let k = (t + i) % queries.len();
                    let served = service.serve_as("burst", &queries[k]).unwrap();
                    assert_eq!(served.result.rows(false), serial[k].rows(false));
                    assert_eq!(served.result.cost.edge_totals, serial[k].cost.edge_totals);
                }
            });
        }
        // The victims: four weight-4 tenants submitting politely.
        for p in 0..POLITE_TENANTS {
            let (service, queries, serial) = (&service, &queries, &serial);
            scope.spawn(move || {
                let tenant = format!("polite-{p}");
                for i in 0..POLITE_QUERIES {
                    let k = (p + i) % queries.len();
                    let served = service.serve_as(&tenant, &queries[k]).unwrap();
                    assert_eq!(served.result.rows(false), serial[k].rows(false));
                    assert_eq!(served.result.cost.edge_totals, serial[k].cost.edge_totals);
                }
            });
        }
    });

    let stats = service.tenant_stats();
    let total_weight: u64 = stats.iter().map(|t| u64::from(t.weight)).sum();
    for t in &stats {
        let want = if t.tenant == "burst" {
            (BURST_THREADS * BURST_QUERIES) as u64
        } else {
            POLITE_QUERIES as u64
        };
        assert_eq!(t.served, want, "tenant {} starved", t.tenant);
        assert_eq!(t.rejected, 0);
        if t.tenant != "burst" {
            // The structural no-starvation bound: a polite tenant with at
            // most one queued query waits through at most one DRR
            // rotation (~total weight) plus scheduling slack, no matter
            // how deep the burst queue is.
            assert!(
                t.max_waited_grants <= 2 * total_weight,
                "tenant {} waited {} grants (total weight {total_weight})",
                t.tenant,
                t.max_waited_grants
            );
        }
        assert!(t.queue_p50 <= t.queue_p99);
    }
}

#[test]
fn injected_faults_mid_stream_recover_bit_identically() {
    let service = Arc::new(
        QueryService::builder(orch_context())
            .tenant(TenantSpec::new("a", 2, 64))
            .tenant(TenantSpec::new("b", 1, 64))
            .capacity(2)
            .build()
            .unwrap(),
    );
    let queries = workload();
    let serial: Vec<QueryResult> = queries
        .iter()
        .map(|q| orch_context().prepare(q).unwrap().run().unwrap())
        .collect();
    let computes = service.context().tree().compute_nodes().to_vec();

    std::thread::scope(|scope| {
        for (ti, tenant) in ["a", "b"].into_iter().enumerate() {
            let (service, queries, serial) = (&service, &queries, &serial);
            scope.spawn(move || {
                for i in 0..24 {
                    let k = (ti + i) % queries.len();
                    let served = serve_tolerating_exhaustion(service, tenant, &queries[k]);
                    assert_eq!(
                        served.result.rows(false),
                        serial[k].rows(false),
                        "tenant {tenant} query {k}: rows diverged after fault"
                    );
                    assert_eq!(
                        served.result.cost.edge_totals, serial[k].cost.edge_totals,
                        "tenant {tenant} query {k}: ledgers diverged after fault"
                    );
                }
            });
        }
        // The chaos monkey: keep arming kill-worker plans while queries
        // stream. Plans queue FIFO in the injector — one consumed per
        // execution attempt — so a burst of arms can fell several
        // consecutive attempts of one run; the serving threads tolerate
        // retry exhaustion above.
        let (service, computes) = (&service, &computes);
        scope.spawn(move || {
            for round in 0..12 {
                let victim = computes[round % computes.len()];
                service
                    .inject_faults(FaultPlan::new().kill_worker(victim, round % 2))
                    .unwrap();
                std::thread::yield_now();
            }
        });
    });

    // Drain any plan still armed after the streams stopped, then verify
    // one guaranteed fault → recovery cycle end to end.
    let victim = computes[1];
    service
        .inject_faults(FaultPlan::new().kill_worker(victim, 0))
        .unwrap();
    let served = serve_tolerating_exhaustion(&service, "a", &queries[0]);
    assert_eq!(served.result.rows(false), serial[0].rows(false));
    assert_eq!(served.result.cost.edge_totals, serial[0].cost.edge_totals);

    let recoveries = service.recovery_events();
    assert!(!recoveries.is_empty(), "at least the final fault fired");
    let fired: usize = recoveries.iter().map(|r| r.faults.len()).sum();
    assert_eq!(
        fired,
        recoveries.len(),
        "every fired one-node kill triggered exactly one replay recovery"
    );
    let recovered_total: u64 = service.tenant_stats().iter().map(|t| t.recovered).sum();
    assert!(recovered_total >= 1);
}

#[test]
fn a_prepared_plan_is_width_invariant_across_fixed_crews() {
    // Exchange schedules are functions of (plan, catalog, topology) —
    // never of crew width — so one prepared plan replays to the same rows
    // and the same ledger on a fixed crew of any width.
    let ctx = orch_context();
    let prepared = ctx.prepare(&workload()[0]).unwrap();
    let want = prepared
        .run_on(&PooledClusterBackend::with_shared_pool(2))
        .unwrap();
    for width in [1, 3, 8, 2] {
        let got = prepared
            .run_on(&PooledClusterBackend::with_shared_pool(width))
            .unwrap();
        assert_eq!(got.rows(false), want.rows(false), "width {width}");
        assert_eq!(got.cost.edge_totals, want.cost.edge_totals, "width {width}");
    }
}
