//! X-TENANT — the orchestration layer under adversarial multi-tenant
//! load, measured.
//!
//! One multi-tenant [`QueryService`] over a star topology serves **1,041 sessions
//! across 9 tenants**: a weight-1 "burst" tenant flooding from 16
//! threads (the adversary) against eight weight-4 "polite" tenants
//! submitting steadily (the victims), through a deliberately small
//! admission capacity so queues build and every subsystem is exercised
//! at once:
//!
//! - **weighted-fair admission** — deficit-weighted round-robin must
//!   keep every polite tenant inside its structural wait bound
//!   (`max_waited_grants` ≲ one rotation of total weight) no matter how
//!   deep the burst queue grows;
//! - **fault injection + replay recovery** — a chaos thread keeps
//!   arming kill-worker plans mid-stream, and a final guaranteed
//!   kill-at-round-0 closes the run; every faulted query must recover
//!   to results bit-identical to the serial reference.
//!
//! Every session replays on one fixed two-worker crew. The `cost`
//! column is the workload's deterministic metered tuple cost.
//! Per-tenant waits, cache hits and fault counts depend on thread
//! timing, so their columns are printed but not pinned by the baseline.

use tamp_query::prelude::*;
use tamp_query::QueryError;
use tamp_runtime::FaultPlan;
use tamp_topology::builders;

use crate::table::{fnum, Table};

/// Threads flooding the weight-1 burst tenant.
pub const BURST_THREADS: usize = 16;
/// Sessions per burst thread.
pub const BURST_QUERIES: usize = 40;
/// Polite tenants (one submitting thread each).
pub const POLITE_TENANTS: usize = 8;
/// Sessions per polite tenant.
pub const POLITE_QUERIES: usize = 50;
/// Shared admission capacity (small on purpose: queues must build).
const CAPACITY: usize = 3;

/// Total sessions the scenario serves (incl. the final guaranteed
/// fault-recovery session): 16×40 + 8×50 + 1 = 1,041.
const SESSIONS: usize = BURST_THREADS * BURST_QUERIES + POLITE_TENANTS * POLITE_QUERIES + 1;

fn tenant_context() -> QueryContext {
    let tree = builders::star(8, 1.0);
    let mut ctx = QueryContext::new(tree.clone()).with_seed(59);
    let facts: Vec<Vec<u64>> = (0..160).map(|i| vec![i, i % 8, (i * 43) % 512]).collect();
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
            .filter(col("x").lt(lit(256)))
            .aggregate("g", AggFunc::Count, "id"),
        LogicalPlan::scan("facts").order_by("x").limit(16),
    ]
}

/// One full adversarial-burst run, verified.
pub struct TenantMeasurement {
    /// Per-tenant serving stats, in registration order.
    pub stats: Vec<TenantStats>,
    /// Every served result matched the serial reference bit for bit
    /// (rows and metered `edge_totals`) — including fault-recovered
    /// queries.
    pub(crate) identical: bool,
    /// Faults that fired mid-run: the recovery events' `faults`, summed.
    pub(crate) faults_fired: usize,
    /// Replay recoveries performed (one per killed attempt).
    pub recoveries: usize,
    /// Deterministic metered tuple cost of one workload pass.
    pub(crate) workload_cost: f64,
}

/// Serve under active chaos. The injector is a FIFO, so a chaos thread
/// arming plans faster than queries drain them can exhaust one query's
/// retry budget; exhaustion drains the armed queue, so retrying the
/// serve is bounded and lands on a healthy crew.
fn serve_tolerating_exhaustion(
    service: &QueryService,
    tenant: &str,
    plan: &tamp_query::LogicalPlan,
) -> tamp_query::ServedQuery {
    loop {
        match service.serve_as(tenant, plan) {
            Ok(served) => return served,
            Err(QueryError::RecoveryExhausted { .. }) => continue,
            Err(e) => panic!("serve_as failed non-recoverably: {e}"),
        }
    }
}

/// Run the adversarial scenario: burst vs polite tenants with
/// chaos-injected faults, checking every answer.
pub fn measure() -> TenantMeasurement {
    let queries = workload();
    let serial: Vec<QueryResult> = {
        let ctx = tenant_context();
        queries
            .iter()
            .map(|q| ctx.prepare(q).unwrap().run().unwrap())
            .collect()
    };
    let workload_cost: f64 = serial.iter().map(|r| r.cost.tuple_cost()).sum();

    let mut builder = QueryService::builder(tenant_context())
        .tenant(TenantSpec::new("burst", 1, 1024))
        .capacity(CAPACITY)
        .crew(2);
    for p in 0..POLITE_TENANTS {
        builder = builder.tenant(TenantSpec::new(format!("polite-{p}"), 4, 64));
    }
    let service = builder.build().unwrap();
    let computes = service.context().tree().compute_nodes().to_vec();

    let identical = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..BURST_THREADS {
            let (service, queries, serial) = (&service, &queries, &serial);
            handles.push(scope.spawn(move || {
                let mut ok = true;
                for i in 0..BURST_QUERIES {
                    let k = (t + i) % queries.len();
                    let served = serve_tolerating_exhaustion(service, "burst", &queries[k]);
                    ok &= served.result.rows(false) == serial[k].rows(false)
                        && served.result.cost.edge_totals == serial[k].cost.edge_totals;
                }
                ok
            }));
        }
        for p in 0..POLITE_TENANTS {
            let (service, queries, serial) = (&service, &queries, &serial);
            handles.push(scope.spawn(move || {
                let tenant = format!("polite-{p}");
                let mut ok = true;
                for i in 0..POLITE_QUERIES {
                    let k = (p + i) % queries.len();
                    let served = serve_tolerating_exhaustion(service, &tenant, &queries[k]);
                    ok &= served.result.rows(false) == serial[k].rows(false)
                        && served.result.cost.edge_totals == serial[k].cost.edge_totals;
                }
                ok
            }));
        }
        // The chaos thread: one-shot kill plans armed while sessions
        // stream. Plans queue FIFO in the injector, so a burst of arms
        // can fell several consecutive attempts of one run — the serving
        // threads tolerate retry exhaustion above.
        {
            let (service, computes) = (&service, &computes);
            handles.push(scope.spawn(move || {
                for round in 0..16 {
                    let victim = computes[round % computes.len()];
                    let kill = FaultPlan::new().kill_worker(victim, round % 2);
                    service.inject_faults(kill).unwrap();
                    std::thread::yield_now();
                }
                true
            }));
        }
        handles.into_iter().all(|h| h.join().unwrap())
    });

    // Final guaranteed fault → recovery cycle (also drains any plan the
    // chaos thread left armed): kill at round 0 cannot be missed.
    let kill = FaultPlan::new().kill_worker(computes[0], 0);
    service.inject_faults(kill).unwrap();
    let served = serve_tolerating_exhaustion(&service, "burst", &queries[0]);
    let identical = identical
        && served.result.rows(false) == serial[0].rows(false)
        && served.result.cost.edge_totals == serial[0].cost.edge_totals;

    let recoveries = service.recovery_events();
    TenantMeasurement {
        stats: service.tenant_stats(),
        identical,
        faults_fired: recoveries.iter().map(|r| r.faults.len()).sum(),
        recoveries: recoveries.len(),
        workload_cost,
    }
}

/// X-TENANT — weighted-fair multi-tenant orchestration: adversarial
/// burst vs polite tenants and chaos faults on one fixed crew, all
/// bit-identical.
pub(crate) fn x_tenant() -> Vec<Table> {
    let m = measure();

    let mut per = Table::new(
        "X-TENANT  per-tenant serving under a 16-thread adversarial burst (DRR admission)",
        &[
            "tenant",
            "weight",
            "prio",
            "served",
            "rejected",
            "cache_hit%",
            "recovered",
            "waited_max",
            "queue_p50_us",
            "queue_p99_us",
        ],
    )
    .unpinned(&[
        "cache_hit%",
        "recovered",
        "waited_max",
        "queue_p50_us",
        "queue_p99_us",
    ]);
    for t in &m.stats {
        let hit_pct = if t.served == 0 {
            0.0
        } else {
            100.0 * t.cache_hits as f64 / t.served as f64
        };
        per.row(vec![
            t.tenant.clone(),
            t.weight.to_string(),
            format!("{:?}", t.priority),
            t.served.to_string(),
            t.rejected.to_string(),
            fnum(hit_pct),
            t.recovered.to_string(),
            t.max_waited_grants.to_string(),
            t.queue_p50.as_micros().to_string(),
            t.queue_p99.as_micros().to_string(),
        ]);
    }
    per.note(
        "Expected shape: no tenant starves (served = submitted, rejected = 0); each \
         weight-4 polite tenant's waited_max stays \u{2264} ~2 rotations of total weight \
         (the structural DRR bound) while the weight-1 burst tenant absorbs the queueing. \
         Waits and percentiles are wall-clock (machine-dependent).",
    );

    let mut sum = Table::new(
        "X-TENANT  orchestrator run summary (fault replay)",
        &[
            "sessions",
            "tenants",
            "capacity",
            "faults",
            "recoveries",
            "identical",
            "cost",
        ],
    )
    .unpinned(&["faults", "recoveries"]);
    sum.row(vec![
        SESSIONS.to_string(),
        m.stats.len().to_string(),
        CAPACITY.to_string(),
        m.faults_fired.to_string(),
        m.recoveries.to_string(),
        if m.identical { "yes" } else { "NO" }.into(),
        fnum(m.workload_cost),
    ]);
    sum.note(
        "Expected shape: identical = yes (every session, fault-recovered or not, matches \
         the serial reference bit for bit). `cost` is the deterministic metered signal; \
         fault counts depend on thread timing.",
    );
    vec![per, sum]
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn adversarial_burst_run_is_fair_identical_and_replayable() {
        let m = measure();
        assert!(m.identical, "a served result diverged from serial");
        assert_eq!(m.stats.len(), 1 + POLITE_TENANTS);
        assert!(SESSIONS >= 1000 && m.stats.len() >= 8);
        assert_eq!(
            m.faults_fired, m.recoveries,
            "every fired fault must trigger exactly one replay recovery"
        );
        assert!(m.recoveries >= 1, "the guaranteed final fault must fire");
        let total_weight: u64 = m.stats.iter().map(|t| u64::from(t.weight)).sum();
        for t in &m.stats {
            assert_eq!(t.rejected, 0, "tenant {} was rejected", t.tenant);
            let want = if t.tenant == "burst" {
                (BURST_THREADS * BURST_QUERIES + 1) as u64
            } else {
                POLITE_QUERIES as u64
            };
            assert_eq!(t.served, want, "tenant {} starved", t.tenant);
            if t.tenant != "burst" {
                assert!(
                    t.max_waited_grants <= 2 * total_weight,
                    "tenant {} waited {} grants (total weight {total_weight})",
                    t.tenant,
                    t.max_waited_grants
                );
            }
        }
    }

    /// Release gate (no-starvation): under the 16-thread burst, every
    /// polite tenant's p99 queue wait stays bounded — within a small
    /// constant of the adversary's own p99 (relative, so the bar holds
    /// on slow machines). Wall-clock sensitive, so `#[ignore]`d here and
    /// enforced by CI against the release build.
    #[test]
    #[ignore = "wall-clock acceptance bar; run in release (CI does)"]
    fn polite_p99_queue_wait_is_bounded_under_burst() {
        let m = measure();
        assert!(m.identical);
        let burst_p99 = m
            .stats
            .iter()
            .find(|t| t.tenant == "burst")
            .unwrap()
            .queue_p99;
        // Slack floor absorbs timer granularity when queues never build.
        let bound = burst_p99.max(Duration::from_millis(5)) * 4;
        for t in m.stats.iter().filter(|t| t.tenant != "burst") {
            assert!(
                t.queue_p99 <= bound,
                "{}: p99 {:?} exceeds bound {:?} (burst p99 {:?})",
                t.tenant,
                t.queue_p99,
                bound,
                burst_p99
            );
        }
    }

    /// Release gate (fault replay): chaos-injected kills mid-stream plus
    /// a guaranteed kill-at-round-0 all recover to bit-identical
    /// results, one replay per fired fault.
    #[test]
    #[ignore = "full adversarial rerun; run in release (CI does)"]
    fn fault_injected_sessions_recover_bit_identically() {
        let m = measure();
        assert!(m.identical, "a fault-recovered result diverged");
        assert!(m.recoveries >= 1);
        assert_eq!(m.faults_fired, m.recoveries);
        // Per-tenant `recovered` counts *queries*; `recoveries` counts
        // replay *events*. A query can be felled twice when the chaos
        // thread re-arms a kill between its failure and its replay, so
        // queries ≤ events.
        let recovered: u64 = m.stats.iter().map(|t| t.recovered).sum();
        assert!(
            recovered >= 1 && recovered <= m.recoveries as u64,
            "{recovered} recovered queries vs {} recovery events",
            m.recoveries
        );
    }
}
