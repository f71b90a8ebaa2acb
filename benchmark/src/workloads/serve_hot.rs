//! `serve-hot`: the serving path users hit most. An [`Orchestrator`]
//! with two tenants and a crew pinned at the benchmark's width serves
//! the three x-serve plans (every one a plan-cache hit) and one small
//! seeded power-law PageRank. Planning is microseconds of the op; the
//! lumped `exec` — fragment compute, schedule build, crew replay,
//! superstep barrier, meter — and the orchestrator's admit → tick → pin
//! loop do the work. The planner does none.

use std::hint::black_box;

use tamp_query::prelude::*;
use tamp_runtime::{PooledClusterBackend, Schedule, ScheduleJob, WorkerPool};
use tamp_simulator::Placement;
use tamp_topology::Tree;

use crate::json::Json;
use crate::probes::{self, quiet_secs, Probes};
use crate::trace::Tracer;
use crate::workloads::serve::{observe_service, plans, service_attrs, tree_of, ServeInputs};
use crate::workloads::{digest, ensure_eq, Counts, Op, PlanReference, Workload};

const QUERY_TENANT: &str = "dashboards";
const BATCH_TENANT: &str = "graph-batch";

pub struct ServeHot {
    inputs: ServeInputs,
    plans: Vec<LogicalPlan>,
    reference: Vec<PlanReference>,
    pagerank: IterativeOutcome,
    evaluate_ms: f64,
}

impl ServeHot {
    pub fn generate(seed: u64, smoke: bool) -> ServeHot {
        let inputs = ServeInputs::generate(seed, smoke);
        let plans = plans();
        let tree = tree_of(&inputs);
        let (reference, evaluate_ms) = PlanReference::of(&inputs.context(&tree), &plans);
        let pagerank = inputs
            .pagerank()
            .prepare(&tree)
            .expect("pagerank converges")
            .run(&tree)
            .expect("serial pagerank replay");
        ServeHot {
            inputs,
            plans,
            reference,
            pagerank,
            evaluate_ms,
        }
    }

    fn orchestrator(&self, tree: &Tree, crew: usize) -> Orchestrator {
        Orchestrator::builder(self.inputs.context(tree))
            .tenant(TenantSpec::new(QUERY_TENANT, 4, 16).with_priority(Priority::Interactive))
            .tenant(TenantSpec::new(BATCH_TENANT, 1, 4).with_priority(Priority::Batch))
            .scaling(ScalingSpec::new(crew, crew))
            .build()
            .expect("valid orchestrator spec")
    }
}

struct HotOp<'w> {
    w: &'w ServeHot,
    orch: Orchestrator,
    job: IterativeJob,
    served: Vec<ServedQuery>,
    iterated: Option<ServedIterative>,
}

impl Op for HotOp<'_> {
    fn stage(&mut self) {
        self.served.clear();
        self.iterated = None;
    }

    fn run(&mut self, tr: &mut Tracer) -> Counts {
        let mut counts = Counts::default();
        for plan in &self.w.plans {
            let span = tr.enter("query.orchestrator.serve_as");
            let served = self
                .orch
                .serve_as(QUERY_TENANT, plan)
                .expect("serve_as succeeds");
            let s = served.stats;
            let wall_ns = tr.exit(span, &service_attrs(&s));
            let accounted_us = observe_service(tr, &s);
            tr.observe("query.service.queued_us", s.queued.as_secs_f64() * 1e6);
            tr.observe(
                "query.orchestrator.overhead_us",
                (wall_ns as f64 / 1e3 - accounted_us).max(0.0),
            );
            counts.add_cost(&served.result.cost, served.result.rounds);
            counts.supersteps += served.result.supersteps as u64;
            counts.cache_hits += u64::from(s.cache_hit);
            counts.cache_lookups += 1;
            self.served.push(served);
        }
        let span = tr.enter("query.orchestrator.serve_iterative");
        let iterated = self
            .orch
            .serve_iterative(BATCH_TENANT, &self.job)
            .expect("serve_iterative succeeds");
        let (s, o) = (iterated.stats, &iterated.outcome);
        tr.exit(
            span,
            &[
                ("queued_us", s.queued.as_secs_f64() * 1e6),
                ("prepare_us", s.plan.as_secs_f64() * 1e6),
                ("replay_us", s.exec.as_secs_f64() * 1e6),
                ("iterations", o.iterations.len() as f64),
                ("supersteps", o.supersteps as f64),
                ("tuple_cost", o.cost.tuple_cost()),
            ],
        );
        tr.observe("query.iterative.prepare_us", s.plan.as_secs_f64() * 1e6);
        tr.observe("query.iterative.replay_us", s.exec.as_secs_f64() * 1e6);
        counts.add_cost(&o.cost, o.rounds);
        counts.supersteps += o.supersteps as u64;
        counts.iterations = o.iterations.len() as u64;
        counts.iter_supersteps = o.supersteps as u64;
        self.iterated = Some(iterated);
        counts
    }

    fn check(&self) -> Result<u64, String> {
        let mut digests = Vec::new();
        for (k, (served, want)) in self.served.iter().zip(&self.w.reference).enumerate() {
            digests.push(want.check(k, &served.result)?);
        }
        let got = &self.iterated.as_ref().ok_or("no pagerank outcome")?.outcome;
        let want = &self.w.pagerank;
        ensure_eq("pagerank values", &got.values, &want.values)?;
        ensure_eq(
            "pagerank edge_totals",
            &got.cost.edge_totals,
            &want.cost.edge_totals,
        )?;
        let ranks: Vec<u64> = got
            .values
            .ranks()
            .ok_or("pagerank returned no ranks")?
            .iter()
            .map(|r| r.to_bits())
            .collect();
        digests.push(digest(&(ranks, &got.cost.edge_totals)));
        Ok(digest(&digests))
    }
}

impl Workload for ServeHot {
    fn generate_ms(&self) -> f64 {
        self.inputs.generate_ms
    }

    fn expected(&self) -> Counts {
        let mut counts = Counts::default();
        for r in &self.reference {
            counts.add_cost(&r.cost, r.rounds);
            // The cluster pays one terminal silent superstep per run.
            counts.supersteps += r.rounds as u64 + 1;
        }
        counts.add_cost(&self.pagerank.cost, self.pagerank.rounds);
        counts.iterations = self.pagerank.iterations.len() as u64;
        counts.iter_supersteps = self.pagerank.rounds as u64 + 1;
        counts.supersteps += counts.iter_supersteps;
        counts.cache_hits = self.plans.len() as u64;
        counts.cache_lookups = self.plans.len() as u64;
        counts
    }

    fn setup_then(&self, crew: usize, body: &mut dyn FnMut(&mut dyn Op)) {
        let tree = tree_of(&self.inputs);
        let orch = self.orchestrator(&tree, crew);
        // Warm the plan cache: the first arrival of each plan is a miss
        // by construction, and this workload is about the hits.
        for plan in &self.plans {
            orch.serve_as(QUERY_TENANT, plan)
                .expect("warm the plan cache");
        }
        body(&mut HotOp {
            w: self,
            orch,
            job: self.inputs.pagerank(),
            served: Vec::new(),
            iterated: None,
        });
    }

    fn probes(&self, crew: usize, out: &mut Probes) {
        let tree = tree_of(&self.inputs);
        out.set(
            "runtime.pool_spawn_ms",
            quiet_secs(20, || drop(black_box(WorkerPool::new(crew)))) * 1e3,
        );
        let pool = WorkerPool::new(crew);
        let idle = |_: usize| {};
        out.set(
            "runtime.pool_dispatch_us",
            quiet_secs(2000, || pool.run_with(&idle, || ())) * 1e6,
        );

        let ctx = self.inputs.context(&tree);
        let prepared: Vec<_> = self
            .plans
            .iter()
            .map(|q| ctx.prepare(q).expect("plan prepares"))
            .collect();
        let backend = PooledClusterBackend::with_shared_pool(crew);
        let cluster_us = quiet_secs(100, || {
            for p in &prepared {
                black_box(p.run_on(&backend).expect("cluster run"));
            }
        }) * 1e6;
        let sim_us = probes::run_sim_us(&ctx, &self.plans);
        out.set("runtime.cluster_run_us", cluster_us);
        out.set("query.exec.run_sim_us", sim_us);
        out.set("runtime.replay_overhead_us", cluster_us - sim_us);

        // A schedule of silent rounds costs the crew nothing but its
        // superstep machinery: dispatch, barrier, commit of an empty round.
        let silent_rounds = 32;
        let silent = ScheduleJob::new(
            "silent",
            tree.num_nodes(),
            Schedule {
                rounds: vec![Vec::new(); silent_rounds],
            },
        );
        let empty = Placement::empty(&tree);
        let mut supersteps = 0usize;
        let silent_us = quiet_secs(100, || {
            use tamp_runtime::ExecBackend;
            supersteps = backend
                .execute(&tree, &empty, &silent)
                .expect("silent replay")
                .supersteps;
        }) * 1e6;
        out.set(
            "runtime.us_per_superstep",
            silent_us / supersteps.max(1) as f64,
        );

        out.set(
            "simulator.commit_round_small_us",
            probes::commit_round_small_us(&tree),
        );
        out.set("query.reference.evaluate_ms", self.evaluate_ms);
    }

    fn sizes(&self) -> Json {
        self.inputs.sizes()
    }
}
