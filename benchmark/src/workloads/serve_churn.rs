//! `serve-churn`: the service layer used the other way — writes and
//! misses beside `serve-hot`'s reads and hits. Same tree, tables and
//! plans through a [`QueryService`] on the simulator backend; each op
//! re-registers `dims` (catalog version bump, plan cache invalidated) and
//! serves the three plans, every one a miss. The optimizer, strategy
//! pricing, lower bounds and LCA routing dominate; the crew is bypassed.

use std::hint::black_box;
use std::sync::Arc;

use tamp_core::intersection::intersection_lower_bound;
use tamp_query::prelude::*;
use tamp_runtime::SimulatorBackend;
use tamp_simulator::{Placement, Rel};
use tamp_topology::{LcaIndex, Tree};

use crate::json::Json;
use crate::probes::{self, quiet_secs, quiet_secs_staged, Probes};
use crate::trace::Tracer;
use crate::workloads::serve::{observe_service, plans, service_attrs, tree_of, ServeInputs};
use crate::workloads::{digest, Counts, Op, PlanReference, Workload};

pub struct ServeChurn {
    inputs: ServeInputs,
    plans: Vec<LogicalPlan>,
    reference: Vec<PlanReference>,
    evaluate_ms: f64,
}

impl ServeChurn {
    pub fn generate(seed: u64, smoke: bool) -> ServeChurn {
        let inputs = ServeInputs::generate(seed, smoke);
        let plans = plans();
        let tree = tree_of(&inputs);
        let (reference, evaluate_ms) = PlanReference::of(&inputs.context(&tree), &plans);
        ServeChurn {
            inputs,
            plans,
            reference,
            evaluate_ms,
        }
    }
}

struct ChurnOp<'w> {
    w: &'w ServeChurn,
    tree: Tree,
    service: QueryService,
    staged: Option<DistributedTable>,
    served: Vec<ServedQuery>,
}

impl Op for ChurnOp<'_> {
    fn stage(&mut self) {
        self.served.clear();
        self.staged = Some(self.w.inputs.dims_table(&self.tree));
    }

    fn run(&mut self, tr: &mut Tracer) -> Counts {
        let mut counts = Counts::default();
        let table = self.staged.take().expect("stage() ran before run()");
        let span = tr.enter("query.service.register");
        let version = self.service.register(table).expect("register dims");
        let ns = tr.exit(span, &[("catalog_version", version as f64)]);
        tr.observe("query.service.register_us", ns as f64 / 1e3);

        for plan in &self.w.plans {
            let span = tr.enter("query.service.serve");
            let served = self.service.serve(plan).expect("serve succeeds");
            let s = served.stats;
            tr.exit(span, &service_attrs(&s));
            observe_service(tr, &s);
            counts.add_cost(&served.result.cost, served.result.rounds);
            counts.cache_hits += u64::from(s.cache_hit);
            counts.cache_lookups += 1;
            self.served.push(served);
        }
        counts
    }

    fn check(&self) -> Result<u64, String> {
        let mut digests = Vec::new();
        for (k, (served, want)) in self.served.iter().zip(&self.w.reference).enumerate() {
            digests.push(want.check(k, &served.result)?);
        }
        Ok(digest(&digests))
    }
}

impl Workload for ServeChurn {
    fn generate_ms(&self) -> f64 {
        self.inputs.generate_ms
    }

    fn expected(&self) -> Counts {
        let mut counts = Counts::default();
        for r in &self.reference {
            counts.add_cost(&r.cost, r.rounds);
        }
        counts.cache_lookups = self.plans.len() as u64;
        counts
    }

    fn setup_then(&self, _crew: usize, body: &mut dyn FnMut(&mut dyn Op)) {
        let tree = tree_of(&self.inputs);
        let service = QueryService::new(self.inputs.context(&tree), Arc::new(SimulatorBackend));
        body(&mut ChurnOp {
            w: self,
            tree,
            service,
            staged: None,
            served: Vec::new(),
        });
    }

    fn probes(&self, _crew: usize, out: &mut Probes) {
        let tree = tree_of(&self.inputs);
        let ctx = self.inputs.context(&tree);
        out.set(
            "query.optimizer.optimize_us",
            quiet_secs_staged(
                200,
                || self.plans.clone(),
                |plans| {
                    for q in plans {
                        black_box(optimize(q, ctx.catalog()).expect("plan optimizes"));
                    }
                },
            ) * 1e6,
        );
        out.set(
            "query.context.prepare_us",
            quiet_secs(60, || {
                for q in &self.plans {
                    black_box(ctx.prepare(q).expect("plan prepares"));
                }
            }) * 1e6,
        );
        out.set(
            "query.exec.run_sim_us",
            probes::run_sim_us(&ctx, &self.plans),
        );

        // What the planner leans on below the query crate: path walks on
        // the LCA index and the per-edge lower bound of a join's inputs.
        let lca = LcaIndex::new(&tree);
        let vc = tree.compute_nodes();
        let pairs = vc.len() * vc.len();
        out.set(
            "topology.path_edge_ns",
            quiet_secs(50, || {
                let mut edges = 0usize;
                for &a in vc {
                    for &b in vc {
                        lca.for_each_path_edge(a, b, |_| edges += 1);
                    }
                }
                black_box(edges);
            }) * 1e9
                / pairs as f64,
        );
        let mut placement = Placement::empty(&tree);
        for (i, row) in self.inputs.facts.iter().enumerate() {
            placement.push(vc[i % vc.len()], Rel::R, row[1]);
        }
        for (i, row) in self.inputs.dims.iter().enumerate() {
            placement.push(vc[i % vc.len()], Rel::S, row[0]);
        }
        let stats = placement.stats();
        out.set(
            "core.lower_bound_ms",
            quiet_secs(200, || {
                black_box(intersection_lower_bound(&tree, &stats));
            }) * 1e3,
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
