//! Layer probes: the lower layers' public functions called directly, on
//! the traced workload's own inputs, so each layer has a number of its
//! own beside the op it is part of. Every probe reports the quiet
//! quantile of its repetitions (see [`crate::stats`]).

use std::hint::black_box;
use std::time::Instant;

use tamp_query::prelude::*;
use tamp_runtime::SimulatorBackend;
use tamp_simulator::TrafficMeter;
use tamp_topology::Tree;

use crate::stats;

/// Named per-layer readings collected by a traced launch.
#[derive(Default)]
pub struct Probes {
    metrics: Vec<(&'static str, f64)>,
}

impl Probes {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn metrics(&self) -> &[(&'static str, f64)] {
        &self.metrics
    }
}

/// Quiet-quantile seconds of `reps` calls of `f`.
pub fn quiet_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    quiet_secs_staged(reps, || (), |()| f())
}

/// Like [`quiet_secs`], with an untimed `stage` before every timed call.
pub fn quiet_secs_staged<S>(
    reps: usize,
    mut stage: impl FnMut() -> S,
    mut f: impl FnMut(S),
) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let staged = stage();
            let start = Instant::now();
            f(staged);
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::quantile_of(&samples, stats::QUIET_Q)
}

/// `simulator.commit_round_small_us`: one committed round of a ring of
/// unicasts on the serving tree (sequential sweep, below the 4096-node
/// chunking threshold).
pub fn commit_round_small_us(tree: &Tree) -> f64 {
    let vc = tree.compute_nodes();
    let meter = std::cell::RefCell::new(TrafficMeter::new(tree));
    quiet_secs_staged(
        200,
        || {
            let mut m = meter.borrow_mut();
            for (i, &v) in vc.iter().enumerate() {
                m.charge_unicast(v, vc[(i + 1) % vc.len()], 3);
            }
        },
        |()| meter.borrow_mut().commit_round(),
    ) * 1e6
}

/// `query.exec.run_sim_us`: the op's plans, prepared once, run on the
/// simulator backend — fragment compute, schedule build, centralized
/// replay and metering, with no planner, cache, gate or crew.
pub fn run_sim_us(ctx: &QueryContext, plans: &[LogicalPlan]) -> f64 {
    let prepared: Vec<_> = plans
        .iter()
        .map(|q| ctx.prepare(q).expect("plan prepares"))
        .collect();
    quiet_secs(60, || {
        for p in &prepared {
            black_box(p.run_on(&SimulatorBackend).expect("simulator run"));
        }
    }) * 1e6
}
