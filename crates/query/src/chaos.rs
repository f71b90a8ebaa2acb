//! Seeded chaos schedules: deterministic fault-plan generation for the
//! chaos harness.
//!
//! A chaos run arms a queue of single-fault [`FaultPlan`]s drawn from a
//! seeded RNG over the topology's *valid* targets — worker kills,
//! subtree detaches, link degradations and worker stalls — then serves
//! queries through a [`QueryService`](crate::QueryService)'s recovery
//! loop. Because the injector is a FIFO, one armed plan is consumed per
//! execution attempt: arming several plans re-arms faults *across
//! recovery retries*, which is exactly the adversarial shape the retry
//! bound exists for.
//!
//! Two properties make the harness assertable:
//!
//! - **Determinism per seed.** [`schedule`] is a pure function of
//!   `(tree, spec)`; the same seed generates the same fault sequence, so
//!   a failing chaos case replays exactly.
//! - **Bit-identical recovery.** Every generated fault is either
//!   recoverable (kill/detach/degrade abort the superstep; recovery
//!   replays the pinned deterministic schedule) or harmless (a stall
//!   without a watchdog), so a served query's rows and `edge_totals`
//!   must equal the fault-free run's — the proptests and the `x-chaos`
//!   release gate assert this across many seeds.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tamp_runtime::FaultPlan;
use tamp_topology::{EdgeId, Tree};

/// Shape of one seeded chaos schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed of the deterministic fault sequence.
    pub seed: u64,
    /// Fault plans to generate (the injector consumes one per execution
    /// attempt, so this is also the number of attempts the schedule can
    /// disturb).
    pub plans: usize,
    /// Fault trigger supersteps are drawn from `0..max_round` (floored
    /// at 1).
    max_round: usize,
}

impl ChaosSpec {
    /// A 3-plan schedule over supersteps `0..3` for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosSpec {
            seed,
            plans: 3,
            max_round: 3,
        }
    }

    /// Builder-style: set the number of generated plans.
    pub fn with_plans(mut self, plans: usize) -> Self {
        self.plans = plans;
        self
    }

    /// Builder-style: set the exclusive upper bound on trigger
    /// supersteps.
    pub fn with_max_round(mut self, max_round: usize) -> Self {
        self.max_round = max_round;
        self
    }
}

/// Generate the deterministic fault schedule for `spec` over `tree`:
/// `spec.plans` single-fault plans, each drawn uniformly over the valid
/// targets. Every returned plan passes
/// [`FaultPlan::validate`] for `tree` by construction.
pub fn schedule(tree: &Tree, spec: &ChaosSpec) -> Vec<FaultPlan> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.plans)
        .map(|_| one_plan(tree, &mut rng, spec.max_round.max(1)))
        .collect()
}

fn one_plan(tree: &Tree, rng: &mut StdRng, max_round: usize) -> FaultPlan {
    let computes = tree.compute_nodes();
    let victim = computes[rng.random_range(0..computes.len())];
    let round = rng.random_range(0..max_round);
    match rng.random_range(0..4u32) {
        0 => FaultPlan::new().kill_worker(victim, round),
        // Any compute node is a valid detach root. Under the internal
        // rooting at node 0 that is one leaf, except node 0 itself (the
        // first compute of `star(n)`), whose detach fells every compute.
        1 => FaultPlan::new().detach_subtree(victim, round),
        2 => {
            let edge = EdgeId(rng.random_range(0..tree.num_edges() as u32));
            let factor = [2.0, 4.0, 8.0][rng.random_range(0..3usize)];
            FaultPlan::new().degrade_edge(edge, round, factor)
        }
        _ => {
            let delay = Duration::from_micros(rng.random_range(50..500u64));
            FaultPlan::new().stall_worker(victim, round, delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_topology::builders;

    #[test]
    fn schedules_are_deterministic_per_seed_and_always_valid() {
        let tree = builders::rack_tree(&[(3, 1.0, 2.0), (2, 2.0, 1.0)], 1.0);
        for seed in 0..32 {
            let spec = ChaosSpec::new(seed).with_plans(5).with_max_round(4);
            let a = schedule(&tree, &spec);
            let b = schedule(&tree, &spec);
            assert_eq!(a, b, "seed {seed} must replay");
            assert_eq!(a.len(), 5);
            for plan in &a {
                plan.validate(&tree)
                    .unwrap_or_else(|e| panic!("seed {seed} generated invalid plan: {e}"));
            }
        }
        // Different seeds diverge (collision over 32 seeds would mean a
        // broken generator, not bad luck).
        let all: Vec<_> = (0..32)
            .map(|seed| schedule(&tree, &ChaosSpec::new(seed).with_plans(5)))
            .collect();
        assert!(all.windows(2).any(|w| w[0] != w[1]));
    }
}
