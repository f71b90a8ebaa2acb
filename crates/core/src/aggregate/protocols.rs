//! All-to-one aggregation protocols on symmetric trees.
//!
//! Three algorithms with increasing topology- and distribution-awareness:
//!
//! | Protocol | Rounds | Traffic on edge `e` (toward target) |
//! |----------|--------|--------------------------------------|
//! | [`NaiveAggregate`] | 1 | all raw tuples on the far side |
//! | [`FlatPartialAggregate`] | 1 | `Σ_{v far} g_v` (per-node partials) |
//! | [`CombiningTreeAggregate`] | O(depth) | ≈ groups present below `e` |
//!
//! The combining protocol designates one *combiner* compute node per
//! subtree (the one holding the most data, so the heaviest merge is a free
//! self-send), and converges partials level by level toward the target.
//! On a uniform-bandwidth star its cost meets
//! [`aggregation_lower_bound`](super::aggregation_lower_bound) exactly on
//! the bottleneck edge.

use std::collections::BTreeMap;

use tamp_simulator::{Protocol, Rel, Session, SimError, Value};
use tamp_topology::{NodeId, Tree};

use super::{encode_partials, merge_partials, partials_of, Aggregator};

/// A rooting of the physical tree at an arbitrary node, with parent
/// pointers, BFS depths and children lists. Shared by the aggregation
/// protocols, which all orient traffic toward a target.
#[derive(Clone, Debug)]
pub(crate) struct Rooted {
    /// Parent of each node (`None` for the root).
    pub parent: Vec<Option<NodeId>>,
    /// Hop distance from the root.
    pub depth: Vec<usize>,
    /// Children lists.
    pub children: Vec<Vec<NodeId>>,
    /// Nodes in BFS order from the root.
    pub order: Vec<NodeId>,
}

impl Rooted {
    /// Root `tree` at `root` via BFS.
    pub fn at(tree: &Tree, root: NodeId) -> Self {
        let n = tree.num_nodes();
        let mut parent = vec![None; n];
        let mut depth = vec![usize::MAX; n];
        let mut children = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        depth[root.index()] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &(v, _) in tree.neighbors(u) {
                if depth[v.index()] == usize::MAX {
                    depth[v.index()] = depth[u.index()] + 1;
                    parent[v.index()] = Some(u);
                    children[u.index()].push(v);
                    queue.push_back(v);
                }
            }
        }
        Rooted {
            parent,
            depth,
            children,
            order,
        }
    }
}

fn require_compute(tree: &Tree, target: NodeId) -> Result<(), SimError> {
    if !tree.is_compute(target) {
        return Err(SimError::Protocol(format!(
            "aggregation target {target:?} is not a compute node"
        )));
    }
    Ok(())
}

fn finish_at_target(
    session: &Session<'_>,
    target: NodeId,
    agg: Aggregator,
    raw: bool,
) -> Vec<(u64, u64)> {
    let st = session.state(target);
    let mut acc: BTreeMap<u64, u64> = partials_of(&st.r, agg);
    let inbox = if raw {
        partials_of(&st.s, agg)
    } else {
        merge_partials(&st.s, agg)
    };
    for (g, m) in inbox {
        acc.entry(g)
            .and_modify(|p| *p = agg.combine(*p, m))
            .or_insert(m);
    }
    acc.into_iter().collect()
}

/// Strawman: every node ships its raw tuples to the target in one round.
///
/// This is the topology- and distribution-agnostic baseline; its cost on
/// edge `e` is the full raw data size of the far side.
#[derive(Clone, Debug)]
pub struct NaiveAggregate {
    target: NodeId,
    agg: Aggregator,
}

impl NaiveAggregate {
    /// Aggregate everything at `target` with `agg`.
    pub fn new(target: NodeId, agg: Aggregator) -> Self {
        NaiveAggregate { target, agg }
    }
}

impl Protocol for NaiveAggregate {
    type Output = Vec<(u64, u64)>;

    fn name(&self) -> String {
        format!("naive-aggregate({})", self.agg.name())
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        require_compute(tree, self.target)?;
        let target = self.target;
        session.round(|round| {
            for &v in tree.compute_nodes() {
                if v == target {
                    continue;
                }
                round.send(v, &[target], Rel::S, &round.state(v).r)?;
            }
            Ok(())
        })?;
        Ok(finish_at_target(session, target, self.agg, true))
    }
}

/// One-round pre-aggregation: each node folds its local tuples into one
/// partial per local group and sends those to the target.
#[derive(Clone, Debug)]
pub struct FlatPartialAggregate {
    target: NodeId,
    agg: Aggregator,
}

impl FlatPartialAggregate {
    /// Aggregate everything at `target` with `agg`.
    pub fn new(target: NodeId, agg: Aggregator) -> Self {
        FlatPartialAggregate { target, agg }
    }
}

impl Protocol for FlatPartialAggregate {
    type Output = Vec<(u64, u64)>;

    fn name(&self) -> String {
        format!("flat-partial-aggregate({})", self.agg.name())
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        require_compute(tree, self.target)?;
        let target = self.target;
        let agg = self.agg;
        session.round(|round| {
            for &v in tree.compute_nodes() {
                if v == target {
                    continue;
                }
                let partials = encode_partials(&partials_of(&round.state(v).r, agg));
                round.send(v, &[target], Rel::S, &partials)?;
            }
            Ok(())
        })?;
        Ok(finish_at_target(session, target, self.agg, false))
    }
}

/// Hierarchical in-network combining convergecast.
///
/// The tree is rooted at the target. Every subtree gets a *combiner*: the
/// compute node below it holding the most data (ties to the smallest id),
/// so that the largest child merge is a free self-send. Levels are
/// processed bottom-up, one round per level that actually moves data; the
/// traffic crossing a subtree's up-edge is one partial per distinct group
/// present in the subtree.
#[derive(Clone, Debug)]
pub struct CombiningTreeAggregate {
    target: NodeId,
    agg: Aggregator,
}

impl CombiningTreeAggregate {
    /// Aggregate everything at `target` with `agg`.
    pub fn new(target: NodeId, agg: Aggregator) -> Self {
        CombiningTreeAggregate { target, agg }
    }
}

/// The convergecast merge schedule: for each level (deepest first, empty
/// levels omitted), the `(source combiner, destination combiner)` moves.
/// A deterministic function of `(tree, per-node weights, target)`, so a
/// distributed node can re-derive it locally from the §2 model knowledge —
/// the query layer's `combining-tree` strategy does exactly that.
pub fn combining_schedule(
    tree: &Tree,
    weights: &[u64],
    target: NodeId,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let rooted = Rooted::at(tree, target);
    let n = tree.num_nodes();
    // Subtree data weight and combiner, bottom-up (reverse BFS order).
    let mut subtree_n: Vec<u64> = (0..n)
        .map(|i| {
            let v = NodeId(i as u32);
            if tree.is_compute(v) {
                weights[v.index()]
            } else {
                0
            }
        })
        .collect();
    let mut combiner: Vec<Option<NodeId>> = (0..n)
        .map(|i| {
            let v = NodeId(i as u32);
            tree.is_compute(v).then_some(v)
        })
        .collect();
    for &u in rooted.order.iter().rev() {
        if tree.is_compute(u) {
            continue; // compute nodes are their own combiner
        }
        // Prefer the *shallowest* child combiner (merging there keeps
        // light siblings' partials from travelling deep into a heavy
        // subtree and back), then the heaviest subtree (its merge is a
        // free self-send), then the smallest id for determinism.
        let mut best: Option<(usize, u64, NodeId)> = None;
        let mut total = 0u64;
        for &c in &rooted.children[u.index()] {
            total += subtree_n[c.index()];
            if let Some(cc) = combiner[c.index()] {
                let key = (rooted.depth[cc.index()], subtree_n[c.index()], cc);
                let better = match best {
                    None => true,
                    Some((bd, bn, bc)) => {
                        key.0 < bd
                            || (key.0 == bd && key.1 > bn)
                            || (key.0 == bd && key.1 == bn && cc < bc)
                    }
                };
                if better {
                    best = Some(key);
                }
            }
        }
        subtree_n[u.index()] = total;
        combiner[u.index()] = best.map(|(_, _, c)| c);
    }
    combiner[target.index()] = Some(target);

    // Merge levels, deepest parents first: every node pushes its
    // combiner up to its parent's combiner, at the level indexed by the
    // parent's depth. (BFS order visits a parent's children contiguously,
    // so this enumerates the same moves as walking children lists.)
    let max_depth = rooted
        .order
        .iter()
        .map(|&v| rooted.depth[v.index()])
        .max()
        .unwrap_or(0);
    let mut levels = Vec::new();
    for d in (0..max_depth).rev() {
        let mut moves: Vec<(NodeId, NodeId)> = Vec::new();
        for &c in &rooted.order {
            let Some(u) = rooted.parent[c.index()] else {
                continue; // the root has nowhere to push
            };
            if rooted.depth[u.index()] != d {
                continue;
            }
            if let (Some(src), Some(dst)) = (combiner[c.index()], combiner[u.index()]) {
                if src != dst {
                    moves.push((src, dst));
                }
            }
        }
        if !moves.is_empty() {
            levels.push(moves);
        }
    }
    levels
}

impl Protocol for CombiningTreeAggregate {
    type Output = Vec<(u64, u64)>;

    fn name(&self) -> String {
        format!("combining-tree-aggregate({})", self.agg.name())
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        let tree = session.tree();
        require_compute(tree, self.target)?;
        let target = self.target;
        let agg = self.agg;
        let stats = session.stats().clone();
        let schedule = combining_schedule(tree, &stats.n, target);

        // Running partials per compute node, seeded from local data.
        let n = tree.num_nodes();
        let mut acc: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); n];
        for &v in tree.compute_nodes() {
            acc[v.index()] = partials_of(&session.state(v).r, agg);
        }

        for moves in schedule {
            let payloads: Vec<(NodeId, NodeId, Vec<Value>)> = moves
                .into_iter()
                .map(|(src, dst)| {
                    let vals = encode_partials(&acc[src.index()]);
                    (src, dst, vals)
                })
                .collect();
            session.round(|round| {
                for (src, dst, vals) in &payloads {
                    round.send(*src, &[*dst], Rel::S, vals)?;
                }
                Ok(())
            })?;
            for (src, dst, _) in payloads {
                let moved = std::mem::take(&mut acc[src.index()]);
                let dst_acc = &mut acc[dst.index()];
                for (g, m) in moved {
                    dst_acc
                        .entry(g)
                        .and_modify(|p| *p = agg.combine(*p, m))
                        .or_insert(m);
                }
            }
        }

        Ok(std::mem::take(&mut acc[target.index()])
            .into_iter()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregation_lower_bound, encode, reference_aggregate};
    use tamp_simulator::{run_protocol, Placement};
    use tamp_topology::builders;

    fn grouped_placement(tree: &Tree, groups: u64, per_node: u64, seed: u64) -> Placement {
        let mut p = Placement::empty(tree);
        for (i, &v) in tree.compute_nodes().iter().enumerate() {
            for j in 0..per_node {
                let g = crate::hashing::mix64(seed ^ (i as u64) << 20 ^ j) % groups;
                let m = (j % 100) + 1;
                p.push(v, Rel::R, encode(g, m));
            }
        }
        p
    }

    fn check_all(tree: &Tree, p: &Placement, target: NodeId, agg: Aggregator) {
        let all = p.all_r();
        let want: Vec<(u64, u64)> = reference_aggregate(&all, agg).into_iter().collect();
        let naive = run_protocol(tree, p, &NaiveAggregate::new(target, agg)).unwrap();
        let flat = run_protocol(tree, p, &FlatPartialAggregate::new(target, agg)).unwrap();
        let comb = run_protocol(tree, p, &CombiningTreeAggregate::new(target, agg)).unwrap();
        assert_eq!(naive.output, want, "naive {agg:?}");
        assert_eq!(flat.output, want, "flat {agg:?}");
        assert_eq!(comb.output, want, "combining {agg:?}");
        // Pre-aggregation never costs more than shipping raw tuples. (The
        // multi-round combining variant can exceed flat on adversarial
        // trees — its wins are asserted on the structured topologies.)
        assert!(flat.cost.tuple_cost() <= naive.cost.tuple_cost() + 1e-9);
    }

    #[test]
    fn all_protocols_agree_on_star() {
        let t = builders::star(5, 1.0);
        let p = grouped_placement(&t, 8, 50, 3);
        for agg in [
            Aggregator::Count,
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
        ] {
            check_all(&t, &p, NodeId(0), agg);
        }
    }

    #[test]
    fn all_protocols_agree_on_rack_tree() {
        let t = builders::rack_tree(&[(3, 1.0, 2.0), (4, 2.0, 1.0), (2, 1.0, 4.0)], 1.5);
        let p = grouped_placement(&t, 16, 40, 7);
        let target = t.compute_nodes()[4];
        check_all(&t, &p, target, Aggregator::Sum);
    }

    #[test]
    fn all_protocols_agree_on_random_trees() {
        for seed in 0..8u64 {
            let t = builders::random_tree(7, 4, 0.5, 3.0, seed);
            let p = grouped_placement(&t, 5, 30, seed);
            let target = t.compute_nodes()[seed as usize % t.num_compute()];
            check_all(&t, &p, target, Aggregator::Count);
        }
    }

    #[test]
    fn combining_beats_flat_on_thin_core_racks() {
        // Three racks of 4 nodes behind thin uplinks, every node holding the
        // same 20 groups. In-network combining crosses each thin uplink with
        // one partial per group; flat crosses it with one partial per
        // (node, group) pair — a factor-4 difference on the bottleneck.
        let t = builders::rack_tree(&[(4, 4.0, 0.25), (4, 4.0, 0.25), (4, 4.0, 0.25)], 1.0);
        let mut p = Placement::empty(&t);
        for &v in t.compute_nodes() {
            for g in 0..20 {
                p.push(v, Rel::R, encode(g, 1));
            }
        }
        let target = t.compute_nodes()[0];
        let lb = aggregation_lower_bound(&t, &p, target);
        let comb = run_protocol(
            &t,
            &p,
            &CombiningTreeAggregate::new(target, Aggregator::Sum),
        )
        .unwrap();
        let flat =
            run_protocol(&t, &p, &FlatPartialAggregate::new(target, Aggregator::Sum)).unwrap();
        // Flat pays the full per-node duplication on a thin uplink.
        assert!(flat.cost.tuple_cost() >= 4.0 * lb.value() - 1e-9);
        // Combining stays within a small constant of the lower bound and
        // clearly beats flat.
        assert!(comb.cost.tuple_cost() < flat.cost.tuple_cost());
        assert!(
            comb.cost.tuple_cost() <= 4.0 * lb.value() + 1e-9,
            "comb {} vs lb {}",
            comb.cost.tuple_cost(),
            lb.value()
        );
    }

    #[test]
    fn star_flat_and_combining_are_comparable() {
        // On a star there is no compute node "inside" the network, so
        // combining cannot beat flat pre-aggregation: the merged partials
        // still funnel through some leaf's downlink.
        let t = builders::star(6, 1.0);
        let mut p = Placement::empty(&t);
        for &v in t.compute_nodes() {
            for g in 0..20 {
                p.push(v, Rel::R, encode(g, 1));
            }
        }
        let target = NodeId(0);
        let comb = run_protocol(
            &t,
            &p,
            &CombiningTreeAggregate::new(target, Aggregator::Sum),
        )
        .unwrap();
        let flat =
            run_protocol(&t, &p, &FlatPartialAggregate::new(target, Aggregator::Sum)).unwrap();
        assert_eq!(comb.output, flat.output);
        assert!(comb.cost.tuple_cost() <= flat.cost.tuple_cost() + 1e-9);
    }

    #[test]
    fn naive_pays_raw_sizes() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(1), (0..100).map(|i| encode(i % 4, 1)).collect());
        let run = run_protocol(&t, &p, &NaiveAggregate::new(NodeId(0), Aggregator::Count)).unwrap();
        // 100 raw tuples over the bottleneck link.
        assert_eq!(run.cost.tuple_cost(), 100.0);
        assert_eq!(run.output, vec![(0, 25), (1, 25), (2, 25), (3, 25)]);
    }

    #[test]
    fn rejects_router_target() {
        let t = builders::star(3, 1.0); // node 3 is the hub
        let p = Placement::empty(&t);
        for proto in [
            run_protocol(&t, &p, &NaiveAggregate::new(NodeId(3), Aggregator::Sum)).err(),
            run_protocol(
                &t,
                &p,
                &FlatPartialAggregate::new(NodeId(3), Aggregator::Sum),
            )
            .err(),
            run_protocol(
                &t,
                &p,
                &CombiningTreeAggregate::new(NodeId(3), Aggregator::Sum),
            )
            .err(),
        ] {
            assert!(matches!(proto, Some(SimError::Protocol(_))));
        }
    }

    #[test]
    fn empty_input_yields_empty_output_everywhere() {
        let t = builders::caterpillar(3, 2, 1.0);
        let p = Placement::empty(&t);
        let target = t.compute_nodes()[0];
        for out in [
            run_protocol(&t, &p, &NaiveAggregate::new(target, Aggregator::Sum))
                .unwrap()
                .output,
            run_protocol(&t, &p, &FlatPartialAggregate::new(target, Aggregator::Sum))
                .unwrap()
                .output,
            run_protocol(
                &t,
                &p,
                &CombiningTreeAggregate::new(target, Aggregator::Sum),
            )
            .unwrap()
            .output,
        ] {
            assert!(out.is_empty());
        }
    }

    #[test]
    fn combining_uses_few_rounds() {
        let t = builders::balanced_kary(3, 2, 1.0);
        let p = grouped_placement(&t, 4, 10, 1);
        let target = t.compute_nodes()[0];
        let run = run_protocol(
            &t,
            &p,
            &CombiningTreeAggregate::new(target, Aggregator::Max),
        )
        .unwrap();
        // At most one round per level of the tree rooted at the target
        // (leaf-rooting roughly doubles the router depth).
        assert!(run.rounds <= 8, "rounds = {}", run.rounds);
    }

    #[test]
    fn rooted_bfs_structure() {
        let t = builders::star(3, 1.0);
        let r = Rooted::at(&t, NodeId(0));
        assert_eq!(r.depth[0], 0);
        assert_eq!(r.depth[3], 1); // hub
        assert_eq!(r.depth[1], 2);
        assert_eq!(r.parent[3], Some(NodeId(0)));
        assert_eq!(r.order.len(), 4);
    }
}
