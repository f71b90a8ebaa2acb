//! The shared exchange cost model: §2 pricing of estimated traffic.
//!
//! [`CostModel`] owns everything a [`PhysicalStrategy`] needs to price an
//! exchange on a concrete tree, and charges on the exact rule the engines
//! meter —
//!
//! ```text
//! cost(round) = max_e load(e) / w_e
//! ```
//!
//! with traffic routed along the unique tree paths — so an estimate and
//! its metered counterpart differ only by cardinality estimation, never
//! by the cost functional.
//!
//! # Pricing on cuts, not on paths
//!
//! No path is walked. Every edge `e = x — parent(x)` cuts the tree into
//! `V⁻_e = sub(x)` and `V⁺_e = out(x)` (§3.1), and what crosses `e` is a
//! function of what sits on each side — the shape of Theorems 1, 3 and 6.
//! With `N(X)` / `S(X)` the source amount / destination share summed over
//! the compute nodes of `X`:
//!
//! | traffic | load on `x → parent` | load on `parent → x` | work |
//! |---------|----------------------|----------------------|------|
//! | repartition | `N(V⁻) · S(V⁺)` | `N(V⁺) · S(V⁻)` | O(\|V\|) |
//! | every source multicasts to `D` (gather: `D = {t}`) | `N(V⁻)` iff `D` meets `V⁺` | `N(V⁺)` iff `D` meets `V⁻` | O(\|V\|) |
//! | [`RoundLoad::send`] to `k` destinations | ± deltas on the terminals' virtual tree ([`LcaIndex::for_each_union_delta`], the meter's own enumeration), summed per subtree | (same) | O(k log k) |
//!
//! Both sides of every cut come from one [`Tree::cut_folds`], which builds
//! them by addition only — `V⁺` is never `total − V⁻` — so no float sum
//! cancels. Only [`RoundLoad::send`] subtracts, and its ± deltas can leave
//! a rounding residue on an edge whose true load is zero;
//! [`RoundLoad::cost`] folds its max from `0.0`, which clamps that.
//!
//! [`PhysicalStrategy`]: crate::physical::strategy::PhysicalStrategy

use tamp_topology::{Bandwidth, LcaIndex, NodeId, Tree};

/// Estimated per-node row counts, indexed by node id (routers stay 0).
pub type NodeCounts = Vec<f64>;

/// The pricing context handed to every strategy's
/// [`estimate`](crate::physical::strategy::PhysicalStrategy::estimate).
#[derive(Debug)]
pub struct CostModel<'t> {
    tree: &'t Tree,
    /// O(1) LCAs for the virtual trees of [`RoundLoad::send`].
    lca: LcaIndex,
    /// Per node `x`, the bandwidths of `x → parent(x)` and
    /// `parent(x) → x` (the root's pair is never loaded).
    links: Vec<(Bandwidth, Bandwidth)>,
}

impl<'t> CostModel<'t> {
    /// Build the model for `tree` (one preorder sparse table).
    pub fn new(tree: &'t Tree) -> Self {
        let lca = LcaIndex::new(tree);
        let links = tree
            .nodes()
            .map(|x| match (lca.up_edge(x), lca.down_edge(x)) {
                (Some(up), Some(down)) => (tree.bandwidth(up), tree.bandwidth(down)),
                _ => (Bandwidth::INF, Bandwidth::INF),
            })
            .collect();
        CostModel { tree, lca, links }
    }

    /// The tree being priced.
    pub fn tree(&self) -> &'t Tree {
        self.tree
    }

    /// A zeroed per-node count vector.
    pub fn zero_counts(&self) -> NodeCounts {
        vec![0.0; self.tree.num_nodes()]
    }

    /// An empty one-round load accumulator — the way to price custom
    /// traffic that is not one of the closed forms below.
    pub fn round(&self) -> RoundLoad<'_, 't> {
        RoundLoad {
            model: self,
            delta: vec![[0.0; 2]; self.links.len()],
            load: vec![(0.0, 0.0); self.links.len()],
            terminals: Vec::new(),
        }
    }

    /// `max_e load(e)/w_e` over per-node `(up, down)` parent-edge loads,
    /// on the same [`Bandwidth::cost_of`] rule the engines charge.
    fn price(&self, loads: impl Iterator<Item = (f64, f64)>) -> f64 {
        loads
            .zip(&self.links)
            .map(|((up, down), (w_up, w_down))| w_up.cost_of(up).max(w_down.cost_of(down)))
            .fold(0.0, f64::max)
    }

    /// One-round cost of repartitioning `counts` (rows of `width` values)
    /// so destination `u` receives a `shares[u]` fraction; rows already at
    /// their destination do not travel.
    pub fn repartition_cost(&self, counts: &[f64], width: usize, shares: &[f64]) -> f64 {
        let mut round = self.round();
        round.repartition(self.tree.compute_nodes(), counts, width, shares);
        round.cost()
    }

    /// One-round cost of every node multicasting its `counts` rows to all
    /// of `dsts`, charged along the union of tree paths (like the
    /// engines' multicast metering).
    pub fn multicast_cost(&self, counts: &[f64], width: usize, dsts: &[NodeId]) -> f64 {
        let mut value = vec![(0.0, false); self.links.len()];
        for &v in self.tree.compute_nodes() {
            value[v.index()].0 = (counts[v.index()] * width as f64).max(0.0);
        }
        for &d in dsts {
            value[d.index()].1 = true;
        }
        let (inside, outside) = self
            .tree
            .cut_folds(&value, (0.0, false), |a, b| (a.0 + b.0, a.1 | b.1));
        self.price(inside.iter().zip(&outside).map(|(i, o)| {
            let up = if o.1 { i.0 } else { 0.0 };
            (up, if i.1 { o.0 } else { 0.0 })
        }))
    }

    /// One-round cost of each node unicasting `counts[v]` rows to
    /// `target`.
    pub fn gather_cost(&self, counts: &[f64], width: usize, target: NodeId) -> f64 {
        self.multicast_cost(counts, width, &[target])
    }

    /// Destination shares proportional to `weights` over compute nodes
    /// (the weighted hash's expected routing).
    pub fn proportional_shares(&self, weights: &[f64]) -> NodeCounts {
        let total: f64 = self
            .tree
            .compute_nodes()
            .iter()
            .map(|&v| weights[v.index()])
            .sum();
        let mut shares = self.zero_counts();
        if total <= 0.0 {
            return shares;
        }
        for &v in self.tree.compute_nodes() {
            shares[v.index()] = weights[v.index()] / total;
        }
        shares
    }

    /// Uniform destination shares (the MPC hash's expected routing).
    pub fn uniform_shares(&self) -> NodeCounts {
        let k = self.tree.num_compute().max(1) as f64;
        let mut shares = self.zero_counts();
        for &v in self.tree.compute_nodes() {
            shares[v.index()] = 1.0 / k;
        }
        shares
    }

    /// Redistribute `total` rows according to `shares`.
    pub fn distributed(&self, total: f64, shares: &[f64]) -> NodeCounts {
        let mut counts = self.zero_counts();
        for &v in self.tree.compute_nodes() {
            counts[v.index()] = total * shares[v.index()];
        }
        counts
    }
}

/// One round's estimated traffic, accumulated in aggregate over the tree
/// (see the [module docs](self)): any mix of [`send`](Self::send) and
/// [`repartition`](Self::repartition) calls, then one
/// [`cost`](Self::cost).
#[derive(Debug)]
pub struct RoundLoad<'m, 't> {
    model: &'m CostModel<'t>,
    /// `[up, down]` deltas of the sends by preorder position
    /// ([`LcaIndex::tin`]): a parent edge's load is the sum over the
    /// subtree below it.
    delta: Vec<[f64; 2]>,
    /// Per-node `(up, down)` parent-edge loads of the repartitions.
    load: Vec<(f64, f64)>,
    /// Terminal positions of the send being charged (reused scratch).
    terminals: Vec<u32>,
}

impl RoundLoad<'_, '_> {
    /// Charge `amount` units from `src` along the *union* of its paths to
    /// `dsts` (each edge once — the engines' multicast rule; one
    /// destination is a unicast). Duplicate and self destinations are
    /// free, as is a non-positive amount.
    pub fn send(&mut self, src: NodeId, dsts: &[NodeId], amount: f64) {
        if amount <= 0.0 {
            return;
        }
        let lca = &self.model.lca;
        let src = lca.tin(src);
        let t = &mut self.terminals;
        t.clear();
        t.push(src);
        t.extend(dsts.iter().map(|&d| lca.tin(d)));
        t.sort_unstable();
        t.dedup();
        if t.len() < 2 {
            return;
        }
        // `TrafficMeter::charge_multicast`'s virtual tree, delta for
        // delta.
        let delta = &mut self.delta;
        lca.for_each_union_delta(src, t, |pos, leg, add| {
            delta[pos as usize][leg] += if add { amount } else { -amount };
        });
    }

    /// Charge a repartition among the nodes of `among` only: each ships
    /// its `counts[v] · width` values so that `u` receives a `shares[u]`
    /// fraction (shares need not sum to 1; non-positive entries
    /// contribute nothing).
    pub fn repartition(&mut self, among: &[NodeId], counts: &[f64], width: usize, shares: &[f64]) {
        let mut value = vec![(0.0, 0.0); self.load.len()];
        for &v in among {
            let (n, s) = (counts[v.index()] * width as f64, shares[v.index()]);
            value[v.index()] = (n.max(0.0), s.max(0.0));
        }
        let add = |a: (f64, f64), b: (f64, f64)| (a.0 + b.0, a.1 + b.1);
        let (inside, outside) = self.model.tree.cut_folds(&value, (0.0, 0.0), add);
        for (load, (i, o)) in self.load.iter_mut().zip(inside.iter().zip(&outside)) {
            load.0 += i.0 * o.1;
            load.1 += o.0 * i.1;
        }
    }

    /// The round's `max_e load(e)/w_e`: one reverse scan over preorder
    /// positions (children after parents) turns the send deltas into
    /// subtree sums.
    pub fn cost(mut self) -> f64 {
        let lca = &self.model.lca;
        let parent_pos = lca.parent_pos();
        for i in (1..self.delta.len()).rev() {
            let below = self.delta[i];
            let d = &mut self.delta[parent_pos[i] as usize];
            *d = [d[0] + below[0], d[1] + below[1]];
        }
        let loads = self.model.tree.nodes().zip(&self.load).map(|(x, l)| {
            let d = self.delta[lca.tin(x) as usize];
            (d[0] + l.0, d[1] + l.1)
        });
        self.model.price(loads)
    }
}

/// The pre-aggregation reference: walk every path, charge every edge.
/// These are the per-path bodies the cut-based pricing replaced, verbatim
/// — kept as the oracle it is proptested against (the way
/// `tamp_simulator::metering::oracle` is for the meter). Not a second
/// pricing path: nothing outside `#[cfg(test)]` can reach it.
#[cfg(test)]
pub(crate) mod oracle {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tamp_simulator::TrafficMeter;
    use tamp_topology::{builders, NodeKind};

    use super::*;

    struct PathModel<'t> {
        tree: &'t Tree,
        lca: LcaIndex,
        /// Per-directed-edge bandwidth, indexed like the cost ledger.
        bandwidth: Vec<Bandwidth>,
    }

    impl<'t> PathModel<'t> {
        fn new(tree: &'t Tree) -> Self {
            PathModel {
                tree,
                lca: LcaIndex::new(tree),
                bandwidth: tree.dir_edges().map(|d| tree.bandwidth(d)).collect(),
            }
        }

        /// A zeroed per-directed-edge load vector.
        fn zero_load(&self) -> Vec<f64> {
            vec![0.0; self.bandwidth.len()]
        }

        /// Accumulate `amount` units along the unique `src → dst` tree path.
        fn add_path(&self, load: &mut [f64], src: NodeId, dst: NodeId, amount: f64) {
            if src == dst || amount <= 0.0 {
                return;
            }
            self.lca
                .for_each_path_edge(src, dst, |d| load[d.index()] += amount);
        }

        /// Accumulate `amount` units along the *union* of the `src → dst`
        /// paths (each edge charged once — the engines' multicast rule).
        fn add_multicast(&self, load: &mut [f64], src: NodeId, dsts: &[NodeId], amount: f64) {
            if dsts.is_empty() || amount <= 0.0 {
                return;
            }
            let mut seen = vec![false; self.bandwidth.len()];
            for &u in dsts {
                self.lca.for_each_path_edge(src, u, |d| {
                    if !seen[d.index()] {
                        seen[d.index()] = true;
                        load[d.index()] += amount;
                    }
                });
            }
        }

        /// `max_e load(e)/w_e` for one estimated round.
        fn round_cost(&self, load: &[f64]) -> f64 {
            load.iter()
                .enumerate()
                .map(|(d, &l)| self.bandwidth[d].cost_of(l))
                .fold(0.0, f64::max)
        }

        fn repartition_cost(&self, counts: &[f64], width: usize, shares: &[f64]) -> f64 {
            let mut load = self.zero_load();
            for &v in self.tree.compute_nodes() {
                let n = counts[v.index()] * width as f64;
                if n <= 0.0 {
                    continue;
                }
                for &u in self.tree.compute_nodes() {
                    let s = shares[u.index()];
                    if u == v || s <= 0.0 {
                        continue;
                    }
                    self.lca
                        .for_each_path_edge(v, u, |d| load[d.index()] += n * s);
                }
            }
            self.round_cost(&load)
        }

        fn multicast_cost(&self, counts: &[f64], width: usize, dsts: &[NodeId]) -> f64 {
            let mut load = self.zero_load();
            for &v in self.tree.compute_nodes() {
                let n = counts[v.index()] * width as f64;
                self.add_multicast(&mut load, v, dsts, n);
            }
            self.round_cost(&load)
        }

        fn gather_cost(&self, counts: &[f64], width: usize, target: NodeId) -> f64 {
            let mut load = self.zero_load();
            for &v in self.tree.compute_nodes() {
                let n = counts[v.index()] * width as f64;
                self.add_path(&mut load, v, target, n);
            }
            self.round_cost(&load)
        }
    }

    /// A tree the builders do not produce: compute nodes and routers
    /// anywhere (interior, as LCAs, as the root), down to a single compute
    /// node; edges stored in either orientation with independent,
    /// sometimes infinite, bandwidths per direction — equal ones when
    /// `symmetric`; otherwise one tree in eight is the MPC star instead.
    pub(crate) fn arb_tree(rng: &mut StdRng, symmetric: bool) -> Tree {
        if !symmetric && rng.random_range(0..8u32) == 0 {
            return builders::mpc_star(rng.random_range(1..6usize));
        }
        let n = rng.random_range(1..14usize);
        let p_compute = [0.0, 0.5, 1.0][rng.random_range(0..3usize)];
        let mut kinds: Vec<NodeKind> = (0..n)
            .map(|_| match rng.random_bool(p_compute) {
                true => NodeKind::Compute,
                false => NodeKind::Router,
            })
            .collect();
        kinds[rng.random_range(0..n)] = NodeKind::Compute;
        let bw = |rng: &mut StdRng| match rng.random_range(0..6u32) {
            0 => f64::INFINITY,
            1 => 1.0,
            _ => rng.random_range(0.1..32.0),
        };
        let edges = (1..n)
            .map(|child| {
                let parent = rng.random_range(0..child);
                let w_a = bw(rng);
                let w_b = if symmetric { w_a } else { bw(rng) };
                match rng.random_bool(0.5) {
                    true => (parent, child, w_a, w_b),
                    false => (child, parent, w_a, w_b),
                }
            })
            .collect();
        Tree::from_parts(kinds, edges).expect("random parent links form a tree")
    }

    /// One per-node amount: zero, negative or positive — fractional
    /// unless `integer`. Routers get entries too; they must not count.
    fn arb_amount(rng: &mut StdRng, integer: bool) -> f64 {
        match rng.random_range(0..5u32) {
            0 => 0.0,
            1 => -(rng.random_range(1..9u32) as f64),
            _ if integer => rng.random_range(1..40u32) as f64,
            _ => rng.random_range(0.01..40.0),
        }
    }

    fn arb_nodes(rng: &mut StdRng, tree: &Tree, max: usize) -> Vec<NodeId> {
        let k = rng.random_range(0..max + 1);
        (0..k)
            .map(|_| NodeId::from_index(rng.random_range(0..tree.num_nodes())))
            .collect()
    }

    /// `new` against the per-path `old`: never negative; the same bits
    /// when every amount was an integer (every sum is then exact), else
    /// within `1e-9` relative — absolute below 1, where a true zero can
    /// meet a `1e-16` delta residue.
    fn check(what: &str, new: f64, old: f64, integer: bool) -> Result<(), TestCaseError> {
        prop_assert!(new >= 0.0, "{what}: negative cost {new}");
        if integer {
            prop_assert_eq!(new.to_bits(), old.to_bits(), "{}: {} vs {}", what, new, old);
        } else {
            let tolerance = 1e-9 * old.abs().max(1.0);
            prop_assert!((new - old).abs() <= tolerance, "{what}: {new} vs {old}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn cut_pricing_matches_per_path_oracle(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = arb_tree(&mut rng, false);
            let (model, oracle) = (CostModel::new(&tree), PathModel::new(&tree));
            let integer = rng.random_bool(0.5);
            let n = tree.num_nodes();
            let counts: Vec<f64> = (0..n).map(|_| arb_amount(&mut rng, integer)).collect();
            let width = rng.random_range(1..4usize);
            let shares: Vec<f64> = match rng.random_range(0..4u32) {
                0 => model.zero_counts(),
                1 if !integer => model.proportional_shares(&counts.iter().map(|c| c.abs()).collect::<Vec<_>>()),
                2 if !integer => model.uniform_shares(),
                _ => (0..n).map(|_| arb_amount(&mut rng, integer)).collect(),
            };

            check(
                "repartition",
                model.repartition_cost(&counts, width, &shares),
                oracle.repartition_cost(&counts, width, &shares),
                integer,
            )?;
            // Empty, duplicated, self-including and router destinations.
            let dsts = arb_nodes(&mut rng, &tree, 6);
            check(
                "multicast",
                model.multicast_cost(&counts, width, &dsts),
                oracle.multicast_cost(&counts, width, &dsts),
                integer,
            )?;
            let target = NodeId::from_index(rng.random_range(0..n));
            check(
                "gather",
                model.gather_cost(&counts, width, target),
                oracle.gather_cost(&counts, width, target),
                integer,
            )?;

            // A mixed round: sends of both shapes plus a repartition among
            // a random subset (its shares need not sum to 1).
            let mut round = model.round();
            let mut load = oracle.zero_load();
            for _ in 0..rng.random_range(0..12usize) {
                let src = NodeId::from_index(rng.random_range(0..n));
                let dsts = arb_nodes(&mut rng, &tree, 5);
                let amount = arb_amount(&mut rng, integer);
                round.send(src, &dsts, amount);
                match dsts[..] {
                    [dst] => oracle.add_path(&mut load, src, dst, amount),
                    _ => oracle.add_multicast(&mut load, src, &dsts, amount),
                }
            }
            let among: Vec<NodeId> = tree.nodes().filter(|_| rng.random_bool(0.6)).collect();
            round.repartition(&among, &counts, width, &shares);
            for &v in &among {
                let amount = counts[v.index()] * width as f64;
                for &u in among.iter().filter(|&&u| u != v && shares[u.index()] > 0.0) {
                    oracle.add_path(&mut load, v, u, amount * shares[u.index()]);
                }
            }
            check("mixed round", round.cost(), oracle.round_cost(&load), integer)?;
        }

        /// The module docs' "charges on the exact rule the engines meter":
        /// the same integer sends, charged on a `TrafficMeter` and
        /// committed as one round, cost what the model says — bit for
        /// bit, `mpc_star` and infinite edges included.
        #[test]
        fn estimate_equals_meter_on_integer_traffic(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = arb_tree(&mut rng, false);
            let model = CostModel::new(&tree);
            let metered = |charge: &dyn Fn(&mut TrafficMeter)| {
                let mut meter = TrafficMeter::new(&tree);
                charge(&mut meter);
                meter.commit_round();
                meter.finish().tuple_cost()
            };
            let n = tree.num_nodes();
            let counts: Vec<u64> = (0..n).map(|_| rng.random_range(0..30u64)).collect();
            let as_f64: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let width = rng.random_range(1..4usize);
            let amount = |v: NodeId| counts[v.index()] * width as u64;

            let dsts = arb_nodes(&mut rng, &tree, 6);
            let multicast = metered(&|m| {
                for &v in tree.compute_nodes() {
                    m.charge_multicast(v, &dsts, amount(v));
                }
            });
            prop_assert_eq!(model.multicast_cost(&as_f64, width, &dsts).to_bits(), multicast.to_bits());

            let target = NodeId::from_index(rng.random_range(0..n));
            let gather = metered(&|m| {
                for &v in tree.compute_nodes() {
                    m.charge_unicast(v, target, amount(v));
                }
            });
            prop_assert_eq!(model.gather_cost(&as_f64, width, target).to_bits(), gather.to_bits());

            let sends: Vec<(NodeId, Vec<NodeId>, u64)> = (0..rng.random_range(0..12usize))
                .map(|_| {
                    let src = NodeId::from_index(rng.random_range(0..n));
                    (src, arb_nodes(&mut rng, &tree, 5), rng.random_range(0..30u64))
                })
                .collect();
            let mut round = model.round();
            for (src, dsts, amount) in &sends {
                round.send(*src, dsts, *amount as f64);
            }
            let mixed = metered(&|m| {
                for (src, dsts, amount) in &sends {
                    m.charge_multicast(*src, dsts, *amount);
                }
            });
            prop_assert_eq!(round.cost().to_bits(), mixed.to_bits());
        }
    }
}
