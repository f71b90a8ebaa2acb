//! Extension (paper §7, future work): a simple equi-join between two
//! relations.
//!
//! The paper closes by naming "a simple join between two relations" as the
//! next task to analyze in the topology-aware model. Structurally, an
//! equi-join is set intersection on *keys* with payloads carried along:
//! tuples of `R` and `S` are keyed, and the output is every pair
//! `(r, s)` with `key(r) = key(s)`. The one-round weighted-hash machinery
//! of Algorithm 2 applies unchanged — hash by key instead of by value —
//! with the caveat that the cost bound now depends on join skew (a heavy
//! key multiplies output, which Theorem 1's input-based bound does not
//! see; output-optimal bounds are genuinely future work).
//!
//! A tuple is a `Value` whose top bits are the key and bottom
//! `payload_bits` are the payload: `key(v) = v >> payload_bits`.

use std::collections::HashMap;

use tamp_simulator::{NodeState, Protocol, Session, SimError, Value};

use super::tree::route_by_partition;

/// One-round distribution-aware equi-join on symmetric trees: the
/// Algorithm 2 routing, hashed by key. Output: the joined
/// `(r_tuple, s_tuple)` pairs, sorted and deduplicated.
#[derive(Clone, Debug)]
pub struct KeyedEquiJoin {
    seed: u64,
    payload_bits: u32,
}

impl KeyedEquiJoin {
    /// Create with a hash seed; keys are `value >> payload_bits`.
    pub fn new(seed: u64, payload_bits: u32) -> Self {
        assert!(payload_bits < 64);
        KeyedEquiJoin { seed, payload_bits }
    }

    /// The key of a tuple.
    #[inline]
    pub fn key(&self, v: Value) -> Value {
        v >> self.payload_bits
    }
}

impl Protocol for KeyedEquiJoin {
    type Output = Vec<(Value, Value)>;

    fn name(&self) -> String {
        format!(
            "keyed-equi-join(seed={}, payload_bits={})",
            self.seed, self.payload_bits
        )
    }

    fn run(&self, session: &mut Session<'_>) -> Result<Self::Output, SimError> {
        // Small-relation tuples go to every block's hash target for the
        // tuple's *key*, big-relation tuples to their own block's.
        route_by_partition(session, self.seed, self.payload_bits)?;
        Ok(emit_join(session.states(), self.payload_bits))
    }
}

/// The join pairs the nodes can collectively emit: for each node, hash its
/// known `R` tuples by key and probe with its known `S` tuples.
pub fn emit_join(states: &[NodeState], payload_bits: u32) -> Vec<(Value, Value)> {
    let mut out: Vec<(Value, Value)> = Vec::new();
    for st in states {
        let mut by_key: HashMap<Value, Vec<Value>> = HashMap::new();
        for &r in &st.r {
            by_key.entry(r >> payload_bits).or_default().push(r);
        }
        for &s in &st.s {
            if let Some(rs) = by_key.get(&(s >> payload_bits)) {
                for &r in rs {
                    out.push((r, s));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Ground truth: all `(r, s)` pairs with matching keys.
pub fn true_join(r: &[Value], s: &[Value], payload_bits: u32) -> Vec<(Value, Value)> {
    let mut by_key: HashMap<Value, Vec<Value>> = HashMap::new();
    for &x in r {
        by_key.entry(x >> payload_bits).or_default().push(x);
    }
    let mut out = Vec::new();
    for &y in s {
        if let Some(rs) = by_key.get(&(y >> payload_bits)) {
            for &x in rs {
                out.push((x, y));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamp_simulator::{run_protocol, Placement, Rel};
    use tamp_topology::{builders, NodeId};

    /// Tuple with key `k` and payload `p` under 8 payload bits.
    fn kv(k: u64, p: u64) -> Value {
        (k << 8) | (p & 0xFF)
    }

    #[test]
    fn joins_matching_keys_with_payloads() {
        let t = builders::star(3, 1.0);
        let mut p = Placement::empty(&t);
        // Key 5 appears twice in R and twice in S → 4 output pairs.
        p.set_r(NodeId(0), vec![kv(5, 1), kv(5, 2), kv(7, 3)]);
        p.set_s(NodeId(1), vec![kv(5, 9), kv(8, 4)]);
        p.set_s(NodeId(2), vec![kv(5, 10), kv(7, 11)]);
        let run = run_protocol(&t, &p, &KeyedEquiJoin::new(3, 8)).unwrap();
        assert_eq!(run.rounds, 1);
        let want = true_join(&p.all_r(), &p.all_s(), 8);
        assert_eq!(run.output, want);
        assert_eq!(run.output.len(), 5); // 2×2 on key 5, 1×1 on key 7
    }

    #[test]
    fn join_on_trees_with_skew() {
        let t = builders::rack_tree(&[(3, 1.0, 2.0), (3, 2.0, 1.0)], 1.0);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes().to_vec();
        for i in 0..240u64 {
            p.push(vc[(i % 6) as usize], Rel::R, kv(i % 40, i));
        }
        for i in 0..720u64 {
            p.push(vc[((i * 5 + 1) % 6) as usize], Rel::S, kv(i % 120, i));
        }
        let run = run_protocol(&t, &p, &KeyedEquiJoin::new(11, 8)).unwrap();
        assert_eq!(run.rounds, 1);
        assert_eq!(run.output, true_join(&p.all_r(), &p.all_s(), 8));
        assert!(!run.output.is_empty());
    }

    #[test]
    fn join_with_no_matches() {
        let t = builders::star(2, 1.0);
        let mut p = Placement::empty(&t);
        p.set_r(NodeId(0), vec![kv(1, 0)]);
        p.set_s(NodeId(1), vec![kv(2, 0)]);
        let run = run_protocol(&t, &p, &KeyedEquiJoin::new(0, 8)).unwrap();
        assert!(run.output.is_empty());
    }

    #[test]
    fn join_cost_tracks_intersection_cost() {
        // With unit payloads the join degenerates to intersection-by-key;
        // its cost should match TreeIntersect on the same key placement
        // up to the hash-seed noise.
        let t = builders::star(4, 1.0);
        let mut p = Placement::empty(&t);
        let vc = t.compute_nodes().to_vec();
        for i in 0..400u64 {
            p.push(vc[(i % 4) as usize], Rel::R, kv(i, 0));
            p.push(vc[((i + 1) % 4) as usize], Rel::S, kv(i + 200, 0));
        }
        let join = run_protocol(&t, &p, &KeyedEquiJoin::new(5, 8)).unwrap();
        let inter = run_protocol(&t, &p, &crate::intersection::TreeIntersect::new(5)).unwrap();
        let (a, b) = (join.cost.tuple_cost(), inter.cost.tuple_cost());
        assert!(
            (a - b).abs() < 0.5 * b.max(1.0),
            "join {a} vs intersect {b}"
        );
    }
}
