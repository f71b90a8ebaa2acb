// Fixture: D1 — a protocol round that groups its sends in a hash map and
// sends in the map's iteration order (the receivers' arrival order then
// differs run to run), next to the build-and-probe lookups that are fine.
use std::collections::HashMap;

fn route(round: &mut Round, v: u32, fragment: &[u64]) {
    let mut by_dst: HashMap<u32, Vec<u64>> = HashMap::new();
    for &a in fragment {
        by_dst.entry(pick(a)).or_default().push(a);
    }
    for (dst, vals) in by_dst {
        round.send(v, &[dst], &vals);
    }
}

fn route_multicast(round: &mut Round, v: u32, fragment: &[u64]) {
    let mut by_dsts: HashMap<Vec<u32>, Vec<u64>> = HashMap::new();
    for &a in fragment {
        by_dsts.entry(vec![pick(a), pick(a + 1)]).or_default().push(a);
    }
    for (dsts, vals) in &by_dsts {
        round.send(v, dsts, vals);
    }
}

fn emit_join(r: &[u64], s: &[u64]) -> Vec<(u64, u64)> {
    // Build and probe: the map is only ever looked up, never walked.
    let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
    for &x in r {
        by_key.entry(x >> 8).or_default().push(x);
    }
    let mut out = Vec::new();
    for &y in s {
        if let Some(xs) = by_key.get(&(y >> 8)) {
            for &x in xs {
                out.push((x, y));
            }
        }
    }
    out.sort_unstable();
    out
}

fn pick(a: u64) -> u32 {
    (a % 7) as u32
}

struct Round;
impl Round {
    fn send(&mut self, _src: u32, _dsts: &[u32], _vals: &[u64]) {}
}
