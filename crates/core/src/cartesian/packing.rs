//! Lemma 5: packing power-of-two squares without overlap.
//!
//! Any multiset of squares whose sides are powers of two can be packed so
//! that they fully cover a square of side at least `½·√(Σ dᵢ²)`. The
//! construction groups four equal squares into one of twice the side until
//! at most three of each size remain, then places recursively: the largest
//! (possibly composite) square goes to the origin quadrant — which is
//! therefore *fully covered* — up to two more of that size take two other
//! quadrants, and everything smaller recurses into the last quadrant.
//!
//! The same machinery packs *hierarchically* for the tree protocol
//! (§4.4): a [`SquareSet`] per `G†` node is merged bottom-up, so squares
//! of a subtree coalesce into composite blocks and stay co-located in the
//! final layout — that co-location is what bounds per-link traffic by
//! `O(N · l_u)`.

use std::collections::BTreeMap;

use tamp_topology::NodeId;

/// A placed square: `owner` receives `R`-rows `[x, x+side)` and `S`-columns
/// `[y, y+side)` of the output grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedSquare {
    /// The compute node assigned this square.
    pub owner: NodeId,
    /// First `R`-row covered.
    pub x: u64,
    /// First `S`-column covered.
    pub y: u64,
    /// Side length (a power of two).
    pub side: u64,
}

#[derive(Clone, Debug)]
enum Item {
    Leaf(NodeId),
    /// Four items of the next-smaller level, packed 2×2.
    Group(Box<[Item; 4]>),
}

/// A multiset of power-of-two squares, kept collapsed: at most three
/// squares of each size (quadruples merge into composite squares of twice
/// the side).
#[derive(Clone, Debug, Default)]
pub struct SquareSet {
    /// level (log₂ side) → items of that level.
    by_level: BTreeMap<u32, Vec<Item>>,
}

impl SquareSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single square of side `2^level` owned by `owner`.
    pub(crate) fn singleton(owner: NodeId, level: u32) -> Self {
        let mut by_level = BTreeMap::new();
        by_level.insert(level, vec![Item::Leaf(owner)]);
        SquareSet { by_level }
    }

    /// `true` if no squares are present.
    pub fn is_empty(&self) -> bool {
        self.by_level.is_empty()
    }

    /// Largest level present (`i*`), if any.
    pub(crate) fn max_level(&self) -> Option<u32> {
        self.by_level.keys().next_back().copied()
    }

    /// Total area `Σ dᵢ²` of the squares.
    #[cfg(test)]
    fn total_area(&self) -> u128 {
        self.by_level
            .iter()
            .map(|(&l, items)| (items.len() as u128) << (2 * l as u128))
            .sum()
    }

    /// Absorb `other`, then merge quadruples bottom-up so at most three
    /// squares of each size remain.
    pub fn merge(&mut self, other: SquareSet) {
        for (l, items) in other.by_level {
            self.by_level.entry(l).or_default().extend(items);
        }
        self.collapse();
    }

    fn collapse(&mut self) {
        let mut level = match self.by_level.keys().next() {
            Some(&l) => l,
            None => return,
        };
        loop {
            let count = self.by_level.get(&level).map_or(0, Vec::len);
            if count >= 4 {
                let items = self.by_level.get_mut(&level).expect("present");
                let d = items.pop().expect("len ≥ 4");
                let c = items.pop().expect("len ≥ 4");
                let b = items.pop().expect("len ≥ 4");
                let a = items.pop().expect("len ≥ 4");
                if items.is_empty() {
                    self.by_level.remove(&level);
                }
                self.by_level
                    .entry(level + 1)
                    .or_default()
                    .push(Item::Group(Box::new([a, b, c, d])));
                level += 1;
                continue;
            }
            // Advance to the next present level above.
            match self.by_level.range(level + 1..).next().map(|(&l, _)| l) {
                Some(next) => level = next,
                None => break,
            }
        }
    }

    /// Place all squares without overlap. The first square of the largest
    /// level lands at the origin, so the region `[0, 2^{i*})²` is fully
    /// covered — and `2^{i*} ≥ ½·√(Σ dᵢ²)` (Lemma 5).
    pub fn place(mut self) -> Vec<PlacedSquare> {
        self.collapse();
        let mut out = Vec::new();
        let Some(top) = self.max_level() else {
            return out;
        };
        // Items per level, ascending (so `last()` is the largest level);
        // ≤ 3 items per level after collapse.
        let mut pending: Vec<(u32, Vec<Item>)> = self.by_level.into_iter().collect();
        // Recursive placement into the region [x, x+2^log)²; every pending
        // item has level < log, at most 3 per level.
        fn fill_region(
            x: u64,
            y: u64,
            log: u32,
            pending: &mut Vec<(u32, Vec<Item>)>,
            out: &mut Vec<PlacedSquare>,
        ) {
            // Take up to 3 items of level log-1 for three quadrants,
            // recurse the rest into the fourth.
            let Some(level) = log.checked_sub(1) else {
                return;
            };
            let half = 1u64 << level;
            let quadrants = [(0, 0), (half, 0), (0, half)];
            let mut used = 0;
            while used < 3 {
                let item = match pending.last_mut() {
                    Some((l, items)) if *l == level => items.pop(),
                    _ => None,
                };
                let Some(item) = item else { break };
                let (dx, dy) = quadrants[used];
                expand(item, x + dx, y + dy, level, out);
                used += 1;
            }
            if let Some((_, items)) = pending.last() {
                if items.is_empty() {
                    pending.pop();
                }
            }
            if !pending.is_empty() {
                fill_region(x + half, y + half, level, pending, out);
            }
        }
        // Expand an item (leaf or composite) at a position.
        fn expand(item: Item, x: u64, y: u64, level: u32, out: &mut Vec<PlacedSquare>) {
            match item {
                Item::Leaf(owner) => out.push(PlacedSquare {
                    owner,
                    x,
                    y,
                    side: 1u64 << level,
                }),
                Item::Group(children) => {
                    let half = 1u64 << (level - 1);
                    let offs = [(0, 0), (half, 0), (0, half), (half, half)];
                    for (child, (dx, dy)) in children.into_iter().zip(offs) {
                        expand(child, x + dx, y + dy, level - 1, out);
                    }
                }
            }
        }
        fill_region(0, 0, top + 1, &mut pending, &mut out);
        out
    }
}

/// Check that `squares` are pairwise disjoint.
fn check_no_overlap(squares: &[PlacedSquare]) -> Result<(), String> {
    for (i, a) in squares.iter().enumerate() {
        for b in &squares[i + 1..] {
            let disjoint = a.x + a.side <= b.x
                || b.x + b.side <= a.x
                || a.y + a.side <= b.y
                || b.y + b.side <= a.y;
            if !disjoint {
                return Err(format!("squares overlap: {a:?} vs {b:?}"));
            }
        }
    }
    Ok(())
}

/// Check that `squares` fully cover the rectangle `[0,rows) × [0,cols)`.
/// Since squares are disjoint and axis-aligned with power-of-two geometry,
/// it suffices to compare the covered area inside the rectangle with
/// `rows · cols`.
pub fn check_covers_grid(squares: &[PlacedSquare], rows: u64, cols: u64) -> Result<(), String> {
    check_no_overlap(squares)?;
    let mut covered: u128 = 0;
    for sq in squares {
        let x1 = (sq.x + sq.side).min(rows);
        let y1 = (sq.y + sq.side).min(cols);
        if x1 > sq.x && y1 > sq.y {
            covered += (x1 - sq.x) as u128 * (y1 - sq.y) as u128;
        }
    }
    let need = rows as u128 * cols as u128;
    if covered == need {
        Ok(())
    } else {
        Err(format!(
            "covered area {covered} ≠ grid area {need} ({rows}×{cols})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn collapse_merges_quadruples() {
        let mut set = SquareSet::new();
        for i in 0..4 {
            set.merge(SquareSet::singleton(n(i), 3));
        }
        assert_eq!(set.max_level(), Some(4));
        assert_eq!(set.total_area(), 4 * (8 * 8));
    }

    #[test]
    fn single_square_lands_at_origin() {
        let placed = SquareSet::singleton(n(0), 5).place();
        assert_eq!(
            placed,
            vec![PlacedSquare {
                owner: n(0),
                x: 0,
                y: 0,
                side: 32
            }]
        );
    }

    #[test]
    fn lemma5_coverage_guarantee() {
        // Mixed sides: the packed squares must fully cover
        // [0, 2^{i*})² with 2^{i*} ≥ ½√(Σ d²).
        let sides_log: Vec<u32> = vec![0, 0, 1, 1, 1, 2, 2, 3, 0, 4, 2];
        let mut set = SquareSet::new();
        let mut area: u128 = 0;
        for (i, &l) in sides_log.iter().enumerate() {
            set.merge(SquareSet::singleton(n(i as u32), l));
            area += 1u128 << (2 * l);
        }
        let top = set.max_level().unwrap();
        let placed = set.place();
        assert_eq!(placed.len(), sides_log.len());
        check_no_overlap(&placed).unwrap();
        let covered_side = 1u64 << top;
        assert!(
            (covered_side as f64) >= 0.5 * (area as f64).sqrt(),
            "2^i* = {covered_side}, √area = {}",
            (area as f64).sqrt()
        );
        check_covers_grid(&placed, covered_side, covered_side).unwrap();
    }

    #[test]
    fn many_equal_squares_tile_perfectly() {
        let mut set = SquareSet::new();
        for i in 0..16 {
            set.merge(SquareSet::singleton(n(i), 2));
        }
        // 16 squares of side 4 collapse into one side-16 composite.
        assert_eq!(set.max_level(), Some(4));
        let placed = set.place();
        check_covers_grid(&placed, 16, 16).unwrap();
    }

    #[test]
    fn hierarchical_merge_keeps_groups_local() {
        // Two subtrees, each with 4 unit squares: after per-subtree merges,
        // each subtree forms one 2×2 block; blocks must be contiguous.
        let mut left = SquareSet::new();
        for i in 0..4 {
            left.merge(SquareSet::singleton(n(i), 0));
        }
        let mut right = SquareSet::new();
        for i in 4..8 {
            right.merge(SquareSet::singleton(n(i), 0));
        }
        let mut root = SquareSet::new();
        root.merge(left);
        root.merge(right);
        let placed = root.place();
        check_no_overlap(&placed).unwrap();
        // Each original subtree's squares span a 2×2 region.
        for group in [[0u32, 1, 2, 3], [4, 5, 6, 7]] {
            let xs: Vec<u64> = group
                .iter()
                .map(|&i| placed.iter().find(|p| p.owner == n(i)).unwrap().x)
                .collect();
            let ys: Vec<u64> = group
                .iter()
                .map(|&i| placed.iter().find(|p| p.owner == n(i)).unwrap().y)
                .collect();
            let w = xs.iter().max().unwrap() - xs.iter().min().unwrap();
            let h = ys.iter().max().unwrap() - ys.iter().min().unwrap();
            assert!(w <= 1 && h <= 1, "subtree scattered: xs={xs:?} ys={ys:?}");
        }
    }

    #[test]
    fn empty_set_places_nothing() {
        assert!(SquareSet::new().place().is_empty());
        assert!(SquareSet::new().is_empty());
    }

    #[test]
    fn overlap_checker_detects() {
        let a = PlacedSquare {
            owner: n(0),
            x: 0,
            y: 0,
            side: 4,
        };
        let b = PlacedSquare {
            owner: n(1),
            x: 2,
            y: 2,
            side: 4,
        };
        assert!(check_no_overlap(&[a, b]).is_err());
        let c = PlacedSquare {
            owner: n(1),
            x: 4,
            y: 0,
            side: 4,
        };
        assert!(check_no_overlap(&[a, c]).is_ok());
    }
}
