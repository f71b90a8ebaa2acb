//! Algorithm 6: deterministic proportional splitting with bounded drift.
//!
//! A light node with `N_u` elements must split them across the heavy nodes
//! proportionally to their sizes `N_{v_1}, …, N_{v_k}`. Naive rounding can
//! drift by `k`; Algorithm 6 carries the rounding error `Δ` forward so
//! every *prefix* (and hence every contiguous range, Lemma 9) deviates
//! from the exact proportion by at most one element.

/// Split `n_u` items across heavy nodes with weights `heavy` (all
/// positive) proportionally, returning per-node counts `N_u^i` with
/// `Σ_i N_u^i ≥ n_u` and prefix error below one (Lemma 9).
pub fn proportional_split(heavy: &[u64], n_u: u64) -> Vec<u64> {
    proportional_split_iter(heavy, n_u).collect()
}

/// [`proportional_split`], one count at a time: a caller with few items
/// to place stops as soon as they are placed instead of materialising a
/// count per heavy node.
pub(crate) fn proportional_split_iter(heavy: &[u64], n_u: u64) -> impl Iterator<Item = u64> + '_ {
    let total: u64 = heavy.iter().sum();
    assert!(total > 0, "heavy nodes must carry weight");
    let mut delta = 0.0f64;
    heavy.iter().map(move |&w| {
        let x = (w as f64 / total as f64) * n_u as f64;
        let frac = x - x.floor();
        if delta >= frac {
            delta -= frac;
            x.floor() as u64
        } else {
            delta += 1.0 - frac;
            x.floor() as u64 + 1
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lemma 9(1): prefix sums stay within 1 of the exact proportion.
    fn check_lemma9(heavy: &[u64], n_u: u64) {
        let split = proportional_split(heavy, n_u);
        let total: u64 = heavy.iter().sum();
        let mut acc_split = 0u64;
        let mut acc_w = 0u64;
        for (s, &w) in split.iter().zip(heavy) {
            acc_split += s;
            acc_w += w;
            let exact = (acc_w as f64 / total as f64) * n_u as f64;
            assert!(
                acc_split as f64 >= exact - 1e-9 && (acc_split as f64) <= exact + 1.0 + 1e-9,
                "prefix {acc_split} vs exact {exact} (heavy {heavy:?}, n_u {n_u})"
            );
        }
        // Lemma 9(3): everything is assigned.
        assert!(acc_split >= n_u);
    }

    #[test]
    fn lemma9_holds_on_varied_inputs() {
        check_lemma9(&[1, 1, 1], 10);
        check_lemma9(&[5, 3, 9, 2], 17);
        check_lemma9(&[100], 7);
        check_lemma9(&[1, 1000], 13);
        check_lemma9(&[3, 3, 3, 3, 3, 3, 3], 1);
        check_lemma9(&[7, 11, 13], 0);
    }

    #[test]
    fn range_error_bounded_by_one() {
        // Lemma 9(2): any contiguous range deviates by ≤ 1.
        let heavy = [4u64, 9, 2, 7, 5];
        let n_u = 23;
        let split = proportional_split(&heavy, n_u);
        let total: u64 = heavy.iter().sum();
        for i in 0..heavy.len() {
            for j in i..heavy.len() {
                let got: u64 = split[i..=j].iter().sum();
                let w: u64 = heavy[i..=j].iter().sum();
                let exact = (w as f64 / total as f64) * n_u as f64;
                assert!(
                    (got as f64) <= exact + 1.0 + 1e-9 && (got as f64) >= exact - 1.0 - 1e-9,
                    "range [{i},{j}]: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn rejects_zero_weights() {
        proportional_split(&[0, 0], 5);
    }
}
