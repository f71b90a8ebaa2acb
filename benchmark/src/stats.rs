//! The few statistics the benchmark reports.
//!
//! Ops are deterministic and host noise only ever adds time, so the
//! latency the benchmark gates on is a *low* quantile ("what an op costs
//! when the host leaves it alone"); the median, tail and mean are
//! reported beside it but measure the neighbours. Intervals follow HulC
//! (Kuchibhotla et al., *Confidence Regions from Convex Hulls*): the
//! `[min, max]` of `B` independent per-launch estimates covers a
//! median-unbiased statistic with probability `1 − 2^(1−B)`, with no
//! variance estimate and no normality assumption.

/// The quantile the gated latency is taken at.
pub const QUIET_Q: f64 = 0.05;

/// Sort ascending under the IEEE total order.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two nearest order statistics. `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile of an unsorted sample.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values.to_vec()), q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The HulC interval of per-launch estimates: `[min, max]`.
pub fn interval(per_launch: &[f64]) -> (f64, f64) {
    let lo = per_launch.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_launch.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Coverage of [`interval`] over `launches` independent launches.
pub fn coverage(launches: usize) -> f64 {
    1.0 - 2f64.powi(1 - launches as i32)
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it (0 when even the median does not).
pub fn tail_pct(samples: usize) -> f64 {
    // Per-mille, so the count beyond the percentile is exact.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| samples * (1000 - pm) >= 10_000)
        .map_or(0.0, |pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert!((quantile(&s, 0.05) - 1.2).abs() < 1e-12);
        assert!((quantile(&s, 0.875) - 4.5).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.05), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[9.0, 1.0]), 5.0);
    }

    #[test]
    fn quiet_quantile_ignores_slow_outliers() {
        // 90 quiet ops and 10 ops that hit a noisy neighbour.
        let mut v: Vec<f64> = (0..90).map(|i| 1.0 + i as f64 * 1e-3).collect();
        v.extend((0..10).map(|i| 5.0 + i as f64));
        let quiet = quantile_of(&v, QUIET_Q);
        assert!((1.0..1.01).contains(&quiet), "{quiet}");
        assert!(mean(&v) > 1.8);
    }

    #[test]
    fn interval_is_min_max_with_hulc_coverage() {
        assert_eq!(interval(&[3.0, 1.5, 2.0, 9.0, 4.0]), (1.5, 9.0));
        assert_eq!(interval(&[2.0]), (2.0, 2.0));
        assert_eq!(coverage(5), 0.9375);
        assert_eq!(coverage(2), 0.5);
        assert_eq!(coverage(1), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_pct(10_000), 99.9);
        assert_eq!(tail_pct(9_999), 99.0);
        assert_eq!(tail_pct(1_000), 99.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(20), 50.0);
        assert_eq!(tail_pct(19), 0.0);
    }
}
