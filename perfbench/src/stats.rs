//! Exact-sample order statistics over the benchmark's own raw samples
//! (no bucketing: a bucketed histogram's ~6% steps would eat most of a
//! 10% regression bound).

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `(value, weight)`
/// samples: the smallest value whose cumulative weight reaches `q` of the
/// total. A weight lets one timed call stand for the points it carried.
pub fn quantile(samples: &mut [(u64, u64)], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(v, w) in samples.iter() {
        seen += w;
        if seen >= rank {
            return v;
        }
    }
    samples[samples.len() - 1].0
}
