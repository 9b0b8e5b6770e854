//! Order statistics for spreads.

/// Median, quartiles and range of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes `values` (at least one). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// spreads printed here match a reader's own check.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn summary(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    };
    let (q1, q3) = if n < 2 {
        (v[0], v[0])
    } else {
        (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
    };
    Summary {
        n,
        min: v[0],
        q1,
        median,
        q3,
        max: v[n - 1],
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(sorted,
/// n=4, method='exclusive')`.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median of `values` (at least one).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    summary(values).median
}

/// Nearest-rank percentile `p` in `[0, 100]` of `values` (at least one).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summary(&[4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.0, 4.0, 4.0, 4.0, 4.0)
        );
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
