//! Exact order statistics over raw samples.
//!
//! Every quantile here is read from the full sorted sample set, never from
//! a bucketed histogram, and travels with its sample count.

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q · n` samples at or below it. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle pair for an even count);
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// p50 / p90 / p99 of a sample set, with the count they were read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Samples the quantiles were read from.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Exact quantiles of `samples` (all zero for an empty set).
    pub fn of(samples: &[f64]) -> Quantiles {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let q = |p| quantile_sorted(&v, p).unwrap_or(0.0);
        Quantiles {
            n: v.len(),
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        let q = Quantiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.n, q.p50, q.p99), (3, 2.0, 3.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
