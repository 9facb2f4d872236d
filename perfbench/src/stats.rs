//! Sample statistics with the reporting rules the benchmark commits to.

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). `None` for an empty sample.
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

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least `q` of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The tail percentile rule: a `q` percentile is reported only when at
/// least ten samples lie beyond it, so a single outlier cannot be it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q` percentile of a sorted sample, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// Sorted copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank ceil(989.01) = 990, only 9 beyond — withheld
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(s.len(), 0.99), 9);
        assert_eq!(tail(&s, 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond — reported
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(s.len(), 0.99), 10);
        assert_eq!(tail(&s, 0.99), Some(990.0));
        // the median of a tiny sample is still reported
        assert_eq!(tail(&[1.0; 21], 0.5), Some(1.0));
        assert_eq!(tail(&[1.0; 20], 0.5), Some(1.0));
        assert_eq!(tail(&[1.0; 19], 0.5), None);
    }

    #[test]
    fn nearest_rank_edges() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(4.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }
}
