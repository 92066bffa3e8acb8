//! Medians and tail percentiles of timing samples.

/// Sorts a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The median of an ascending sample: the middle value, or the mean of
/// the middle two. `None` for an empty sample.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank: the smallest rank covering a share `p` of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `p`-th percentile (an observed sample, never an
/// interpolation) of an ascending sample. `None` when fewer than ten
/// samples were taken: below that a tail percentile is just the maximum.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (sorted.len() >= 10).then(|| sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median of an unsorted sample; 0 when empty (a layer that did not run).
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values.to_vec())).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[1.0, 2.0, 10.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), Some(3.0));
        assert_eq!(median_of(&[10.0, 1.0, 4.0, 2.0]), 3.0);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_is_nearest_rank() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        // ceil(0.9 · 20) = 18th value; two samples lie beyond it.
        assert_eq!(tail_percentile(&twenty, 0.9), Some(18.0));
        assert_eq!(samples_beyond(20, 0.9), 2);
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(samples_beyond(100, 0.9), 10);
        // ceil(0.9 · 11) = 10th value.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&eleven, 0.9), Some(10.0));
    }

    #[test]
    fn fewer_than_ten_samples_have_no_tail_percentile() {
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail_percentile(&nine, 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten, 0.9), Some(9.0));
    }

    #[test]
    fn sorting_orders_ascending() {
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
