//! Small statistics toolkit for experiment aggregation.
//!
//! Experiments aggregate per-trial measurements (message counts, rounds,
//! success indicators) into summaries and fit power laws to verify the
//! paper's asymptotic claims (e.g. "messages grow like `√n`" means a
//! fitted log–log slope near `0.5`).

/// Five-number-style summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; `0` for `count < 2`).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count >= 2 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            p999: percentile_sorted(&sorted, 99.9),
        }
    }

    /// Non-panicking variant of [`Summary::of`]: `None` for an empty
    /// sample **or one containing a NaN**. Front ends that accept a
    /// user-supplied trial count should use this (an empty batch is a
    /// config error, not a crash site), and aggregation pipelines should
    /// use it so that one NaN metric from a timeout-flagged trial is
    /// rejected at ingestion — with [`Summary::nan_index`] naming the
    /// offending trial — instead of panicking mid-batch deep inside the
    /// percentile sort.
    pub fn try_of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || Self::nan_index(values).is_some() {
            None
        } else {
            Some(Summary::of(values))
        }
    }

    /// Index of the first NaN in `values`, if any — the diagnostic
    /// companion to [`Summary::try_of`]: callers aggregating per-trial
    /// metrics map the index back to a trial number and seed.
    pub fn nan_index(values: &[f64]) -> Option<usize> {
        values.iter().position(|v| v.is_nan())
    }

    /// Summarises any iterator of numbers convertible to `f64`.
    pub fn of_iter<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<f64>,
    {
        let v: Vec<f64> = values.into_iter().map(Into::into).collect();
        Summary::of(&v)
    }

    /// Non-panicking variant of [`Summary::of_iter`].
    pub fn try_of_iter<I, V>(values: I) -> Option<Self>
    where
        I: IntoIterator<Item = V>,
        V: Into<f64>,
    {
        let v: Vec<f64> = values.into_iter().map(Into::into).collect();
        Summary::try_of(&v)
    }
}

/// Percentile (0–100) of a **sorted** sample with linear interpolation.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Percentile (0–100) of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "cannot take percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, p)
}

/// Least-squares fit of `y = c · x^e` on log–log scale; returns `(e, c)`.
///
/// Used to check asymptotic claims: fitting measured message counts against
/// `n` should give `e ≈ 0.5` for the paper's protocols and `e ≈ 2` for
/// quadratic baselines. `None` when the slope is undefined: the samples
/// differ in length, there are fewer than two points, a coordinate is
/// `≤ 0`, or all `x` values are equal.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 || !xs.iter().chain(ys).all(|&v| v > 0.0) {
        return None;
    }
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    Some((slope, intercept.exp()))
}

/// Wilson score interval for a binomial proportion at ~95% confidence.
///
/// Returns `(low, high)`. Robust for success counts near 0 or `trials`,
/// which is exactly where "succeeds with high probability" claims live.
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "more successes than trials");
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.p999, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn power_law_recovers_exact_exponent() {
        let xs: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(0.5)).collect();
        let (e, c) = fit_power_law(&xs, &ys).unwrap();
        assert!((e - 0.5).abs() < 1e-9, "exponent {e}");
        assert!((c - 3.0).abs() < 1e-9, "coefficient {c}");
    }

    #[test]
    fn power_law_on_noisy_quadratic() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64 * 100.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| x * x * (1.0 + 0.01 * (i as f64 % 3.0)))
            .collect();
        let (e, _) = fit_power_law(&xs, &ys).unwrap();
        assert!((e - 2.0).abs() < 0.05, "exponent {e}");
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let (lo, hi) = wilson_interval(90, 100);
        assert!(lo < 0.9 && 0.9 < hi);
        assert!(lo > 0.8 && hi < 0.97);
        let (lo0, _) = wilson_interval(0, 50);
        assert_eq!(lo0, 0.0);
        let (_, hi1) = wilson_interval(50, 50);
        assert_eq!(hi1, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn try_of_is_total() {
        assert_eq!(Summary::try_of(&[]), None);
        assert_eq!(Summary::try_of_iter(std::iter::empty::<f64>()), None);
        let s = Summary::try_of(&[2.0, 4.0]).unwrap();
        assert_eq!(s.mean, 3.0);
        assert_eq!(Summary::try_of_iter([2.0f64, 4.0]).unwrap().mean, 3.0);
    }

    /// Regression: a NaN metric (e.g. from a timeout-flagged trial) used
    /// to panic inside the percentile sort (`expect("NaN in sample")`),
    /// taking the whole aggregation batch down. `try_of` now rejects it
    /// at ingestion and `nan_index` names the offending position.
    #[test]
    fn try_of_rejects_nan_instead_of_panicking() {
        let poisoned = [3.0, f64::NAN, 5.0];
        assert_eq!(Summary::try_of(&poisoned), None);
        assert_eq!(Summary::nan_index(&poisoned), Some(1));
        assert_eq!(Summary::nan_index(&[3.0, 5.0]), None);
        assert_eq!(Summary::try_of(&[f64::NAN]), None);
    }

    #[test]
    #[should_panic(expected = "must be in [0,100]")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn power_law_rejects_non_positive_points() {
        assert_eq!(fit_power_law(&[1.0, 2.0], &[0.0, 3.0]), None);
    }

    #[test]
    fn power_law_rejects_single_point() {
        assert_eq!(fit_power_law(&[4.0], &[9.0]), None);
    }

    #[test]
    fn power_law_rejects_mismatched_lengths() {
        assert_eq!(fit_power_law(&[1.0, 2.0, 3.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn power_law_rejects_degenerate_axis() {
        // All-equal x coordinates leave the log–log slope undefined.
        assert_eq!(fit_power_law(&[8.0, 8.0, 8.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn power_law_flat_line_fits_zero_exponent() {
        let (e, c) = fit_power_law(&[1.0, 4.0, 16.0], &[5.0, 5.0, 5.0]).unwrap();
        assert!(e.abs() < 1e-12, "exponent {e}");
        assert!((c - 5.0).abs() < 1e-9, "coefficient {c}");
    }

    #[test]
    fn summary_of_all_equal_samples_is_degenerate_point() {
        let s = Summary::of(&[4.0; 9]);
        assert_eq!(s.count, 9);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!((s.min, s.max), (4.0, 4.0));
        assert_eq!((s.median, s.p95), (4.0, 4.0));
        assert_eq!((s.p99, s.p999), (4.0, 4.0));
    }

    #[test]
    fn tail_percentiles_are_ordered_and_interpolate() {
        // 0..=999: p99 sits between the 989th and 990th order statistic,
        // p999 within the last step — both strictly above p95.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.p95 - 949.05).abs() < 1e-9, "p95 {}", s.p95);
        assert!((s.p99 - 989.01).abs() < 1e-9, "p99 {}", s.p99);
        assert!((s.p999 - 998.001).abs() < 1e-9, "p999 {}", s.p999);
        assert!(s.p95 < s.p99 && s.p99 < s.p999 && s.p999 <= s.max);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_interval_rejects_zero_trials() {
        let _ = wilson_interval(0, 0);
    }

    #[test]
    #[should_panic(expected = "more successes than trials")]
    fn wilson_interval_rejects_excess_successes() {
        let _ = wilson_interval(5, 4);
    }

    #[test]
    fn wilson_interval_extremes_stay_informative() {
        // Zero successes: the lower bound clamps to 0 but the upper bound
        // must stay strictly positive (that's the whole point of Wilson
        // over the normal approximation near the boundary).
        let (lo, hi) = wilson_interval(0, 20);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.3, "upper {hi}");
        // All successes, mirrored (upper bound reaches 1 up to rounding).
        let (lo, hi) = wilson_interval(20, 20);
        assert!(hi > 1.0 - 1e-12 && hi <= 1.0, "upper {hi}");
        assert!(lo > 0.7 && lo < 1.0, "lower {lo}");
        // A single trial still yields a sane, wide interval.
        let (lo, hi) = wilson_interval(1, 1);
        assert!(hi > 1.0 - 1e-12 && hi <= 1.0, "upper {hi}");
        assert!(lo > 0.0 && lo < 0.5, "lower {lo}");
    }

    #[test]
    fn wilson_interval_tightens_with_sample_size() {
        let (lo_small, hi_small) = wilson_interval(8, 10);
        let (lo_big, hi_big) = wilson_interval(800, 1000);
        assert!(hi_big - lo_big < hi_small - lo_small);
        assert!(lo_big < 0.8 && 0.8 < hi_big);
    }
}
