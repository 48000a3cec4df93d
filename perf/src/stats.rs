//! Order statistics over raw samples.
//!
//! Latency quantiles are exact order statistics, not interpolated from a
//! bucketed histogram. A failed operation is a sample of `+∞`, so failures
//! push the quantiles up instead of vanishing from them.

/// p99 is reported only from at least this many samples, so that at least
/// ten of them lie beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Most windows [`Latency::windowed`] splits a run into.
pub const MAX_WINDOWS: usize = 10;

/// The `q`-quantile of ascending `sorted` samples: the sample at 1-based
/// rank `ceil(q·n)`.
pub fn order_statistic(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of a latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// `None` below [`MIN_P99_SAMPLES`].
    pub p99: Option<f64>,
}

impl Latency {
    /// Sorts `samples` (`+∞` for failures) and takes the quantiles.
    pub fn of(samples: &mut [f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(Latency {
            n: samples.len(),
            p50: order_statistic(samples, 0.50),
            p99: (samples.len() >= MIN_P99_SAMPLES).then(|| order_statistic(samples, 0.99)),
        })
    }

    /// Quantiles of samples in completion order, split into up to
    /// [`MAX_WINDOWS`] consecutive windows of at least [`MIN_P99_SAMPLES`]
    /// each (one window when there are fewer). Each quantile is an exact
    /// order statistic within its window and the median over windows is
    /// reported, so a burst of interference in one window does not set the
    /// run's value.
    pub fn windowed(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let windows = (samples.len() / MIN_P99_SAMPLES).clamp(1, MAX_WINDOWS);
        let per = samples.len() / windows;
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for w in 0..windows {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * per
            };
            let l = Latency::of(&mut samples[w * per..end].to_vec())?;
            p50s.push(l.p50);
            p99s.extend(l.p99);
        }
        Some(Latency {
            n: samples.len(),
            p50: median(&p50s),
            p99: (!p99s.is_empty()).then(|| median(&p99s)),
        })
    }
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// spreads computed here and by that function agree.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut s: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let l = Latency::of(&mut s).unwrap();
        assert_eq!(l.n, 2000);
        assert_eq!(l.p50, 1000.0);
        assert_eq!(l.p99, Some(1980.0));
        // No interpolation between neighbours.
        assert_eq!(order_statistic(&[1.0, 10.0], 0.5), 1.0);
        assert_eq!(order_statistic(&[1.0, 10.0], 0.51), 10.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut s: Vec<f64> = (0..1000).map(|_| 1.0).collect();
        for x in s.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        let l = Latency::of(&mut s).unwrap();
        assert_eq!(l.p50, 1.0);
        assert_eq!(l.p99, Some(f64::INFINITY));
        // Half the ops failing puts the median at infinity too.
        let mut half: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { f64::INFINITY } else { 1.0 })
            .collect();
        assert_eq!(Latency::of(&mut half).unwrap().p99, Some(f64::INFINITY));
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let mut s: Vec<f64> = (0..999).map(f64::from).collect();
        let l = Latency::of(&mut s).unwrap();
        assert_eq!(l.p99, None);
        assert_eq!(l.n, 999);
        s.push(5.0);
        assert!(Latency::of(&mut s).unwrap().p99.is_some());
        assert!(Latency::of(&mut []).is_none());
    }

    #[test]
    fn windows_report_the_median_window_so_one_burst_does_not_set_the_value() {
        // Ten windows of 1,000; one of them is a burst of slow ops.
        let samples: Vec<f64> = (0..10_000)
            .map(|i| {
                if (3000..4000).contains(&i) {
                    50.0
                } else {
                    1.0 + (i % 1000) as f64 / 1000.0
                }
            })
            .collect();
        let pooled = Latency::of(&mut samples.clone()).unwrap();
        let windowed = Latency::windowed(&samples).unwrap();
        assert_eq!(pooled.p99, Some(50.0));
        assert_eq!(windowed.p99, Some(1.0 + 989.0 / 1000.0));
        assert_eq!(windowed.p50, 1.0 + 499.0 / 1000.0);
        assert_eq!(windowed.n, 10_000);
        // Fewer than 1,000 samples: one window and no p99.
        assert_eq!(Latency::windowed(&samples[..999]).unwrap().p99, None);
        // Failures in most windows still reach the median.
        let failing: Vec<f64> = (0..3000)
            .map(|i| if i % 50 == 0 { f64::INFINITY } else { 1.0 })
            .collect();
        assert_eq!(
            Latency::windowed(&failing).unwrap().p99,
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
