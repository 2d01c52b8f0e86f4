//! Order statistics over the samples one run collects.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Tail percentiles a run may report, highest first.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest tail percentile with at least ten samples beyond it, so the
/// reported tail is an interior order statistic and not the run's few worst
/// samples. Falls back to the lowest candidate when `n` is too small for
/// any (the sample count is printed beside the metric).
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(TAILS[TAILS.len() - 1])
}

/// Sorts a copy of `samples` ascending (total order; no NaN expected).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle samples for even counts.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (`0.0` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile by the exclusive method — the rule of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance check uses.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let v = sorted(samples);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(112, 90.0), 11);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(48), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(112), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(3600), 99.0);
        // Too few for any candidate: the lowest one, flagged by its count.
        assert_eq!(tail_percentile(8), 75.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }
}
