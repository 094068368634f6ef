//! Order statistics: medians, quartiles and tail-percentile selection.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spreads this harness prints
//! are the spreads an outside check computes from the same values.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (which must not be empty).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        Summary { n: values.len(), median: median(values), q1, q3 }
    }

    /// The quartile spread as a share of the median, `(q3 - q1) / median`.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median (the mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as `statistics.quantiles(values, n=4)`
/// computes them; a single sample is every cut point.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// The candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile that still has at least ten of `n` samples
/// beyond it, or `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|p| (n as f64 * (100.0 - p) / 100.0) >= 10.0 - 1e-9)
}

/// The nearest-rank `p`th percentile of `values`.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let v = sorted(values);
    // The epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from pushing the rank past an exact boundary.
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython's statistics.quantiles(data, n=4).
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            [2.75, 5.5, 8.25]
        );
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (9.25, 10.5, 11.75));
        assert!((s.spread() - 2.5 / 10.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 200, 1000, 4321, 10_000] {
            let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let p = tail_percentile(n).unwrap();
            let cut = percentile(&values, p);
            let beyond = values.iter().filter(|&&v| v > cut).count();
            assert!(beyond >= 10, "n={n}: p{p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=200).map(|v| v as f64).collect();
        assert_eq!(percentile(&values, 95.0), 190.0);
        assert_eq!(percentile(&values, 50.0), 100.0);
        assert_eq!(percentile(&values, 100.0), 200.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
