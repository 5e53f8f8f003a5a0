//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a spread printed here is the spread a
//! reader recomputes from the same values with the standard library.

/// The ladder of tail percentiles a summary may report.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// A distribution summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median (the mean of the middle two for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest ladder percentile with at least ten samples beyond it,
    /// as `(percentile, value)`; `None` when the samples support no
    /// percentile above the median (always so for `n < 11`).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`; `None` for an empty input.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median: median(&sorted),
            q1,
            q3,
            min,
            max,
            tail: tail(&sorted),
        })
    }

    /// The quartile spread as a share of the median (`0` when the median
    /// is `0`).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The median of `samples` (any order); `None` when empty.
pub fn median_of(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (!sorted.is_empty()).then(|| median(&sorted))
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of non-empty sorted data, by Python's
/// exclusive method (one sample repeats itself).
fn quartiles(sorted: &[f64]) -> [f64; 2] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 2];
    }
    let m = ld as i64 + 1;
    [1, 3].map(|i| {
        // Clamping `j` can make `delta` negative: the outer quartiles of
        // tiny samples extrapolate, exactly as Python's do.
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The highest ladder percentile whose nearest-rank value has at least
/// [`TAIL_SUPPORT`] samples beyond it.
fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_SUPPORT).then(|| (p, sorted[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median_of(&[]), None);
    }

    #[test]
    fn even_n_averages_the_middle_pair() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!((s.min, s.max, s.n), (1.0, 4.0, 4));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        let two = Summary::of(&[9.0, 7.0]).unwrap();
        assert_eq!((two.q1, two.q3), (6.5, 9.5));
        let one = Summary::of(&[3.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
    }

    #[test]
    fn ties_collapse_the_spread() {
        let s = Summary::of(&[5.0, 5.0, 5.0, 5.0, 9.0]).unwrap();
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 5.0);
        assert_eq!(s.spread(), (s.q3 - 5.0) / 5.0);
        let flat = Summary::of(&[2.0; 30]).unwrap();
        assert_eq!(flat.spread(), 0.0);
        assert_eq!(flat.tail, None);
    }

    #[test]
    fn forty_samples_support_p75_and_no_higher() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&forty).unwrap();
        assert_eq!(s.tail, Some((75.0, 30.0)));
    }

    #[test]
    fn small_samples_report_only_the_median() {
        for n in 1..=39 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(Summary::of(&xs).unwrap().tail, None, "n = {n}");
        }
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&hundred).unwrap().tail, Some((90.0, 90.0)));
    }
}
