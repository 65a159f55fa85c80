//! Order statistics for timing samples: the median, and the highest
//! reportable percentile — the highest one that still leaves at least
//! [`MIN_BEYOND`] samples above it, so a tail figure never rests on one or
//! two outliers.

/// Percentiles considered for the tail figure, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `p` percent of the samples are at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `99.9% of 20000` at 19980 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The median of a set of samples (the mean of the two middle samples for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median plus the highest percentile with at least [`MIN_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value, samples beyond it)`, or `None` when there are
    /// too few samples for any tail figure.
    pub tail: Option<(f64, f64, usize)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let tail = TAIL_PERCENTILES
            .iter()
            .rev()
            .find(|&&p| beyond(s.len(), p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&s, p), beyond(s.len(), p)));
        Summary {
            n: s.len(),
            median: median(&s),
            tail,
        }
    }

    /// `median 1.23 us, p99 4.56 us (12 beyond), n=1234`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v, k)) => format!(", p{p} {v:.4} {unit} ({k} beyond)"),
            None => format!(", no percentile has {MIN_BEYOND} samples beyond it"),
        };
        format!("median {:.4} {unit}{tail}, n={}", self.median, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&s).tail, Some((90.0, 90.0, 10)));
        // 99 samples: p90 is rank 90, leaving 9 — no tail at all.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(Summary::of(&s).tail, None);
        // 1000 samples: p99 leaves 10; p99.9 leaves 1.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&s).tail, Some((99.0, 990.0, 10)));
        // 20000 samples: p99.9 leaves 20; p99.99 leaves 2.
        let s: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(Summary::of(&s).tail, Some((99.9, 19980.0, 20)));
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(a.median, 3.0);
        assert_eq!(a.n, 5);
    }
}
