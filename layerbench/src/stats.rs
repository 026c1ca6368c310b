//! Sample summaries: the median and the tail percentile the report
//! prints beside it.

/// Percentiles the report may print as a tail, lowest first.
pub const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported:
/// with fewer, one slow sample decides the value.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile on [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples strictly beyond its nearest rank, with its
/// value; `None` when even p75 has too few samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| s.len() - rank(s.len(), p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(&s, p)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 128 samples: p90 has rank 116 and 12 beyond; p95 only 6.
        assert_eq!(tail(&ramp(128)), Some((90.0, 116.0)));
        // 100 samples: exactly 10 beyond p90.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 99 samples: p90 leaves 9 beyond, so p75 (rank 75, 24 beyond).
        assert_eq!(tail(&ramp(99)), Some((75.0, 75.0)));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 39 samples: p75 has rank 30 and 9 beyond.
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs = ramp(200);
        xs.reverse();
        assert_eq!(tail(&xs), Some((95.0, 190.0)));
    }
}
