//! Summaries of timing samples: the median, and the percentile rule the
//! benchmark reports tails by.

/// The median of `samples` (mean of the middle two for an even count),
/// or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail percentile as reported: its value, the percentile actually
/// used, and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile of that rank, as a fraction (`0.99` for p99).
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `want` percentile of `samples`, lowered until at
/// least [`TAIL_BEYOND`] samples lie beyond it. Below `2 * TAIL_BEYOND`
/// samples no percentile from the median up qualifies, and the median
/// rank is reported instead. `None` when there are no samples.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let median_rank = n.div_ceil(2);
    let wanted = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = if n >= 2 * TAIL_BEYOND {
        wanted.min(n - TAIL_BEYOND).max(median_rank)
    } else {
        median_rank
    };
    Some(Tail {
        value: sorted[rank - 1],
        percentile: rank as f64 / n as f64,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!((t.value, t.percentile, t.n), (990.0, 0.99, 1000));
        // Exactly ten samples lie beyond the reported one.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn short_runs_report_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(500), 0.99).unwrap();
        assert_eq!((t.value, t.percentile), (490.0, 0.98));
        let t = tail(&ramp(20), 0.99).unwrap();
        assert_eq!((t.value, t.percentile), (10.0, 0.5));
        assert_eq!(ramp(20).iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median_rank() {
        let t = tail(&ramp(7), 0.99).unwrap();
        assert_eq!((t.value, t.n), (4.0, 7));
        assert_eq!(tail(&[], 0.99), None);
    }

    #[test]
    fn a_low_percentile_is_not_raised() {
        let t = tail(&ramp(1000), 0.5).unwrap();
        assert_eq!((t.value, t.percentile), (500.0, 0.5));
    }
}
