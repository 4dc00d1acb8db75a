//! Order statistics over the per-op timings of one run.

/// The tail percentile never exceeds this. Past 200 samples the tail keeps
/// 5% of the run beyond it, so a burst of host noise shorter than that
/// cannot set it on its own.
pub const MAX_TAIL_PERCENTILE: usize = 95;

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a timing distribution: the highest percentile, capped at
/// [`MAX_TAIL_PERCENTILE`], that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples strictly beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 93.5 for p93.5).
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Computes the [`Tail`] of `values` by nearest rank: rank `r` (1-based) of
/// `n` samples is percentile `100·r/n` and has `n − r` samples beyond it. The
/// rank is the largest with `n − r ≥ 10` and `100·r/n ≤ 95`. Fewer than 11
/// samples cannot satisfy the rule; the maximum is reported with the (short)
/// count beyond it, so the caller can see the rule was not met.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            percentile: 0.0,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let sorted = sorted(values);
    let rank = if n <= TAIL_SAMPLES_BEYOND {
        n
    } else {
        (n - TAIL_SAMPLES_BEYOND).min(n * MAX_TAIL_PERCENTILE / 100)
    };
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the rule cannot rely on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_below_the_cap() {
        let t = tail(&ramp(140));
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 130.0);
        assert!((t.percentile - 100.0 * 130.0 / 140.0).abs() < 1e-12);
        // One sample fewer beyond would break the rule; one more is not the
        // highest such percentile.
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_is_capped_at_p95_for_long_runs() {
        let t = tail(&ramp(5000));
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 4750.0);
        assert_eq!(t.beyond, 250);
        // The cap and the count rule meet at 200 samples.
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.beyond), (95.0, 10));
    }

    #[test]
    fn short_runs_report_the_maximum_and_the_shortfall() {
        let t = tail(&ramp(7));
        assert_eq!((t.value, t.beyond, t.percentile), (7.0, 0, 100.0));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
