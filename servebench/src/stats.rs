//! The order statistics the benchmark reports.

/// Samples a tail percentile must leave beyond it before it is reported
/// as a tail rather than as noise on a handful of outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// One percentile of a sample, with the count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly ranked beyond the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_TAIL_SAMPLES`] samples lie beyond the rank,
    /// so the value describes a tail and not a single outlier.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_TAIL_SAMPLES
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`): the smallest sample with
/// at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample, a NaN, or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank }
}

/// The median of a sample (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Indices of the half of the windows (rounded up) during which the
/// hypervisor stole the fewest ticks, in window order; ties go to the
/// earlier window. Steal is measured apart from the program, so the
/// choice does not favour windows in which the program happened to run
/// fast.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quietest_half(steal: &[u64]) -> Vec<usize> {
    assert!(!steal.is_empty(), "no windows to choose from");
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (steal[i], i));
    order.truncate(steal.len().div_ceil(2));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_hundred_samples() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 99.0);
        assert_eq!((p99.value, p99.samples, p99.beyond), (99.0, 100, 1));
        assert!(!p99.supported(), "one sample beyond p99 is not a tail");
        assert_eq!(percentile(&v, 100.0).value, 100.0);
        assert_eq!(percentile(&v, 0.5).value, 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!((p99.value, p99.beyond), (989.0, 10));
        assert!(p99.supported());
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0).beyond, 9);
        assert!(!percentile(&short, 99.0).supported());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let p = percentile(&[7.0], 99.0);
        assert_eq!((p.value, p.samples, p.beyond), (7.0, 1, 0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quietest_half_ranks_by_steal_then_order() {
        assert_eq!(quietest_half(&[9, 0, 3, 0, 7, 1]), vec![1, 3, 5]);
        assert_eq!(quietest_half(&[0, 0, 0, 0]), vec![0, 1]);
        assert_eq!(quietest_half(&[5, 4, 3]), vec![1, 2]);
        assert_eq!(quietest_half(&[2]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = percentile(&[], 50.0);
    }
}
