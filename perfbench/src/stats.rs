//! Quantiles taken from the benchmark's own samples.
//!
//! Every percentile is nearest-rank over the raw samples: the value at
//! 1-based rank `ceil(p/100 × N)` of the sorted samples. Nothing here
//! interpolates or reads a histogram, so a reported quantile is always a
//! value that was actually observed, and never above the maximum.

/// How many samples must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (0–100] of `sorted` (ascending,
/// non-empty).
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest percentile with at least [`TAIL_BEYOND`] samples
    /// beyond it: the value at rank `N − 10`. Below `N = 20` that rank
    /// falls under the median, so the maximum is reported instead.
    pub tail: f64,
    /// The percentile `tail` sits at (`100 × (N − 10) / N`, or 100 for
    /// the maximum).
    pub tail_pct: f64,
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail, tail_pct) = if n >= 2 * TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
    } else {
        (sorted[n - 1], 100.0)
    };
    Some(Summary {
        n,
        p50: nearest_rank(&sorted, 50.0),
        tail,
        tail_pct,
    })
}

/// Nearest-rank median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Arithmetic mean, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!(sum.n, 200);
        assert_eq!(sum.tail, 190.0);
        assert_eq!(s.iter().filter(|&&v| v > sum.tail).count(), TAIL_BEYOND);
        assert!((sum.tail_pct - 95.0).abs() < 1e-12);
        let few = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.tail, few.tail_pct, few.p50), (3.0, 100.0, 2.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let at = summarize(&twenty).unwrap();
        assert_eq!((at.tail, at.tail_pct), (10.0, 50.0));
    }

    #[test]
    fn tail_never_exceeds_max() {
        let s = [5.0, 1.0, 9.0, 2.0, 2.0, 3.0, 8.0, 1.0, 4.0, 4.0, 6.0, 7.0];
        let sum = summarize(&s).unwrap();
        assert!(sum.tail <= 9.0 && sum.p50 <= sum.tail);
    }
}
