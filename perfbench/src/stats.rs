//! The benchmark's own arithmetic: medians, geometric means over completed
//! runs, and the tail-percentile rule.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer tenths of a percent so that e.g. p99.9 of 10 000 is rank 9990.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    ((permille * n).div_ceil(1000)).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// of `n` samples strictly above its rank, if any does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
}

/// A tail as reported: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen by [`tail_percentile`] (0 when none qualifies).
    pub pct: f64,
    /// The sample at that percentile (0 when none qualifies).
    pub value: f64,
    /// Samples the choice was made over.
    pub samples: usize,
}

/// The tail of `samples` under the [`MIN_BEYOND`] rule.
pub fn tail(samples: &[f64]) -> Tail {
    match tail_percentile(samples.len()) {
        Some(pct) => Tail {
            pct,
            value: percentile(samples, pct),
            samples: samples.len(),
        },
        None => Tail {
            pct: 0.0,
            value: 0.0,
            samples: samples.len(),
        },
    }
}

/// Geometric mean of the ratios of runs that completed; `None` entries
/// (a run that did not complete) are left out. `None` when nothing
/// completed.
pub fn gmean_completed(ratios: &[Option<f64>]) -> Option<f64> {
    let done: Vec<f64> = ratios.iter().flatten().copied().collect();
    if done.is_empty() {
        return None;
    }
    let log_sum: f64 = done.iter().map(|r| r.ln()).sum();
    Some((log_sum / done.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: even p50 (rank 10) leaves only 9 beyond.
        assert_eq!(tail_percentile(19), None);
        // 20 samples: p50 has rank 10 and exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 100 samples: p90 has rank 90 and 10 beyond; p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 1000 samples: p99 has rank 990 and 10 beyond; p99.9 only 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 10_000 samples: p99.9 has rank 9990 and 10 beyond.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_reports_value_and_sample_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(
            t,
            Tail {
                pct: 90.0,
                value: 90.0,
                samples: 100
            }
        );
        let few = tail(&[5.0; 7]);
        assert_eq!((few.pct, few.value, few.samples), (0.0, 0.0, 7));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 50.0), 20.0);
        assert_eq!(percentile(&xs, 75.0), 30.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 0.0), 10.0);
    }

    #[test]
    fn gmean_skips_runs_that_did_not_complete() {
        let g = gmean_completed(&[Some(2.0), None, Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        // A failed run must not drag the mean towards 0 or 1.
        let all = gmean_completed(&[Some(1.5), Some(1.5)]).unwrap();
        let with_gap = gmean_completed(&[Some(1.5), None, Some(1.5)]).unwrap();
        assert_eq!(all, with_gap);
        assert_eq!(gmean_completed(&[None, None]), None);
        assert_eq!(gmean_completed(&[]), None);
    }
}
