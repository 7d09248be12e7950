//! Order statistics of the timed solve loop.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (1..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The tail rule: the highest whole percentile, at or above the median,
/// whose nearest rank leaves at least [`TAIL_BEYOND`] samples beyond it.
/// `None` when `n` is too small for any such percentile (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_BEYOND)
}

/// Best-of, median and tail of one set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The fastest sample.
    pub best: f64,
    /// The median (nearest rank).
    pub p50: f64,
    /// `(percentile, value)` by the tail rule, when `count` allows one.
    pub tail: Option<(u32, f64)>,
}

/// Summarize `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: sorted.len(),
        best: sorted[0],
        p50: percentile(&sorted, 50),
        tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(25), Some(60));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..500 {
            let p = tail_percentile(n).unwrap();
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                let next = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - next < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn best_of_is_the_minimum_and_median_is_nearest_rank() {
        let s = summarize(&[0.5, 0.2, 0.9, 0.3, 0.4]).unwrap();
        assert_eq!(s.best, 0.2);
        assert_eq!(s.p50, 0.4);
        assert_eq!(s.count, 5);
        assert_eq!(s.tail, None);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_value_is_the_percentile_sample() {
        let samples: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.best, 1.0);
        assert_eq!(s.p50, 13.0);
        assert_eq!(s.tail, Some((60, 15.0)));
    }
}
