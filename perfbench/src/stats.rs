//! Small order statistics used by every workload.

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `pct`% of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let rank = rank(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of `pct` in a sample of `n`, `None` when empty.
fn rank(n: usize, pct: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let exact = (pct / 100.0 * n as f64).ceil() as usize;
    Some(exact.clamp(1, n))
}

/// The median of `values` (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Tail percentiles a [`Summary`] may report, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A latency sample reduced the way the benchmark reports timings: the
/// median, the highest percentile that still has at least ten samples
/// above it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, `None` when
    /// fewer than ten samples lie above even the lowest candidate.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0)?;
        let n = sorted.len();
        let tail = TAILS.iter().find_map(|&pct| {
            let r = rank(n, pct)?;
            (n - r >= 10).then(|| (pct, sorted[r - 1]))
        });
        Some(Summary {
            count: n,
            p50,
            tail,
        })
    }

    /// The value at `pct` if the sample supports it (at least ten
    /// samples above it).
    pub fn supported(&self, pct: f64) -> bool {
        self.tail.is_some_and(|(p, _)| p >= pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
