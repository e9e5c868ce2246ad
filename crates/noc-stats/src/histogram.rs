//! Exact-value histogram with percentile queries.

use std::collections::BTreeMap;
use std::fmt;

/// An exact histogram over `u64` samples (e.g. latencies in cycles).
///
/// Samples are kept in a sorted multiset (`BTreeMap<value, count>`), so
/// percentiles are exact, memory is bounded by the number of *distinct*
/// values, and merging histograms is cheap. NoC latency distributions have
/// few distinct values relative to sample counts, making this the right
/// trade-off over bucketed approximations.
///
/// # Examples
///
/// ```
/// use noc_stats::Histogram;
/// let mut h = Histogram::new();
/// h.record_n(5, 3);
/// h.record(100);
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.percentile(0.5), Some(5));
/// assert_eq!(h.percentile(1.0), Some(100));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The exact `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// Uses the "nearest-rank" definition: the smallest value such that at
    /// least `ceil(q * count)` samples are ≤ it (with `q = 0` mapping to the
    /// minimum).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&value, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &c) in &other.counts {
            self.record_n(v, c);
        }
    }

    /// Iterates over `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "histogram(empty)");
        }
        write!(
            f,
            "n={} min={} p50={} p95={} p99={} max={} mean={:.2}",
            self.total,
            self.min().unwrap_or(0),
            self.percentile(0.50).unwrap_or(0),
            self.percentile(0.95).unwrap_or(0),
            self.percentile(0.99).unwrap_or(0),
            self.max().unwrap_or(0),
            self.mean()
        )
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.to_string(), "histogram(empty)");
    }

    #[test]
    fn basic_statistics() {
        let h: Histogram = [1u64, 2, 3, 4, 5].into_iter().collect();
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5));
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.sum(), 15);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let h: Histogram = (1u64..=100).collect();
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(0.5), Some(50));
        assert_eq!(h.percentile(0.95), Some(95));
        assert_eq!(h.percentile(0.99), Some(99));
        assert_eq!(h.percentile(1.0), Some(100));
    }

    #[test]
    fn percentile_with_duplicates() {
        let mut h = Histogram::new();
        h.record_n(10, 99);
        h.record(1000);
        assert_eq!(h.percentile(0.5), Some(10));
        assert_eq!(h.percentile(0.99), Some(10));
        assert_eq!(h.percentile(1.0), Some(1000));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a: Histogram = [1u64, 2].into_iter().collect();
        let b: Histogram = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(1, 1), (2, 2), (3, 1)]);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(5, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn extend_and_clear() {
        let mut h = Histogram::new();
        h.extend([1u64, 2, 3]);
        assert_eq!(h.count(), 3);
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn display_mentions_count() {
        let h: Histogram = [5u64; 4].into_iter().collect();
        assert!(h.to_string().contains("n=4"));
    }
}
