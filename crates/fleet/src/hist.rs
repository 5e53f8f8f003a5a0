//! Stabilization-latency histogram.
//!
//! Latencies (steps of a tenant's final convergence episode) are small
//! integers bounded by the checker's worst-case bound, so a flat bucket
//! array suffices: exact counts, amortized O(1) record, and a merge that
//! is associative and commutative — per-slab histograms can be reduced
//! in any grouping without changing percentiles. The array grows to the
//! largest latency recorded, so a fleet's thousands of per-slab
//! histograms each hold a few dozen buckets until they are merged.

/// Latencies tracked exactly; anything larger lands in the overflow
/// bucket (never hit in practice — checker bounds for fleet-sized
/// protocols are two digits).
const MAX_TRACKED: usize = 4096;

/// Exact histogram of stabilization latencies (in steps).
#[derive(Debug, Clone, Eq)]
pub struct LatencyHistogram {
    /// Bucket `l` counts latency `l`; as long as the largest latency
    /// recorded below [`MAX_TRACKED`].
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    max: u64,
}

/// Two histograms are equal when they hold the same observations: the
/// same nonzero buckets, whatever length each array grew to.
impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.nonzero().eq(other.nonzero())
            && (self.overflow, self.total, self.max) == (other.overflow, other.total, other.max)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            overflow: 0,
            total: 0,
            max: 0,
        }
    }

    /// Record one latency observation.
    pub fn record(&mut self, latency: u64) {
        if latency < MAX_TRACKED as u64 {
            let l = latency as usize;
            if l >= self.counts.len() {
                self.counts.resize(l + 1, 0);
            }
            self.counts[l] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.max = self.max.max(latency);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest latency observed (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Observations beyond the tracked range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bucket-wise sum of `other` into `self`. Associative and
    /// commutative, so per-slab histograms reduce in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(latency, count)` pairs in latency
    /// order (the overflow bucket is not included — see
    /// [`overflow`](LatencyHistogram::overflow)).
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(latency, &c)| (latency as u64, c))
    }

    /// The `q`-th percentile latency by the nearest-rank method
    /// (`q` in `[0, 100]`). `None` when the histogram is empty or the
    /// rank falls in the overflow bucket.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (latency, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(latency as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from(values: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn percentiles_nearest_rank() {
        let h = from(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.percentile(50.0), Some(5));
        assert_eq!(h.percentile(99.0), Some(10));
        assert_eq!(h.percentile(100.0), Some(10));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.total(), 10);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn merge_is_commutative_and_matches_concatenation() {
        let a = from(&[0, 1, 1, 7]);
        let b = from(&[2, 7, 9]);
        let both = from(&[0, 1, 1, 7, 2, 7, 9]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, both);
        assert_eq!(ab.percentile(50.0), both.percentile(50.0));
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (from(&[1, 2]), from(&[3]), from(&[4, 5, 6]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn buckets_grow_to_the_largest_latency() {
        let mut h = LatencyHistogram::new();
        assert!(h.counts.is_empty(), "no buckets before the first record");
        h.record(5);
        h.record(2);
        assert_eq!(h.counts.len(), 6);
        h.record(MAX_TRACKED as u64);
        assert_eq!(h.counts.len(), 6, "overflow adds no bucket");
        let mut wide = from(&[40]);
        wide.merge(&h);
        assert_eq!(wide.counts.len(), 41, "merge extends to the longer array");
        assert_eq!(
            wide.nonzero().collect::<Vec<_>>(),
            [(2, 1), (5, 1), (40, 1)]
        );
    }

    #[test]
    fn equality_ignores_trailing_empty_buckets() {
        let short = from(&[1, 3]);
        let mut long = short.clone();
        long.counts.resize(100, 0);
        assert_eq!(short, long);
        assert_ne!(short, from(&[1, 4]));
    }

    #[test]
    fn overflow_bucket_catches_huge_latencies() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        h.record(3);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.max(), 1_000_000);
        // Rank 2 falls in the overflow bucket.
        assert_eq!(h.percentile(50.0), Some(3));
        assert_eq!(h.percentile(100.0), None);
    }
}
