//! Log₂-bucketed latency histograms with exact cross-rank merge.
//!
//! A mean hides exactly what matters about receive-wait time: the
//! overlapped pipeline turns *median* waits into compute, so the step
//! time is set by the *tail* (one slow rank holds the barrier). The
//! histogram keeps the full shape at fixed cost: bucket `i` counts
//! values in `[2^(i−1), 2^i)` (bucket 0 counts zeros), 64 buckets cover
//! the whole `u64` range, and quantiles are read off the cumulative
//! counts with at most 2× resolution error — plenty to tell a 100 µs p50
//! from a 10 ms p99.
//!
//! Merging two snapshots adds their buckets, counts and sums and takes
//! the max of maxima — associative and commutative (property-tested), so
//! per-rank histograms can be reduced across ranks in any order, e.g.
//! through an f64 allreduce (exact while counts stay below 2⁵³, see
//! [`HistogramSnapshot::to_f64s`]).

use crate::json::num;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets; covers the full `u64` value range.
pub const BUCKETS: usize = 64;

#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Upper edge (inclusive) of bucket `i` — the value quantile reads
/// report.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free histogram: relaxed atomic buckets, shareable between the
/// recording thread and a snapshotting reader.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable copy of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable, `Copy` histogram state: what crosses rank boundaries
/// and lands in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (mean = sum/count).
    pub sum: u64,
    /// Largest recorded value (exact, not bucket-rounded).
    pub max: u64,
    /// `buckets[i]` counts values in `[2^(i−1), 2^i)`; bucket 0 counts
    /// zeros.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { count: 0, sum: 0, max: 0, buckets: [0; BUCKETS] }
    }
}

/// Number of f64 words [`HistogramSnapshot::to_f64s`] produces.
pub const MERGE_WORDS: usize = BUCKETS + 2;

impl HistogramSnapshot {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), reported as the upper edge of
    /// the bucket holding the ⌈q·count⌉-th smallest value, clamped to
    /// the observed max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Combine two snapshots: buckets/count/sum add, max takes the max.
    /// Associative and commutative with [`HistogramSnapshot::default`]
    /// as identity (property-tested), so cross-rank reduction order
    /// never matters.
    pub fn merged(self, other: HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
        }
    }

    /// The sum-mergeable words (`buckets‖count‖sum`) as f64, for an
    /// elementwise-Sum allreduce across ranks; reduce `max` separately
    /// with a Max. Exact while every count stays below 2⁵³ — the
    /// mailbox would overflow long before the histograms do.
    pub fn to_f64s(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.buckets.iter().map(|&b| b as f64).collect();
        v.push(self.count as f64);
        v.push(self.sum as f64);
        v
    }

    /// Rebuild from [`HistogramSnapshot::to_f64s`] words plus the
    /// separately-reduced max.
    pub fn from_f64s(words: &[f64], max: u64) -> HistogramSnapshot {
        assert_eq!(words.len(), MERGE_WORDS, "merged histogram word count");
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| words[i] as u64),
            count: words[BUCKETS] as u64,
            sum: words[BUCKETS + 1] as u64,
            max,
        }
    }
}

/// Render one histogram snapshot as a JSON object with its summary
/// quantiles plus the non-empty buckets as `[index, count]` pairs
/// (enough to reconstruct the full distribution).
pub fn hist_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("[{i},{c}]"))
        .collect();
    format!(
        r#"{{"count":{},"sum":{},"mean":{},"p50":{},"p90":{},"p99":{},"max":{},"buckets":[{}]}}"#,
        h.count,
        h.sum,
        num(h.mean()),
        h.p50(),
        h.p90(),
        h.p99(),
        h.max,
        buckets.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = Histogram::new();
        // 90 fast values (~1 µs) and 10 slow ones (~1 ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 1_000_000);
        let p50 = s.p50();
        assert!((1_000..4_000).contains(&p50), "p50 {p50} should sit in the fast bucket");
        let p99 = s.p99();
        assert!(p99 >= 524_288, "p99 {p99} should sit in the slow bucket");
        assert!((s.mean() - 100_900.0).abs() < 1.0);
        // The JSON rendering carries the same summary plus the two
        // non-empty buckets.
        let doc = crate::Json::parse(&hist_json(&s)).expect("histogram JSON must parse");
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(100.0));
        assert_eq!(doc.get("p50").unwrap().as_f64(), Some(p50 as f64));
        assert_eq!(doc.get("max").unwrap().as_f64(), Some(1e6));
        assert_eq!(doc.get("buckets").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn quantile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), 5, "upper bucket edge (7) must clamp to the real max");
        assert_eq!(s.p50(), 5);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn merge_adds_and_maxes() {
        let a = Histogram::new();
        a.record(10);
        a.record(100);
        let b = Histogram::new();
        b.record(1_000_000);
        let m = a.snapshot().merged(b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 1_000_110);
        assert_eq!(m.max, 1_000_000);
        assert_eq!(m.merged(HistogramSnapshot::default()), m, "default is the merge identity");
    }

    #[test]
    fn f64_words_roundtrip_and_sum_merge() {
        let a = Histogram::new();
        a.record(7);
        a.record(900);
        let b = Histogram::new();
        b.record(31);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        // Simulate the allreduce: elementwise sum of words, max of maxes.
        let wa = sa.to_f64s();
        let wb = sb.to_f64s();
        let summed: Vec<f64> = wa.iter().zip(&wb).map(|(x, y)| x + y).collect();
        let merged = HistogramSnapshot::from_f64s(&summed, sa.max.max(sb.max));
        assert_eq!(merged, sa.merged(sb));
        // Plain roundtrip.
        assert_eq!(HistogramSnapshot::from_f64s(&sa.to_f64s(), sa.max), sa);
    }
}
