//! Log-linear histograms with exact, order-independent merge.
//!
//! Bucket layout is HDR-style: values below [`Hist::SUB_BUCKETS`] land in
//! one-unit-wide buckets; above that, each power-of-two octave splits into
//! [`Hist::SUB_BUCKETS`] equal sub-buckets, bounding relative error by
//! `1 / SUB_BUCKETS` (6.25%). The bucket index is a pure function of the
//! value, counts are saturating `u64` adds, and percentiles are extracted
//! by an integer rank walk — so every operation is deterministic, and
//! merging N per-worker shards yields bit-for-bit the same histogram as
//! recording the same values in one thread, in any order. That property is
//! what lets campaign artifacts stay byte-identical across execution tiers
//! and (later) across parallel shard pools.

use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::check_hist_parts;

/// A log-linear histogram of `u64` samples (simulated cycles).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Dense bucket counts, grown on demand; index per [`Hist::bucket_index`].
    buckets: Vec<u64>,
}

impl Hist {
    /// Sub-buckets per octave (and the width of the initial linear range).
    pub const SUB_BUCKETS: u64 = 16;
    const SUB_BITS: u32 = 4;

    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Bucket index for a value: `v` itself below the linear range, then
    /// `((exp + 1) << 4) | sub` where `exp = msb(v) - 4` and `sub` is the
    /// top four bits after the leading one.
    pub fn bucket_index(v: u64) -> usize {
        if v < Self::SUB_BUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let exp = msb - Self::SUB_BITS;
        (((exp + 1) as usize) << Self::SUB_BITS) | (((v >> exp) as usize) & 0xf)
    }

    /// Smallest value mapping to bucket `idx` — the deterministic
    /// representative percentile extraction reports.
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx < Self::SUB_BUCKETS as usize {
            return idx as u64;
        }
        let exp = (idx >> Self::SUB_BITS) as u32 - 1;
        (Self::SUB_BUCKETS + (idx as u64 & 0xf)) << exp
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(1);
    }

    /// Merges another histogram in. Bucket-wise saturating addition plus
    /// min/max folds: associative, commutative, and shard-count
    /// independent, so any merge tree over any partition of the samples
    /// produces the identical histogram.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(o);
        }
        self.sum = self.sum.saturating_add(other.sum);
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
    }

    /// Rebuilds a histogram from its serialized parts — the inverse of
    /// (`count`, `sum`, `min`, `max`, [`Hist::nonzero_buckets`]). Used by
    /// the campaign journal to restore a checkpointed shard without
    /// re-running its seeds; the reconstruction is exact (the dense bucket
    /// vector always ends on a non-empty bucket, which the nonzero list
    /// preserves), so a restored histogram is `==` to the original and
    /// merges byte-identically. The parts are trusted: the bucket vector
    /// is as long as the largest index, so parts read from a file go
    /// through [`Hist::take`](Field::take), which checks them first.
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64, buckets: &[(u64, u64)]) -> Hist {
        if count == 0 {
            return Hist::default();
        }
        let len = buckets
            .iter()
            .map(|&(i, _)| i as usize + 1)
            .max()
            .unwrap_or(0);
        let mut dense = vec![0u64; len];
        for &(i, c) in buckets {
            dense[i as usize] = c;
        }
        Hist {
            count,
            sum,
            min,
            max,
            buckets: dense,
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect()
    }

    /// The value at permille rank `pm` (e.g. 500 → p50, 999 → p99.9):
    /// the floor of the first bucket whose cumulative count reaches
    /// `ceil(pm * count / 1000)` (clamped to at least one sample). Pure
    /// integer arithmetic; monotone non-decreasing in `pm`.
    pub fn percentile_permille(&self, pm: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((pm as u128 * self.count as u128).div_ceil(1000) as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return Self::bucket_floor(idx);
            }
        }
        self.max()
    }

    /// Median (permille 500).
    pub fn p50(&self) -> u64 {
        self.percentile_permille(500)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile_permille(900)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile_permille(990)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile_permille(999)
    }
}

sgxs_obs::document! {
    /// The exact parts of a [`Hist`], as a campaign journal checkpoints it.
    struct HistParts {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: Vec<(u64, u64)>,
    }
}

/// A histogram serializes as its exact parts; reading them back checks
/// them with [`check_hist_parts`] (the metrics reader's checks) before
/// [`Hist::from_parts`] sizes a bucket vector by the largest index.
impl Field for Hist {
    fn put(&self) -> Json {
        HistParts {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            buckets: self.nonzero_buckets(),
        }
        .put()
    }

    fn take(v: &Json, path: &str) -> Result<Hist, String> {
        let p = HistParts::take(v, path)?;
        check_hist_parts(p.count, p.min, p.max, &p.buckets).map_err(|e| format!("{path}: {e}"))?;
        Ok(Hist::from_parts(p.count, p.sum, p.min, p.max, &p.buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..Hist::SUB_BUCKETS {
            assert_eq!(Hist::bucket_index(v), v as usize);
            assert_eq!(Hist::bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn floor_is_a_left_inverse_of_index() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            12345,
            1 << 20,
            (1 << 20) + 3,
            u64::MAX / 2,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = Hist::bucket_index(v);
            let floor = Hist::bucket_floor(idx);
            assert!(floor <= v, "floor({idx}) = {floor} > {v}");
            assert_eq!(Hist::bucket_index(floor), idx, "floor must stay in bucket");
            // Relative error of the representative is bounded by 1/16.
            assert!(v - floor <= v / Hist::SUB_BUCKETS);
        }
    }

    #[test]
    fn bucket_indices_are_monotone() {
        let mut prev = 0usize;
        for shift in 0..60u32 {
            for sub in 0..16u64 {
                let v = (16 + sub) << shift;
                let idx = Hist::bucket_index(v);
                assert!(idx >= prev, "index regressed at v={v}");
                prev = idx;
            }
        }
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        let p99 = h.p99();
        let p999 = h.p999();
        assert!(p50 <= p99 && p99 <= p999);
        // p50 representative is within one sub-bucket of 500.
        assert!((440..=500).contains(&p50), "p50 = {p50}");
        assert!(p999 >= 900, "p999 = {p999}");
        assert!(p999 <= 1000);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = Hist::new();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        assert_eq!(h.p999(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_equals_single_stream() {
        let vals: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(2654435761) >> 40)
            .collect();
        let mut whole = Hist::new();
        for &v in &vals {
            whole.record(v);
        }
        let mut a = Hist::new();
        let mut b = Hist::new();
        for (i, &v) in vals.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = Hist::new();
        merged.merge(&b);
        merged.merge(&a);
        // Bucket vectors may differ in trailing-zero length; compare
        // through the canonical views.
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.sum(), whole.sum());
        assert_eq!(merged.nonzero_buckets(), whole.nonzero_buckets());
        assert_eq!((merged.min(), merged.max()), (whole.min(), whole.max()));
        for pm in [1, 100, 500, 900, 990, 999, 1000] {
            assert_eq!(
                merged.percentile_permille(pm),
                whole.percentile_permille(pm)
            );
        }
    }

    #[test]
    fn the_reader_bound_is_the_last_bucket() {
        let last = Hist::bucket_index(u64::MAX);
        assert_eq!(last as u64, sgxs_obs::read::MAX_BUCKET_INDEX);
        let mut h = Hist::new();
        h.record(u64::MAX);
        assert_eq!(Hist::take(&h.put(), "h"), Ok(h));
        let forged = |idx: u64| {
            Json::parse(&format!(
                "{{\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[{idx},1]]}}"
            ))
            .unwrap()
        };
        for idx in [last as u64 + 1, 1 << 30, 1 << 62, u64::MAX] {
            let e = Hist::take(&forged(idx), "h").unwrap_err();
            assert!(e.contains("past the last bucket"), "{e}");
        }
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut h = Hist::new();
        for i in 0..300u64 {
            h.record(i.wrapping_mul(2654435761) >> 38);
        }
        let back = Hist::from_parts(h.count(), h.sum(), h.min(), h.max(), &h.nonzero_buckets());
        assert_eq!(back, h, "journal restore must be exact, not approximate");
        assert_eq!(Hist::from_parts(0, 0, 0, 0, &[]), Hist::new());
        // A restored shard merges identically to the original shard.
        let mut via_orig = Hist::new();
        via_orig.merge(&h);
        let mut via_restored = Hist::new();
        via_restored.merge(&back);
        assert_eq!(via_orig, via_restored);
    }
}
