//! Property tests for histogram determinism — the contract the parallel
//! campaign runner (ROADMAP item 2) and the tier byte-diff in CI rely on:
//! merge is associative, commutative, and shard-count independent, and
//! percentile extraction is monotone.

use proptest::prelude::*;
use sgxs_metrics::{Hist, Registry};

fn record_all(vals: &[u64]) -> Hist {
    let mut h = Hist::new();
    for &v in vals {
        h.record(v);
    }
    h
}

fn canon(h: &Hist) -> (u64, u64, u64, u64, Vec<(u64, u64)>) {
    (h.count(), h.sum(), h.min(), h.max(), h.nonzero_buckets())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(0u64..1_000_000, 0..80),
        b in prop::collection::vec(0u64..1_000_000, 0..80),
    ) {
        let ha = record_all(&a);
        let hb = record_all(&b);
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(canon(&ab), canon(&ba));
        for pm in [0u32, 500, 900, 990, 999, 1000] {
            prop_assert_eq!(ab.percentile_permille(pm), ba.percentile_permille(pm));
        }
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..60),
        b in prop::collection::vec(0u64..1_000_000, 0..60),
        c in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(canon(&left), canon(&right));
    }

    #[test]
    fn sharded_merge_equals_single_stream(
        vals in prop::collection::vec(0u64..50_000_000, 1..120),
        shards in 1usize..9,
    ) {
        // Single-threaded recording of the whole stream...
        let whole = record_all(&vals);
        // ...versus round-robin sharding over N workers, merged in
        // reverse shard order for good measure.
        let mut parts: Vec<Hist> = (0..shards).map(|_| Hist::new()).collect();
        for (i, &v) in vals.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = Hist::new();
        for p in parts.iter().rev() {
            merged.merge(p);
        }
        prop_assert_eq!(canon(&merged), canon(&whole));
        for pm in [1u32, 250, 500, 900, 990, 999] {
            prop_assert_eq!(
                merged.percentile_permille(pm),
                whole.percentile_permille(pm)
            );
        }
    }

    #[test]
    fn recording_order_is_irrelevant(
        vals in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let fwd = record_all(&vals);
        let mut rev = vals.clone();
        rev.reverse();
        let bwd = record_all(&rev);
        prop_assert_eq!(canon(&fwd), canon(&bwd));
    }

    #[test]
    fn percentiles_are_monotone_in_rank(
        vals in prop::collection::vec(0u64..10_000_000, 1..100),
    ) {
        let h = record_all(&vals);
        let mut prev = 0u64;
        for pm in (0..=1000u32).step_by(25) {
            let p = h.percentile_permille(pm);
            prop_assert!(p >= prev, "p({pm}) = {p} < p(prev) = {prev}");
            prev = p;
        }
        // Extremes are pinned to real samples' buckets.
        prop_assert!(h.percentile_permille(0) <= h.min());
        prop_assert!(h.percentile_permille(1000) <= h.max());
        prop_assert!(h.p50() <= h.p999());
    }

    #[test]
    fn percentile_representative_underestimates_by_at_most_a_sub_bucket(
        vals in prop::collection::vec(0u64..100_000_000, 1..100),
    ) {
        let h = record_all(&vals);
        let p = h.p99();
        // The representative is the floor of a bucket that contains at
        // least one sample, so some sample is within 1/16 above it.
        prop_assert!(vals.iter().any(|&v| v >= p && v - p <= p / Hist::SUB_BUCKETS + 1));
    }

    #[test]
    fn registry_merge_matches_single_registry(
        a in prop::collection::vec(0u64..1_000_000, 0..60),
        b in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let mut whole = Registry::new();
        let mut ra = Registry::new();
        let mut rb = Registry::new();
        for &v in &a {
            whole.record("latency/x", v);
            whole.counter_add("n", 1);
            whole.gauge_max("peak", v);
            ra.record("latency/x", v);
            ra.counter_add("n", 1);
            ra.gauge_max("peak", v);
        }
        for &v in &b {
            whole.record("latency/x", v);
            whole.counter_add("n", 1);
            whole.gauge_max("peak", v);
            rb.record("latency/x", v);
            rb.counter_add("n", 1);
            rb.gauge_max("peak", v);
        }
        let mut merged = rb.clone();
        merged.merge(&ra);
        prop_assert_eq!(
            merged.to_json().to_pretty(),
            whole.to_json().to_pretty(),
            "merged registry must serialize byte-identically to single-stream"
        );
    }
}
