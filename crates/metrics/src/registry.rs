//! Named metrics with deterministic serialization and merge.

use crate::hist::Hist;
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{MetricsDoc, MetricsHist};
use std::collections::BTreeMap;

pub use sgxs_obs::read::METRICS_SCHEMA;

/// A registry of named counters, gauges, and histograms.
///
/// Names are `/`-separated paths (`latency/sgxbounds/abort`). Storage is
/// `BTreeMap`, so serialization order is the sorted name order regardless
/// of insertion order. Merge semantics are fixed per metric class —
/// counters add, gauges take the maximum, histograms merge bucket-wise —
/// and each is associative and commutative, so merging per-worker
/// registries in any order or grouping yields the identical registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to a counter (saturating).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Raises a gauge to at least `v` (merge = max, the only gauge fold
    /// that is order-independent across shards).
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_owned()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Records one sample into a histogram.
    pub fn record(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_owned()).or_default().record(v);
    }

    /// Merges a pre-built histogram into the named histogram.
    pub fn merge_hist(&mut self, name: &str, h: &Hist) {
        self.hists.entry(name.to_owned()).or_default().merge(h);
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Iterates histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Merges another registry in (counters add, gauges max, histograms
    /// bucket-wise). Associative and commutative.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.counter_add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        for (k, h) in &other.hists {
            self.merge_hist(k, h);
        }
    }

    /// Serializes as a `sgxs-metrics-v1` document. Deterministic: sorted
    /// names, sparse `[index, count]` bucket pairs, integer percentiles.
    pub fn to_json(&self) -> Json {
        self.doc().put()
    }

    /// The registry as its `sgxs-metrics-v1` document.
    pub fn doc(&self) -> MetricsDoc {
        let named = |m: &BTreeMap<String, u64>| m.iter().map(|(k, v)| (k.clone(), *v)).collect();
        MetricsDoc {
            counters: named(&self.counters),
            gauges: named(&self.gauges),
            hists: self
                .hists
                .iter()
                .map(|(name, h)| MetricsHist {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                    p999: h.p999(),
                    buckets: h.nonzero_buckets(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_gauges_max() {
        let mut r = Registry::new();
        r.counter_add("req/served", 3);
        r.counter_add("req/served", 2);
        r.gauge_max("depth", 4);
        r.gauge_max("depth", 2);
        assert_eq!(r.counter("req/served"), 5);
        assert_eq!(r.gauge("depth"), 4);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for i in 0..50u64 {
            a.record("latency/x", i * 7);
            b.record("latency/x", i * 11 + 3);
            a.counter_add("n", 1);
            b.counter_add("n", 1);
            a.gauge_max("peak", i * 7);
            b.gauge_max("peak", i * 11 + 3);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json().to_pretty(), ba.to_json().to_pretty());
        assert_eq!(ab.counter("n"), 100);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let mut r = Registry::new();
        r.record("zeta", 100);
        r.record("alpha", 5);
        r.counter_add("b", 1);
        r.counter_add("a", 1);
        let text = r.to_json().to_pretty();
        assert!(text.contains(METRICS_SCHEMA));
        let za = text.find("zeta").unwrap();
        let al = text.find("alpha").unwrap();
        assert!(al < za, "hists serialize in sorted name order");
        assert_eq!(text, r.to_json().to_pretty());
    }
}
