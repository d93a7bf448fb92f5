//! Sorted fact maps: the per-register and per-local bookkeeping of the
//! dataflow states.
//!
//! A [`FactMap`] is a `Vec<(K, V)>` kept sorted by key. The solver clones
//! a state at every block visit and joins one at every edge, and both touch
//! every entry: in a flat vector a clone is one allocation and a join is one
//! merge walk over both key lists ([`FactMap::join_with`]), and a lookup is
//! a binary search with no hashing.
//!
//! An absent key carries the analysis' default meaning — ⊤ for provenance,
//! "no fact" for availability — so a client never stores that value, and
//! two maps are equal exactly when they hold the same facts.

/// A map from `K` to `V` stored as a key-sorted vector of pairs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FactMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FactMap<K, V> {
    fn default() -> Self {
        FactMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> FactMap<K, V> {
    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(e, _)| e.cmp(k))
    }

    /// The value at `k`, if any.
    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.entries[i].1)
    }

    /// Maps `k` to `v`, replacing any previous value.
    pub(crate) fn set(&mut self, k: K, v: V) {
        match self.find(&k) {
            Ok(i) => self.entries[i].1 = v,
            Err(i) => self.entries.insert(i, (k, v)),
        }
    }

    /// Removes `k`; returns its value, if it had one.
    pub(crate) fn remove(&mut self, k: &K) -> Option<V> {
        self.find(k).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps only the entries for which `keep` returns true.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.entries.retain(|(k, v)| keep(k, v));
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Joins `other` into `self` in one merge walk over both key lists.
    ///
    /// Only keys of `self` can survive, since an absent key is the
    /// absorbing value of both clients' joins. For each of them `f` gets
    /// this map's value and `other`'s value at the same key (`None` when
    /// `other` has none) and returns the joined value, or `None` to drop
    /// the entry. Returns whether any entry changed or was dropped.
    pub(crate) fn join_with(
        &mut self,
        other: &Self,
        mut f: impl FnMut(&V, Option<&V>) -> Option<V>,
    ) -> bool
    where
        V: PartialEq,
    {
        let mut theirs = other.entries.iter().peekable();
        let mut changed = false;
        self.entries.retain_mut(|(k, v)| {
            while theirs.next_if(|(o, _)| o < k).is_some() {}
            let o = theirs.next_if(|(o, _)| o == k).map(|(_, ov)| ov);
            match f(v, o) {
                Some(j) => {
                    if j != *v {
                        *v = j;
                        changed = true;
                    }
                    true
                }
                None => {
                    changed = true;
                    false
                }
            }
        });
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::FactMap;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One operation of a random script; keys and values come from small
    /// ranges so that sets overwrite, removes hit and joins overlap.
    #[derive(Debug, Clone)]
    enum Op {
        Set(u8, u8),
        Remove(u8),
        /// Keep entries whose value is not divisible by the divisor.
        Retain(u8),
        Clear,
        /// Must-join (minimum on shared keys) with a map built from pairs.
        JoinMin(Vec<(u8, u8)>),
        /// Keep shared keys with equal values.
        JoinEq(Vec<(u8, u8)>),
    }

    /// A map holding `pairs`; a later pair for the same key wins.
    fn from_pairs(pairs: &[(u8, u8)]) -> FactMap<u8, u8> {
        let mut m = FactMap::default();
        for (k, v) in pairs {
            m.set(*k, *v);
        }
        m
    }

    fn pairs() -> impl Strategy<Value = Vec<(u8, u8)>> {
        prop::collection::vec((0u8..16, 0u8..8), 0..12)
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (0u8..16, 0u8..8).prop_map(|(k, v)| Op::Set(k, v)),
                (0u8..16, 0u8..8).prop_map(|(k, v)| Op::Set(k, v)),
                (0u8..16).prop_map(Op::Remove),
                (2u8..5).prop_map(Op::Retain),
                (0u8..8).prop_map(|_| Op::Clear),
                pairs().prop_map(Op::JoinMin),
                pairs().prop_map(Op::JoinEq),
            ],
            1..40,
        )
    }

    /// The reference join: the retain-over-map form the hash-map states
    /// used, applied to an ordered map.
    fn model_join(
        into: &mut BTreeMap<u8, u8>,
        other: &BTreeMap<u8, u8>,
        f: impl Fn(&u8, Option<&u8>) -> Option<u8>,
    ) -> bool {
        let before = into.len();
        let mut changed = false;
        into.retain(|k, v| match f(v, other.get(k)) {
            Some(j) => {
                changed |= j != *v;
                *v = j;
                true
            }
            None => false,
        });
        changed || before != into.len()
    }

    fn min_join(v: &u8, o: Option<&u8>) -> Option<u8> {
        o.map(|o| (*o).min(*v))
    }

    fn eq_join(v: &u8, o: Option<&u8>) -> Option<u8> {
        (o == Some(v)).then_some(*v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fact_map_agrees_with_an_ordered_map(script in ops()) {
            let mut fm: FactMap<u8, u8> = FactMap::default();
            let mut model: BTreeMap<u8, u8> = BTreeMap::new();
            for op in &script {
                match op {
                    Op::Set(k, v) => {
                        fm.set(*k, *v);
                        model.insert(*k, *v);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(fm.remove(k), model.remove(k), "remove {}", k);
                    }
                    Op::Retain(d) => {
                        fm.retain(|_, v| *v % d != 0);
                        model.retain(|_, v| *v % d != 0);
                    }
                    Op::Clear => {
                        fm.clear();
                        model.clear();
                    }
                    Op::JoinMin(p) | Op::JoinEq(p) => {
                        let f = if matches!(op, Op::JoinMin(_)) { min_join } else { eq_join };
                        let other_fm = from_pairs(p);
                        let other_model: BTreeMap<u8, u8> = p.iter().copied().collect();
                        let got = fm.join_with(&other_fm, f);
                        let want = model_join(&mut model, &other_model, f);
                        prop_assert_eq!(got, want, "changed flag of {:?}", op);
                    }
                }
                // Equal to a map built from the model's contents in key
                // order: same entries, whatever order they were written in.
                let want: Vec<(u8, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(&fm, &from_pairs(&want), "after {:?}", op);
                for k in 0u8..16 {
                    prop_assert_eq!(fm.get(&k), model.get(&k));
                }
            }
        }
    }
}
