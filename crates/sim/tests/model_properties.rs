//! Property tests pitting the cache and EPC models against simple
//! reference implementations.

use proptest::prelude::*;
use sgxs_sim::cache::Cache;
use sgxs_sim::epc::Epc;
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache agrees with an exact per-set LRU reference model at every
    /// associativity: 4, 8 and 16 ways run the const-generic bodies (the
    /// Tiny L1, L2 and L3), 2 ways the fallback.
    #[test]
    fn cache_matches_reference_lru(addrs in prop::collection::vec(0u64..1u64 << 14, 1..600)) {
        let size = 4096u32;
        for assoc in [2usize, 4, 8, 16] {
            let sets = (size as usize / 64) / assoc;
            let mut cache = Cache::new(size, assoc);
            // Reference: per-set MRU-ordered deque of line tags.
            let mut reference: Vec<VecDeque<u64>> = vec![VecDeque::new(); sets];
            let (mut hits, mut misses) = (0u64, 0u64);
            for &a in &addrs {
                let line = a >> 6;
                let set = (line as usize) & (sets - 1);
                let model = &mut reference[set];
                let ref_hit = if let Some(pos) = model.iter().position(|&t| t == line) {
                    model.remove(pos);
                    model.push_front(line);
                    true
                } else {
                    model.push_front(line);
                    model.truncate(assoc);
                    false
                };
                if ref_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                let got = cache.access(a);
                prop_assert_eq!(got, ref_hit, "{}-way: divergence at address {:#x}", assoc, a);
            }
            prop_assert_eq!(cache.hits(), hits, "{}-way hits", assoc);
            prop_assert_eq!(cache.misses(), misses, "{}-way misses", assoc);
        }
    }

    /// The EPC picks exactly the victims of a linear-search CLOCK reference,
    /// through any mix of touches and capacity changes (the path chaos EPC
    /// storms take).
    #[test]
    fn epc_matches_reference_clock(
        cap in 1usize..24,
        ops in prop::collection::vec((0u32..8, 0u32..40), 1..600),
    ) {
        let mut epc = Epc::new(cap);
        let mut reference = RefClock::new(cap);
        for &(kind, arg) in &ops {
            if kind == 0 {
                // Capacity 0 exercises the one-page floor.
                epc.set_capacity(arg as usize % 24);
                reference.set_capacity(arg as usize % 24);
                prop_assert_eq!(epc.capacity(), reference.cap);
            } else {
                prop_assert_eq!(epc.touch(arg), reference.touch(arg), "touch {}", arg);
            }
            for p in 0..40u32 {
                prop_assert_eq!(epc.resident(p), reference.slots.iter().any(|s| s.0 == p));
            }
            prop_assert_eq!(epc.resident_count(), reference.slots.len());
        }
        prop_assert_eq!(epc.faults(), reference.faults);
        prop_assert_eq!(epc.evictions(), reference.evictions);
    }

    /// EPC residency never exceeds capacity, and a page that was never
    /// touched is never resident.
    #[test]
    fn epc_capacity_invariant(pages in prop::collection::vec(0u32..64, 1..500), cap in 1usize..32) {
        let mut epc = Epc::new(cap);
        let mut touched = std::collections::HashSet::new();
        let mut faults = 0u64;
        for &p in &pages {
            let (fault, evicted) = epc.touch(p);
            touched.insert(p);
            if fault {
                faults += 1;
            }
            prop_assert!(epc.resident_count() <= cap);
            if evicted {
                prop_assert!(fault, "evictions only happen while faulting");
            }
            prop_assert!(epc.resident(p), "just-touched page must be resident");
        }
        prop_assert_eq!(epc.faults(), faults);
        for p in 64u32..80 {
            prop_assert!(!epc.resident(p), "untouched page resident");
        }
        // Faults at least the number of distinct pages (cold misses).
        prop_assert!(faults >= touched.len() as u64);
    }

    /// Within-capacity access sequences never evict.
    #[test]
    fn epc_no_eviction_within_capacity(pages in prop::collection::vec(0u32..16, 1..300)) {
        let mut epc = Epc::new(16);
        for &p in &pages {
            epc.touch(p);
        }
        prop_assert_eq!(epc.evictions(), 0);
        let distinct: std::collections::HashSet<_> = pages.iter().collect();
        prop_assert_eq!(epc.faults(), distinct.len() as u64);
    }
}

/// CLOCK (second chance) by linear search: resident pages with their
/// referenced bits in slot order, and the hand.
struct RefClock {
    cap: usize,
    slots: Vec<(u32, bool)>,
    hand: usize,
    faults: u64,
    evictions: u64,
}

impl RefClock {
    fn new(cap: usize) -> Self {
        RefClock {
            cap,
            slots: Vec::new(),
            hand: 0,
            faults: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, page: u32) -> (bool, bool) {
        if let Some(s) = self.slots.iter_mut().find(|s| s.0 == page) {
            s.1 = true;
            return (false, false);
        }
        self.faults += 1;
        if self.slots.len() < self.cap {
            self.slots.push((page, true));
            return (true, false);
        }
        while self.slots[self.hand].1 {
            self.slots[self.hand].1 = false;
            self.hand = (self.hand + 1) % self.cap;
        }
        self.slots[self.hand] = (page, true);
        self.hand = (self.hand + 1) % self.cap;
        self.evictions += 1;
        (true, true)
    }

    /// Shrinking sweeps the hand over the slots, clearing referenced bits
    /// and removing unreferenced pages until the rest fit.
    fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.slots.len() > self.cap {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].1 {
                self.slots[self.hand].1 = false;
                self.hand += 1;
            } else {
                self.slots.remove(self.hand);
                self.evictions += 1;
            }
        }
        if self.hand >= self.cap {
            self.hand = 0;
        }
    }
}
