//! Enclave Page Cache residency tracking with CLOCK replacement.
//!
//! SGX keeps enclave pages in the EPC, a small protected region (paper §2.1:
//! 128 MB total, ~94 MB usable). When a working set exceeds the EPC, the OS
//! evicts pages (re-encrypting them into untrusted memory) and faults them
//! back on access — the dominant cost for large working sets and the reason
//! metadata-hungry schemes (ASan shadow memory, MPX bounds tables) collapse
//! inside enclaves.
//!
//! Replacement uses the CLOCK (second chance) algorithm, a good approximation
//! of the Linux SGX driver's behaviour with O(1) amortized cost.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hash of a page number. The keys are simulated
/// page numbers, not outside input, so SipHash's flooding resistance buys
/// nothing on this per-LLC-miss lookup. The product's well-mixed high half
/// is rotated into the low bits the table indexes with.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the page map hashes only u32 keys")
    }

    fn write_u32(&mut self, page: u32) {
        self.0 = (page as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// EPC residency tracker.
pub struct Epc {
    capacity: usize,
    /// page -> slot index.
    map: HashMap<u32, usize, BuildHasherDefault<PageHasher>>,
    /// (page, referenced bit) per occupied slot.
    slots: Vec<(u32, bool)>,
    hand: usize,
    faults: u64,
    evictions: u64,
}

impl Epc {
    /// Creates an EPC holding `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "EPC must hold at least one page");
        Epc {
            capacity: capacity_pages,
            map: HashMap::default(),
            slots: Vec::with_capacity(capacity_pages),
            hand: 0,
            faults: 0,
            evictions: 0,
        }
    }

    /// Records an access to `page`.
    ///
    /// Returns `(faulted, evicted)`: whether the page had to be brought in,
    /// and whether another page was evicted to make room.
    pub fn touch(&mut self, page: u32) -> (bool, bool) {
        if let Some(&slot) = self.map.get(&page) {
            self.slots[slot].1 = true;
            return (false, false);
        }
        self.faults += 1;
        if self.slots.len() < self.capacity {
            self.map.insert(page, self.slots.len());
            self.slots.push((page, true));
            return (true, false);
        }
        // CLOCK: advance the hand until a slot with a clear referenced bit.
        loop {
            let (victim_page, referenced) = self.slots[self.hand];
            if referenced {
                self.slots[self.hand].1 = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                self.map.remove(&victim_page);
                self.map.insert(page, self.hand);
                self.slots[self.hand] = (page, true);
                self.hand = (self.hand + 1) % self.capacity;
                self.evictions += 1;
                return (true, true);
            }
        }
    }

    /// Re-sizes the EPC in place (chaos injection: EPC pressure storms
    /// model other enclaves grabbing protected pages mid-run).
    ///
    /// Shrinking evicts resident pages with the same CLOCK second-chance
    /// scan `touch` uses until the survivors fit, counting each eviction;
    /// the evicted pages fault back in on their next access. Growing just
    /// raises the ceiling. The capacity is floored at one page.
    pub fn set_capacity(&mut self, capacity_pages: usize) {
        let cap = capacity_pages.max(1);
        while self.slots.len() > cap {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let (victim, referenced) = self.slots[self.hand];
            if referenced {
                self.slots[self.hand].1 = false;
                self.hand += 1;
                continue;
            }
            self.map.remove(&victim);
            self.slots.remove(self.hand);
            // Slots after the hand shifted down one; re-point their map
            // entries (bounded by capacity, which is small).
            for (i, (p, _)) in self.slots.iter().enumerate().skip(self.hand) {
                self.map.insert(*p, i);
            }
            self.evictions += 1;
        }
        self.capacity = cap;
        if self.hand >= self.capacity {
            self.hand = 0;
        }
    }

    /// Returns `true` if `page` is currently resident.
    pub fn resident(&self, page: u32) -> bool {
        self.map.contains_key(&page)
    }

    /// Total page faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of pages the EPC can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    pub fn resident_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_touch_faults_once() {
        let mut e = Epc::new(4);
        assert_eq!(e.touch(7), (true, false));
        assert_eq!(e.touch(7), (false, false));
        assert_eq!(e.faults(), 1);
    }

    #[test]
    fn fills_before_evicting() {
        let mut e = Epc::new(3);
        e.touch(1);
        e.touch(2);
        e.touch(3);
        assert_eq!(e.evictions(), 0);
        assert_eq!(e.resident_count(), 3);
        let (fault, evict) = e.touch(4);
        assert!(fault && evict);
        assert_eq!(e.resident_count(), 3);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut e = Epc::new(2);
        e.touch(1);
        e.touch(2);
        // Both referenced; inserting 3 clears bits and evicts page 1 (hand
        // starts at slot 0).
        e.touch(3);
        assert!(!e.resident(1));
        assert!(e.resident(2));
        assert!(e.resident(3));
        // Re-touch 2 so it survives the next insertion.
        e.touch(2);
        e.touch(4);
        assert!(e.resident(2) || e.resident(4));
    }

    #[test]
    fn working_set_within_capacity_never_thrashes() {
        let mut e = Epc::new(16);
        for _ in 0..10 {
            for p in 0..16u32 {
                e.touch(p);
            }
        }
        assert_eq!(e.faults(), 16);
        assert_eq!(e.evictions(), 0);
    }

    #[test]
    fn capacity_clamp_evicts_and_recovers() {
        let mut e = Epc::new(8);
        for p in 0..8u32 {
            e.touch(p);
        }
        assert_eq!(e.resident_count(), 8);
        // Storm: clamp to 3 pages. Five pages must leave, counted as
        // evictions, and the tracker stays internally consistent.
        e.set_capacity(3);
        assert_eq!(e.capacity(), 3);
        assert_eq!(e.resident_count(), 3);
        assert_eq!(e.evictions(), 5);
        let survivors: Vec<u32> = (0..8).filter(|&p| e.resident(p)).collect();
        assert_eq!(survivors.len(), 3);
        // Each evicted page faults back in exactly once when re-touched.
        let evicted: Vec<u32> = (0..8).filter(|&p| !e.resident(p)).collect();
        let faults_before = e.faults();
        for &p in &evicted {
            e.touch(p);
        }
        assert_eq!(e.faults() - faults_before, 5);
        // Storm passes: restore capacity, everything fits again.
        e.set_capacity(8);
        for p in 0..8u32 {
            e.touch(p);
        }
        let f2 = e.faults();
        for p in 0..8u32 {
            e.touch(p);
        }
        assert_eq!(e.faults(), f2, "no faults once the storm passes");
    }

    #[test]
    fn capacity_clamp_floors_at_one_page() {
        let mut e = Epc::new(4);
        e.touch(1);
        e.touch(2);
        e.set_capacity(0);
        assert_eq!(e.capacity(), 1);
        assert_eq!(e.resident_count(), 1);
        e.touch(3);
        assert!(e.resident(3));
    }

    #[test]
    fn cyclic_overcommit_thrashes() {
        // A sequential cyclic scan over capacity+1 pages defeats CLOCK and
        // faults on every touch — the paper's EPC-thrashing pathology.
        let mut e = Epc::new(8);
        let mut faults_round2 = 0;
        for round in 0..2 {
            for p in 0..9u32 {
                let (f, _) = e.touch(p);
                if round == 1 && f {
                    faults_round2 += 1;
                }
            }
        }
        assert!(
            faults_round2 >= 8,
            "expected thrashing, got {faults_round2}"
        );
    }
}
