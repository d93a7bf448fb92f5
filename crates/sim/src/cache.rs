//! Set-associative cache model with LRU replacement.
//!
//! The model tracks tags only — data always lives in [`crate::mem::PagedMem`]
//! — because only hit/miss behaviour matters for the cost model. Coherence
//! between per-core L1/L2 caches is not modelled (the simulated workloads
//! partition data between threads, and the paper's effects of interest are
//! capacity effects, not coherence misses); this simplification is recorded
//! in DESIGN.md.

/// Number of bytes in a cache line (matches the paper's Skylake testbed).
pub const LINE_BYTES: u32 = 64;
const LINE_SHIFT: u32 = 6;

/// One set-associative cache level.
pub struct Cache {
    /// Tag per way, `sets * assoc` entries, `u64::MAX` = invalid. Each set
    /// is kept in recency order: way 0 is the most recently used line and
    /// the last way is the next victim (invalid ways collect at the end).
    tags: Vec<u64>,
    sets: usize,
    assoc: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with associativity `assoc`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two, non-zero number
    /// of sets.
    pub fn new(size_bytes: u32, assoc: usize) -> Self {
        let lines = (size_bytes / LINE_BYTES) as usize;
        assert!(assoc > 0 && lines >= assoc, "cache too small for assoc");
        let sets = lines / assoc;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        Cache {
            tags: vec![u64::MAX; sets * assoc],
            sets,
            assoc,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the line containing `addr`, inserting it on a miss.
    ///
    /// Returns `true` on a hit.
    ///
    /// The common associativities are dispatched to a const-generic body so
    /// the way scan and the recency shift fully unroll — this is the
    /// innermost loop of every simulated memory access. Every body keeps the
    /// same recency order, so the choice of body never changes simulated
    /// behaviour.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> LINE_SHIFT;
        let base = ((line as usize) & (self.sets - 1)) * self.assoc;
        let set = &mut self.tags[base..base + self.assoc];
        let hit = match self.assoc {
            4 => access_set::<4>(set.try_into().expect("geometry"), line),
            8 => access_set::<8>(set.try_into().expect("geometry"), line),
            16 => access_set::<16>(set.try_into().expect("geometry"), line),
            _ => access_set_dyn(set, line),
        };
        self.hits += hit as u64;
        self.misses += !hit as u64;
        hit
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all lines and resets counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.hits = 0;
        self.misses = 0;
    }
}

/// Moves `tag` to the front of a recency-ordered set, evicting the last way
/// on a miss. Returns `true` on a hit.
#[inline(always)]
fn access_set<const A: usize>(set: &mut [u64; A], tag: u64) -> bool {
    if set[0] == tag {
        return true;
    }
    // Valid tags in a set are distinct, so at most one way matches; `pos`
    // is that way, or 0 when none does.
    let mut pos = 0;
    for (w, &t) in set.iter().enumerate().skip(1) {
        pos |= w & ((t == tag) as usize).wrapping_neg();
    }
    let hit = pos != 0;
    let pos = if hit { pos } else { A - 1 };
    // Shift ways `0..pos` back by one; the tag at `pos` (the hit line, or
    // the victim) is overwritten by the new most recently used line. Every
    // way is written from a copy, so the shift compiles to selects rather
    // than a jump on `pos`.
    let old = *set;
    for w in 1..A {
        set[w] = if w <= pos { old[w - 1] } else { old[w] };
    }
    set[0] = tag;
    hit
}

/// [`access_set`] for an associativity without a const-generic body.
fn access_set_dyn(set: &mut [u64], tag: u64) -> bool {
    let found = set.iter().position(|&t| t == tag);
    let pos = found.unwrap_or(set.len() - 1);
    set[..=pos].rotate_right(1);
    set[0] = tag;
    found.is_some()
}

/// Splits an access `[addr, addr+len)` into the distinct cache lines it
/// touches (at most two for `len <= 8`, more for bulk transfers).
pub fn lines_touched(addr: u32, len: u32) -> impl Iterator<Item = u64> {
    let first = (addr as u64) >> LINE_SHIFT;
    let last = (addr as u64 + len.max(1) as u64 - 1) >> LINE_SHIFT;
    (first..=last).map(|l| l << LINE_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13F & !0x3F)); // Same line.
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = Cache::new(4096, 4);
        c.access(0x1000);
        assert!(c.access(0x1004));
        assert!(c.access(0x103F));
        assert!(!c.access(0x1040)); // Next line.
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct construct a tiny cache: 4 lines, 4-way => 1 set.
        let mut c = Cache::new(256, 4);
        // Fill the set with 4 distinct lines.
        for i in 0..4u64 {
            assert!(!c.access(i * 64));
        }
        // Touch line 0 to refresh it.
        assert!(c.access(0));
        // Insert a 5th line: victim must be line 1 (oldest), not line 0.
        assert!(!c.access(4 * 64));
        assert!(c.access(0), "line 0 must survive");
        assert!(!c.access(64), "line 1 must have been evicted");
    }

    #[test]
    fn capacity_eviction_round_trip() {
        let mut c = Cache::new(1024, 2); // 16 lines.
        for i in 0..32u64 {
            c.access(i * 64);
        }
        assert_eq!(c.misses(), 32);
        // A second pass over a working set 2x the cache also misses fully
        // (LRU with a sequential scan has zero reuse).
        for i in 0..32u64 {
            c.access(i * 64);
        }
        assert_eq!(c.misses(), 64);
    }

    #[test]
    fn lines_touched_splits_correctly() {
        let v: Vec<u64> = lines_touched(60, 8).collect();
        assert_eq!(v, vec![0, 64]);
        let v: Vec<u64> = lines_touched(64, 8).collect();
        assert_eq!(v, vec![64]);
        let v: Vec<u64> = lines_touched(0, 200).collect();
        assert_eq!(v, vec![0, 64, 128, 192]);
        let v: Vec<u64> = lines_touched(100, 0).collect();
        assert_eq!(v, vec![64]);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Cache::new(4096, 4);
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0));
    }
}
