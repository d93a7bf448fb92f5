//! Heap allocator over the simulated address space.
//!
//! One allocator serves all protection schemes; each scheme wraps it:
//!
//! - SGXBounds asks for `size + 4` and appends the lower bound (paper §3.2);
//! - the ASan baseline configures redzones and a quarantine (paper §2.2);
//! - MPX and native use it as-is.
//!
//! Bookkeeping lives host-side (sizes, free lists), but the *footprint* is
//! fully modelled: every allocation reserves virtual memory in the machine,
//! a header store keeps the chunk's cache line warm like a real allocator
//! header would, and exceeding the enclave's reservation cap produces the
//! out-of-memory failures the paper observes for MPX (SQLite, dedup, astar,
//! mcf, xalanc).
//!
//! Layout of one chunk: `[8 B header][pre redzone][user size][post redzone]`.

use sgxs_mir::{IntrinsicCtx, Trap};
use std::collections::{HashMap, VecDeque};

/// Start of the `mmap` region for large/page-granular allocations.
pub const MMAP_BASE: u32 = 0x8000_0000;
/// End of the `mmap` region (stacks live above).
pub const MMAP_END: u32 = 0xD000_0000;
/// End of the brk (small object) arena.
pub const BRK_END: u32 = 0x4000_0000;
/// Allocations of at least this size go to the page-granular region.
pub const MMAP_THRESHOLD: u32 = 64 << 10;

// 8-byte chunk header, like glibc — keeps SGXBounds' +4 bytes from
// spilling small objects into the next size class.
const HEADER: u32 = 8;
const PAGE: u32 = 4096;

/// Allocator policy knobs (set by the protection schemes).
#[derive(Debug, Clone, Copy)]
pub struct AllocOpts {
    /// Bytes of unaddressable padding before each object (ASan redzone).
    pub redzone_pre: u32,
    /// Bytes of padding after each object.
    pub redzone_post: u32,
    /// Freed chunks are parked in a FIFO quarantine of at most this many
    /// bytes before becoming reusable (ASan-style; obstructs reuse and
    /// inflates the footprint, paper §6.2 *swaptions*).
    pub quarantine_bytes: u64,
    /// Total reserved-virtual-memory cap — the enclave's usable address
    /// space. Exceeding it is an out-of-memory trap.
    pub reserve_cap: u64,
}

impl Default for AllocOpts {
    fn default() -> Self {
        AllocOpts {
            redzone_pre: 0,
            redzone_post: 0,
            quarantine_bytes: 0,
            reserve_cap: u32::MAX as u64,
        }
    }
}

/// Deterministic allocator-failure injection (chaos tier): a seeded
/// xorshift stream decides per request whether the allocator reports OOM,
/// modelling transient enclave memory pressure. Zero-cost when no plan is
/// installed — `malloc`/`mmap` behaviour is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct AllocFaultPlan {
    /// Failure probability in parts per 1024 (0 never, 1024 always).
    pub fail_per_1024: u16,
    /// Remaining injected failures; `None` is unlimited.
    pub budget: Option<u32>,
    state: u64,
}

impl AllocFaultPlan {
    /// A plan seeded from the chaos schedule.
    pub fn new(seed: u64, fail_per_1024: u16) -> Self {
        AllocFaultPlan {
            fail_per_1024,
            budget: None,
            state: seed | 1,
        }
    }

    /// Caps the number of failures the plan may inject.
    pub fn with_budget(mut self, failures: u32) -> Self {
        self.budget = Some(failures);
        self
    }

    fn should_fail(&mut self) -> bool {
        if self.fail_per_1024 == 0 || self.budget == Some(0) {
            return false;
        }
        // xorshift64*: deterministic, seed-driven.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let r = (self.state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 54) & 1023;
        let fail = (r as u16) < self.fail_per_1024;
        if fail {
            if let Some(b) = self.budget.as_mut() {
                *b -= 1;
            }
        }
        fail
    }
}

#[derive(Debug, Clone, Copy)]
struct ChunkInfo {
    /// Chunk base (header address).
    base: u32,
    /// Whole-chunk footprint in bytes.
    footprint: u32,
    /// User-visible size.
    user_size: u32,
    /// Size class index, or `usize::MAX` for mmap chunks.
    class: usize,
}

/// Allocation statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllocStats {
    /// `malloc`/`calloc`/`realloc` calls served.
    pub allocs: u64,
    /// `free` calls served.
    pub frees: u64,
    /// Live user bytes right now.
    pub live_bytes: u64,
    /// Peak live user bytes.
    pub peak_live_bytes: u64,
}

/// The heap allocator.
pub struct HeapAlloc {
    opts: AllocOpts,
    brk: u32,
    mmap_cursor: u32,
    /// Free chunks per size class.
    free_lists: Vec<Vec<ChunkInfo>>,
    /// user address -> chunk info, for live chunks.
    live: HashMap<u32, ChunkInfo>,
    /// FIFO quarantine of freed chunks (ASan mode).
    quarantine: VecDeque<ChunkInfo>,
    quarantine_used: u64,
    /// Live `mmap` mappings: page-aligned base -> reserved bytes.
    mmap_live: HashMap<u32, u32>,
    /// Chaos failure-injection plan, if any.
    fault_plan: Option<AllocFaultPlan>,
    /// Statistics.
    pub stats: AllocStats,
}

/// Size classes for the brk arena (bytes of chunk footprint).
const CLASSES: &[u32] = &[
    32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288,
    16384, 24576, 32768, 49152, 65536, 98304,
];

fn class_for(footprint: u32) -> Option<usize> {
    CLASSES.iter().position(|&c| c >= footprint)
}

impl HeapAlloc {
    /// Creates an allocator whose brk arena starts at `heap_base`.
    pub fn new(heap_base: u32, opts: AllocOpts) -> Self {
        HeapAlloc {
            opts,
            brk: heap_base,
            mmap_cursor: MMAP_BASE,
            free_lists: vec![Vec::new(); CLASSES.len()],
            live: HashMap::new(),
            quarantine: VecDeque::new(),
            quarantine_used: 0,
            mmap_live: HashMap::new(),
            fault_plan: None,
            stats: AllocStats::default(),
        }
    }

    /// The allocator's policy options.
    pub fn opts(&self) -> AllocOpts {
        self.opts
    }

    /// Installs (or clears) a chaos failure-injection plan.
    pub fn set_fault_plan(&mut self, plan: Option<AllocFaultPlan>) {
        self.fault_plan = plan;
    }

    /// Consults the fault plan; an injected failure reports OOM before any
    /// state changes, so the allocator stays consistent and the request can
    /// be retried.
    fn injected_failure(&mut self, ctx: &IntrinsicCtx<'_>, request: u64) -> Result<(), Trap> {
        if let Some(plan) = self.fault_plan.as_mut() {
            if plan.should_fail() {
                return Err(Trap::OutOfMemory {
                    requested: request,
                    reserved: ctx.machine.mem.reserved(),
                });
            }
        }
        Ok(())
    }

    fn check_cap(&self, ctx: &IntrinsicCtx<'_>, request: u64) -> Result<(), Trap> {
        let reserved = ctx.machine.mem.reserved();
        if reserved + request > self.opts.reserve_cap {
            return Err(Trap::OutOfMemory {
                requested: request,
                reserved,
            });
        }
        Ok(())
    }

    /// Allocates `size` user bytes; returns the user base address.
    ///
    /// Charges allocator work plus a header store. Fails with
    /// [`Trap::OutOfMemory`] when the enclave reservation cap or the address
    /// space is exhausted.
    pub fn malloc(&mut self, ctx: &mut IntrinsicCtx<'_>, size: u32) -> Result<u32, Trap> {
        let size = size.max(1);
        self.injected_failure(ctx, size as u64)?;
        let footprint = HEADER
            .checked_add(self.opts.redzone_pre)
            .and_then(|v| v.checked_add(size))
            .and_then(|v| v.checked_add(self.opts.redzone_post))
            .ok_or(Trap::OutOfMemory {
                requested: size as u64,
                reserved: ctx.machine.mem.reserved(),
            })?;
        ctx.charge(60); // Allocator bookkeeping work.
        let info = if footprint >= MMAP_THRESHOLD {
            self.mmap_chunk(ctx, footprint, size)?
        } else {
            self.small_chunk(ctx, footprint, size)?
        };
        let user = info.base + HEADER + self.opts.redzone_pre;
        self.live.insert(user, info);
        // Header store: size word at the chunk base, like glibc.
        ctx.store(info.base as u64, 8, size as u64)?;
        self.stats.allocs += 1;
        self.stats.live_bytes += size as u64;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        if ctx.machine.obs_enabled() {
            ctx.machine
                .emit(sgxs_sim::obs::Event::Alloc { addr: user, size });
        }
        Ok(user)
    }

    fn small_chunk(
        &mut self,
        ctx: &mut IntrinsicCtx<'_>,
        footprint: u32,
        user_size: u32,
    ) -> Result<ChunkInfo, Trap> {
        let class = class_for(footprint).expect("footprint below MMAP_THRESHOLD fits a class");
        if let Some(mut c) = self.free_lists[class].pop() {
            c.user_size = user_size;
            return Ok(c);
        }
        let rounded = CLASSES[class];
        self.check_cap(ctx, rounded as u64)?;
        if self.brk.checked_add(rounded).is_none_or(|e| e > BRK_END) {
            return Err(Trap::OutOfMemory {
                requested: rounded as u64,
                reserved: ctx.machine.mem.reserved(),
            });
        }
        let base = self.brk;
        self.brk += rounded;
        ctx.machine.mem.reserve(rounded as u64);
        Ok(ChunkInfo {
            base,
            footprint: rounded,
            user_size,
            class,
        })
    }

    fn mmap_chunk(
        &mut self,
        ctx: &mut IntrinsicCtx<'_>,
        footprint: u32,
        user_size: u32,
    ) -> Result<ChunkInfo, Trap> {
        let rounded = footprint
            .checked_add(PAGE - 1)
            .map(|v| v & !(PAGE - 1))
            .ok_or(Trap::OutOfMemory {
                requested: footprint as u64,
                reserved: ctx.machine.mem.reserved(),
            })?;
        self.check_cap(ctx, rounded as u64)?;
        if self
            .mmap_cursor
            .checked_add(rounded)
            .is_none_or(|e| e > MMAP_END)
        {
            return Err(Trap::OutOfMemory {
                requested: rounded as u64,
                reserved: ctx.machine.mem.reserved(),
            });
        }
        let base = self.mmap_cursor;
        self.mmap_cursor += rounded;
        ctx.machine.mem.reserve(rounded as u64);
        ctx.charge(300); // mmap syscall-ish cost.
        Ok(ChunkInfo {
            base,
            footprint: rounded,
            user_size,
            class: usize::MAX,
        })
    }

    /// Frees the allocation at user address `addr`.
    ///
    /// Unknown addresses trap (heap corruption / double free).
    pub fn free(&mut self, ctx: &mut IntrinsicCtx<'_>, addr: u32) -> Result<(), Trap> {
        let info = self.live.remove(&addr).ok_or_else(|| {
            Trap::Abort(format!(
                "free of unknown or already-freed pointer {addr:#x}"
            ))
        })?;
        ctx.charge(40);
        if ctx.machine.obs_enabled() {
            ctx.machine.emit(sgxs_sim::obs::Event::Free { addr });
        }
        self.stats.frees += 1;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(info.user_size as u64);
        if self.opts.quarantine_bytes > 0 {
            self.quarantine.push_back(info);
            self.quarantine_used += info.footprint as u64;
            while self.quarantine_used > self.opts.quarantine_bytes {
                let old = self
                    .quarantine
                    .pop_front()
                    .expect("used > 0 implies nonempty");
                self.quarantine_used -= old.footprint as u64;
                self.recycle(ctx, old);
            }
        } else {
            self.recycle(ctx, info);
        }
        Ok(())
    }

    fn recycle(&mut self, ctx: &mut IntrinsicCtx<'_>, info: ChunkInfo) {
        if info.class == usize::MAX {
            // mmap chunks are returned to the OS.
            ctx.machine.mem.unreserve(info.footprint as u64);
        } else {
            self.free_lists[info.class].push(info);
        }
    }

    /// User size of a live allocation.
    pub fn usable_size(&self, addr: u32) -> Option<u32> {
        self.live.get(&addr).map(|c| c.user_size)
    }

    /// The redzone geometry `(pre, post)` applied to each object.
    pub fn redzones(&self) -> (u32, u32) {
        (self.opts.redzone_pre, self.opts.redzone_post)
    }

    /// Maps `bytes` of page-granular anonymous memory (no header, no
    /// redzones) — the primitive custom application allocators build on.
    ///
    /// This is where the paper's Apache anomaly comes from: a page-aligned
    /// request grown by SGXBounds' 4 metadata bytes spills into one extra
    /// page (paper §7 "Apache").
    pub fn mmap(&mut self, ctx: &mut IntrinsicCtx<'_>, bytes: u32) -> Result<u32, Trap> {
        self.injected_failure(ctx, bytes as u64)?;
        let rounded = bytes
            .max(1)
            .checked_add(PAGE - 1)
            .map(|v| v & !(PAGE - 1))
            .ok_or(Trap::OutOfMemory {
                requested: bytes as u64,
                reserved: ctx.machine.mem.reserved(),
            })?;
        self.check_cap(ctx, rounded as u64)?;
        if self
            .mmap_cursor
            .checked_add(rounded)
            .is_none_or(|e| e > MMAP_END)
        {
            return Err(Trap::OutOfMemory {
                requested: rounded as u64,
                reserved: ctx.machine.mem.reserved(),
            });
        }
        let base = self.mmap_cursor;
        self.mmap_cursor += rounded;
        ctx.machine.mem.reserve(rounded as u64);
        ctx.charge(300);
        self.mmap_live.insert(base, rounded);
        Ok(base)
    }

    /// Unmaps a mapping created by [`HeapAlloc::mmap`].
    pub fn munmap(&mut self, ctx: &mut IntrinsicCtx<'_>, addr: u32) -> Result<(), Trap> {
        let bytes = self
            .mmap_live
            .remove(&addr)
            .ok_or_else(|| Trap::Abort(format!("munmap of unknown mapping {addr:#x}")))?;
        ctx.machine.mem.unreserve(bytes as u64);
        ctx.charge(300);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::interp::env::Env;
    use sgxs_sim::{Machine, MachineConfig, Mode, Preset};

    fn ctx_parts() -> (Machine, Env, Vec<String>) {
        (
            Machine::new(MachineConfig::preset(Preset::Tiny, Mode::Native)),
            Env::new(),
            Vec::new(),
        )
    }

    macro_rules! with_ctx {
        ($m:ident, $e:ident, $o:ident, $ctx:ident, $body:block) => {{
            let mut $ctx = IntrinsicCtx {
                machine: &mut $m,
                env: &mut $e,
                core: 0,
                cycles: 0,
                output: &mut $o,
            };
            $body
        }};
    }

    #[test]
    fn malloc_returns_distinct_writable_regions() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(0x2_0000, AllocOpts::default());
        with_ctx!(m, e, o, ctx, {
            let a = ha.malloc(&mut ctx, 100).unwrap();
            let b = ha.malloc(&mut ctx, 100).unwrap();
            assert_ne!(a, b);
            assert!(b >= a + 100 || a >= b + 100, "regions must not overlap");
            ctx.store(a as u64, 8, 1).unwrap();
            ctx.store(b as u64, 8, 2).unwrap();
            assert_eq!(ctx.load(a as u64, 8).unwrap(), 1);
        });
    }

    #[test]
    fn free_then_malloc_reuses_without_quarantine() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(0x2_0000, AllocOpts::default());
        with_ctx!(m, e, o, ctx, {
            let a = ha.malloc(&mut ctx, 64).unwrap();
            ha.free(&mut ctx, a).unwrap();
            let b = ha.malloc(&mut ctx, 64).unwrap();
            assert_eq!(a, b, "freed chunk must be reused immediately");
        });
    }

    #[test]
    fn quarantine_delays_reuse() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(
            0x2_0000,
            AllocOpts {
                quarantine_bytes: 1 << 20,
                ..Default::default()
            },
        );
        with_ctx!(m, e, o, ctx, {
            let a = ha.malloc(&mut ctx, 64).unwrap();
            ha.free(&mut ctx, a).unwrap();
            let b = ha.malloc(&mut ctx, 64).unwrap();
            assert_ne!(a, b, "quarantine must prevent immediate reuse");
        });
    }

    #[test]
    fn double_free_is_caught() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(0x2_0000, AllocOpts::default());
        with_ctx!(m, e, o, ctx, {
            let a = ha.malloc(&mut ctx, 64).unwrap();
            ha.free(&mut ctx, a).unwrap();
            assert!(ha.free(&mut ctx, a).is_err());
        });
    }

    #[test]
    fn reserve_cap_produces_oom() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(
            0x2_0000,
            AllocOpts {
                reserve_cap: 1 << 20, // 1 MB enclave.
                ..Default::default()
            },
        );
        with_ctx!(m, e, o, ctx, {
            let mut last = Ok(0u32);
            for _ in 0..64 {
                last = ha.malloc(&mut ctx, 64 << 10);
                if last.is_err() {
                    break;
                }
            }
            assert!(matches!(last, Err(Trap::OutOfMemory { .. })));
        });
    }

    #[test]
    fn large_allocations_are_page_granular() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(0x2_0000, AllocOpts::default());
        with_ctx!(m, e, o, ctx, {
            let before = ctx.machine.mem.reserved();
            let a = ha.malloc(&mut ctx, MMAP_THRESHOLD).unwrap();
            assert!(a >= MMAP_BASE);
            let grown = ctx.machine.mem.reserved() - before;
            assert_eq!(grown % PAGE as u64, 0);
            // The +16 header pushes a page-aligned request over a page — the
            // Apache +4 B effect at allocator level (paper §7).
            assert!(grown >= (MMAP_THRESHOLD + HEADER) as u64);
        });
    }

    #[test]
    fn redzones_inflate_footprint() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut plain = HeapAlloc::new(0x2_0000, AllocOpts::default());
        let mut fat = HeapAlloc::new(
            0x10_0000,
            AllocOpts {
                redzone_pre: 16,
                redzone_post: 16,
                ..Default::default()
            },
        );
        with_ctx!(m, e, o, ctx, {
            let before = ctx.machine.mem.reserved();
            plain.malloc(&mut ctx, 16).unwrap();
            let plain_grow = ctx.machine.mem.reserved() - before;
            let before = ctx.machine.mem.reserved();
            fat.malloc(&mut ctx, 16).unwrap();
            let fat_grow = ctx.machine.mem.reserved() - before;
            assert!(fat_grow > plain_grow);
        });
    }

    #[test]
    fn fault_plan_injects_deterministic_oom() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(0x2_0000, AllocOpts::default());
        with_ctx!(m, e, o, ctx, {
            // Certain failure: every request reports OOM, no state changes,
            // and clearing the plan makes the same request succeed (the
            // transient-fault model retry policies ride out).
            ha.set_fault_plan(Some(AllocFaultPlan::new(7, 1024)));
            assert!(matches!(
                ha.malloc(&mut ctx, 64),
                Err(Trap::OutOfMemory { .. })
            ));
            assert!(matches!(
                ha.mmap(&mut ctx, 8192),
                Err(Trap::OutOfMemory { .. })
            ));
            assert_eq!(ha.stats.allocs, 0);
            ha.set_fault_plan(None);
            assert!(ha.malloc(&mut ctx, 64).is_ok());
            // A budgeted plan stops injecting after its quota.
            ha.set_fault_plan(Some(AllocFaultPlan::new(7, 1024).with_budget(2)));
            assert!(ha.malloc(&mut ctx, 64).is_err());
            assert!(ha.malloc(&mut ctx, 64).is_err());
            assert!(ha.malloc(&mut ctx, 64).is_ok());
        });
        // Same seed, same decision stream.
        let mut a = AllocFaultPlan::new(99, 512);
        let mut b = AllocFaultPlan::new(99, 512);
        let sa: Vec<bool> = (0..64).map(|_| a.should_fail()).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.should_fail()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&f| f) && sa.iter().any(|&f| !f));
    }

    #[test]
    fn stats_track_live_and_peak() {
        let (mut m, mut e, mut o) = ctx_parts();
        let mut ha = HeapAlloc::new(0x2_0000, AllocOpts::default());
        with_ctx!(m, e, o, ctx, {
            let a = ha.malloc(&mut ctx, 100).unwrap();
            let b = ha.malloc(&mut ctx, 200).unwrap();
            assert_eq!(ha.stats.live_bytes, 300);
            ha.free(&mut ctx, a).unwrap();
            assert_eq!(ha.stats.live_bytes, 200);
            assert_eq!(ha.stats.peak_live_bytes, 300);
            assert_eq!(ha.usable_size(b), Some(200));
            assert_eq!(ha.usable_size(a), None);
        });
    }
}
