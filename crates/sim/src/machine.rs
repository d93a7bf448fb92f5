//! The machine front end: routes every access through cache hierarchy, EPC,
//! and cost model, and surfaces faults.

use crate::cache::{lines_touched, Cache, LINE_BYTES};
use crate::cost::{MachineConfig, Mode};
use crate::epc::Epc;
use crate::mem::{PagedMem, PAGE_SIZE};
use crate::stats::Stats;
use sgxs_obs::{Event, Recorder};
use std::cell::RefCell;
use std::rc::Rc;

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// Access touched a page marked inaccessible (e.g. the SGXBounds guard
    /// page at the top of the enclave, paper §4.4).
    ForbiddenPage,
    /// The access range wraps around the 32-bit address space.
    Wraps,
    /// A 64-bit address with non-zero high bits reached the memory system
    /// uninstrumented — in a real enclave this is a #PF outside the enclave
    /// range.
    NonCanonical,
}

/// A memory access fault (translated into a VM trap by the interpreter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting (untruncated) address.
    pub addr: u64,
    /// Fault class.
    pub kind: MemFaultKind,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory fault at {:#x}: {:?}", self.addr, self.kind)
    }
}

/// The simulated machine: memory, caches, EPC, and counters.
pub struct Machine {
    /// Backing memory; runtimes may use it directly for *uncharged* setup
    /// (input staging), but all program accesses must go through
    /// [`Machine::load`]/[`Machine::store`].
    pub mem: PagedMem,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    epc: Option<Epc>,
    cfg: MachineConfig,
    /// Event counters.
    pub stats: Stats,
    recorder: Option<Rc<RefCell<dyn Recorder>>>,
    // Cached `recorder.enabled()` so the guard is a plain bool test.
    obs_on: bool,
    // Span-event opt-in: check-region spans are high-volume, so emitters
    // guard them behind this second bool in addition to `obs_on`.
    spans_on: bool,
    /// Check site currently executing on the active thread, if any — set by
    /// the interpreter before dispatching a runtime intrinsic so violation
    /// handlers can attribute failures to the offending check site.
    pub cur_site: Option<u32>,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let l1 = (0..cfg.cores)
            .map(|_| Cache::new(cfg.l1_bytes, cfg.l1_assoc))
            .collect();
        let l2 = (0..cfg.cores)
            .map(|_| Cache::new(cfg.l2_bytes, cfg.l2_assoc))
            .collect();
        let l3 = Cache::new(cfg.l3_bytes, cfg.l3_assoc);
        let epc = match cfg.mode {
            Mode::Enclave => Some(Epc::new((cfg.epc_bytes / PAGE_SIZE as u64) as usize)),
            Mode::Native => None,
        };
        Machine {
            mem: PagedMem::new(),
            l1,
            l2,
            l3,
            epc,
            cfg,
            stats: Stats::new(),
            recorder: None,
            obs_on: false,
            spans_on: false,
            cur_site: None,
        }
    }

    /// Installs (or removes) an observability recorder.
    ///
    /// With `None` or a recorder whose `enabled()` is false, every emission
    /// site reduces to one always-false bool test on a *rare* path; counters
    /// and cycle accounting are bit-identical to a build without obs calls.
    pub fn set_recorder(&mut self, rec: Option<Rc<RefCell<dyn Recorder>>>) {
        self.obs_on = rec.as_ref().is_some_and(|r| r.borrow().enabled());
        self.recorder = rec;
    }

    /// Whether an enabled recorder is installed.
    #[inline(always)]
    pub fn obs_enabled(&self) -> bool {
        self.obs_on
    }

    /// Opts in (or out of) span-event emission. Spans follow the same
    /// zero-perturbation rule as every other event: emission changes no
    /// counter and charges no cycle, so the flag only controls event
    /// *volume*, never measured numbers.
    pub fn set_span_mode(&mut self, on: bool) {
        self.spans_on = on;
    }

    /// Whether span events should be emitted (recorder enabled *and* span
    /// mode requested).
    #[inline(always)]
    pub fn spans_enabled(&self) -> bool {
        self.obs_on && self.spans_on
    }

    /// Emits an observability event, timestamped with the retired
    /// instruction count. No-op unless an enabled recorder is installed.
    #[inline]
    pub fn emit(&mut self, ev: Event) {
        if self.obs_on {
            if let Some(rec) = &self.recorder {
                rec.borrow_mut().record(self.stats.instructions, ev);
            }
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Execution mode (native or enclave).
    pub fn mode(&self) -> Mode {
        self.cfg.mode
    }

    /// EPC fault count so far (0 in native mode).
    pub fn epc_faults(&self) -> u64 {
        self.epc.as_ref().map_or(0, |e| e.faults())
    }

    /// Clamps (or restores) the EPC capacity mid-run — chaos injection for
    /// EPC pressure storms, where other enclaves steal protected pages.
    /// Shrinking evicts resident pages immediately (counted in the stats);
    /// they fault back in on next access at the usual fault cost. No-op in
    /// native mode; the capacity is floored at one page.
    pub fn set_epc_capacity_pages(&mut self, pages: usize) {
        if let Some(epc) = self.epc.as_mut() {
            let before = epc.evictions();
            epc.set_capacity(pages);
            self.stats.epc_evictions += epc.evictions() - before;
        }
    }

    /// The configured (un-clamped) EPC capacity in pages, from the preset.
    pub fn configured_epc_pages(&self) -> usize {
        (self.cfg.epc_bytes / PAGE_SIZE as u64) as usize
    }

    /// Validates an address range, returning the 32-bit base or a fault.
    #[inline]
    fn check_range(&self, addr: u64, len: u32) -> Result<u32, MemFault> {
        if addr > u32::MAX as u64 {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::NonCanonical,
            });
        }
        let a = addr as u32;
        if len > 0 && a.checked_add(len - 1).is_none() {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::Wraps,
            });
        }
        if self.mem.range_faults(a, len) {
            return Err(MemFault {
                addr,
                kind: MemFaultKind::ForbiddenPage,
            });
        }
        Ok(a)
    }

    /// Charges the hierarchy for one ≤8-byte access and returns its cycle
    /// cost.
    #[inline]
    fn charge(&mut self, core: usize, addr: u32, len: u32) -> u64 {
        // Callers pass an in-range core id; keep the reduction off the hot
        // path (an integer divide per access) for that common case.
        let core = if core < self.cfg.cores {
            core
        } else {
            core % self.cfg.cores
        };
        // Fast path: the access stays within one line and hits L1 — the
        // overwhelmingly common case on every workload.
        if (addr & (LINE_BYTES - 1)) + len.max(1) <= LINE_BYTES {
            let line = (addr as u64) & !((LINE_BYTES - 1) as u64);
            self.stats.l1_accesses += 1;
            if self.l1[core].access(line) {
                self.stats.mem_cycles += self.cfg.cost.l1_hit;
                return self.cfg.cost.l1_hit;
            }
            self.stats.l1_misses += 1;
            let cycles = self.charge_below_l1(core, line);
            self.stats.mem_cycles += cycles;
            return cycles;
        }
        let mut cycles = 0;
        for line in lines_touched(addr, len) {
            self.stats.l1_accesses += 1;
            if self.l1[core].access(line) {
                cycles += self.cfg.cost.l1_hit;
                continue;
            }
            self.stats.l1_misses += 1;
            cycles += self.charge_below_l1(core, line);
        }
        self.stats.mem_cycles += cycles;
        cycles
    }

    /// L1-miss continuation: walks L2 → L3 → DRAM/EPC for one line and
    /// returns the cycle cost (caller accounts `mem_cycles`).
    fn charge_below_l1(&mut self, core: usize, line: u64) -> u64 {
        if self.l2[core].access(line) {
            return self.cfg.cost.l2_hit;
        }
        self.stats.l2_misses += 1;
        if self.l3.access(line) {
            return self.cfg.cost.l3_hit;
        }
        self.stats.llc_misses += 1;
        let mut cycles = self.cfg.cost.dram;
        if let Some(epc) = self.epc.as_mut() {
            cycles += self.cfg.cost.mee_extra;
            let page = (line >> 12) as u32;
            let (fault, evicted) = epc.touch(page);
            if fault {
                self.stats.epc_faults += 1;
                cycles += self.cfg.cost.epc_fault;
                if self.obs_on {
                    self.emit(Event::EpcFault { page });
                }
            }
            if evicted {
                self.stats.epc_evictions += 1;
                cycles += self.cfg.cost.epc_evict;
                if self.obs_on {
                    self.emit(Event::EpcEvict { page });
                }
            }
        }
        cycles
    }

    /// Loads `len` ∈ {1,2,4,8} bytes at `addr` on behalf of `core`.
    ///
    /// Returns the zero-extended value and the cycle cost.
    #[inline]
    pub fn load(&mut self, core: usize, addr: u64, len: u8) -> Result<(u64, u64), MemFault> {
        let a = self.check_range(addr, len as u32)?;
        self.stats.loads += 1;
        let cycles = self.charge(core, a, len as u32);
        let val = self.mem.read(a, len);
        Ok((val, cycles))
    }

    /// Stores the low `len` ∈ {1,2,4,8} bytes of `val` at `addr`.
    ///
    /// Returns the cycle cost.
    #[inline]
    pub fn store(&mut self, core: usize, addr: u64, len: u8, val: u64) -> Result<u64, MemFault> {
        let a = self.check_range(addr, len as u32)?;
        self.stats.stores += 1;
        let cycles = self.charge(core, a, len as u32);
        self.mem.write(a, len, val);
        Ok(cycles)
    }

    /// Charges a bulk transfer of `len` bytes at `addr` (one hierarchy access
    /// per cache line) without moving data — used by `memcpy`-style
    /// intrinsics that move bytes via [`Machine::mem`] directly.
    pub fn charge_bulk(
        &mut self,
        core: usize,
        addr: u64,
        len: u32,
        is_store: bool,
    ) -> Result<u64, MemFault> {
        let a = self.check_range(addr, len)?;
        if len == 0 {
            return Ok(0);
        }
        if is_store {
            self.stats.stores += (len as u64).div_ceil(LINE_BYTES as u64);
        } else {
            self.stats.loads += (len as u64).div_ceil(LINE_BYTES as u64);
        }
        Ok(self.charge(core, a, len))
    }

    /// Resets caches, EPC residency, and counters, keeping memory contents.
    ///
    /// The harness uses this between the warm-up and measured phases.
    pub fn reset_metrics(&mut self) {
        for c in &mut self.l1 {
            c.reset();
        }
        for c in &mut self.l2 {
            c.reset();
        }
        self.l3.reset();
        if let Some(_epc) = self.epc.as_ref() {
            let pages = (self.cfg.epc_bytes / PAGE_SIZE as u64) as usize;
            self.epc = Some(Epc::new(pages));
        }
        self.stats = Stats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Preset;

    fn tiny(mode: Mode) -> Machine {
        Machine::new(MachineConfig::preset(Preset::Tiny, mode))
    }

    #[test]
    fn load_store_roundtrip_with_costs() {
        let mut m = tiny(Mode::Native);
        let c1 = m.store(0, 0x1000, 8, 42).unwrap();
        let (v, c2) = m.load(0, 0x1000, 8).unwrap();
        assert_eq!(v, 42);
        // First touch misses all levels; second hits L1.
        assert!(c1 > c2);
        assert_eq!(c2, m.config().cost.l1_hit);
    }

    #[test]
    fn non_canonical_address_faults() {
        let mut m = tiny(Mode::Native);
        let err = m.load(0, 0x1_0000_0000, 8).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::NonCanonical);
        // A tagged pointer used raw faults the same way.
        let tagged = (0x2000u64 << 32) | 0x1000;
        assert!(m.load(0, tagged, 4).is_err());
    }

    #[test]
    fn wrapping_range_faults() {
        let mut m = tiny(Mode::Native);
        let err = m.store(0, u32::MAX as u64, 8, 0).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::Wraps);
    }

    #[test]
    fn forbidden_page_faults() {
        let mut m = tiny(Mode::Native);
        m.mem.forbid_page(5);
        let err = m.load(0, 5 * PAGE_SIZE as u64, 1).unwrap_err();
        assert_eq!(err.kind, MemFaultKind::ForbiddenPage);
        // Neighbouring pages stay accessible.
        assert!(m.load(0, 4 * PAGE_SIZE as u64, 1).is_ok());
        assert!(m.load(0, 6 * PAGE_SIZE as u64, 1).is_ok());
    }

    #[test]
    fn enclave_mode_counts_epc_faults() {
        let mut m = tiny(Mode::Enclave);
        let epc_pages = (m.config().epc_bytes / PAGE_SIZE as u64) as u32;
        // Touch twice as many pages as the EPC holds, twice.
        for round in 0..2 {
            for p in 0..(2 * epc_pages) {
                m.load(0, (p * PAGE_SIZE) as u64, 8).unwrap();
            }
            let _ = round;
        }
        assert!(m.stats.epc_faults > epc_pages as u64);
        assert!(m.stats.epc_evictions > 0);
    }

    #[test]
    fn native_mode_never_pages() {
        let mut m = tiny(Mode::Native);
        for p in 0..4096u64 {
            m.load(0, p * PAGE_SIZE as u64, 8).unwrap();
        }
        assert_eq!(m.stats.epc_faults, 0);
    }

    #[test]
    fn enclave_llc_miss_costs_more_than_native() {
        let mut native = tiny(Mode::Native);
        let mut enclave = tiny(Mode::Enclave);
        let (_, cn) = native.load(0, 0x4000, 8).unwrap();
        let (_, ce) = enclave.load(0, 0x4000, 8).unwrap();
        assert!(ce > cn, "MEE + fault must make enclave misses dearer");
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut m = tiny(Mode::Native);
        m.load(0, 60, 8).unwrap();
        assert_eq!(m.stats.l1_accesses, 2);
    }

    #[test]
    fn charge_bulk_charges_per_line() {
        let mut m = tiny(Mode::Native);
        let c = m.charge_bulk(0, 0, 4 * LINE_BYTES, false).unwrap();
        assert_eq!(m.stats.l1_accesses, 4);
        assert!(c >= 4 * m.config().cost.dram);
        assert_eq!(m.charge_bulk(0, 0, 0, false).unwrap(), 0);
    }

    #[test]
    fn reset_metrics_keeps_memory() {
        let mut m = tiny(Mode::Enclave);
        m.store(0, 0x100, 8, 7).unwrap();
        m.reset_metrics();
        assert_eq!(m.stats.loads, 0);
        let (v, _) = m.load(0, 0x100, 8).unwrap();
        assert_eq!(v, 7);
    }
}

#[cfg(test)]
mod paging_asymmetry_tests {
    use super::*;
    use crate::cost::{MachineConfig, Mode, Preset};

    /// Paper §2.1: paging costs ~2x for sequential access patterns and
    /// orders of magnitude more for random ones. Reproduce the asymmetry
    /// with a working set twice the EPC.
    #[test]
    fn sequential_paging_is_cheap_random_is_catastrophic() {
        let cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
        let ws = cfg.epc_bytes * 2;
        let accesses = ws / 64;

        // Sequential: walk the working set twice, line by line.
        let mut seq = Machine::new(cfg);
        let mut seq_cycles = 0u64;
        for round in 0..2u64 {
            let _ = round;
            for i in 0..accesses {
                let (_, c) = seq.load(0, i * 64 % ws, 8).unwrap();
                seq_cycles += c;
            }
        }

        // Random: same number of accesses, page-sized strides with a
        // full-range permutation-ish pattern.
        let mut rnd = Machine::new(cfg);
        let mut rnd_cycles = 0u64;
        let mut a = 12345u64;
        for _ in 0..2 * accesses {
            a = a
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (a % ws) & !7;
            let (_, c) = rnd.load(0, addr, 8).unwrap();
            rnd_cycles += c;
        }

        let seq_per = seq_cycles as f64 / (2 * accesses) as f64;
        let rnd_per = rnd_cycles as f64 / (2 * accesses) as f64;
        assert!(
            rnd_per > seq_per * 10.0,
            "random paging must be at least an order of magnitude dearer: \
             sequential {seq_per:.0} cyc/access vs random {rnd_per:.0}"
        );
        // Sequential thrashing stays within a small factor of a fitting
        // working set (the paper's ~2x).
        let mut fit = Machine::new(cfg);
        let mut fit_cycles = 0u64;
        let half = cfg.epc_bytes / 2;
        for _ in 0..2 {
            for i in 0..accesses {
                let (_, c) = fit.load(0, (i * 64) % half, 8).unwrap();
                fit_cycles += c;
            }
        }
        let fit_per = fit_cycles as f64 / (2 * accesses) as f64;
        assert!(
            seq_per < fit_per * 8.0,
            "sequential overcommit must stay within a small factor: \
             fitting {fit_per:.1} vs thrashing {seq_per:.1}"
        );
    }
}
