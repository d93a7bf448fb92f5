//! Cycle cost model and machine configuration presets.
//!
//! Constants are set once from published measurements — the paper's Skylake
//! testbed (§6.1), the SGX paging costs it cites (§2.1: 2× for sequential,
//! up to three orders of magnitude for random access patterns), and typical
//! MEE overheads — and are never tuned per benchmark. All relative results
//! in the reproduction emerge from these constants plus each scheme's actual
//! memory behaviour.

/// Whether the simulated program runs inside an SGX enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Normal process: full cache hierarchy, no EPC, no MEE.
    Native,
    /// Shielded execution: LLC misses pay MEE latency, and pages beyond the
    /// EPC capacity are demand-paged at high cost.
    Enclave,
}

/// Per-event cycle costs.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Simple ALU op (add/sub/logic/shift/cmp).
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// Floating add/sub/compare/convert.
    pub fsimple: u64,
    /// Floating multiply.
    pub fmul: u64,
    /// Floating divide / sqrt.
    pub fdiv: u64,
    /// Pointer-arithmetic (gep) instruction. Zero by default: address
    /// generation folds into x86 addressing modes, which is exactly why
    /// SGXBounds' explicit masking of every pointer arithmetic shows up as
    /// real overhead outside the enclave (paper §6.7).
    pub gep: u64,
    /// Conditional or unconditional branch.
    pub branch: u64,
    /// Call/return overhead.
    pub call: u64,
    /// L1D hit latency.
    pub l1_hit: u64,
    /// L2 hit latency.
    pub l2_hit: u64,
    /// L3 (LLC) hit latency.
    pub l3_hit: u64,
    /// DRAM access latency (LLC miss, native).
    pub dram: u64,
    /// Extra latency the MEE adds to an in-enclave LLC miss (decrypt +
    /// integrity check of the line).
    pub mee_extra: u64,
    /// Base cost of an EPC page fault (exception, EWB/ELDU, re-decrypt).
    pub epc_fault: u64,
    /// Additional cost when the fault also evicts (re-encrypts) a page.
    pub epc_evict: u64,
    /// Cost of an atomic read-modify-write beyond the plain access.
    pub atomic_extra: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 3,
            div: 21,
            gep: 0,
            fsimple: 3,
            fmul: 4,
            fdiv: 14,
            branch: 1,
            call: 2,
            l1_hit: 4,
            l2_hit: 12,
            l3_hit: 40,
            dram: 160,
            mee_extra: 110,
            epc_fault: 12_000,
            epc_evict: 8_000,
            atomic_extra: 18,
        }
    }
}

/// Scale presets for the machine model.
///
/// Interpreting paper-scale working sets (hundreds of MB) is infeasible, so
/// the default presets scale the cache hierarchy and the EPC down together,
/// keeping the working-set-to-EPC and working-set-to-LLC *ratios* — the
/// quantities that drive every effect in the paper — intact. EXPERIMENTS.md
/// records which preset produced each reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Paper-faithful sizes: 32 KB L1, 256 KB L2, 8 MB L3, 94 MB EPC.
    Paper,
    /// Everything divided by 32: 4 KB L1, 32 KB L2, 256 KB L3, ~3 MB EPC.
    /// Used by the `repro` binary.
    Mini,
    /// Divided by 128: 2 KB L1, 8 KB L2, 64 KB L3, 736 KB EPC. Used by unit
    /// tests and Criterion benches for speed.
    Tiny,
}

/// Which execution tier runs MIR on this machine.
///
/// The machine model itself is tier-agnostic — both tiers charge cycles
/// through the same [`crate::machine::Machine`] — but the choice is carried
/// here so every runner (harness, fuzz, resil) can thread it through one
/// configuration value. The reference interpreter is the semantic oracle;
/// the compiled tier (`sgxs-exec`) must be bit-identical to it in digests,
/// stats, cycles, and observability events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The tree-walking reference interpreter in `sgxs-mir` (the oracle).
    #[default]
    Reference,
    /// The pre-lowered fast tier in `sgxs-exec`: a VM starts on the
    /// reference interpreter and lowers its module once, at a quantum
    /// boundary, after interpreting `sgxs_exec::RENT` instructions per op
    /// of the module (so a short run, like a fuzz program's, stays on the
    /// interpreter).
    /// Counted in quanta, never by a clock, so the switch point is
    /// reproducible and bit-identical on either side.
    Compiled,
}

impl ExecTier {
    /// Stable lowercase label used by the CLI and in reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Reference => "reference",
            ExecTier::Compiled => "compiled",
        }
    }

    /// Parses a tier's [`label`](Self::label), its only spelling.
    pub fn parse(s: &str) -> Option<Self> {
        [ExecTier::Reference, ExecTier::Compiled]
            .into_iter()
            .find(|t| t.label() == s)
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Enclave or native execution.
    pub mode: Mode,
    /// Number of cores (private L1/L2 each); the paper's testbed has 4 cores
    /// / 8 hyperthreads, which we model as 8 logical cores sharing the LLC.
    pub cores: usize,
    /// L1D size in bytes per core.
    pub l1_bytes: u32,
    /// L1D associativity.
    pub l1_assoc: usize,
    /// L2 size in bytes per core.
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Shared L3 size in bytes.
    pub l3_bytes: u32,
    /// L3 associativity.
    pub l3_assoc: usize,
    /// Usable EPC size in bytes (enclave mode only).
    pub epc_bytes: u64,
    /// Cycle costs.
    pub cost: CostModel,
    /// Which execution tier runs on this machine. `Hardening::boot` (in
    /// `sgxs-baselines`) reads it once, when it readies a VM, and attaches
    /// the compiled engine for [`ExecTier::Compiled`], which interprets
    /// until the module's rent is paid and then lowers it; the machine
    /// model itself never looks at it. The choice is cost-neutral; both
    /// tiers charge identical cycles at every switch point.
    pub tier: ExecTier,
}

impl MachineConfig {
    /// Builds a configuration from a scale preset and execution mode.
    pub fn preset(preset: Preset, mode: Mode) -> Self {
        let (l1, l2, l3, epc) = match preset {
            Preset::Paper => (32 << 10, 256 << 10, 8 << 20, 94u64 << 20),
            Preset::Mini => (4 << 10, 32 << 10, 256 << 10, 3u64 << 20),
            Preset::Tiny => (2 << 10, 8 << 10, 64 << 10, 736u64 << 10),
        };
        MachineConfig {
            mode,
            cores: 8,
            l1_bytes: l1,
            l1_assoc: 4,
            l2_bytes: l2,
            l2_assoc: 8,
            l3_bytes: l3,
            l3_assoc: 16,
            epc_bytes: epc,
            cost: CostModel::default(),
            tier: ExecTier::Reference,
        }
    }

    /// The scale divisor of a preset relative to paper sizes (1, 32, 128).
    ///
    /// Workload generators divide paper-scale working sets by this factor so
    /// working-set-to-EPC ratios are preserved.
    pub fn scale_of(preset: Preset) -> u64 {
        match preset {
            Preset::Paper => 1,
            Preset::Mini => 32,
            Preset::Tiny => 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_preserve_epc_to_llc_ratio() {
        for p in [Preset::Paper, Preset::Mini, Preset::Tiny] {
            let c = MachineConfig::preset(p, Mode::Enclave);
            let ratio = c.epc_bytes as f64 / c.l3_bytes as f64;
            assert!(
                (ratio - 11.75).abs() < 0.5,
                "preset {p:?} ratio {ratio} drifted from paper's ~11.75"
            );
        }
    }

    #[test]
    fn a_tier_parses_from_its_label_alone() {
        for t in [ExecTier::Reference, ExecTier::Compiled] {
            assert_eq!(ExecTier::parse(t.label()), Some(t));
        }
        for other in ["ref", "interp", "exec", "fast", "Compiled", ""] {
            assert_eq!(ExecTier::parse(other), None, "{other:?}");
        }
    }

    #[test]
    fn paging_dominates_dram_by_orders_of_magnitude() {
        let c = CostModel::default();
        assert!(
            c.epc_fault / c.dram >= 50,
            "EPC faults must dwarf DRAM hits"
        );
        assert!(c.mee_extra > 0 && c.mee_extra < c.epc_fault);
    }

    #[test]
    fn scale_factors_match_geometry() {
        let paper = MachineConfig::preset(Preset::Paper, Mode::Enclave);
        let mini = MachineConfig::preset(Preset::Mini, Mode::Enclave);
        assert_eq!(
            paper.l3_bytes / mini.l3_bytes,
            MachineConfig::scale_of(Preset::Mini) as u32
        );
    }
}
