#![warn(missing_docs)]

//! `sgxs-exec` — the pre-compiled fast execution tier for the MIR VM.
//!
//! The reference interpreter in `sgxs-mir` walks the IR tree per
//! instruction: three indexed lookups to find the current instruction, an
//! operand decode, and a cost-model match, every step. This crate lowers
//! each function once into a dense opcode array ([`lower::FuncCode`]) —
//! resolved jump offsets, interned operands, pre-resolved global/function
//! addresses, baked cycle charges, inline caches for indirect calls, and
//! superinstruction fusion over the trap-free register runs the sgxbounds
//! passes emit (`gep → extract-bounds → compare` chains) — then executes it
//! with a flat dispatch loop ([`engine::CompiledEngine`]).
//!
//! What each op computes and charges is not this crate's: both tiers call
//! the definitions beside the op declarations in `sgxs-mir`
//! (`BinOp::eval`/`rmw`, `CmpOp::eval`, `FBinOp::eval`, `FCmpOp::eval`,
//! `CastKind::eval`, `gep_addr`, and `Inst::cycles`/`Term::cycles`, which
//! lowering bakes into each op) and its `note_site` for check-site
//! markers. No cost-model field is named here. This crate owns only
//! dispatch: lowering, fusion, inline caches, counter batching and quantum
//! refill.
//!
//! **Tier-up by rent.** Lowering costs more than a short run saves, so
//! [`attach`] does not lower: it installs an engine that interprets the
//! module on the reference tier ([`Vm::interpret_quantum`]) and lowers the
//! whole module once, at a quantum boundary, after `RENT × ops(module)`
//! retired instructions' worth of quanta ([`RENT`], the ski-rental rule).
//! Frames are `(block, ip)` on both tiers and both write back the exact
//! coordinate at every quantum exit, so the switch is exact; the lowered
//! engine installs its constant pools into every live frame on its first
//! quantum. The count is of quanta, never of host time, so every run
//! switches at the same point on every host.
//!
//! **The tier is pinned bit-identical to the reference interpreter** at
//! every switch point: same digests, same named stats counters, same cycle
//! charges, same obs events in the same order, same trap and recovery
//! behavior (DESIGN.md §10 documents the oracle; this crate's op table and
//! workload pins, the repository's `tests/tier_equivalence.rs` and the
//! `tier` laws of `repro selfcheck` enforce it). A run selects it through
//! its configuration: every runner boots its VM with
//! `sgxs_baselines::Hardening::boot`, which calls [`attach`] after
//! installing the runtimes when `MachineConfig::tier` is
//! [`sgxs_sim::ExecTier::Compiled`]; `ExecTier::Reference` stays the
//! default oracle. Tests (and `repro audit`'s cross-tier pin) force a
//! switch point with [`attach_after`] (0 lowers before the first
//! quantum), or wrap what [`compile`] returns in an engine of their own
//! (the oracle's negative controls add one cycle that way):
//!
//! ```no_run
//! # use sgxs_mir::{Vm, VmConfig, Module};
//! # use sgxs_sim::{MachineConfig, Mode, Preset};
//! # let module: Module = unimplemented!();
//! let mut vm = Vm::new(&module, VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)));
//! // ... install runtimes/schemes ...
//! sgxs_exec::attach(&mut vm);   // interpret, then lower once the rent is paid
//! let out = vm.run("main", &[]);
//! ```

pub mod engine;
pub mod lower;

pub use engine::CompiledEngine;
pub use lower::{ArgList, FuncCode, Op};

use sgxs_mir::{QuantumEngine, Trap, Vm};

/// Instructions a module must retire on the reference tier, per op of the
/// module, before [`attach`]'s engine lowers it: the ski-rental rule
/// (Karlin et al. 1988), which rents until the rent paid equals the price
/// of buying. Lowering costs 81 ns of host time per op on fuzz modules and
/// 85 ns on the nginx server module, and running lowered saves 8.0 ns per
/// retired instruction on fuzz modules and 9.6 ns on the server (2 shared
/// vCPUs), so lowering pays for itself after 10.1 and 8.9 instructions
/// per op. Renting that long bounds a run's host time at 2.0 (fuzz) and
/// 2.1 (server) times the better of "never lower" and "lower at once".
pub const RENT: u64 = 10;

/// Lowers `vm`'s module and returns the compiled engine (not yet
/// installed; on its first quantum it installs its frame constant pools
/// into `vm`, live frames included). The lowering snapshots the global
/// address layout and the charges under the cost model, both fixed for
/// the VM's lifetime.
pub fn compile(vm: &Vm<'_>) -> CompiledEngine {
    let cost = &vm.config().machine.cost;
    let mut ic_count = 0u32;
    let globals: Vec<u32> = (0..vm.module.globals.len())
        .map(|g| vm.global_addr(sgxs_mir::GlobalId(g as u32)))
        .collect();
    let lookup = |g: u32| globals[g as usize];
    let funcs: Vec<FuncCode> = vm
        .module
        .funcs
        .iter()
        .map(|f| lower::lower_func(f, &lookup, cost, &mut ic_count))
        .collect();
    let arity: Vec<u32> = vm
        .module
        .funcs
        .iter()
        .map(|f| f.params.len() as u32)
        .collect();
    CompiledEngine::new(funcs, arity, ic_count, vm.config().quantum)
}

/// Installs the fast tier: `vm` interprets its module until it has run
/// [`RENT`] instructions per op of the module (rounded up to whole
/// quanta), then lowers it once and runs lowered from the next quantum
/// on, across every later `run` of the VM. Call after `Vm::new` (any time
/// before `run`; installed runtimes are unaffected because intrinsic
/// binding stays in the VM).
pub fn attach(vm: &mut Vm<'_>) {
    attach_after(vm, rent_quanta(vm));
}

/// [`RENT`] instructions per op of `vm`'s module (its instructions and
/// terminators, what lowering translates), in whole quanta.
fn rent_quanta(vm: &Vm<'_>) -> u64 {
    let ops: u64 = (vm.module.funcs.iter().flat_map(|f| &f.blocks))
        .map(|b| b.insts.len() as u64 + 1)
        .sum();
    (RENT * ops).div_ceil(u64::from(vm.config().quantum.max(1)))
}

/// Installs the fast tier to lower `vm`'s module after `quanta` quanta on
/// the reference tier: [`attach`] with a forced switch point, for the
/// tier oracle (the tests, and `repro audit`'s cross-tier pin).
/// 0 lowers before the first quantum.
pub fn attach_after(vm: &mut Vm<'_>, quanta: u64) {
    vm.set_engine(Box::new(TierUp {
        left: quanta,
        compiled: None,
    }));
}

/// The engine [`attach`] installs: reference quanta until `left` runs
/// out, then the module lowered.
struct TierUp {
    /// Reference quanta still to run before lowering.
    left: u64,
    compiled: Option<CompiledEngine>,
}

impl TierUp {
    #[cold]
    #[inline(never)]
    fn lower(&mut self, vm: &Vm<'_>) -> &mut CompiledEngine {
        self.compiled.insert(compile(vm))
    }
}

impl QuantumEngine for TierUp {
    fn run_quantum(&mut self, vm: &mut Vm<'_>, tid: usize) -> Result<(), Trap> {
        if let Some(engine) = &mut self.compiled {
            return engine.run_quantum(vm, tid);
        }
        if self.left == 0 {
            return self.lower(vm).run_quantum(vm, tid);
        }
        self.left -= 1;
        vm.interpret_quantum(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::{ModuleBuilder, Ty, VmConfig};
    use sgxs_sim::{MachineConfig, Mode, Preset};
    use std::cell::Cell;
    use std::rc::Rc;

    /// [`attach`]'s engine, recording how many quanta it ran and how many
    /// of them it interpreted before it lowered.
    struct Watch {
        tier: TierUp,
        quanta: Rc<Cell<(u64, Option<u64>)>>,
    }

    impl QuantumEngine for Watch {
        fn run_quantum(&mut self, vm: &mut Vm<'_>, tid: usize) -> Result<(), Trap> {
            let r = self.tier.run_quantum(vm, tid);
            let (n, lowered) = self.quanta.get();
            let lowered = lowered.or(self.tier.compiled.as_ref().map(|_| n));
            self.quanta.set((n + 1, lowered));
            r
        }
    }

    /// Runs a loop of `iters` iterations under the rent rule; returns its
    /// rent in quanta, the quanta it ran, and how many it interpreted
    /// before lowering (`None`: never lowered).
    fn rent_run(iters: u64) -> (u64, u64, Option<u64>) {
        let mut mb = ModuleBuilder::new("rent");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let acc = fb.local(Ty::I64);
            fb.set(acc, 0u64);
            fb.count_loop(0u64, iters, |fb, i| {
                let a = fb.get(acc);
                let a = fb.add(a, i);
                fb.set(acc, a);
            });
            let a = fb.get(acc);
            fb.ret(Some(a.into()));
        });
        let module = mb.finish();
        let cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        let mut vm = Vm::new(&module, cfg);
        let ops: u64 = (module.funcs[0].blocks.iter())
            .map(|b| b.insts.len() as u64 + 1)
            .sum();
        let rent = (RENT * ops).div_ceil(u64::from(cfg.quantum));
        assert_eq!(rent_quanta(&vm), rent);
        let quanta = Rc::new(Cell::new((0, None)));
        vm.set_engine(Box::new(Watch {
            tier: TierUp {
                left: rent,
                compiled: None,
            },
            quanta: quanta.clone(),
        }));
        let out = vm.run("main", &[]);
        assert_eq!(out.result, Ok(iters * iters.saturating_sub(1) / 2));
        let (ran, lowered) = quanta.get();
        (rent, ran, lowered)
    }

    /// The rule `RENT` documents: a run that interprets fewer quanta than
    /// its rent never lowers, and a longer one lowers exactly once its
    /// rent is paid.
    #[test]
    fn a_module_lowers_exactly_when_its_rent_is_paid() {
        let (rent, ran, lowered) = rent_run(4);
        assert!(ran < rent, "the short run must fit its rent ({ran} quanta)");
        assert_eq!(lowered, None);
        let (rent, ran, lowered) = rent_run(2_000);
        assert!(ran > rent, "the long run must outlast its rent");
        assert_eq!(lowered, Some(rent));
    }
}
