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
//! **The tier is pinned bit-identical to the reference interpreter**: same
//! digests, same named stats counters, same cycle charges, same obs events
//! in the same order, same trap and recovery behavior (DESIGN.md §10
//! documents the oracle; this crate's op table and workload pins, the
//! repository's `tests/tier_equivalence.rs` and the `tier` laws of `repro
//! selfcheck` enforce it). A run selects it through its configuration:
//! every runner boots its VM with `sgxs_baselines::Hardening::boot`, which
//! calls [`attach`] after installing the runtimes when
//! `MachineConfig::tier` is [`sgxs_sim::ExecTier::Compiled`];
//! `ExecTier::Reference` stays the default oracle. Tests call [`attach`]
//! on a VM of their own, or wrap what [`compile`] returns in an engine of
//! their own (the oracle's negative controls add one cycle that way):
//!
//! ```no_run
//! # use sgxs_mir::{Vm, VmConfig, Module};
//! # use sgxs_sim::{MachineConfig, Mode, Preset};
//! # let module: Module = unimplemented!();
//! let mut vm = Vm::new(&module, VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)));
//! // ... install runtimes/schemes ...
//! sgxs_exec::attach(&mut vm);   // from here on, quanta run on the fast tier
//! let out = vm.run("main", &[]);
//! ```

pub mod engine;
pub mod lower;

pub use engine::CompiledEngine;
pub use lower::{ArgList, FuncCode, Op};

use sgxs_mir::Vm;

/// Lowers `vm`'s module and returns the compiled engine (not yet
/// installed; it needs `Vm::set_frame_consts` of its
/// [`CompiledEngine::const_pools`], as [`attach`] does). The lowering
/// snapshots the global address layout and the charges under the cost
/// model, both fixed for the VM's lifetime.
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

/// Compiles `vm`'s module and installs the fast tier. Call after `Vm::new`
/// (any time before `run`; installed runtimes are unaffected because
/// intrinsic binding stays in the VM).
pub fn attach(vm: &mut Vm<'_>) {
    let engine = compile(vm);
    vm.set_frame_consts(engine.const_pools());
    vm.set_engine(Box::new(engine));
}
