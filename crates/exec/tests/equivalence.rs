//! In-crate equivalence pins: the compiled tier must be bit-identical to
//! the reference interpreter on real workloads — results, cycles,
//! instruction/branch counters, memory peaks, output, and the complete
//! observability event stream (digest + count). The corpus-wide and
//! chaos-campaign oracles live in the repository-level test suite; these
//! are the fast, always-on versions. The op table pins every MIR op's
//! shared value and charge on both tiers, edge operands and traps included.

use sgxbounds::SbConfig;
use sgxs_exec::CompiledEngine;
use sgxs_mir::interp::code_addr;
use sgxs_mir::{
    verify, BinOp, CastKind, CmpOp, FBinOp, FCmpOp, FuncBuilder, FuncId, GlobalId, LocalId, Module,
    ModuleBuilder, QuantumEngine, RunOutcome, SlotId, Trap, Ty, Vm, VmConfig,
};
use sgxs_rt::{install_base, AllocOpts, Stager};
use sgxs_sim::obs::TraceRecorder;
use sgxs_sim::{MachineConfig, Mode, Preset, Stats};
use sgxs_workloads::apps::nginx;
use sgxs_workloads::apps::server::INPUT_BYTES;
use sgxs_workloads::{by_name, Params};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a run exposes, in one comparable value.
type Key = (
    Result<u64, String>,
    u64,         // wall_cycles
    u64,         // cpu_cycles
    Stats,       // instructions, branches, cache/EPC counters
    u64,         // peak_reserved
    u64,         // peak_committed
    Vec<String>, // output
    u64,         // event digest
    u64,         // event count
);

fn key(o: &RunOutcome, rec: &Rc<RefCell<TraceRecorder>>) -> Key {
    (
        o.result.clone().map_err(|t| t.to_string()),
        o.wall_cycles,
        o.cpu_cycles,
        o.stats,
        o.peak_reserved,
        o.peak_committed,
        o.output.clone(),
        rec.borrow().digest(),
        rec.borrow().events(),
    )
}

/// Benchmarks with threads, atomics, floats, and indirect calls all agree.
#[test]
fn workloads_are_bit_identical_across_tiers() {
    for name in ["kmeans", "histogram", "swaptions"] {
        let p = Params::new(MachineConfig::scale_of(Preset::Tiny));
        let w = by_name(name).expect("workload exists");
        let mut module = w.build(&p);
        sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
        verify(&module).expect("module verifies");
        let run = |compiled: bool| -> Key {
            let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
            cfg.max_instructions = 400_000_000;
            let mut vm = Vm::new(&module, cfg);
            let rec = Rc::new(RefCell::new(TraceRecorder::new(256)));
            vm.machine.set_recorder(Some(rec.clone()));
            let heap = install_base(&mut vm, AllocOpts::default());
            sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
            let mut st = Stager::new();
            let args = w.stage(&mut vm, &mut st, &p);
            if compiled {
                sgxs_exec::attach(&mut vm);
            }
            let out = vm.run("main", &args);
            key(&out, &rec)
        };
        let reference = run(false);
        let compiled = run(true);
        assert_eq!(reference, compiled, "tier divergence on {name}");
        assert!(reference.0.is_ok(), "{name} failed: {:?}", reference.0);
    }
}

/// The nginx server app (setup + per-request entry points, re-running the
/// same VM) agrees request-for-request.
#[test]
fn server_requests_are_bit_identical_across_tiers() {
    let mut module = nginx::server_module();
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    let run = |compiled: bool| -> Vec<(u64, u64, u64)> {
        let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        cfg.max_instructions = 500_000_000;
        let mut vm = Vm::new(&module, cfg);
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        if compiled {
            sgxs_exec::attach(&mut vm);
        }
        let input: Vec<u8> = (0..INPUT_BYTES).map(|i| (i % 251 + 1) as u8).collect();
        let mut st = Stager::new();
        let addr = st.stage(&mut vm, &input);
        vm.run("setup", &[addr as u64, INPUT_BYTES as u64])
            .result
            .expect("setup");
        (0..12u32)
            .map(|r| {
                let out = vm.run("handle", &[r as u64, 16 + (r as u64 * 37) % 180, 64]);
                (
                    out.result.expect("benign request"),
                    out.wall_cycles,
                    out.stats.instructions,
                )
            })
            .collect()
    };
    assert_eq!(run(false), run(true));
}

/// A trapping program traps identically: same trap, same counters.
#[test]
fn traps_are_bit_identical_across_tiers() {
    let p = Params::new(MachineConfig::scale_of(Preset::Tiny));
    let w = by_name("kmeans").expect("workload exists");
    let mut module = w.build(&p);
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    // Run with a tiny instruction budget: both tiers must hit the limit at
    // the same quantum with identical partial counters.
    let run = |compiled: bool| -> Key {
        let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        cfg.max_instructions = 10_000;
        let mut vm = Vm::new(&module, cfg);
        let rec = Rc::new(RefCell::new(TraceRecorder::new(64)));
        vm.machine.set_recorder(Some(rec.clone()));
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        let mut st = Stager::new();
        let args = w.stage(&mut vm, &mut st, &p);
        if compiled {
            sgxs_exec::attach(&mut vm);
        }
        let out = vm.run("main", &args);
        key(&out, &rec)
    };
    let reference = run(false);
    assert!(
        reference.0.is_err(),
        "expected the instruction limit to hit"
    );
    assert_eq!(reference, run(true));
}

/// The compiled engine with a one-cycle accounting fault: it charges one
/// extra cycle before its first quantum.
struct OffByOne {
    engine: CompiledEngine,
    charged: bool,
}

impl QuantumEngine for OffByOne {
    fn run_quantum(&mut self, vm: &mut Vm<'_>, tid: usize) -> Result<(), Trap> {
        if !self.charged {
            self.charged = true;
            *vm.engine_hot(tid).cycles += 1;
        }
        self.engine.run_quantum(vm, tid)
    }
}

/// A one-cycle accounting fault in the compiled tier diverges — the oracle
/// can fail.
#[test]
fn perturbed_engine_is_caught() {
    let p = Params::new(MachineConfig::scale_of(Preset::Tiny));
    let w = by_name("histogram").expect("workload exists");
    let mut module = w.build(&p);
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    let run = |mode: u8| -> u64 {
        let cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        let mut vm = Vm::new(&module, cfg);
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        let mut st = Stager::new();
        let args = w.stage(&mut vm, &mut st, &p);
        match mode {
            1 => sgxs_exec::attach(&mut vm),
            2 => {
                let engine = sgxs_exec::compile(&vm);
                vm.set_frame_consts(engine.const_pools());
                vm.set_engine(Box::new(OffByOne {
                    engine,
                    charged: false,
                }));
            }
            _ => {}
        }
        vm.run("main", &args).wall_cycles
    };
    assert_eq!(run(0), run(1), "clean compiled tier must agree");
    assert_ne!(run(0), run(2), "perturbed tier must diverge");
}

/// Integer operands for the op table: zero, small values, shift amounts
/// at and past the width, and the signed and unsigned extremes.
const INTS: [u64; 9] = [
    0,
    1,
    7,
    64,
    65,
    0x8000_0000_0000_00ff,
    i64::MIN as u64,
    i64::MAX as u64,
    u64::MAX,
];

/// Bit patterns of the f64 operands: signed zeros, ordinary and huge
/// values, NaN and both infinities.
fn floats() -> [u64; 8] {
    [
        0.0,
        -0.0,
        1.5,
        -2.25,
        1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
    .map(f64::to_bits)
}

const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::UDiv,
    BinOp::SDiv,
    BinOp::URem,
    BinOp::SRem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
    BinOp::AShr,
];

const DIV_OPS: [BinOp; 4] = [BinOp::UDiv, BinOp::SDiv, BinOp::URem, BinOp::SRem];

/// One register-only op of the table, with immediate operands.
#[derive(Clone, Copy)]
enum Pure {
    Bin(BinOp, u64, u64),
    Cmp(CmpOp, u64, u64),
    FBin(FBinOp, u64, u64),
    FCmp(FCmpOp, u64, u64),
    Cast(CastKind, u64),
    Select(u64, u64, u64),
    Gep(u64, u64, u32, i64),
    SlotAddr,
    GlobalAddr,
    FuncAddr,
    /// `WriteLocal` of the value, then `ReadLocal` of it back.
    Local(u64),
}

/// The slot, global, function and local the address and local ops of the
/// table name.
struct Names {
    slot: SlotId,
    global: GlobalId,
    func: FuncId,
    local: LocalId,
}

/// Every `BinOp` (divisions on nonzero divisors, so `i64::MIN / -1`
/// appears), `CmpOp`, `FBinOp`, `FCmpOp` and `CastKind` over the edge
/// operands, including a `Sext` of an unlisted width, `Trunc(64)` and
/// wider, and `FToSi` of NaN and the infinities.
fn op_table() -> Vec<Pure> {
    use sgxs_mir::CastKind::*;
    let pairs = |vals: &[u64]| -> Vec<(u64, u64)> {
        vals.iter()
            .flat_map(|&x| vals.iter().map(move |&y| (x, y)))
            .collect()
    };
    let (ints, fl) = (pairs(&INTS), pairs(&floats()));
    let mut t = Vec::new();
    for op in BIN_OPS {
        let nonzero = ints
            .iter()
            .filter(|(_, y)| !DIV_OPS.contains(&op) || *y != 0);
        t.extend(nonzero.map(|&(x, y)| Pure::Bin(op, x, y)));
    }
    use CmpOp::*;
    for op in [Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe, SGt, SGe] {
        t.extend(ints.iter().map(|&(x, y)| Pure::Cmp(op, x, y)));
    }
    for op in [
        FBinOp::Add,
        FBinOp::Sub,
        FBinOp::Mul,
        FBinOp::Div,
        FBinOp::Min,
        FBinOp::Max,
    ] {
        t.extend(fl.iter().map(|&(x, y)| Pure::FBin(op, x, y)));
    }
    for op in [
        FCmpOp::Eq,
        FCmpOp::Ne,
        FCmpOp::Lt,
        FCmpOp::Le,
        FCmpOp::Gt,
        FCmpOp::Ge,
    ] {
        t.extend(fl.iter().map(|&(x, y)| Pure::FCmp(op, x, y)));
    }
    let casts = [
        Sext(8),
        Sext(16),
        Sext(32),
        Sext(24),
        Trunc(1),
        Trunc(8),
        Trunc(32),
        Trunc(63),
        Trunc(64),
        Trunc(200),
        SiToF,
        UiToF,
        FToSi,
        Bitcast,
        FAbs,
        FSqrt,
    ];
    for kind in casts {
        t.extend(INTS.iter().chain(&floats()).map(|&x| Pure::Cast(kind, x)));
    }
    for c in [0, 1, u64::MAX] {
        t.extend(INTS.iter().map(|&x| Pure::Select(c, x, !x)));
    }
    for (scale, disp) in [(1, 0), (1, -8), (8, i64::MAX), (4096, i64::MIN)] {
        t.extend(ints.iter().map(|&(x, y)| Pure::Gep(x, y, scale, disp)));
    }
    t.extend([Pure::SlotAddr, Pure::GlobalAddr, Pure::FuncAddr]);
    t.extend(INTS.iter().map(|&x| Pure::Local(x)));
    t
}

fn emit(fb: &mut FuncBuilder<'_>, names: &Names, p: Pure) -> sgxs_mir::Reg {
    match p {
        Pure::Bin(op, x, y) => fb.bin(op, x, y),
        Pure::Cmp(op, x, y) => fb.cmp(op, x, y),
        Pure::FBin(op, x, y) => fb.fbin(op, x, y),
        Pure::FCmp(op, x, y) => fb.fcmp(op, x, y),
        Pure::Cast(kind, x) => fb.cast(kind, x),
        Pure::Select(c, x, y) => fb.select(c, x, y),
        Pure::Gep(base, index, scale, disp) => fb.gep(base, index, scale, disp),
        Pure::SlotAddr => fb.slot_addr(names.slot),
        Pure::GlobalAddr => fb.global_addr(names.global),
        Pure::FuncAddr => fb.func_addr(names.func),
        Pure::Local(x) => {
            fb.set(names.local, x);
            fb.get(names.local)
        }
    }
}

/// Runs `module`'s `main` on one tier with a trace recorder attached.
fn run_main(module: &Module, compiled: bool) -> Key {
    verify(module).expect("module verifies");
    let cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
    let mut vm = Vm::new(module, cfg);
    let rec = Rc::new(RefCell::new(TraceRecorder::new(64)));
    vm.machine.set_recorder(Some(rec.clone()));
    if compiled {
        sgxs_exec::attach(&mut vm);
    }
    let out = vm.run("main", &[]);
    key(&out, &rec)
}

/// The reference run of the op table: simulated wall and CPU cycles, as
/// computed before the charges moved into `Inst::cycles`/`Term::cycles`.
/// Both tiers take every charge from those two functions, so a change to
/// one moves both tiers at once and only this pin can see it.
const OP_TABLE_CYCLES: (u64, u64) = (36_367, 36_367);

fn print(fb: &mut FuncBuilder<'_>, v: impl Into<sgxs_mir::Operand>) {
    fb.intr_void("print_i64", &[v.into()]);
}

/// Every op's value and charge agree across tiers, whether the op runs
/// inside a fused run (batches of pure ops, some of which straddle a
/// quantum boundary) or dispatched alone (one op per print). Calls (never
/// fused) run between fused runs and alone, and their returns with and
/// without a value; branches and jumps run fused behind a pure op and
/// alone, each branch both taken and not.
#[test]
fn every_op_is_bit_identical_across_tiers() {
    let table = op_table();
    let mut mb = ModuleBuilder::new("ops");
    let global = mb.global("g", 16, &[1, 2, 3]);
    let callee = mb.func("triple_inc", &[Ty::I64], Some(Ty::I64), |fb| {
        let x = fb.param(0);
        let y = fb.mul(x, 3u64);
        let z = fb.add(y, 1u64);
        fb.ret(Some(z.into()));
    });
    let sink = mb.func("sink", &[Ty::I64], None, |fb| {
        let x = fb.param(0);
        print(fb, x);
        fb.ret(None);
    });
    let mut printed = 0usize;
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let names = Names {
            slot: fb.slot("s", 16),
            global,
            func: callee,
            local: fb.local(Ty::I64),
        };
        for batch in table.chunks(24) {
            let regs: Vec<_> = batch.iter().map(|&p| emit(fb, &names, p)).collect();
            for r in regs {
                print(fb, r);
            }
        }
        for &p in &table {
            let r = emit(fb, &names, p);
            print(fb, r);
        }
        printed += 2 * table.len();
        // `WriteLocal` and `ReadLocal` each alone.
        for x in INTS {
            fb.set(names.local, x);
            print(fb, x);
            let r = fb.get(names.local);
            print(fb, r);
        }
        printed += 2 * INTS.len();
        // Every read-modify-write op, the non-combining ones exchanging,
        // at two widths; then a compare-and-swap hit and miss.
        let cell = fb.slot("cell", 8);
        let p = fb.slot_addr(cell);
        for ty in [Ty::I64, Ty::I32] {
            for op in BIN_OPS {
                fb.store(Ty::I64, p, 0xF0F0_F0F0_1234_5678u64);
                let old = fb.atomic_rmw(op, ty, p, 0x0FF0_0000_FFFF_0003u64);
                let new = fb.load(Ty::I64, p);
                print(fb, old);
                print(fb, new);
            }
        }
        fb.store(Ty::I64, p, 10u64);
        let hit = fb.atomic_cas(Ty::I64, p, 10u64, 20u64);
        let miss = fb.atomic_cas(Ty::I64, p, 10u64, 30u64);
        let now = fb.load(Ty::I64, p);
        for r in [hit, miss, now] {
            print(fb, r);
        }
        printed += 4 * BIN_OPS.len() + 3;
        // Direct and indirect calls with their returns: the argument from
        // a pure run and the result into one, then alone on immediates;
        // an indirect call through `FuncAddr` and through a code address.
        for x in [0, 7, u64::MAX] {
            let a = fb.add(x, 0u64);
            let r = fb.call(callee, &[a.into()]).expect("returns a value");
            let r = fb.add(r, 0u64);
            print(fb, r);
            let r = fb.call(callee, &[x.into()]).expect("returns a value");
            print(fb, r);
            let f = fb.func_addr(callee);
            let r = fb.call_indirect(f, &[x.into()], Some(Ty::I64));
            print(fb, r.expect("returns a value"));
            let r = fb.call_indirect(code_addr(callee), &[x.into()], Some(Ty::I64));
            print(fb, r.expect("returns a value"));
            fb.call(sink, &[x.into()]);
            fb.call_indirect(code_addr(sink), &[x.into()], None);
        }
        printed += 3 * 6;
        // One indirect call site run three times: an inline-cache miss,
        // then hits.
        fb.count_loop(0u64, 3u64, |fb, i| {
            let r = fb.call_indirect(code_addr(callee), &[i.into()], Some(Ty::I64));
            print(fb, r.expect("returns a value"));
        });
        printed += 3;
        // Branches taken and not, each fused behind a compare and alone
        // on an immediate; each arm prints which way it went and jumps
        // to the join fused behind an add, or alone.
        for cond in [0, 1, u64::MAX] {
            for fused in [true, false] {
                let (t, f, join) = (fb.block(), fb.block(), fb.block());
                print(fb, cond);
                if fused {
                    let c = fb.cmp(CmpOp::Ne, cond, 0u64);
                    fb.br(c, t, f);
                } else {
                    fb.br(cond, t, f);
                }
                for (b, way) in [(t, 1u64), (f, 2)] {
                    fb.switch_to(b);
                    print(fb, way);
                    if fused {
                        fb.add(way, 0u64);
                    }
                    fb.jmp(join);
                }
                fb.switch_to(join);
            }
        }
        printed += 3 * 2 * 2;
        fb.ret(Some(0u64.into()));
    });
    let module = mb.finish();
    let reference = run_main(&module, false);
    assert_eq!(reference.0, Ok(0));
    assert_eq!(reference.6.len(), printed);
    assert_eq!(reference, run_main(&module, true));
    assert_eq!(
        (reference.1, reference.2),
        OP_TABLE_CYCLES,
        "the op table's charges moved (wall, cpu cycles)"
    );
}

/// A zero divisor traps every division op with `DivByZero` on both tiers,
/// after the same instructions and cycles.
#[test]
fn division_by_zero_traps_identically_across_tiers() {
    for op in DIV_OPS {
        let mut mb = ModuleBuilder::new("div0");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let x = fb.add(40u64, 2u64);
            let y = fb.mul(x, 3u64);
            fb.intr_void("print_i64", &[y.into()]);
            let q = fb.bin(op, y, 0u64);
            fb.ret(Some(q.into()));
        });
        let module = mb.finish();
        let reference = run_main(&module, false);
        assert_eq!(reference.0, Err(Trap::DivByZero.to_string()), "{op:?}");
        assert_eq!(reference, run_main(&module, true), "{op:?}");
    }
}
