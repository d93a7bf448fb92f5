//! Differential fuzzing: randomly generated (in-bounds) programs must
//! produce bit-identical results under no instrumentation, SGXBounds (all
//! optimization combinations), ASan, and MPX. Hardening must never change
//! semantics — the property the paper's §3.2 design arguments (arbitrary
//! casts, pointer arithmetic masking, metadata layout) are really about.

use proptest::prelude::*;
use sgxbounds::SbConfig;
use sgxs_baselines::{Hardening, ADDRESS_SPACE_CAP};
use sgxs_harness::Scheme;
use sgxs_mir::{verify, CmpOp, Module, ModuleBuilder, Operand, Ty, Vm, VmConfig};
use sgxs_sim::{MachineConfig, Mode, Preset};

/// Slots in each of the two arrays random programs operate on.
const SLOTS: u64 = 16;

/// One random program operation.
#[derive(Debug, Clone)]
enum Op {
    /// `heap[a % SLOTS] = acc`.
    StoreHeap(u64),
    /// `acc ^= heap[a % SLOTS]`.
    LoadHeap(u64),
    /// `stack[a % SLOTS] = acc rotated`.
    StoreStack(u64),
    /// `acc += stack[a % SLOTS]`.
    LoadStack(u64),
    /// `acc = acc * k + c` (arithmetic mixing).
    Mix(u64, u64),
    /// Copy `n % SLOTS` slots from heap to stack via memcpy.
    Memcpy(u64),
    /// Store acc through a freshly computed (chained) pointer.
    GepChain(u64, u64),
    /// Round-trip the heap pointer through an integer register.
    CastRoundtrip,
    /// Conditional: if acc is odd, bump heap[a % SLOTS].
    CondBump(u64),
    /// Loop: add i into acc for i in 0..(n % 8).
    SmallLoop(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u64>().prop_map(Op::StoreHeap),
        any::<u64>().prop_map(Op::LoadHeap),
        any::<u64>().prop_map(Op::StoreStack),
        any::<u64>().prop_map(Op::LoadStack),
        (any::<u64>(), any::<u64>()).prop_map(|(k, c)| Op::Mix(k | 1, c)),
        any::<u64>().prop_map(Op::Memcpy),
        (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Op::GepChain(a, b)),
        Just(Op::CastRoundtrip),
        any::<u64>().prop_map(Op::CondBump),
        any::<u64>().prop_map(Op::SmallLoop),
    ]
}

/// Builds a module executing `ops` and returning the accumulator xor a
/// digest of both arrays.
fn build(ops: &[Op]) -> Module {
    let mut mb = ModuleBuilder::new("fuzz");
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let heap = fb.intr_ptr("malloc", &[Operand::Imm(SLOTS * 8)]);
        let hcur = fb.local(Ty::Ptr);
        fb.set(hcur, heap);
        let sslot = fb.slot("arr", (SLOTS * 8) as u32);
        let stack = fb.slot_addr(sslot);
        // Deterministic init.
        fb.count_loop(0u64, SLOTS, |fb, i| {
            let a = fb.gep(heap, i, 8, 0);
            let v = fb.mul(i, 0x9E37u64);
            fb.store(Ty::I64, a, v);
            let b = fb.gep(stack, i, 8, 0);
            let w = fb.xor(v, 0x5555u64);
            fb.store(Ty::I64, b, w);
        });
        let acc = fb.local(Ty::I64);
        fb.set(acc, 0x1234_5678u64);
        for op in ops {
            match op {
                Op::StoreHeap(a) => {
                    let h = fb.get(hcur);
                    let p = fb.gep(h, a % SLOTS, 8, 0);
                    let v = fb.get(acc);
                    fb.store(Ty::I64, p, v);
                }
                Op::LoadHeap(a) => {
                    let h = fb.get(hcur);
                    let p = fb.gep(h, a % SLOTS, 8, 0);
                    let v = fb.load(Ty::I64, p);
                    let x = fb.get(acc);
                    let y = fb.xor(x, v);
                    fb.set(acc, y);
                }
                Op::StoreStack(a) => {
                    let p = fb.gep(stack, a % SLOTS, 8, 0);
                    let v = fb.get(acc);
                    let r = fb.lshr(v, 7u64);
                    let l = fb.shl(v, 3u64);
                    let m = fb.or(r, l);
                    fb.store(Ty::I64, p, m);
                }
                Op::LoadStack(a) => {
                    let p = fb.gep(stack, a % SLOTS, 8, 0);
                    let v = fb.load(Ty::I64, p);
                    let x = fb.get(acc);
                    let y = fb.add(x, v);
                    fb.set(acc, y);
                }
                Op::Mix(k, cst) => {
                    let x = fb.get(acc);
                    let m = fb.mul(x, *k);
                    let s = fb.add(m, *cst);
                    fb.set(acc, s);
                }
                Op::Memcpy(n) => {
                    let bytes = (n % SLOTS) * 8;
                    if bytes > 0 {
                        let h = fb.get(hcur);
                        fb.intr_void("memcpy", &[stack.into(), h.into(), Operand::Imm(bytes)]);
                    }
                }
                Op::GepChain(a, b) => {
                    // p = heap + x; q = p + y; with x + y in bounds.
                    let x = a % SLOTS;
                    let y = b % (SLOTS - x).max(1);
                    let h = fb.get(hcur);
                    let p = fb.gep(h, x, 8, 0);
                    let q = fb.gep(p, y, 8, 0);
                    let v = fb.get(acc);
                    fb.store(Ty::I64, q, v);
                }
                Op::CastRoundtrip => {
                    let h = fb.get(hcur);
                    let as_int = fb.cast(sgxs_mir::CastKind::Bitcast, h);
                    let mixed = fb.xor(as_int, 0u64);
                    let back = fb.cast(sgxs_mir::CastKind::Bitcast, mixed);
                    fb.set(hcur, back);
                }
                Op::CondBump(a) => {
                    let x = fb.get(acc);
                    let odd = fb.and(x, 1u64);
                    let c = fb.cmp(CmpOp::Ne, odd, 0u64);
                    let h = fb.get(hcur);
                    let p = fb.gep(h, a % SLOTS, 8, 0);
                    fb.if_then(c, |fb| {
                        let v = fb.load(Ty::I64, p);
                        let v2 = fb.add(v, 1u64);
                        fb.store(Ty::I64, p, v2);
                    });
                }
                Op::SmallLoop(n) => {
                    fb.count_loop(0u64, n % 8, |fb, i| {
                        let x = fb.get(acc);
                        let y = fb.add(x, i);
                        fb.set(acc, y);
                    });
                }
            }
        }
        // Digest.
        let digest = fb.local(Ty::I64);
        let a0 = fb.get(acc);
        fb.set(digest, a0);
        fb.count_loop(0u64, SLOTS, |fb, i| {
            let h = fb.get(hcur);
            let p = fb.gep(h, i, 8, 0);
            let v = fb.load(Ty::I64, p);
            let q = fb.gep(stack, i, 8, 0);
            let w = fb.load(Ty::I64, q);
            let d = fb.get(digest);
            let d1 = fb.mul(d, 31u64);
            let d2 = fb.add(d1, v);
            let d3 = fb.xor(d2, w);
            fb.set(digest, d3);
        });
        let v = fb.get(digest);
        fb.ret(Some(v.into()));
    });
    mb.finish()
}

fn run(module: &Module, h: Hardening) -> u64 {
    let mut module = module.clone();
    h.instrument(&mut module, false).unwrap();
    verify(&module).expect("generated module verifies");
    let mut vm = Vm::new(
        &module,
        VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
    );
    h.install(&mut vm, 128, ADDRESS_SPACE_CAP);
    let out = vm.run("main", &[]);
    out.result
        .unwrap_or_else(|t| panic!("{h:?} trapped on an in-bounds program: {t}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schemes_agree_on_random_programs(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let module = build(&ops);
        let native = run(&module, Hardening::None);
        for scheme in Scheme::all_hardened() {
            let got = run(&module, scheme.hardening());
            prop_assert_eq!(got, native, "{} diverged", scheme.label());
        }
        // Every optimization combination must also agree.
        for (safe, hoist, boundless) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (true, true, true),
        ] {
            let cfg = SbConfig {
                safe_access_opt: safe,
                hoist_opt: hoist,
                boundless,
                ..SbConfig::default()
            };
            let got = run(&module, Hardening::SgxBounds(cfg));
            prop_assert_eq!(got, native, "sgxbounds {:?} diverged", cfg);
        }
    }
}
