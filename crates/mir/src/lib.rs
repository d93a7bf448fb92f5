#![warn(missing_docs)]

//! A mini typed IR with a builder, verifier, analyses, and a multithreaded
//! cost-accounting interpreter over the SGX machine model.
//!
//! This crate plays the role LLVM 3.8 plays in the paper: the substrate on
//! which SGXBounds, AddressSanitizer-style, and Intel MPX-style
//! instrumentation passes operate (paper §5). Programs are constructed with
//! [`builder::ModuleBuilder`], hardened by rewriting their [`ir::Module`]
//! (the mechanics every check-inserting pass shares live in [`rewrite`]),
//! and executed by [`interp::Vm`], which charges cycles through
//! [`sgxs_sim::Machine`] so that performance and memory overheads *emerge*
//! from each scheme's memory behaviour.

pub mod analysis;
pub mod builder;
pub mod display;
pub mod interp;
pub mod ir;
pub mod rewrite;
pub mod ty;
pub mod verify;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use interp::{
    note_site, AccessKind, Env, Frame, HotRefs, IntrinsicCtx, PolicySet, QuantumEngine,
    RecoveryPolicy, RecoveryStats, RunOutcome, Trap, TrapClass, Vm, VmConfig,
};
pub use ir::{
    gep_addr, AccessAttrs, BinOp, Block, BlockId, CastKind, CheckSite, CmpOp, FBinOp, FCmpOp,
    FuncId, Function, Global, GlobalId, Inst, IntrinsicId, LocalId, Module, Operand, Reg,
    SiteMarker, SlotId, StackSlot, Term,
};
pub use rewrite::{Access, AccessOp, BlockOrder, Guard, Next, Rewriter};
pub use ty::Ty;
pub use verify::{verify, VerifyError};

#[cfg(test)]
mod vm_tests {
    use super::*;
    use sgxs_sim::{MachineConfig, Mode, Preset};

    fn cfg() -> VmConfig {
        VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Native))
    }

    fn run(m: &Module, args: &[u64]) -> RunOutcome {
        verify(m).expect("module verifies");
        let mut vm = Vm::new(m, cfg());
        vm.run("main", args)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let a = fb.add(40u64, 1u64);
            let b = fb.mul(a, 2u64);
            let c = fb.sub(b, 40u64);
            fb.ret(Some(c.into())); // (40+1)*2-40 = 42.
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 42);
    }

    #[test]
    fn loops_accumulate() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.local(Ty::I64);
            fb.set(acc, 0u64);
            let n = fb.param(0);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.get(acc);
                let s = fb.add(a, i);
                fb.set(acc, s);
            });
            let v = fb.get(acc);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[100]).expect_ok(), 4950);
    }

    #[test]
    fn memory_via_slots() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let s = fb.slot("arr", 80);
            let p = fb.slot_addr(s);
            fb.count_loop(0u64, 10u64, |fb, i| {
                let a = fb.gep(p, i, 8, 0);
                let sq = fb.mul(i, i);
                fb.store(Ty::I64, a, sq);
            });
            let a9 = fb.gep(p, 9u64, 8, 0);
            let v = fb.load(Ty::I64, a9);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 81);
    }

    #[test]
    fn globals_initialized_and_addressable() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 16, &7u64.to_le_bytes());
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.global_addr(g);
            let v = fb.load(Ty::I64, p);
            let q = fb.gep(p, 1u64, 8, 0);
            fb.store(Ty::I64, q, v);
            let w = fb.load(Ty::I64, q);
            let r = fb.add(v, w);
            fb.ret(Some(r.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 14);
    }

    #[test]
    fn direct_and_indirect_calls() {
        let mut mb = ModuleBuilder::new("t");
        let dbl = mb.func("dbl", &[Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            let r = fb.mul(p, 2u64);
            fb.ret(Some(r.into()));
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let a = fb.call(dbl, &[Operand::Imm(10)]).unwrap();
            let fp = fb.func_addr(dbl);
            let b = fb
                .call_indirect(fp, &[Operand::Reg(a)], Some(Ty::I64))
                .unwrap();
            fb.ret(Some(b.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 40);
    }

    #[test]
    fn indirect_call_to_garbage_traps() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let r = fb
                .call_indirect(0xDEAD_BEEFu64, &[], Some(Ty::I64))
                .unwrap();
            fb.ret(Some(r.into()));
        });
        let m = mb.finish();
        let out = run(&m, &[]);
        assert!(matches!(out.result, Err(Trap::BadIndirectCall { .. })));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            let r = fb.udiv(1u64, p);
            fb.ret(Some(r.into()));
        });
        let m = mb.finish();
        assert!(matches!(run(&m, &[0]).result, Err(Trap::DivByZero)));
        assert_eq!(run(&m, &[1]).expect_ok(), 1);
    }

    #[test]
    fn floating_point_math() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let half = fb.fconst(0.5);
            let three = fb.fconst(3.0);
            let x = fb.fmul(half, three); // 1.5
            let y = fb.fadd(x, fb.fconst(2.5)); // 4.0
            let r = fb.cast(CastKind::FSqrt, y); // 2.0
            let i = fb.cast(CastKind::FToSi, r);
            fb.ret(Some(i.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 2);
    }

    #[test]
    fn intrinsic_handlers_receive_args_and_return() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let v = fb.intr("host_add", &[Operand::Imm(20), Operand::Imm(22)]);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        let mut vm = Vm::new(&m, cfg());
        vm.register_intrinsic("host_add", |_ctx, args| Ok(Some(args[0] + args[1])));
        assert_eq!(vm.run("main", &[]).expect_ok(), 42);
    }

    #[test]
    fn unknown_intrinsic_traps_with_name() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            fb.intr_void("no_such_thing", &[]);
            fb.ret(None);
        });
        let m = mb.finish();
        let mut vm = Vm::new(&m, cfg());
        match vm.run("main", &[]).result {
            Err(Trap::UnknownIntrinsic(n)) => assert_eq!(n, "no_such_thing"),
            other => panic!("expected unknown-intrinsic trap, got {other:?}"),
        }
    }

    #[test]
    fn threads_spawn_join_and_share_memory() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.func("worker", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            // Add thread_id+1 into the shared counter, atomically, 100x.
            fb.count_loop(0u64, 100u64, |fb, _| {
                let me = fb.intr("thread_id", &[]);
                let inc = fb.add(me, 1u64);
                fb.atomic_rmw(BinOp::Add, Ty::I64, p, inc);
            });
            fb.ret(Some(0u64.into()));
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let s = fb.slot("counter", 8);
            let p = fb.slot_addr(s);
            fb.store(Ty::I64, p, 0u64);
            let wf = fb.func_addr(worker);
            let t1 = fb.intr("spawn", &[wf.into(), p.into()]);
            let t2 = fb.intr("spawn", &[wf.into(), p.into()]);
            fb.intr("join", &[t1.into()]);
            fb.intr("join", &[t2.into()]);
            let v = fb.load(Ty::I64, p);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        // Threads 1 and 2 each add (tid+1) 100 times: 200 + 300 = 500.
        assert_eq!(run(&m, &[]).expect_ok(), 500);
    }

    #[test]
    fn mutex_provides_exclusion() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.func("worker", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            fb.count_loop(0u64, 50u64, |fb, _| {
                fb.intr_void("mutex_lock", &[p.into()]);
                // Non-atomic read-modify-write protected by the lock.
                let q = fb.gep(p, 1u64, 8, 0);
                let v = fb.load(Ty::I64, q);
                let v2 = fb.add(v, 1u64);
                fb.store(Ty::I64, q, v2);
                fb.intr_void("mutex_unlock", &[p.into()]);
            });
            fb.ret(Some(0u64.into()));
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let s = fb.slot("shared", 16);
            let p = fb.slot_addr(s);
            fb.store(Ty::I64, p, 0u64);
            let q = fb.gep(p, 1u64, 8, 0);
            fb.store(Ty::I64, q, 0u64);
            let wf = fb.func_addr(worker);
            let t1 = fb.intr("spawn", &[wf.into(), p.into()]);
            let t2 = fb.intr("spawn", &[wf.into(), p.into()]);
            fb.intr("join", &[t1.into()]);
            fb.intr("join", &[t2.into()]);
            let v = fb.load(Ty::I64, q);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 100);
    }

    #[test]
    fn parallel_threads_overlap_in_time() {
        // Two threads doing equal work should take roughly the time of one,
        // under the discrete-event scheduler.
        fn build(threads: u64) -> Module {
            let mut mb = ModuleBuilder::new("t");
            let worker = mb.func("worker", &[Ty::I64], Some(Ty::I64), |fb| {
                let acc = fb.local(Ty::I64);
                fb.set(acc, 0u64);
                fb.count_loop(0u64, 20_000u64, |fb, i| {
                    let a = fb.get(acc);
                    let s = fb.add(a, i);
                    fb.set(acc, s);
                });
                let v = fb.get(acc);
                fb.ret(Some(v.into()));
            });
            mb.func("main", &[], Some(Ty::I64), |fb| {
                let wf = fb.func_addr(worker);
                let tids = fb.slot("tids", 64);
                let tp = fb.slot_addr(tids);
                fb.count_loop(0u64, threads, |fb, i| {
                    let t = fb.intr("spawn", &[wf.into(), i.into()]);
                    let a = fb.gep(tp, i, 8, 0);
                    fb.store(Ty::I64, a, t);
                });
                fb.count_loop(0u64, threads, |fb, i| {
                    let a = fb.gep(tp, i, 8, 0);
                    let t = fb.load(Ty::I64, a);
                    fb.intr("join", &[t.into()]);
                });
                fb.ret(Some(0u64.into()));
            });
            mb.finish()
        }
        let one = run(&build(1), &[]);
        let four = run(&build(4), &[]);
        one.expect_ok();
        four.expect_ok();
        let ratio = four.wall_cycles as f64 / one.wall_cycles as f64;
        assert!(
            ratio < 1.6,
            "4 threads should not cost 4x one thread's wall time (ratio {ratio})"
        );
    }

    #[test]
    fn exit_intrinsic_stops_everything() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            fb.intr_void("exit", &[Operand::Imm(7)]);
            fb.ret(Some(0u64.into()));
        });
        let m = mb.finish();
        assert_eq!(run(&m, &[]).expect_ok(), 7);
    }

    #[test]
    fn instruction_limit_contains_infinite_loops() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let head = fb.block();
            fb.jmp(head);
            fb.switch_to(head);
            fb.jmp(head);
        });
        let m = mb.finish();
        let mut c = cfg();
        c.max_instructions = 10_000;
        let mut vm = Vm::new(&m, c);
        assert!(matches!(
            vm.run("main", &[]).result,
            Err(Trap::InstructionLimit)
        ));
    }

    #[test]
    fn output_captured_in_order() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            fb.intr_void("print_i64", &[Operand::Imm(1)]);
            fb.intr_void("print_i64", &[Operand::Imm(2)]);
            fb.ret(None);
        });
        let m = mb.finish();
        let out = run(&m, &[]);
        assert_eq!(out.output, vec!["1", "2"]);
    }

    #[test]
    fn stack_overflow_detected_on_deep_recursion() {
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare("rec", &[Ty::I64], Some(Ty::I64));
        mb.define(f, |fb| {
            let s = fb.slot("pad", 4096);
            let _ = fb.slot_addr(s);
            let p = fb.param(0);
            let r = fb.call(f, &[p.into()]).unwrap();
            fb.ret(Some(r.into()));
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let r = fb.call(f, &[Operand::Imm(0)]).unwrap();
            fb.ret(Some(r.into()));
        });
        let m = mb.finish();
        assert!(matches!(run(&m, &[]).result, Err(Trap::StackOverflow)));
    }

    #[test]
    fn wild_store_to_tagged_address_mem_faults() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            // Store through a value with garbage in the high 32 bits — the
            // situation SGXBounds' masking prevents.
            let bad = fb.or(0x10u64 << 32, 0x1000u64);
            fb.store(Ty::I64, bad, 1u64);
            fb.ret(None);
        });
        let m = mb.finish();
        assert!(matches!(run(&m, &[]).result, Err(Trap::Mem(_))));
    }

    #[test]
    fn enclave_run_counts_epc_activity() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let buf = fb.intr_ptr("ws_base", &[]);
            let n = fb.param(0);
            let acc = fb.local(Ty::I64);
            fb.set(acc, 0u64);
            // Two passes over n KB of memory at 64-byte stride.
            fb.count_loop(0u64, 2u64, |fb, _| {
                let lines = fb.shl(n, 4u64); // n * 16 lines per KB.
                fb.count_loop(0u64, lines, |fb, i| {
                    let a = fb.gep(buf, i, 64, 0);
                    let v = fb.load(Ty::I64, a);
                    let acc_v = fb.get(acc);
                    let s = fb.add(acc_v, v);
                    fb.set(acc, s);
                });
            });
            let v = fb.get(acc);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        let mut c = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        c.max_instructions = 50_000_000;
        let mut vm = Vm::new(&m, c);
        let base = vm.heap_base() as u64;
        vm.register_intrinsic("ws_base", move |_, _| Ok(Some(base)));
        // Working set of 2 MB >> 736 KB Tiny EPC: must thrash.
        let out = vm.run("main", &[2048]);
        out.expect_ok();
        assert!(
            out.stats.epc_faults > 400,
            "expected EPC thrashing, got {} faults",
            out.stats.epc_faults
        );
    }
}
