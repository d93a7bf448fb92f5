#![warn(missing_docs)]

//! Baseline memory-safety schemes the paper compares against:
//! AddressSanitizer-style shadow memory ([`asan`]) and Intel MPX-style
//! bounds tables ([`mpx`]).
//!
//! Both are faithful *mechanism* models — they pay their costs through the
//! same machine model as SGXBounds, so the comparative results (Figs. 1,
//! 7–13; Tables 3–4) emerge from behaviour, not curve fitting.
//!
//! [`Hardening`] puts both next to SGXBounds behind one instrument +
//! install path, which every scheme key in the workspace maps onto.

pub mod asan;
pub mod mpx;
pub mod scheme;

pub use asan::{install_asan, instrument_asan_with, AsanConfig, AsanRuntime};
pub use mpx::{install_mpx, instrument_mpx_with, MpxConfig, MpxRuntime};
pub use scheme::{Hardening, Installed, ADDRESS_SPACE_CAP};

#[cfg(test)]
mod e2e {
    use super::*;
    use crate::asan::runtime::asan_alloc_opts;
    use sgxs_mir::{verify, Module, ModuleBuilder, Operand, RunOutcome, Trap, Ty, Vm, VmConfig};
    use sgxs_rt::{install_base, AllocOpts};
    use sgxs_sim::{MachineConfig, Mode, Preset};

    const SCALE: u64 = 128; // Tiny preset scale.

    fn heap_writer() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(80)]);
            let n = fb.param(0);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.gep(p, i, 8, 0);
                fb.store(Ty::I64, a, i);
            });
            let last = fb.gep(p, 9u64, 8, 0);
            let v = fb.load(Ty::I64, last);
            fb.ret(Some(v.into()));
        });
        mb.finish()
    }

    fn run(module: &mut Module, h: Hardening, args: &[u64]) -> (RunOutcome, Installed) {
        h.instrument(module, false).expect("instrumentation");
        verify(module).expect("instrumented IR verifies");
        let mut vm = Vm::new(
            module,
            VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
        );
        let rt = h.install(&mut vm, SCALE, ADDRESS_SPACE_CAP);
        (vm.run("main", args), rt)
    }

    fn run_asan(module: &mut Module, args: &[u64]) -> RunOutcome {
        run(module, Hardening::Asan, args).0
    }

    fn run_mpx(module: &mut Module, args: &[u64]) -> (RunOutcome, MpxRuntime) {
        let (out, rt) = run(module, Hardening::Mpx, args);
        (out, rt.mpx.expect("mpx runtime"))
    }

    // ---- ASan -------------------------------------------------------------

    #[test]
    fn asan_in_bounds_program_works() {
        let out = run_asan(&mut heap_writer(), &[10]);
        assert_eq!(out.expect_ok(), 9);
    }

    #[test]
    fn asan_detects_heap_overflow_into_redzone() {
        let out = run_asan(&mut heap_writer(), &[11]);
        match out.result {
            Err(Trap::SafetyViolation { scheme, .. }) => assert_eq!(scheme, "asan"),
            other => panic!("expected asan detection, got {other:?}"),
        }
    }

    #[test]
    fn asan_detects_use_after_free() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
            fb.intr_void("free", &[p.into()]);
            let v = fb.load(Ty::I64, p);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let out = run_asan(&mut m, &[]);
        assert!(
            matches!(
                out.result,
                Err(Trap::SafetyViolation { scheme: "asan", .. })
            ),
            "quarantined memory must stay poisoned: {:?}",
            out.result
        );
    }

    #[test]
    fn asan_protects_globals_and_stack() {
        let build = || {
            let mut mb = ModuleBuilder::new("t");
            let g = mb.global_zeroed("g", 32);
            mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
                let gp = fb.global_addr(g);
                let i = fb.param(0);
                let a = fb.gep(gp, i, 8, 0);
                fb.store(Ty::I64, a, 1u64);
                fb.ret(Some(0u64.into()));
            });
            mb.finish()
        };
        run_asan(&mut build(), &[3]).expect_ok();
        let out = run_asan(&mut build(), &[4]);
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
    }

    #[test]
    fn asan_misses_in_struct_overflow() {
        // Table 4: in-struct overflows are invisible to redzone schemes.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            // struct { char buf[16]; u64 target; } — overflow buf into
            // target, all inside one 24-byte object.
            let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
            fb.count_loop(0u64, 24u64, |fb, i| {
                let a = fb.gep(p, i, 1, 0);
                fb.store(Ty::I8, a, 0x41u64);
            });
            let t = fb.gep(p, 0u64, 1, 16);
            let v = fb.load(Ty::I64, t);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let out = run_asan(&mut m, &[]);
        assert_eq!(
            out.expect_ok(),
            0x4141_4141_4141_4141,
            "in-struct overflow must go undetected (whole-object granularity)"
        );
    }

    #[test]
    fn asan_reserves_shadow_memory() {
        let mut m = heap_writer();
        instrument_asan_with(&mut m, false).unwrap();
        let mut vm = Vm::new(
            &m,
            VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
        );
        let cfg = AsanConfig::for_scale(SCALE);
        let before = vm.machine.mem.reserved();
        let heap = install_base(&mut vm, asan_alloc_opts(&cfg, u32::MAX as u64));
        install_asan(&mut vm, heap, &cfg);
        assert!(vm.machine.mem.reserved() - before >= cfg.shadow_reserve);
    }

    #[test]
    fn asan_checked_memcpy_catches_range_overflow() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let a = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let b = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let n = fb.param(0);
            fb.intr_void("memcpy", &[a.into(), b.into(), n.into()]);
            fb.ret(Some(0u64.into()));
        });
        let m = mb.finish();
        run_asan(&mut m.clone(), &[32]).expect_ok();
        let out = run_asan(&mut m.clone(), &[40]);
        assert!(matches!(out.result, Err(Trap::SafetyViolation { .. })));
    }

    // ---- MPX --------------------------------------------------------------

    #[test]
    fn mpx_in_bounds_program_works() {
        let (out, _) = run_mpx(&mut heap_writer(), &[10]);
        assert_eq!(out.expect_ok(), 9);
    }

    #[test]
    fn mpx_detects_overflow_with_register_bounds() {
        let (out, rt) = run_mpx(&mut heap_writer(), &[11]);
        match out.result {
            Err(Trap::SafetyViolation { scheme, .. }) => assert_eq!(scheme, "mpx"),
            other => panic!("expected mpx detection, got {other:?}"),
        }
        assert_eq!(rt.tables.borrow().stats.violations, 1);
    }

    #[test]
    fn mpx_spills_and_fills_bounds_through_tables() {
        // Store a pointer into memory, load it back elsewhere, overflow
        // through the reloaded pointer: bndldx must restore the bounds.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let obj = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let cell = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            fb.store(Ty::Ptr, cell, obj); // bndstx.
            let re = fb.load(Ty::Ptr, cell); // bndldx.
            let i = fb.param(0);
            let a = fb.gep(re, i, 8, 0);
            fb.store(Ty::I64, a, 1u64);
            fb.ret(Some(0u64.into()));
        });
        let m = mb.finish();
        let (ok, rt) = run_mpx(&mut m.clone(), &[3]);
        ok.expect_ok();
        let st = rt.tables.borrow().stats;
        assert!(st.bndstx >= 1 && st.bndldx >= 1);
        assert_eq!(st.ldx_mismatch, 0);
        let (bad, _) = run_mpx(&mut m.clone(), &[4]);
        assert!(matches!(bad.result, Err(Trap::SafetyViolation { .. })));
    }

    #[test]
    fn mpx_pointer_through_int_arithmetic_loses_protection() {
        // Disjoint metadata cannot follow a pointer laundered through
        // arithmetic — the overflow goes undetected (false negative).
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let laundered = fb.add(p, 0u64);
            let a = fb.gep(laundered, 10u64, 8, 0); // Way out of bounds.
            fb.store(Ty::I64, a, 7u64);
            let v = fb.load(Ty::I64, a);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let (out, _) = run_mpx(&mut m, &[]);
        assert_eq!(out.expect_ok(), 7, "laundered pointer must be unchecked");
    }

    #[test]
    fn mpx_allocates_bounds_tables_on_pointer_spread() {
        // Pointers stored across many coverage units => many BTs and real
        // reserved memory (the paper's §6.2 memory blow-ups).
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            // One big array spanning several BT coverage units (Tiny scale:
            // 8 KB per BT); store a pointer every 4 KB.
            let big = fb.intr_ptr("malloc", &[Operand::Imm(96 << 10)]);
            let obj = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.count_loop(0u64, 24u64, |fb, i| {
                let slot = fb.gep(big, i, 4096, 0);
                fb.store(Ty::Ptr, slot, obj);
            });
            fb.ret(Some(0u64.into()));
        });
        let mut m = mb.finish();
        let (out, rt) = run_mpx(&mut m, &[]);
        out.expect_ok();
        let t = rt.tables.borrow();
        assert!(
            t.bt_count() >= 10,
            "expected many BTs, got {}",
            t.bt_count()
        );
    }

    #[test]
    fn mpx_oom_when_bounds_tables_exhaust_enclave() {
        // Cap the enclave reservation; BT allocation must hit OOM — the
        // paper's SQLite/dedup crash mode (Fig. 1, Fig. 7).
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let big = fb.intr_ptr("malloc", &[Operand::Imm(256 << 10)]);
            let obj = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.count_loop(0u64, 64u64, |fb, i| {
                let slot = fb.gep(big, i, 4096, 0);
                fb.store(Ty::Ptr, slot, obj);
            });
            fb.ret(Some(0u64.into()));
        });
        let mut m = mb.finish();
        instrument_mpx_with(&mut m, false).unwrap();
        let mut vm = Vm::new(
            &m,
            VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
        );
        let heap = install_base(
            &mut vm,
            AllocOpts {
                reserve_cap: 1 << 20, // 1 MB "enclave".
                ..Default::default()
            },
        );
        install_mpx(&mut vm, heap, MpxConfig::for_scale(128));
        let out = vm.run("main", &[]);
        assert!(
            matches!(out.result, Err(Trap::OutOfMemory { .. })),
            "expected OOM, got {:?}",
            out.result
        );
    }

    #[test]
    fn mpx_desyncs_under_unsynchronized_concurrent_pointer_updates() {
        // Paper §4.1: thread A stores ptr+bounds (two steps); thread B's
        // update can interleave, leaving the BT entry stale. The reloaded
        // pointer then carries INIT bounds (no protection).
        let mut mb = ModuleBuilder::new("t");
        let flipper = mb.func(
            "flipper",
            &[Ty::Ptr, Ty::Ptr, Ty::Ptr],
            Some(Ty::I64),
            |fb| {
                let cell = fb.param(0);
                let a = fb.param(1);
                let b = fb.param(2);
                fb.count_loop(0u64, 2000u64, |fb, i| {
                    let odd = fb.and(i, 1u64);
                    let v = fb.select(odd, a, b);
                    fb.store(Ty::Ptr, cell, v);
                });
                fb.ret(Some(0u64.into()));
            },
        );
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let cell = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            let a = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let b = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            fb.store(Ty::Ptr, cell, a);
            let ff = fb.func_addr(flipper);
            let t1 = fb.intr("spawn", &[ff.into(), cell.into(), a.into(), b.into()]);
            let t2 = fb.intr("spawn", &[ff.into(), cell.into(), b.into(), a.into()]);
            // Reader: keep reloading the pointer while the writers race.
            fb.count_loop(0u64, 2000u64, |fb, _| {
                let p = fb.load(Ty::Ptr, cell);
                let q = fb.gep(p, 0u64, 8, 0);
                fb.store(Ty::I64, q, 1u64);
            });
            fb.intr("join", &[t1.into()]);
            fb.intr("join", &[t2.into()]);
            fb.ret(Some(0u64.into()));
        });
        let mut m = mb.finish();
        instrument_mpx_with(&mut m, false).unwrap();
        let mut vm = Vm::new(&m, {
            let mut c = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
            c.quantum = 3; // Fine interleaving to expose the race.
            c
        });
        let heap = install_base(&mut vm, AllocOpts::default());
        let rt = install_mpx(&mut vm, heap, MpxConfig::for_scale(128));
        let out = vm.run("main", &[]);
        out.expect_ok();
        let st = rt.tables.borrow().stats;
        assert!(
            st.ldx_mismatch > 0,
            "interleaved ptr/bounds updates must desync: {st:?}"
        );
    }

    #[test]
    fn mpx_misses_in_struct_overflow() {
        // Table 4: without bounds narrowing, in-struct overflows pass.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
            fb.count_loop(0u64, 24u64, |fb, i| {
                let a = fb.gep(p, i, 1, 0);
                fb.store(Ty::I8, a, 0x41u64);
            });
            let t = fb.gep(p, 0u64, 1, 16);
            let v = fb.load(Ty::I64, t);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let (out, _) = run_mpx(&mut m, &[]);
        assert_eq!(out.expect_ok(), 0x4141_4141_4141_4141);
    }
}
