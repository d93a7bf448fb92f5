//! The §4.1 multithreading hazard, live: MPX's disjoint bounds metadata
//! desynchronizes from its pointer under unsynchronized concurrent updates
//! (stale bndldx entries fall back to INIT bounds — silent loss of
//! protection), while SGXBounds' tagged pointers cannot desynchronize: the
//! pointer and its upper bound travel in one atomic 64-bit word.
//!
//! Run with `cargo run --example mpx_race`.

use sgxs_baselines::{install_mpx, instrument_mpx_with, MpxConfig};
use sgxs_mir::{BinOp, CmpOp, Module, ModuleBuilder, Operand, Ty, Vm, VmConfig};
use sgxs_rt::{install_base, AllocOpts};
use sgxs_sim::{MachineConfig, Mode, Preset};

/// Two flipper threads racing pointer stores against a reader that chases
/// the shared cell — the exact Fig. 4c scenario the paper walks through.
fn build() -> Module {
    let mut mb = ModuleBuilder::new("race");
    let flipper = mb.func(
        "flipper",
        &[Ty::Ptr, Ty::Ptr, Ty::Ptr],
        Some(Ty::I64),
        |fb| {
            let cell = fb.param(0);
            let a = fb.param(1);
            let b = fb.param(2);
            fb.count_loop(0u64, 3000u64, |fb, i| {
                let odd = fb.and(i, 1u64);
                let v = fb.select(odd, a, b);
                fb.store(Ty::Ptr, cell, v);
            });
            fb.ret(Some(0u64.into()));
        },
    );
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let cell = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
        let a = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
        let b = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
        fb.store(Ty::Ptr, cell, a);
        let ff = fb.func_addr(flipper);
        let t1 = fb.intr("spawn", &[ff.into(), cell.into(), a.into(), b.into()]);
        let t2 = fb.intr("spawn", &[ff.into(), cell.into(), b.into(), a.into()]);
        let sum = fb.local(Ty::I64);
        fb.set(sum, 0u64);
        fb.count_loop(0u64, 3000u64, |fb, _| {
            let p = fb.load(Ty::Ptr, cell);
            let v = fb.load(Ty::I64, p);
            let keep = fb.cmp(CmpOp::ULt, v, u64::MAX);
            let s = fb.get(sum);
            let s2 = fb.bin(BinOp::Add, s, keep);
            fb.set(sum, s2);
        });
        fb.intr("join", &[t1.into()]);
        fb.intr("join", &[t2.into()]);
        let v = fb.get(sum);
        fb.ret(Some(v.into()));
    });
    mb.finish()
}

fn main() {
    let mut module = build();
    instrument_mpx_with(&mut module, false).unwrap();
    let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
    cfg.quantum = 3; // Fine-grained interleaving.
    let mut vm = Vm::new(&module, cfg);
    let heap = install_base(&mut vm, AllocOpts::default());
    let rt = install_mpx(&mut vm, heap, MpxConfig::for_scale(128));
    let out = vm.run("main", &[]);
    out.expect_ok();
    let st = rt.tables.borrow().stats;
    println!("MPX under racing pointer updates (paper §4.1):");
    println!("  bndstx executed:            {}", st.bndstx);
    println!("  bndldx executed:            {}", st.bndldx);
    println!(
        "  bndldx stale-entry misses:  {}  <- silent INIT bounds!",
        st.ldx_mismatch
    );
    println!();
    println!(
        "Every stale miss is an access MPX silently stopped checking.\n\
         SGXBounds has no such window: tag and pointer share one word, so\n\
         the same program under SGXBounds keeps full protection (run the\n\
         cross-scheme test suite to see it pass there)."
    );
}
