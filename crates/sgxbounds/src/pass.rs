//! The SGXBounds compile-time instrumentation pass (paper §3.2, §5.1).
//!
//! Rewrites a module so that, at run time:
//!
//! 1. every allocation site produces a *tagged pointer* and appends the
//!    lower bound after the object (`malloc` family, globals, stack slots);
//! 2. every pointer-arithmetic instruction is masked so it can only affect
//!    the low 32 bits (a wild index can never corrupt the tag);
//! 3. every memory access extracts `(p, UB, LB)` and branches to the
//!    violation handler when out of bounds — unless the safe-access or
//!    check-hoisting optimizations proved the check redundant, in which
//!    case only the tag strip remains;
//! 4. libc-style intrinsics are redirected to the checking wrappers.
//!
//! The pass is purely structural: it never executes anything. The companion
//! runtime ([`crate::runtime`]) provides the `sb_*` intrinsics the rewritten
//! code calls.

use crate::tagged::{LB_BYTES, PTR_MASK};
use crate::SbConfig;
use sgxs_mir::analysis::mark_safe_accesses;
use sgxs_mir::ir::{
    AccessAttrs, BinOp, Block, BlockId, CmpOp, Function, Inst, IntrinsicId, Module, Operand, Reg,
    SlotId, Term,
};
use sgxs_mir::rewrite::{BlockOrder, Guard, Next, Rewriter};
use sgxs_mir::ty::Ty;

/// Counters describing what the pass did (used by tests and the
/// optimization-ablation experiment, Fig. 10).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentReport {
    /// Accesses lowered with the full (LB + UB) check.
    pub full_checks: usize,
    /// Accesses lowered with only the UB check (lower bound hoisted away).
    pub ub_only_checks: usize,
    /// Accesses proven safe: only the tag strip remains.
    pub safe_elided: usize,
    /// Pointer-arithmetic instructions masked.
    pub geps_masked: usize,
    /// Loop checks hoisted to preheaders.
    pub hoisted_checks: usize,
    /// Allocation-site intrinsics redirected to the runtime.
    pub intrinsics_redirected: usize,
    /// Accesses newly proven safe by the flow-sensitive tier.
    pub flow_marked: usize,
    /// Checks elided by the must-availability analysis.
    pub flow_elided: usize,
}

/// Errors the pass can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassError {
    /// The module was already hardened with some scheme.
    AlreadyInstrumented(&'static str),
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::AlreadyInstrumented(s) => {
                write!(f, "module already instrumented with {s}")
            }
        }
    }
}

impl std::error::Error for PassError {}

/// Intrinsics redirected to checking wrappers (paper §3.2 "Function calls").
const REDIRECTS: &[(&str, &str)] = &[
    ("malloc", "sb_malloc"),
    ("calloc", "sb_calloc"),
    ("realloc", "sb_realloc"),
    ("free", "sb_free"),
    ("mmap", "sb_mmap"),
    ("munmap", "sb_munmap"),
    ("memcpy", "sb_memcpy"),
    ("memmove", "sb_memmove"),
    ("memset", "sb_memset"),
    ("memcmp", "sb_memcmp"),
    ("strlen", "sb_strlen"),
    ("strcpy", "sb_strcpy"),
    ("strcmp", "sb_strcmp"),
    ("strncpy", "sb_strncpy"),
    ("strcat", "sb_strcat"),
    ("strchr", "sb_strchr"),
    ("fmt_u64", "sb_fmt_u64"),
    ("malloc_usable_size", "sb_malloc_usable_size"),
];

/// Applies SGXBounds instrumentation to `module`.
pub fn instrument(module: &mut Module, cfg: &SbConfig) -> Result<InstrumentReport, PassError> {
    if let Some(s) = module.hardening {
        return Err(PassError::AlreadyInstrumented(s));
    }
    let mut report = InstrumentReport::default();

    // (1) Safe-access analysis (paper §4.4).
    if cfg.safe_access_opt {
        mark_safe_accesses(module);
    }

    // (1b) Flow-sensitive tier: cross-block provenance proofs plus
    // must-availability elision, both consulting interprocedural call-graph
    // summaries so facts survive calls to callees proven heap-benign.
    // Fail-stop only — an elided check would skip the boundless
    // redirection of a genuinely OOB access.
    if cfg.flow_elide && !cfg.boundless {
        let summaries = sgxs_analyze::summarize(module);
        report.flow_marked = sgxs_analyze::mark_safe_flow_with(module, Some(&summaries));
        report.flow_elided = sgxs_analyze::elide_redundant_checks_with(module, Some(&summaries));
    }

    // (2) Loop-check hoisting (paper §4.4). Incompatible with boundless
    // redirection (a hoisted check has no single access to redirect), so it
    // is applied only in fail-stop mode.
    if cfg.hoist_opt && !cfg.boundless {
        report.hoisted_checks = crate::opts::hoist_loop_checks_with(module, cfg.site_markers);
    }

    // (2b) Bounds narrowing (paper §8): accesses through narrowed field
    // pointers skip the lower-bound load (the narrowed UB points into the
    // object, where no LB word lives).
    if cfg.narrow_bounds {
        crate::narrow::mark_narrowed_accesses(module);
    }

    // (3) Redirect allocation/libc intrinsics to the runtime wrappers.
    report.intrinsics_redirected = module.redirect_intrinsics(REDIRECTS);

    // (4) Per function: mask geps, lower access checks, tag every
    // SlotAddr/GlobalAddr result (addresses of globals and stack objects
    // become tagged pointers), and pad stack slots with the 4-byte lower
    // bound, stored at frame entry (paper §3.2 "Pointer creation").
    let sb_violation = module.intrinsic("sb_violation");
    let global_sizes: Vec<u32> = module.globals.iter().map(|g| g.size).collect();
    module.rewrite_funcs(cfg.site_markers, |rw| {
        report.geps_masked += mask_geps(rw.func);
        lower_accesses(rw, sb_violation, &mut report);
        tag_address_takes(rw.func, &global_sizes);
        insert_slot_lb_init(rw.func);
        for s in &mut rw.func.slots {
            s.padded_size = s.size + LB_BYTES;
        }
    });

    // (5) Pad globals the same way; `__sb_init_globals`, called first in
    // `main`, stores their lower bounds.
    for g in &mut module.globals {
        g.padded_size = g.size + LB_BYTES;
    }
    module.add_startup("__sb_init_globals", |init, gi, g| {
        store_lb(init, |dst| Inst::GlobalAddr { dst, global: gi }, g.size)
    });

    module.hardening = Some("sgxbounds");
    Ok(report)
}

/// Masks pointer arithmetic; returns how many geps were masked.
///
/// `d = gep ...` becomes
///
/// ```text
/// t  = gep base, idx, scale, disp   (raw)
/// hi = and base, TAG_MASK
/// lo = and t, PTR_MASK
/// d  = or hi, lo
/// ```
///
/// Inbounds geps (struct offsets, fixed-index arrays) cannot overflow the
/// low 32 bits and are left unmasked (paper §4.4 "Safe memory accesses").
fn mask_geps(f: &mut Function) -> usize {
    let mut masked = 0;
    for bi in 0..f.blocks.len() {
        let mut i = 0;
        while i < f.blocks[bi].insts.len() {
            let inst = &f.blocks[bi].insts[i];
            if let Inst::Gep {
                dst,
                base: base @ Operand::Reg(_),
                index,
                scale,
                disp,
                inbounds: false,
            } = *inst
            {
                let t = f.new_reg(Ty::Ptr);
                let hi = f.new_reg(Ty::I64);
                let lo = f.new_reg(Ty::I64);
                let seq = vec![
                    Inst::Gep {
                        dst: t,
                        base,
                        index,
                        scale,
                        disp,
                        inbounds: true, // Marked so this pass never revisits it.
                    },
                    Inst::Bin {
                        op: BinOp::And,
                        dst: hi,
                        a: base,
                        b: Operand::Imm(crate::tagged::TAG_MASK),
                    },
                    Inst::Bin {
                        op: BinOp::And,
                        dst: lo,
                        a: t.into(),
                        b: Operand::Imm(PTR_MASK),
                    },
                    Inst::Bin {
                        op: BinOp::Or,
                        dst,
                        a: hi.into(),
                        b: lo.into(),
                    },
                ];
                f.blocks[bi].insts.splice(i..=i, seq);
                i += 4;
                masked += 1;
            } else {
                i += 1;
            }
        }
    }
    masked
}

/// Puts the SGXBounds check in front of every access: the tag strip
/// alone on proven-safe accesses, else `p + size > UB` (plus `p < LB`,
/// unless the lower bound is known) branching to `sb_violation`, whose
/// result (the boundless redirect, in tolerant mode) replaces the address.
fn lower_accesses(rw: &mut Rewriter<'_>, sb_violation: IntrinsicId, report: &mut InstrumentReport) {
    let tmp = rw.func.new_local(Ty::I64);
    rw.walk_accesses(BlockOrder::Reverse, |rw, bi, i, acc| {
        let addr = acc.addr;
        if let Operand::Imm(_) = addr {
            // Host-constant addresses are not program pointers.
            rw.func.blocks[bi].insts[i].mark_lowered();
            return Next::At(i + 1);
        }
        let size = Operand::Imm(acc.width() as u64);
        let f = &mut *rw.func;
        // Tag strip: p = addr & PTR_MASK.
        let p = f.new_reg(Ty::Ptr);
        let strip = Inst::Bin {
            op: BinOp::And,
            dst: p,
            a: addr,
            b: Operand::Imm(PTR_MASK),
        };
        if acc.attrs.safe {
            report.safe_elided += 1;
            return rw.guard_inline(bi, i, "sb_safe", vec![strip], p.into());
        }

        let ub = f.new_reg(Ty::I64);
        let pe = f.new_reg(Ty::I64);
        let c_ub = f.new_reg(Ty::I64);
        let mut check = vec![
            strip,
            Inst::Bin {
                op: BinOp::LShr,
                dst: ub,
                a: addr,
                b: Operand::Imm(32),
            },
            Inst::Bin {
                op: BinOp::Add,
                dst: pe,
                a: p.into(),
                b: size,
            },
            Inst::Cmp {
                op: CmpOp::UGt,
                dst: c_ub,
                a: pe.into(),
                b: ub.into(),
            },
        ];
        let (kind, cond) = if acc.attrs.no_lower {
            report.ub_only_checks += 1;
            ("sb_ub", c_ub)
        } else {
            report.full_checks += 1;
            let lb = f.new_reg(Ty::I64);
            let c_lb = f.new_reg(Ty::I64);
            let c = f.new_reg(Ty::I64);
            check.push(Inst::Load {
                dst: lb,
                addr: ub.into(),
                ty: Ty::I32,
                attrs: LOWERED_SAFE,
            });
            check.push(Inst::Cmp {
                op: CmpOp::ULt,
                dst: c_lb,
                a: p.into(),
                b: lb.into(),
            });
            check.push(Inst::Bin {
                op: BinOp::Or,
                dst: c,
                a: c_ub.into(),
                b: c_lb.into(),
            });
            ("sb_full", c)
        };

        // The continuation reads the checked address back from `tmp`: the
        // ok block stores the stripped pointer, the fail block whatever
        // the violation handler returns.
        let aa = f.new_reg(Ty::Ptr);
        let rd = f.new_reg(Ty::Ptr);
        let guard = Guard {
            kind,
            check,
            lead: vec![Inst::ReadLocal {
                dst: aa,
                local: tmp,
            }],
            addr: Some(aa.into()),
            trail: vec![],
        };
        let is_store = Operand::Imm(acc.is_store() as u64);
        rw.guard(bi, i, guard, |cont| {
            let (ok, fail) = (BlockId(cont.0 + 1), BlockId(cont.0 + 2));
            let branch = Term::Br {
                cond: cond.into(),
                t: fail,
                f: ok,
            };
            let ok = Block {
                insts: vec![Inst::WriteLocal {
                    local: tmp,
                    val: p.into(),
                }],
                term: Term::Jmp(cont),
            };
            let fail = Block {
                insts: vec![
                    Inst::CallIntrinsic {
                        dst: Some(rd),
                        intrinsic: sb_violation,
                        args: vec![addr, size, is_store],
                    },
                    Inst::WriteLocal {
                        local: tmp,
                        val: rd.into(),
                    },
                ],
                term: Term::Jmp(cont),
            };
            (branch, [ok, fail])
        })
    });
}

/// Flags of the accesses the pass itself emits: metadata it knows is
/// in bounds, never to be checked.
const LOWERED_SAFE: AccessAttrs = AccessAttrs {
    safe: true,
    no_lower: true,
    lowered: true,
};

/// Rewrites `d = &slot` / `d = &global` into tagged-pointer construction:
/// `base; ub = base + size; d = (ub << 32) | base`.
fn tag_address_takes(f: &mut Function, global_sizes: &[u32]) {
    let slot_sizes: Vec<u32> = f.slots.iter().map(|s| s.size).collect();
    for bi in 0..f.blocks.len() {
        let mut i = 0;
        while i < f.blocks[bi].insts.len() {
            let (dst, size, raw) = match f.blocks[bi].insts[i] {
                Inst::SlotAddr { dst, slot } => {
                    let t = f.new_reg(Ty::Ptr);
                    f.blocks[bi].insts[i] = Inst::SlotAddr { dst: t, slot };
                    (dst, slot_sizes[slot.0 as usize], t)
                }
                Inst::GlobalAddr { dst, global } => {
                    let t = f.new_reg(Ty::Ptr);
                    f.blocks[bi].insts[i] = Inst::GlobalAddr { dst: t, global };
                    (dst, global_sizes[global.0 as usize], t)
                }
                _ => {
                    i += 1;
                    continue;
                }
            };
            let ub = f.new_reg(Ty::I64);
            let sh = f.new_reg(Ty::I64);
            let seq = vec![
                Inst::Bin {
                    op: BinOp::Add,
                    dst: ub,
                    a: raw.into(),
                    b: Operand::Imm(size as u64),
                },
                Inst::Bin {
                    op: BinOp::Shl,
                    dst: sh,
                    a: ub.into(),
                    b: Operand::Imm(32),
                },
                Inst::Bin {
                    op: BinOp::Or,
                    dst,
                    a: sh.into(),
                    b: raw.into(),
                },
            ];
            f.blocks[bi].insts.splice(i + 1..i + 1, seq);
            i += 4;
        }
    }
}

/// `t = <address of the object>; *(i32*)(t + size) = t`: stores an
/// object's lower bound into the word after it.
fn store_lb(f: &mut Function, addr_of: impl FnOnce(Reg) -> Inst, size: u32) -> [Inst; 3] {
    let t = f.new_reg(Ty::Ptr);
    let la = f.new_reg(Ty::Ptr);
    [
        addr_of(t),
        Inst::Gep {
            dst: la,
            base: t.into(),
            index: Operand::Imm(0),
            scale: 1,
            disp: size as i64,
            inbounds: true,
        },
        Inst::Store {
            addr: la.into(),
            val: t.into(),
            ty: Ty::I32,
            attrs: LOWERED_SAFE,
        },
    ]
}

/// Inserts, at function entry, a lower-bound store for every stack slot
/// (paper §3.2: stack objects are padded and initialized at frame
/// creation).
fn insert_slot_lb_init(f: &mut Function) {
    let mut seq = Vec::with_capacity(f.slots.len() * 3);
    for si in 0..f.slots.len() {
        let slot = SlotId(si as u32);
        let size = f.slots[si].size;
        seq.extend(store_lb(f, |dst| Inst::SlotAddr { dst, slot }, size));
    }
    f.blocks[0].insts.splice(0..0, seq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::{verify, ModuleBuilder};

    fn simple_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global_zeroed("g", 64);
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let gp = fb.global_addr(g);
            let s = fb.slot("buf", 32);
            let sp = fb.slot_addr(s);
            let hp = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.count_loop(0u64, 4u64, |fb, i| {
                let a = fb.gep(gp, i, 8, 0);
                let v = fb.load(Ty::I64, a);
                let b = fb.gep(sp, i, 8, 0);
                fb.store(Ty::I64, b, v);
            });
            fb.store(Ty::I64, hp, 1u64);
            fb.intr_void("free", &[hp.into()]);
            fb.ret(Some(0u64.into()));
        });
        mb.finish()
    }

    #[test]
    fn instrumented_module_verifies() {
        let mut m = simple_module();
        let rep = instrument(&mut m, &SbConfig::default()).unwrap();
        verify(&m).expect("instrumented IR must verify");
        assert!(rep.full_checks + rep.ub_only_checks + rep.safe_elided > 0);
        assert!(rep.geps_masked > 0);
        assert_eq!(m.hardening, Some("sgxbounds"));
    }

    #[test]
    fn double_instrumentation_rejected() {
        let mut m = simple_module();
        instrument(&mut m, &SbConfig::default()).unwrap();
        assert!(matches!(
            instrument(&mut m, &SbConfig::default()),
            Err(PassError::AlreadyInstrumented("sgxbounds"))
        ));
    }

    #[test]
    fn objects_padded_with_lb() {
        let mut m = simple_module();
        instrument(&mut m, &SbConfig::default()).unwrap();
        assert_eq!(m.globals[0].padded_size, 64 + 4);
        let main = m.func_by_name("main").unwrap();
        assert_eq!(m.funcs[main.0 as usize].slots[0].padded_size, 32 + 4);
    }

    #[test]
    fn allocation_intrinsics_redirected() {
        let mut m = simple_module();
        let rep = instrument(&mut m, &SbConfig::default()).unwrap();
        assert!(rep.intrinsics_redirected >= 2); // malloc + free.
        assert!(m.intrinsics.iter().any(|n| n == "sb_malloc"));
        assert!(m.intrinsics.iter().any(|n| n == "sb_violation"));
    }

    #[test]
    fn init_function_created_and_called_from_main() {
        let mut m = simple_module();
        instrument(&mut m, &SbConfig::default()).unwrap();
        let init = m.func_by_name("__sb_init_globals").expect("init exists");
        let main = m.func_by_name("main").unwrap();
        let first = &m.funcs[main.0 as usize].blocks[0].insts[0];
        assert!(
            matches!(first, Inst::Call { func, .. } if *func == init),
            "main must call the global initializer first"
        );
    }

    #[test]
    fn optimizations_reduce_check_count() {
        let m0 = simple_module();
        let mut unopt = m0.clone();
        let mut opt = m0;
        let rep_unopt = instrument(
            &mut unopt,
            &SbConfig {
                safe_access_opt: false,
                hoist_opt: false,
                ..SbConfig::default()
            },
        )
        .unwrap();
        let rep_opt = instrument(&mut opt, &SbConfig::default()).unwrap();
        assert!(
            rep_opt.full_checks < rep_unopt.full_checks
                || rep_opt.safe_elided > rep_unopt.safe_elided,
            "optimizations must elide some checks: {rep_opt:?} vs {rep_unopt:?}"
        );
    }
}
