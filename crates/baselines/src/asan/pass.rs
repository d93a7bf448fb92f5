//! ASan compile-time instrumentation: shadow checks before every access.

use super::{GLOBAL_REDZONE, SHADOW_BASE, SHADOW_SHIFT};
use sgxs_mir::ir::{
    AccessAttrs, BinOp, Block, BlockId, CmpOp, Function, Inst, IntrinsicId, Module, Operand,
    SlotId, Term,
};
use sgxs_mir::rewrite::{BlockOrder, Guard, Next};
use sgxs_mir::ty::Ty;

/// What the ASan pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AsanReport {
    /// Accesses instrumented with a shadow check.
    pub checks: usize,
    /// Allocation/libc intrinsics redirected.
    pub intrinsics_redirected: usize,
}

const REDIRECTS: &[(&str, &str)] = &[
    ("malloc", "asan_malloc"),
    ("calloc", "asan_calloc"),
    ("realloc", "asan_realloc"),
    ("free", "asan_free"),
    ("memcpy", "asan_memcpy"),
    ("memmove", "asan_memcpy"),
    ("memset", "asan_memset"),
    // mmap/munmap, strlen/strcpy/strcmp/memcmp use the interceptors'
    // range-check behaviour via the same primitive; modelled as the raw
    // versions plus shadow checks happen at access granularity for the
    // string family, which ASan implements with per-byte checks we fold
    // into asan_memcpy-style range scans.
    ("strcpy", "asan_strcpy"),
    ("strncpy", "asan_strncpy"),
    ("strcat", "asan_strcat"),
];

/// Applies ASan instrumentation to `module`. With `markers`, every shadow
/// check is wrapped in transparent site markers (registered in the
/// module's check-site table).
///
/// # Errors
///
/// Returns the name of the existing scheme if the module is already
/// instrumented.
pub fn instrument_asan_with(
    module: &mut Module,
    markers: bool,
) -> Result<AsanReport, &'static str> {
    if let Some(s) = module.hardening {
        return Err(s);
    }
    let mut report = AsanReport {
        intrinsics_redirected: module.redirect_intrinsics(REDIRECTS),
        ..AsanReport::default()
    };
    let asan_report = module.intrinsic("asan_report");
    let asan_poison = module.intrinsic("asan_poison");
    let asan_unpoison = module.intrinsic("asan_unpoison");

    // Pad globals and stack slots with a trailing redzone: stack redzones
    // are poisoned at frame entry, global ones by `__asan_init_globals`,
    // which `main` calls first.
    for g in &mut module.globals {
        g.padded_size = g.size + GLOBAL_REDZONE;
    }
    module.rewrite_funcs(markers, |rw| {
        poison_slots(rw.func, asan_poison, asan_unpoison);
        // A shadow check on every access.
        rw.walk_accesses(BlockOrder::Reverse, |rw, bi, i, acc| {
            let addr = acc.addr;
            if let Operand::Imm(_) = addr {
                return Next::At(i + 1);
            }
            let size = Operand::Imm(acc.width() as u64);
            let f = &mut *rw.func;
            // Fast path: sb = shadow[addr >> 3]; ok if sb == 0.
            let sh = f.new_reg(Ty::I64);
            let sa = f.new_reg(Ty::Ptr);
            let sb = f.new_reg(Ty::I8);
            let c = f.new_reg(Ty::I64);
            let check = vec![
                Inst::Bin {
                    op: BinOp::LShr,
                    dst: sh,
                    a: addr,
                    b: Operand::Imm(SHADOW_SHIFT as u64),
                },
                // The base offset folds into the load's addressing mode
                // (x86 `cmp byte ptr [off + reg], 0`), hence a gep.
                Inst::Gep {
                    dst: sa,
                    base: Operand::Imm(SHADOW_BASE as u64),
                    index: sh.into(),
                    scale: 1,
                    disp: 0,
                    inbounds: true,
                },
                Inst::Load {
                    dst: sb,
                    addr: sa.into(),
                    ty: Ty::I8,
                    attrs: AccessAttrs {
                        safe: true,
                        no_lower: true,
                        lowered: true,
                    },
                },
                Inst::Cmp {
                    op: CmpOp::Ne,
                    dst: c,
                    a: sb.into(),
                    b: Operand::Imm(0),
                },
            ];
            // Slow path: partial-granule check.
            // ok iff sb < 0x80 and (addr & 7) + size <= sb.
            let neg = f.new_reg(Ty::I64);
            let k = f.new_reg(Ty::I64);
            let kend = f.new_reg(Ty::I64);
            let over = f.new_reg(Ty::I64);
            let bad = f.new_reg(Ty::I64);
            let slow = vec![
                Inst::Cmp {
                    op: CmpOp::UGe,
                    dst: neg,
                    a: sb.into(),
                    b: Operand::Imm(0x80),
                },
                Inst::Bin {
                    op: BinOp::And,
                    dst: k,
                    a: addr,
                    b: Operand::Imm(7),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    dst: kend,
                    a: k.into(),
                    b: size,
                },
                Inst::Cmp {
                    op: CmpOp::UGt,
                    dst: over,
                    a: kend.into(),
                    b: sb.into(),
                },
                Inst::Bin {
                    op: BinOp::Or,
                    dst: bad,
                    a: neg.into(),
                    b: over.into(),
                },
            ];
            report.checks += 1;
            let guard = Guard {
                kind: "asan",
                check,
                lead: vec![],
                addr: None,
                trail: vec![],
            };
            let is_store = Operand::Imm(acc.is_store() as u64);
            rw.guard(bi, i, guard, |cont| {
                let (slow_id, fail_id) = (BlockId(cont.0 + 1), BlockId(cont.0 + 2));
                let slow = Block {
                    insts: slow,
                    term: Term::Br {
                        cond: bad.into(),
                        t: fail_id,
                        f: cont,
                    },
                };
                // Fail: report and die.
                let fail = Block {
                    insts: vec![Inst::CallIntrinsic {
                        dst: None,
                        intrinsic: asan_report,
                        args: vec![addr, size, is_store],
                    }],
                    term: Term::Unreachable,
                };
                let branch = Term::Br {
                    cond: c.into(),
                    t: slow_id,
                    f: cont,
                };
                (branch, [slow, fail])
            })
        });
    });
    module.add_startup("__asan_init_globals", |init, gi, g| {
        let t = init.new_reg(Ty::Ptr);
        [
            Inst::GlobalAddr { dst: t, global: gi },
            poison(asan_poison, t.into(), g.size),
        ]
    });

    module.hardening = Some("asan");
    Ok(report)
}

/// `asan_poison(p, size, GLOBAL_REDZONE)`: poisons the redzone after an
/// object of `size` bytes at `p`.
fn poison(asan_poison: IntrinsicId, p: Operand, size: u32) -> Inst {
    Inst::CallIntrinsic {
        dst: None,
        intrinsic: asan_poison,
        args: vec![
            p,
            Operand::Imm(size as u64),
            Operand::Imm(GLOBAL_REDZONE as u64),
        ],
    }
}

/// Unpoisons every stack slot and poisons its trailing redzone at frame
/// entry.
fn poison_slots(f: &mut Function, asan_poison: IntrinsicId, asan_unpoison: IntrinsicId) {
    let mut seq = Vec::new();
    for si in 0..f.slots.len() {
        let t = f.new_reg(Ty::Ptr);
        let size = f.slots[si].size;
        seq.push(Inst::SlotAddr {
            dst: t,
            slot: SlotId(si as u32),
        });
        seq.push(Inst::CallIntrinsic {
            dst: None,
            intrinsic: asan_unpoison,
            args: vec![t.into(), Operand::Imm(size as u64)],
        });
        seq.push(poison(asan_poison, t.into(), size));
    }
    f.blocks[0].insts.splice(0..0, seq);
    for s in &mut f.slots {
        s.padded_size = s.size + GLOBAL_REDZONE;
    }
}
