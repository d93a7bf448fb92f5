//! MPX compile-time instrumentation.
//!
//! Models how an MPX-enabled compiler (gcc `-mmpx` in the paper) emits:
//!
//! - `bndmk` at pointer-creation sites (cheap register arithmetic),
//! - `bndcl`/`bndcu` before every memory access (cheap, register-only),
//! - `bndldx`/`bndstx` whenever a **pointer value** is loaded from or
//!   stored to memory (expensive bounds-table traffic — the dominant cost
//!   on pointer-dense programs).
//!
//! Bounds propagation is intraprocedural and register-based; pointers that
//! arrive with unknown provenance (function parameters, integer laundering)
//! carry INIT bounds and are effectively unchecked, faithfully reproducing
//! MPX's weak detection (RIPE 2/16, Table 4).

use super::tables::{INIT_LB, INIT_UB};
use sgxs_mir::ir::{
    BinOp, Block, BlockId, CastKind, CmpOp, Inst, IntrinsicId, Module, Operand, Reg, Term,
};
use sgxs_mir::rewrite::{BlockOrder, Guard, Next};
use sgxs_mir::ty::Ty;
use std::collections::HashMap;

/// What the MPX pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MpxReport {
    /// Accesses instrumented with bndcl/bndcu checks.
    pub checks: usize,
    /// `bndldx` fill sites (pointer loads).
    pub ldx_sites: usize,
    /// `bndstx` spill sites (pointer stores).
    pub stx_sites: usize,
    /// Pointer-creation sites where bounds were made.
    pub bounds_created: usize,
}

/// Applies MPX instrumentation to `module`. With `markers`, every
/// bndcl/bndcu check is wrapped in transparent site markers (registered
/// in the module's check-site table).
///
/// # Errors
///
/// Returns the name of the existing scheme if the module is already
/// instrumented.
pub fn instrument_mpx_with(module: &mut Module, markers: bool) -> Result<MpxReport, &'static str> {
    if let Some(s) = module.hardening {
        return Err(s);
    }
    let mut report = MpxReport::default();

    let mpx_report = module.intrinsic("mpx_report");
    let bndstx = module.intrinsic("mpx_bndstx");
    let bndldx_lb = module.intrinsic("mpx_bndldx_lb");
    let bndldx_ub = module.intrinsic("mpx_bndldx_ub");

    // Intrinsics whose result is a fresh object: (id, size-argument
    // position, whether the size is the product of the first two
    // arguments, as for calloc).
    let alloc_sites: Vec<(IntrinsicId, usize, bool)> =
        ["malloc", "mmap", "tag_input", "realloc", "calloc"]
            .iter()
            .filter_map(|name| {
                let id = IntrinsicId(module.intrinsics.iter().position(|n| n == name)? as u32);
                Some(match *name {
                    "calloc" => (id, 0, true),
                    "realloc" | "tag_input" => (id, 1, false),
                    _ => (id, 0, false),
                })
            })
            .collect();

    let global_sizes: Vec<u32> = module.globals.iter().map(|g| g.size).collect();
    let init_bounds = (Operand::Imm(INIT_LB), Operand::Imm(INIT_UB));

    module.rewrite_funcs(markers, |rw| {
        // Register-resident bounds, in program order: the forward walk
        // follows every split's continuation at once.
        let mut bounds: HashMap<Reg, (Operand, Operand)> = HashMap::new();
        let slot_sizes: Vec<u32> = rw.func.slots.iter().map(|s| s.size).collect();

        rw.walk(BlockOrder::Forward, |rw, bi, i| {
            let f = &mut *rw.func;
            // Pointer creation (`bndmk`: ub = base + size) and propagation.
            let created = match &f.blocks[bi].insts[i] {
                Inst::SlotAddr { dst, slot } => {
                    Some((*dst, Operand::Imm(slot_sizes[slot.0 as usize] as u64), None))
                }
                Inst::GlobalAddr { dst, global } => Some((
                    *dst,
                    Operand::Imm(global_sizes[global.0 as usize] as u64),
                    None,
                )),
                Inst::Gep {
                    dst,
                    base: Operand::Reg(src),
                    ..
                }
                | Inst::Cast {
                    kind: CastKind::Bitcast,
                    dst,
                    src: Operand::Reg(src),
                } => {
                    match bounds.get(src).copied() {
                        Some(bd) => bounds.insert(*dst, bd),
                        None => bounds.remove(dst),
                    };
                    return Next::At(i + 1);
                }
                Inst::CallIntrinsic {
                    dst: Some(dst),
                    intrinsic,
                    args,
                } => {
                    let Some(&(_, pos, calloc)) =
                        alloc_sites.iter().find(|(id, _, _)| id == intrinsic)
                    else {
                        // Unknown intrinsic result: INIT.
                        bounds.remove(dst);
                        return Next::At(i + 1);
                    };
                    let size = args.get(pos).copied().unwrap_or(Operand::Imm(0));
                    let factor = calloc.then(|| args.get(1).copied().unwrap_or(Operand::Imm(1)));
                    Some((*dst, size, factor))
                }
                Inst::Call { dst: Some(d), .. } | Inst::CallIndirect { dst: Some(d), .. } => {
                    bounds.remove(d);
                    return Next::At(i + 1);
                }
                _ => None,
            };
            if let Some((dst, size, factor)) = created {
                let mut at = i + 1;
                let size = match factor {
                    Some(b) => {
                        let prod = f.new_reg(Ty::I64);
                        let mul = Inst::Bin {
                            op: BinOp::Mul,
                            dst: prod,
                            a: size,
                            b,
                        };
                        f.blocks[bi].insts.insert(at, mul);
                        at += 1;
                        prod.into()
                    }
                    None => size,
                };
                let ub = f.new_reg(Ty::I64);
                let mk = Inst::Bin {
                    op: BinOp::Add,
                    dst: ub,
                    a: dst.into(),
                    b: size,
                };
                f.blocks[bi].insts.insert(at, mk);
                bounds.insert(dst, (dst.into(), ub.into()));
                report.bounds_created += 1;
                return Next::At(at + 1);
            }

            // Access checking + pointer spill/fill.
            let Some(acc) = f.blocks[bi].insts[i].access() else {
                return Next::At(i + 1);
            };
            let Operand::Reg(addr_reg) = acc.addr else {
                return Next::At(i + 1);
            };
            if acc.attrs.lowered {
                return Next::At(i + 1);
            }
            let (addr, size) = (acc.addr, Operand::Imm(acc.width() as u64));
            let (lb, ub) = bounds.get(&addr_reg).copied().unwrap_or(init_bounds);

            // bndcl/bndcu.
            let pe = f.new_reg(Ty::I64);
            let c1 = f.new_reg(Ty::I64);
            let c2 = f.new_reg(Ty::I64);
            let c = f.new_reg(Ty::I64);
            let check = vec![
                Inst::Bin {
                    op: BinOp::Add,
                    dst: pe,
                    a: addr,
                    b: size,
                },
                Inst::Cmp {
                    op: CmpOp::ULt,
                    dst: c1,
                    a: addr,
                    b: lb,
                },
                Inst::Cmp {
                    op: CmpOp::UGt,
                    dst: c2,
                    a: pe.into(),
                    b: ub,
                },
                Inst::Bin {
                    op: BinOp::Or,
                    dst: c,
                    a: c1.into(),
                    b: c2.into(),
                },
            ];

            // Pointer fill/spill right after the access itself.
            let trail = match f.blocks[bi].insts[i] {
                Inst::Load {
                    dst, ty: Ty::Ptr, ..
                } => {
                    let lb_r = f.new_reg(Ty::I64);
                    let ub_r = f.new_reg(Ty::I64);
                    bounds.insert(dst, (lb_r.into(), ub_r.into()));
                    report.ldx_sites += 1;
                    vec![
                        Inst::CallIntrinsic {
                            dst: Some(lb_r),
                            intrinsic: bndldx_lb,
                            args: vec![addr, dst.into()],
                        },
                        Inst::CallIntrinsic {
                            dst: Some(ub_r),
                            intrinsic: bndldx_ub,
                            args: vec![addr, dst.into()],
                        },
                    ]
                }
                Inst::Store {
                    val: Operand::Reg(v),
                    ty: Ty::Ptr,
                    ..
                } => {
                    let (vlb, vub) = bounds.get(&v).copied().unwrap_or(init_bounds);
                    report.stx_sites += 1;
                    vec![Inst::CallIntrinsic {
                        dst: None,
                        intrinsic: bndstx,
                        args: vec![addr, v.into(), vlb, vub],
                    }]
                }
                _ => vec![],
            };
            report.checks += 1;
            let guard = Guard {
                kind: "mpx",
                check,
                lead: vec![],
                addr: None,
                trail,
            };
            let is_store = Operand::Imm(acc.is_store() as u64);
            rw.guard(bi, i, guard, |cont| {
                let fail = Block {
                    insts: vec![Inst::CallIntrinsic {
                        dst: None,
                        intrinsic: mpx_report,
                        args: vec![addr, size, is_store],
                    }],
                    term: Term::Unreachable,
                };
                let branch = Term::Br {
                    cond: c.into(),
                    t: BlockId(cont.0 + 1),
                    f: cont,
                };
                (branch, [fail])
            })
        });
    });

    module.hardening = Some("mpx");
    Ok(report)
}
