//! Scalar-evolution-lite: recognizes counted loops and affine accesses.
//!
//! The paper's check-hoisting optimization (§4.4) reuses LLVM's scalar
//! evolution to find loops of the form `for (i = start; i < end; i += step)`
//! whose memory accesses are `base + i*scale + disp` with a loop-invariant
//! `base`. This module implements exactly that slice of the analysis for the
//! mini-IR: it is deliberately conservative — a loop that does not match is
//! simply not optimized, mirroring the paper's observation that their
//! implementation only handles simple loops (§6.5).

use super::loops::{find_loops, NaturalLoop};
use crate::ir::{BinOp, BlockId, CmpOp, Function, Inst, LocalId, Operand, Reg, Term};

/// A recognized `for (i = start; i < end; i += step)` loop.
#[derive(Debug, Clone)]
pub struct CountedLoop {
    /// The underlying natural loop.
    pub lp: NaturalLoop,
    /// The induction local.
    pub induction: LocalId,
    /// Initial value (written in the preheader).
    pub start: Operand,
    /// Exclusive bound from the header guard `i < end` (loop-invariant).
    pub end: Operand,
    /// Increment per iteration.
    pub step: u64,
}

/// A memory access of the form `base + i*scale + disp` inside a counted
/// loop.
#[derive(Debug, Clone)]
pub struct AffineAccess {
    /// Block containing the access.
    pub block: BlockId,
    /// Instruction index within the block.
    pub idx: usize,
    /// Loop-invariant base operand.
    pub base: Operand,
    /// Element scale in bytes.
    pub scale: u32,
    /// Constant displacement.
    pub disp: i64,
    /// Whether the access is a store.
    pub is_store: bool,
    /// Access width in bytes.
    pub width: u8,
}

/// The unique definition site `(block, index)` of every register, indexed
/// by register. A register that no instruction defines and one that
/// several instructions define read the same: neither has a unique site.
struct DefSites(Vec<Option<(BlockId, usize)>>);

fn def_sites(f: &Function) -> DefSites {
    let n = f.reg_tys.len();
    let (mut site, mut seen) = (vec![None; n], vec![false; n]);
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if let Some(Reg(r)) = crate::ir::def_of(inst) {
                let r = r as usize;
                if r >= site.len() {
                    site.resize(r + 1, None);
                    seen.resize(r + 1, false);
                }
                site[r] = (!seen[r]).then_some((BlockId(bi as u32), ii));
                seen[r] = true;
            }
        }
    }
    DefSites(site)
}

impl DefSites {
    /// The one instruction that defines `r`, if exactly one does.
    fn unique(&self, r: Reg) -> Option<(BlockId, usize)> {
        self.0.get(r.0 as usize).copied().flatten()
    }
}

/// True if `op` is loop-invariant: an immediate, a parameter, or a register
/// defined exactly once outside the loop.
fn invariant(op: Operand, f: &Function, lp: &NaturalLoop, defs: &DefSites) -> bool {
    match op {
        Operand::Imm(_) => true,
        Operand::Reg(r) => {
            if (r.0 as usize) < f.params.len() {
                return true;
            }
            defs.unique(r).is_some_and(|(b, _)| !lp.contains(b))
        }
    }
}

/// Finds counted loops in `f`.
pub fn counted_loops(f: &Function) -> Vec<CountedLoop> {
    let defs = def_sites(f);
    let mut out = Vec::new();
    'next_loop: for lp in find_loops(f) {
        let Some(preheader) = lp.preheader else {
            continue;
        };
        // The header must end in `br (i < end), inside, outside`.
        let header = &f.blocks[lp.header.0 as usize];
        let Term::Br {
            cond: Operand::Reg(c),
            t,
            f: fexit,
        } = header.term
        else {
            continue;
        };
        if !lp.contains(t) || lp.contains(fexit) {
            continue;
        }
        // Find the compare defining `c` in the header.
        let Some(Inst::Cmp {
            op: CmpOp::ULt,
            a: Operand::Reg(iv),
            b: end,
            ..
        }) = header
            .insts
            .iter()
            .rev()
            .find(|i| crate::ir::def_of(i) == Some(c))
        else {
            continue;
        };
        // `iv` must be a ReadLocal of some local, defined in the header.
        let Some(Inst::ReadLocal { local, .. }) = header
            .insts
            .iter()
            .rev()
            .find(|i| crate::ir::def_of(i) == Some(*iv))
        else {
            continue;
        };
        let induction = *local;
        if !invariant(*end, f, &lp, &defs) {
            continue;
        }
        // Exactly one write to the induction local inside the loop, of the
        // form `l = l + step` with a constant step.
        let mut step: Option<u64> = None;
        for &bi in &lp.body {
            let blk = &f.blocks[bi.0 as usize];
            for (ii, inst) in blk.insts.iter().enumerate() {
                if let Inst::WriteLocal { local, val } = inst {
                    if *local != induction {
                        continue;
                    }
                    if step.is_some() {
                        continue 'next_loop; // Multiple writes: give up.
                    }
                    // `val` must be Add(ReadLocal(induction), Imm k) defined
                    // earlier in this block.
                    let Operand::Reg(v) = val else {
                        continue 'next_loop;
                    };
                    let Some(Inst::Bin {
                        op: BinOp::Add,
                        a: Operand::Reg(ra),
                        b: Operand::Imm(k),
                        ..
                    }) = blk.insts[..ii]
                        .iter()
                        .rev()
                        .find(|i| crate::ir::def_of(i) == Some(*v))
                    else {
                        continue 'next_loop;
                    };
                    let Some(Inst::ReadLocal { local: rl, .. }) = blk.insts[..ii]
                        .iter()
                        .rev()
                        .find(|i| crate::ir::def_of(i) == Some(*ra))
                    else {
                        continue 'next_loop;
                    };
                    if *rl != induction {
                        continue 'next_loop;
                    }
                    step = Some(*k);
                }
            }
        }
        let Some(step) = step else {
            continue;
        };
        // The preheader's last write to the induction local is the start.
        let pre = &f.blocks[preheader.0 as usize];
        let Some(start) = pre.insts.iter().rev().find_map(|i| match i {
            Inst::WriteLocal { local, val } if *local == induction => Some(*val),
            _ => None,
        }) else {
            continue;
        };
        out.push(CountedLoop {
            lp,
            induction,
            start,
            end: *end,
            step,
        });
    }
    out
}

/// Finds affine accesses `base + i*scale + disp` inside a counted loop.
pub fn affine_accesses(f: &Function, cl: &CountedLoop) -> Vec<AffineAccess> {
    let defs = def_sites(f);
    let mut out = Vec::new();
    // Registers holding the induction value: defined by ReadLocal(induction)
    // inside the loop.
    let mut iv_regs: Vec<Reg> = Vec::new();
    for &bi in &cl.lp.body {
        for inst in &f.blocks[bi.0 as usize].insts {
            if let Inst::ReadLocal { dst, local } = inst {
                if *local == cl.induction {
                    iv_regs.push(*dst);
                }
            }
        }
    }
    for &bi in &cl.lp.body {
        let blk = &f.blocks[bi.0 as usize];
        for (ii, inst) in blk.insts.iter().enumerate() {
            let (addr, is_store, width) = match inst {
                Inst::Load { addr, ty, .. } => (*addr, false, ty.width()),
                Inst::Store { addr, ty, .. } => (*addr, true, ty.width()),
                _ => continue,
            };
            let Operand::Reg(a) = addr else { continue };
            // The address must come from a single gep in the loop.
            let Some((db, di)) = defs.unique(a) else {
                continue;
            };
            if !cl.lp.contains(db) {
                continue;
            }
            let Inst::Gep {
                base,
                index: Operand::Reg(ir),
                scale,
                disp,
                ..
            } = &f.blocks[db.0 as usize].insts[di]
            else {
                continue;
            };
            if !iv_regs.contains(ir) {
                continue;
            }
            if !invariant(*base, f, &cl.lp, &defs) {
                continue;
            }
            out.push(AffineAccess {
                block: bi,
                idx: ii,
                base: *base,
                scale: *scale,
                disp: *disp,
                is_store,
                width,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ty::Ty;

    #[test]
    fn recognizes_builder_count_loop() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[Ty::Ptr, Ty::I64], None, |fb| {
            let p = fb.param(0);
            let n = fb.param(1);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.gep(p, i, 8, 0);
                fb.store(Ty::I64, a, i);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let cls = counted_loops(&m.funcs[0]);
        assert_eq!(cls.len(), 1);
        let cl = &cls[0];
        assert_eq!(cl.step, 1);
        assert_eq!(cl.start, Operand::Imm(0));
        assert_eq!(cl.end, Operand::Reg(Reg(1)));
        let accs = affine_accesses(&m.funcs[0], cl);
        assert_eq!(accs.len(), 1);
        assert_eq!(accs[0].scale, 8);
        assert!(accs[0].is_store);
        assert_eq!(accs[0].base, Operand::Reg(Reg(0)));
    }

    #[test]
    fn loop_with_pointer_base_redefined_inside_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            fb.count_loop(0u64, 8u64, |fb, i| {
                // Base depends on the iteration: p2 = p + i, access p2[i].
                let p2 = fb.gep(p, i, 1, 0);
                let a = fb.gep(p2, i, 8, 0);
                fb.store(Ty::I64, a, 0u64);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let cls = counted_loops(&m.funcs[0]);
        assert_eq!(cls.len(), 1);
        let accs = affine_accesses(&m.funcs[0], &cls[0]);
        assert!(accs.is_empty(), "variant base must not be affine");
    }

    #[test]
    fn register_defined_before_and_inside_the_loop_is_neither_base_nor_address() {
        // Two affine stores: `base[i]` with `base` defined before the loop,
        // and `p[i]` through the in-loop gep `addr`.
        let (mut base, mut addr) = (Reg(0), Reg(0));
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            base = fb.gep(p, 0u64, 1, 8);
            fb.count_loop(0u64, 8u64, |fb, i| {
                let a = fb.gep(base, i, 8, 0);
                fb.store(Ty::I64, a, 0u64);
                addr = fb.gep(p, i, 8, 0);
                fb.store(Ty::I64, addr, 0u64);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        let cls = counted_loops(&m.funcs[0]);
        assert_eq!(affine_accesses(&m.funcs[0], &cls[0]).len(), 2);
        // Give each register a second definition: `base` inside the loop
        // body (block 2), `addr` in the preheader (block 0). Keeping only
        // the first definition would still call `base` invariant; keeping
        // only the last would still call `addr` the loop's gep.
        let f = &mut m.funcs[0];
        let redef = |dst| Inst::Bin {
            op: BinOp::Add,
            dst,
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(8),
        };
        f.blocks[2].insts.insert(0, redef(base));
        f.blocks[0].insts.push(redef(addr));
        let cls = counted_loops(f);
        assert_eq!(cls.len(), 1, "the loop shape is untouched");
        let accs = affine_accesses(f, &cls[0]);
        assert!(accs.is_empty(), "twice-defined registers matched: {accs:?}");
    }

    #[test]
    fn while_true_loop_is_not_counted() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[], None, |fb| {
            let head = fb.block();
            let exit = fb.block();
            fb.jmp(head);
            fb.switch_to(head);
            let c = fb.intr("coin", &[]);
            fb.br(c, head, exit);
            fb.switch_to(exit);
            fb.ret(None);
        });
        let m = mb.finish();
        assert!(counted_loops(&m.funcs[0]).is_empty());
    }

    #[test]
    fn nested_inner_loop_recognized() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            fb.count_loop(0u64, 3u64, |fb, _| {
                fb.count_loop(0u64, 4u64, |fb, j| {
                    let a = fb.gep(p, j, 4, 0);
                    fb.store(Ty::I32, a, 1u64);
                });
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let cls = counted_loops(&m.funcs[0]);
        // The inner loop matches; the outer one does too (its body writes
        // only its own induction variable once).
        assert!(!cls.is_empty());
        let with_access: Vec<_> = cls
            .iter()
            .filter(|c| !affine_accesses(&m.funcs[0], c).is_empty())
            .collect();
        assert_eq!(with_access.len(), 1);
    }
}
