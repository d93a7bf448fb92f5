//! Loop-check hoisting (paper §4.4 "Hoisting checks out of loops").
//!
//! For a counted loop `for (i = start; i < end; i++)` whose accesses are
//! `base + i*scale + disp` with loop-invariant `base`, the per-iteration
//! checks are replaced by a single preheader check of `base + end*scale +
//! disp + width` against the base's upper bound; the in-loop accesses then
//! keep only the tag strip. Lower-bound checks vanish entirely (the pointer
//! moves monotonically upward from the base, and the poisoned top page of
//! the enclave catches arithmetic wrap-around, which the runtime installs).
//!
//! Matching the paper, the optimization only fires for small strides
//! (`scale * step <= 1024` bytes) and simple loop shapes.

use sgxs_mir::analysis::cfg::{dominates, dominators};
use sgxs_mir::analysis::{affine_accesses, counted_loops};
use sgxs_mir::ir::{
    def_of, BinOp, Block, BlockId, CmpOp, Function, Inst, IntrinsicId, Module, Operand, Reg, Term,
};
use sgxs_mir::rewrite::Rewriter;
use sgxs_mir::ty::Ty;
use std::collections::HashMap;

/// Maximum hoistable stride in bytes (paper §4.4: 1,024).
pub const MAX_STRIDE: u64 = 1024;

/// Hoists loop bounds checks across the whole module; returns the number of
/// preheader checks inserted. With `markers`, every preheader check is
/// wrapped in transparent site markers (registered in the module's
/// check-site table).
pub fn hoist_loop_checks_with(module: &mut Module, markers: bool) -> usize {
    let sb_violation = module.intrinsic("sb_violation");
    let mut hoisted = 0;
    module.rewrite_funcs(markers, |rw| hoisted += hoist_function(rw, sb_violation));
    hoisted
}

fn single_def_block(f: &Function, r: Reg) -> Option<BlockId> {
    let mut found: Option<BlockId> = None;
    for (bi, b) in f.blocks.iter().enumerate() {
        for inst in &b.insts {
            if def_of(inst) == Some(r) {
                if found.is_some() {
                    return None;
                }
                found = Some(BlockId(bi as u32));
            }
        }
    }
    found
}

fn hoist_function(rw: &mut Rewriter<'_>, sb_violation: IntrinsicId) -> usize {
    let loops = counted_loops(rw.func);
    if loops.is_empty() {
        return 0;
    }
    let idom = dominators(rw.func);
    let mut count = 0;

    for cl in &loops {
        let f = &mut *rw.func;
        let Some(preheader) = cl.lp.preheader else {
            continue;
        };
        // Only the canonical shape: preheader falls through to the header.
        if f.blocks[preheader.0 as usize].term != Term::Jmp(cl.lp.header) {
            continue;
        }
        if cl.step == 0 {
            continue;
        }
        let accesses = affine_accesses(f, cl);
        // Group by (base, scale); keep the max (disp + width) per group.
        // Per (base, scale): max (disp + width) seen, plus every access site.
        type Group = (i64, Vec<(BlockId, usize)>);
        let mut groups: HashMap<(Operand, u32), Group> = HashMap::new();
        for a in accesses {
            if a.scale as u64 * cl.step > MAX_STRIDE {
                continue;
            }
            if a.disp < 0 || a.disp > 4096 {
                continue;
            }
            // The base must be computable in the preheader.
            match a.base {
                Operand::Imm(_) => {}
                Operand::Reg(r) => {
                    if (r.0 as usize) >= f.params.len() {
                        match single_def_block(f, r) {
                            Some(db) if dominates(&idom, db, preheader) => {}
                            _ => continue,
                        }
                    }
                }
            }
            let e = groups.entry((a.base, a.scale)).or_insert((0, Vec::new()));
            e.0 = e.0.max(a.disp + a.width as i64);
            e.1.push((a.block, a.idx));
        }
        if groups.is_empty() {
            continue;
        }

        // Mark the covered accesses safe (tag strip only).
        for (_, sites) in groups.values() {
            for (bi, ii) in sites {
                if let Some(attrs) = f.blocks[bi.0 as usize].insts[*ii].attrs_mut() {
                    attrs.safe = true;
                    attrs.no_lower = true;
                }
            }
        }

        // Emit the check chain in (and after) the preheader.
        let mut groups: Vec<((Operand, u32), i64)> = groups
            .into_iter()
            .map(|(k, (maxoff, _))| (k, maxoff))
            .collect();
        // Total order: scale alone leaves same-scale groups in HashMap
        // iteration order, which varies between instrumentation runs and
        // would make the emitted check chain — and therefore cycle
        // counts — nondeterministic.
        groups.sort_by_key(|((base, scale), _)| {
            let base_key = match base {
                Operand::Reg(r) => (0u8, r.0 as u64),
                Operand::Imm(i) => (1u8, *i),
            };
            (*scale, base_key)
        });
        let mut cur = preheader;
        let n = groups.len();
        for (gi, ((base, scale), maxoff)) in groups.into_iter().enumerate() {
            let f = &mut *rw.func;
            let p = f.new_reg(Ty::Ptr);
            let ub = f.new_reg(Ty::I64);
            let scaled = f.new_reg(Ty::I64);
            let limit = f.new_reg(Ty::I64);
            let limit2 = f.new_reg(Ty::I64);
            let c = f.new_reg(Ty::I64);
            let mut insts = vec![
                Inst::Bin {
                    op: BinOp::And,
                    dst: p,
                    a: base,
                    b: Operand::Imm(crate::tagged::PTR_MASK),
                },
                Inst::Bin {
                    op: BinOp::LShr,
                    dst: ub,
                    a: base,
                    b: Operand::Imm(32),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    dst: scaled,
                    a: cl.end,
                    b: Operand::Imm(scale as u64),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    dst: limit,
                    a: p.into(),
                    b: scaled.into(),
                },
                // The last access is at base + (end-1)*scale + disp, so the
                // limit folds in `maxoff - scale` (wrapping add handles a
                // negative fold; `end == 0` keeps the limit at ~base, which
                // never exceeds the upper bound).
                Inst::Bin {
                    op: BinOp::Add,
                    dst: limit2,
                    a: limit.into(),
                    b: Operand::Imm((maxoff - scale as i64) as u64),
                },
                Inst::Cmp {
                    op: CmpOp::UGt,
                    dst: c,
                    a: limit2.into(),
                    b: ub.into(),
                },
            ];
            rw.hoisted("sb_hoist", &mut insts);
            let f = &mut *rw.func;
            // Fail block.
            let fail_id = BlockId(f.blocks.len() as u32);
            f.blocks.push(Block {
                insts: vec![Inst::CallIntrinsic {
                    dst: None,
                    intrinsic: sb_violation,
                    args: vec![base, Operand::Imm(maxoff as u64), Operand::Imm(1)],
                }],
                term: Term::Unreachable,
            });
            // Next block in the chain (or the loop header for the last one).
            let next = if gi + 1 == n {
                cl.lp.header
            } else {
                let id = BlockId(f.blocks.len() as u32);
                f.blocks.push(Block {
                    insts: vec![],
                    term: Term::Jmp(cl.lp.header), // Patched on next iteration.
                });
                id
            };
            let cur_blk = &mut f.blocks[cur.0 as usize];
            cur_blk.insts.extend(insts);
            cur_blk.term = Term::Br {
                cond: c.into(),
                t: fail_id,
                f: next,
            };
            cur = next;
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::{verify, ModuleBuilder};

    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr, Ty::Ptr, Ty::I64], None, |fb| {
            let s = fb.param(0);
            let d = fb.param(1);
            let n = fb.param(2);
            // The paper's Fig. 4 array-copy loop.
            fb.count_loop(0u64, n, |fb, i| {
                let si = fb.gep(s, i, 8, 0);
                let v = fb.load(Ty::I64, si);
                let di = fb.gep(d, i, 8, 0);
                fb.store(Ty::I64, di, v);
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn hoists_both_arrays_of_the_copy_loop() {
        let mut m = loop_module();
        let n = hoist_loop_checks_with(&mut m, false);
        assert_eq!(n, 2, "one hoisted check per array");
        verify(&m).expect("hoisted IR verifies");
        // Both in-loop accesses became safe.
        let f = &m.funcs[0];
        let safe_accesses = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(i,
                    Inst::Load { attrs, .. } | Inst::Store { attrs, .. } if attrs.safe)
            })
            .count();
        assert_eq!(safe_accesses, 2);
    }

    #[test]
    fn large_stride_not_hoisted() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr, Ty::I64], None, |fb| {
            let p = fb.param(0);
            let n = fb.param(1);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.gep(p, i, 4096, 0); // 4 KB stride > 1 KB limit.
                fb.store(Ty::I64, a, 0u64);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        assert_eq!(hoist_loop_checks_with(&mut m, false), 0);
    }

    #[test]
    fn non_counted_loop_untouched() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr], None, |fb| {
            let head = fb.block();
            let exit = fb.block();
            fb.jmp(head);
            fb.switch_to(head);
            let c = fb.intr("coin", &[]);
            fb.br(c, head, exit);
            fb.switch_to(exit);
            fb.ret(None);
        });
        let mut m = mb.finish();
        assert_eq!(hoist_loop_checks_with(&mut m, false), 0);
    }
}
