//! Generic forward worklist dataflow engine over the MIR CFG.
//!
//! The engine walks blocks in reverse postorder (reusing
//! `sgxs_mir::analysis::cfg`), applies a client transfer function per
//! block, refines the outgoing state per CFG edge (branch conditions), and
//! joins at merge points. After a block has been joined into more than
//! [`WIDEN_AFTER`] times the client is asked to widen instead of join, so
//! ascending chains (loop counters) terminate.

use sgxs_mir::analysis::cfg;
use sgxs_mir::ir::{BlockId, Function};

/// Joins into one block before the engine requests widening.
pub const WIDEN_AFTER: usize = 8;

/// A forward dataflow problem.
pub trait Analysis {
    /// Abstract state at a program point.
    type State: Clone;

    /// State on entry to the function.
    fn entry_state(&self, f: &Function) -> Self::State;

    /// Applies the whole block `b` to `st` in place.
    fn transfer_block(&self, f: &Function, b: BlockId, st: &mut Self::State);

    /// Refines the state propagated along the edge `from -> to`
    /// (e.g. branch-condition narrowing). Default: no refinement.
    fn refine_edge(&self, f: &Function, from: BlockId, to: BlockId, st: &mut Self::State) {
        let _ = (f, from, to, st);
    }

    /// Joins `other` into `into`; returns whether `into` changed. When
    /// `widen` is set the client must take a widening step so the chain
    /// terminates.
    fn join(&self, into: &mut Self::State, other: &Self::State, widen: bool) -> bool;
}

/// Solves a forward problem; returns the state at entry to each block
/// (`None` for blocks unreachable from the entry).
pub fn solve<A: Analysis>(a: &A, f: &Function) -> Vec<Option<A::State>> {
    let rpo = cfg::reverse_postorder(f);
    let n = f.blocks.len();
    let mut rpo_pos = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        rpo_pos[b.0 as usize] = i;
    }
    let mut in_states: Vec<Option<A::State>> = (0..n).map(|_| None).collect();
    let mut joins = vec![0usize; n];
    in_states[0] = Some(a.entry_state(f));

    // Worklist keyed by RPO position: always process the earliest pending
    // block so loop bodies see a settled header state quickly.
    let mut pending = std::collections::BTreeSet::new();
    pending.insert(0usize);
    while let Some(pos) = pending.pop_first() {
        let b = rpo[pos];
        let mut st = in_states[b.0 as usize]
            .clone()
            .expect("pending => has state");
        a.transfer_block(f, b, &mut st);
        let mut propagate = |s: BlockId, mut edge_st: A::State| {
            a.refine_edge(f, b, s, &mut edge_st);
            let si = s.0 as usize;
            let changed = match &mut in_states[si] {
                Some(cur) => {
                    joins[si] += 1;
                    a.join(cur, &edge_st, joins[si] > WIDEN_AFTER)
                }
                slot @ None => {
                    *slot = Some(edge_st);
                    true
                }
            };
            if changed {
                pending.insert(rpo_pos[si]);
            }
        };
        // Every edge but the last gets a copy; the last takes the state.
        if let Some((&last, rest)) = cfg::successors(f, b).split_last() {
            for &s in rest {
                propagate(s, st.clone());
            }
            propagate(last, st);
        }
    }
    in_states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factmap::FactMap;
    use crate::interval::Interval;
    use sgxs_mir::builder::ModuleBuilder;
    use sgxs_mir::ir::{Inst, Operand, Term};
    use sgxs_mir::ty::Ty;

    /// A toy constant-range analysis over registers, no refinement: enough
    /// to exercise join, widening, and unreachable blocks.
    struct Ranges;

    impl Analysis for Ranges {
        type State = FactMap<u32, Interval>;

        fn entry_state(&self, _f: &Function) -> Self::State {
            FactMap::default()
        }

        fn transfer_block(&self, f: &Function, b: BlockId, st: &mut Self::State) {
            for inst in &f.blocks[b.0 as usize].insts {
                if let Inst::Bin { dst, a, b, .. } = inst {
                    let ev = |op: &Operand, st: &Self::State| match op {
                        Operand::Imm(v) => Interval::exact(*v),
                        Operand::Reg(r) => st.get(&r.0).copied().unwrap_or(Interval::TOP),
                    };
                    let v = ev(a, st).add(&ev(b, st));
                    // Absent is ⊤: the state never stores it.
                    if v.is_top() {
                        st.remove(&dst.0);
                    } else {
                        st.set(dst.0, v);
                    }
                }
            }
        }

        fn join(&self, into: &mut Self::State, other: &Self::State, widen: bool) -> bool {
            into.join_with(other, |v, o| {
                let j = v.join(o.unwrap_or(&Interval::TOP));
                let j = if widen { j.widen_from(v) } else { j };
                (!j.is_top()).then_some(j)
            })
        }
    }

    #[test]
    fn loop_carried_addition_terminates_via_widening() {
        // l starts 0, loop body adds 2 each iteration: the engine must
        // converge (via widening) rather than climb 2^63 joins.
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[], None, |fb| {
            let l = fb.local(Ty::I64);
            fb.set(l, 0u64);
            fb.count_loop(0u64, 100u64, |fb, _| {
                let v = fb.get(l);
                let v2 = fb.add(v, 2u64);
                fb.set(l, v2);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let states = solve(&Ranges, &m.funcs[0]);
        // Every reachable block got a state.
        assert!(states.iter().filter(|s| s.is_some()).count() >= 3);
    }

    #[test]
    fn unreachable_blocks_have_no_state() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("f", &[], None, |fb| {
            fb.ret(None);
        });
        let mut m = mb.finish();
        // Append a dead block by hand.
        let f = &mut m.funcs[0];
        f.blocks.push(sgxs_mir::ir::Block {
            insts: vec![],
            term: Term::Ret(None),
        });
        let states = solve(&Ranges, f);
        assert!(states[0].is_some());
        assert!(states.last().unwrap().is_none());
    }
}
