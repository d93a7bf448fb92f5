//! Check-reducing passes built on the dataflow tier.
//!
//! [`mark_safe_flow`] marks accesses the provenance analysis proves
//! in-bounds (`attrs.safe`), strictly subsuming the per-block
//! `sgxs_mir::analysis::safe` pass. [`elide_redundant_checks`] then runs a
//! must-availability analysis: once a pointer value has been
//! bounds-checked (or statically proven) for some width on *every* path,
//! later accesses through the same value with no larger width need no
//! check of their own — the paper's §4.4 elision carried across blocks via
//! dominance on the dataflow lattice.
//!
//! Proof obligation for elision (DESIGN.md §8): between the establishing
//! access and the elided one, nothing may invalidate the object's bounds
//! metadata. Calls that can free memory or interleave concurrent code
//! therefore kill all availability facts; in-bounds libc-style intrinsics
//! cannot touch another object's LB word (it lives outside every
//! accessible `[base, base+size)` range) and preserve them.

use crate::dataflow::{self, Analysis};
use crate::ipa::Summaries;
use crate::prov::{facts_for, preserves_heap, Class};
use sgxs_mir::ir::{def_of, BinOp, BlockId, Function, Inst, Module, Operand, Reg};
use sgxs_mir::ty::Ty;
use std::collections::HashMap;

/// Marks every access the flow-sensitive analysis proves in-bounds.
/// Returns how many accesses were newly marked.
pub fn mark_safe_flow(m: &mut Module) -> usize {
    mark_safe_flow_with(m, None)
}

/// [`mark_safe_flow`] with optional interprocedural summaries: facts then
/// survive calls to callees whose summaries prove them heap-benign, and
/// summarized return values carry provenance across the call. The
/// summaries must be `summarize(m)` of this module: their facts are read
/// as they are, with no solve of its own. Without summaries every function
/// is solved intraprocedurally.
pub fn mark_safe_flow_with(m: &mut Module, summaries: Option<&Summaries>) -> usize {
    let mut marked = 0;
    for fi in 0..m.funcs.len() {
        let facts = facts_for(m, fi, summaries);
        let safe: Vec<(u32, u32)> = facts
            .access
            .iter()
            .filter(|a| a.class == Class::Safe)
            .map(|a| (a.block, a.inst))
            .collect();
        for (bi, ii) in safe {
            let inst = &mut m.funcs[fi].blocks[bi as usize].insts[ii as usize];
            if let Some(attrs) = attrs_mut(inst) {
                if !attrs.safe && !attrs.lowered {
                    attrs.safe = true;
                    marked += 1;
                }
            }
        }
    }
    marked
}

fn attrs_mut(inst: &mut Inst) -> Option<&mut sgxs_mir::ir::AccessAttrs> {
    match inst {
        Inst::Load { attrs, .. }
        | Inst::Store { attrs, .. }
        | Inst::AtomicRmw { attrs, .. }
        | Inst::AtomicCas { attrs, .. } => Some(attrs),
        _ => None,
    }
}

fn access_of(inst: &Inst) -> Option<(Ty, &Operand)> {
    match inst {
        Inst::Load { addr, ty, .. }
        | Inst::Store { addr, ty, .. }
        | Inst::AtomicRmw { addr, ty, .. }
        | Inst::AtomicCas { addr, ty, .. } => Some((*ty, addr)),
        _ => None,
    }
}

/// A value whose bounds have been established: a register or a local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    R(u32),
    L(u32),
}

/// Must-availability state: values with established bounds (mapped to the
/// widest established width) plus register→local value aliases.
#[derive(Debug, Clone, Default, PartialEq)]
struct Avail {
    facts: HashMap<Key, u64>,
    /// `reg -> local` when the register provably holds the local's value.
    alias: HashMap<u32, u32>,
}

impl Avail {
    fn gen(&mut self, key: Key, w: u64) {
        let slot = self.facts.entry(key).or_insert(0);
        *slot = (*slot).max(w);
    }

    fn kill_reg(&mut self, r: Reg) {
        self.facts.remove(&Key::R(r.0));
        self.alias.remove(&r.0);
    }
}

struct AvailAnalysis<'a> {
    m: &'a Module,
    /// Interprocedural summaries: direct calls to heap-benign callees no
    /// longer kill availability facts.
    ipa: Option<&'a Summaries>,
}

impl AvailAnalysis<'_> {
    fn step(&self, inst: &Inst, st: &mut Avail) {
        // The access itself establishes bounds for its address value: at
        // run time the access either passed its dynamic check or was
        // statically proven, so any code it reaches knows the value covers
        // at least `width` bytes.
        if let Some((ty, Operand::Reg(r))) = access_of(inst) {
            let w = ty.width() as u64;
            st.gen(Key::R(r.0), w);
            if let Some(l) = st.alias.get(&r.0).copied() {
                st.gen(Key::L(l), w);
            }
        }
        match inst {
            Inst::ReadLocal { dst, local } => {
                st.kill_reg(*dst);
                if let Some(w) = st.facts.get(&Key::L(local.0)).copied() {
                    st.gen(Key::R(dst.0), w);
                }
                st.alias.insert(dst.0, local.0);
            }
            Inst::WriteLocal { local, val } => {
                st.facts.remove(&Key::L(local.0));
                // Registers that mirrored the local's old value no longer do.
                st.alias.retain(|_, l| *l != local.0);
                if let Operand::Reg(x) = val {
                    if let Some(w) = st.facts.get(&Key::R(x.0)).copied() {
                        st.gen(Key::L(local.0), w);
                    }
                    st.alias.insert(x.0, local.0);
                }
            }
            // Value-preserving forms keep availability: `bitcast`, `x ^ 0`,
            // `x | 0`, `x + 0`, `x - 0`.
            Inst::Cast {
                kind: sgxs_mir::ir::CastKind::Bitcast,
                dst,
                src: Operand::Reg(x),
            } => {
                let inherited = st.facts.get(&Key::R(x.0)).copied();
                let alias = st.alias.get(&x.0).copied();
                st.kill_reg(*dst);
                if let Some(w) = inherited {
                    st.gen(Key::R(dst.0), w);
                }
                if let Some(l) = alias {
                    st.alias.insert(dst.0, l);
                }
            }
            Inst::Bin {
                op: BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Sub,
                dst,
                a: Operand::Reg(x),
                b: Operand::Imm(0),
            } => {
                let inherited = st.facts.get(&Key::R(x.0)).copied();
                let alias = st.alias.get(&x.0).copied();
                st.kill_reg(*dst);
                if let Some(w) = inherited {
                    st.gen(Key::R(dst.0), w);
                }
                if let Some(l) = alias {
                    st.alias.insert(dst.0, l);
                }
            }
            Inst::Call { dst, func, .. } => {
                // With summaries, a callee proven to free nothing (not even
                // through escaped pointers) cannot invalidate any object's
                // bounds metadata: in-bounds callee writes never touch an LB
                // word (DESIGN.md §8), so availability survives the call.
                let benign = self
                    .ipa
                    .is_some_and(|s| s.funcs[func.0 as usize].heap_benign());
                if !benign {
                    st.facts.clear();
                }
                if let Some(d) = dst {
                    st.kill_reg(*d);
                }
            }
            Inst::CallIndirect { dst, .. } => {
                st.facts.clear();
                if let Some(d) = dst {
                    st.kill_reg(*d);
                }
            }
            Inst::CallIntrinsic { dst, intrinsic, .. } => {
                if !preserves_heap(&self.m.intrinsics[intrinsic.0 as usize]) {
                    st.facts.clear();
                }
                if let Some(d) = dst {
                    st.kill_reg(*d);
                }
            }
            other => {
                if let Some(d) = def_of(other) {
                    st.kill_reg(d);
                }
            }
        }
    }
}

impl Analysis for AvailAnalysis<'_> {
    type State = Avail;

    fn entry_state(&self, _f: &Function) -> Avail {
        Avail::default()
    }

    fn transfer_block(&self, f: &Function, b: BlockId, st: &mut Avail) {
        for inst in &f.blocks[b.0 as usize].insts {
            self.step(inst, st);
        }
    }

    fn join(&self, into: &mut Avail, other: &Avail, _widen: bool) -> bool {
        // Must-analysis: keep only facts established on every path, at the
        // smallest established width. Facts only shrink, so this
        // terminates without widening.
        let before = (into.facts.len(), into.alias.len());
        let mut changed = false;
        into.facts.retain(|k, w| match other.facts.get(k) {
            Some(ow) => {
                if *ow < *w {
                    *w = *ow;
                    changed = true;
                }
                true
            }
            None => false,
        });
        into.alias.retain(|r, l| other.alias.get(r) == Some(l));
        changed || before != (into.facts.len(), into.alias.len())
    }
}

/// Marks accesses whose bounds are already established on every path to
/// them (`attrs.safe`), so the instrumentation pass skips their dynamic
/// check. Returns how many checks were elided.
pub fn elide_redundant_checks(m: &mut Module) -> usize {
    elide_redundant_checks_with(m, None)
}

/// [`elide_redundant_checks`] with optional interprocedural summaries:
/// availability facts survive direct calls to heap-benign callees.
pub fn elide_redundant_checks_with(m: &mut Module, summaries: Option<&Summaries>) -> usize {
    let mut elided = 0;
    for fi in 0..m.funcs.len() {
        let analysis = AvailAnalysis { m, ipa: summaries };
        let f = &m.funcs[fi];
        let states = dataflow::solve(&analysis, f);
        let mut redundant: Vec<(u32, u32)> = Vec::new();
        for (bi, blk) in f.blocks.iter().enumerate() {
            let Some(mut st) = states[bi].clone() else {
                continue;
            };
            for (ii, inst) in blk.insts.iter().enumerate() {
                if let Some((ty, Operand::Reg(r))) = access_of(inst) {
                    let covered = st
                        .facts
                        .get(&Key::R(r.0))
                        .is_some_and(|w| *w >= ty.width() as u64);
                    if covered {
                        redundant.push((bi as u32, ii as u32));
                    }
                }
                analysis.step(inst, &mut st);
            }
        }
        for (bi, ii) in redundant {
            let inst = &mut m.funcs[fi].blocks[bi as usize].insts[ii as usize];
            if let Some(attrs) = attrs_mut(inst) {
                if !attrs.safe && !attrs.lowered {
                    attrs.safe = true;
                    elided += 1;
                }
            }
        }
    }
    elided
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prov::{access_facts, AccessFact, Referent};
    use sgxs_mir::builder::ModuleBuilder;
    use sgxs_mir::ir::Operand;
    use sgxs_mir::ty::Ty;

    fn facts_of(m: &Module) -> Vec<AccessFact> {
        access_facts(m, 0)
    }

    #[test]
    fn cross_block_local_keeps_provenance() {
        // malloc result parked in a local, used in a later block: the
        // per-block pass loses it, the flow-sensitive one must not.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let l = fb.local(Ty::Ptr);
            let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
            fb.set(l, p);
            fb.count_loop(0u64, 3u64, |fb, _| {
                let q = fb.get(l);
                fb.store(Ty::I64, q, 1u64);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        let mut per_block = m.clone();
        assert_eq!(
            sgxs_mir::analysis::safe::mark_safe_accesses(&mut per_block),
            0
        );
        let facts = facts_of(&m);
        let store = facts.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Safe, "{store:?}");
        assert!(matches!(
            store.referent,
            Some(Referent::Alloc { size: 64, .. })
        ));
        assert!(mark_safe_flow(&mut m) >= 1);
    }

    #[test]
    fn count_loop_index_is_range_refined() {
        // store p[i] for i in 0..8 over a 64-byte buffer: only the branch
        // refinement of the loop local proves this.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
            let l = fb.local(Ty::Ptr);
            fb.set(l, p);
            fb.count_loop(0u64, 8u64, |fb, i| {
                let q = fb.get(l);
                let a = fb.gep(q, i, 8, 0);
                fb.store(Ty::I64, a, i);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let store = facts_of(&m)
            .into_iter()
            .find(|a| a.kind == "store")
            .unwrap();
        assert_eq!(store.class, Class::Safe, "{store:?}");
        assert_eq!(store.offset, Some((0, 56)));
    }

    #[test]
    fn one_past_the_end_in_a_loop_is_not_safe() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
            let l = fb.local(Ty::Ptr);
            fb.set(l, p);
            // i in 0..=8: the last iteration stores at offset 64.
            fb.count_loop(0u64, 9u64, |fb, i| {
                let q = fb.get(l);
                let a = fb.gep(q, i, 8, 0);
                fb.store(Ty::I64, a, i);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let store = facts_of(&m)
            .into_iter()
            .find(|a| a.kind == "store")
            .unwrap();
        assert_ne!(store.class, Class::Safe, "{store:?}");
    }

    #[test]
    fn constant_oob_store_is_proved_oob_and_underflow_too() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
            let over = fb.gep(p, 0u64, 8, 32);
            fb.store(Ty::I64, over, 1u64);
            let under = fb.gep(p, 0u64, 8, -8);
            fb.store(Ty::I64, under, 2u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let facts = facts_of(&m);
        let oob: Vec<_> = facts.iter().filter(|a| a.class == Class::Oob).collect();
        assert_eq!(oob.len(), 2, "{facts:?}");
    }

    #[test]
    fn calls_kill_heap_provenance_but_not_slot_provenance() {
        let mut mb = ModuleBuilder::new("t");
        let ext = mb.func("ext", &[], None, |fb| fb.ret(None));
        mb.func("main", &[], None, |fb| {
            let s = fb.slot("arr", 16);
            let sp = fb.slot_addr(s);
            let hp = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let lh = fb.local(Ty::Ptr);
            let ls = fb.local(Ty::Ptr);
            fb.set(lh, hp);
            fb.set(ls, sp);
            let _ = fb.call(ext, &[]);
            let h = fb.get(lh);
            let s2 = fb.get(ls);
            fb.store(Ty::I64, h, 1u64);
            fb.store(Ty::I64, s2, 2u64);
            fb.ret(None);
        });
        let m = mb.finish();
        // `ext` is function 0; `main` is function 1.
        let facts: Vec<_> = access_facts(&m, 1)
            .into_iter()
            .filter(|a| a.kind == "store")
            .collect();
        // The call may have freed the heap object; the slot is unaffected.
        assert_eq!(facts[0].class, Class::Unknown, "{:?}", facts[0]);
        assert_eq!(facts[1].class, Class::Safe, "{:?}", facts[1]);
    }

    #[test]
    fn freeing_one_allocation_preserves_other_heap_provenance() {
        // free() through a pointer of known provenance kills only that
        // object's facts: other live allocations keep their classification.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let keep = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let scratch = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            fb.store(Ty::I64, scratch, 1u64);
            fb.intr_void("free", &[scratch.into()]);
            fb.store(Ty::I64, keep, 2u64);
            let oob = fb.gep(keep, 2u64, 8, 0);
            fb.store(Ty::I64, oob, 3u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let facts: Vec<_> = access_facts(&m, 0)
            .into_iter()
            .filter(|a| a.kind == "store")
            .collect();
        assert_eq!(facts[0].class, Class::Safe, "{:?}", facts[0]);
        // `keep` survives the free of `scratch`: still provably in/out of
        // bounds on either side of the object boundary.
        assert_eq!(facts[1].class, Class::Safe, "{:?}", facts[1]);
        assert_eq!(facts[2].class, Class::Oob, "{:?}", facts[2]);
    }

    #[test]
    fn freeing_an_unknown_pointer_still_kills_all_heap_provenance() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            let keep = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.intr_void("free", &[p.into()]);
            fb.store(Ty::I64, keep, 1u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let facts: Vec<_> = access_facts(&m, 0)
            .into_iter()
            .filter(|a| a.kind == "store")
            .collect();
        // The freed pointer's provenance is unknown — it could alias `keep`.
        assert_eq!(facts[0].class, Class::Unknown, "{:?}", facts[0]);
    }

    #[test]
    fn rmw_store_after_load_is_elided() {
        // load p[i]; store p[i]: the store's check is redundant — the load
        // already established bounds for the same address value.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr, Ty::I64], None, |fb| {
            let p = fb.param(0);
            let i = fb.param(1);
            let a = fb.gep(p, i, 8, 0);
            let v = fb.load(Ty::I64, a);
            let v2 = fb.add(v, 1u64);
            fb.store(Ty::I64, a, v2);
            fb.ret(None);
        });
        let mut m = mb.finish();
        // Unknown provenance: flow marking proves nothing…
        assert_eq!(mark_safe_flow(&mut m), 0);
        // …but availability elides the second check.
        assert_eq!(elide_redundant_checks(&mut m), 1);
        let insts = &m.funcs[0].blocks[0].insts;
        let safe_flags: Vec<bool> = insts
            .iter()
            .filter_map(|i| match i {
                Inst::Load { attrs, .. } => Some(attrs.safe),
                Inst::Store { attrs, .. } => Some(attrs.safe),
                _ => None,
            })
            .collect();
        assert_eq!(safe_flags, vec![false, true]);
    }

    #[test]
    fn elision_does_not_cross_a_freeing_call_or_smaller_width() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            // I8 access establishes only one byte: the I64 store may not ride it.
            let v = fb.load(Ty::I8, p);
            fb.store(Ty::I64, p, v);
            // free() clobbers availability entirely.
            let w = fb.load(Ty::I64, p);
            fb.intr_void("free", &[p.into()]);
            fb.store(Ty::I64, p, w);
            fb.ret(None);
        });
        let mut m = mb.finish();
        // Only the I64 load right after the I64-wide store is elidable.
        assert_eq!(elide_redundant_checks(&mut m), 1);
    }

    #[test]
    fn loop_carried_facts_do_not_leak_into_first_iteration() {
        // The access inside the loop must NOT be elided: on the first
        // iteration nothing has checked the pointer yet (the must-join
        // with the preheader path has no fact).
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            let l = fb.local(Ty::Ptr);
            fb.set(l, p);
            fb.count_loop(0u64, 4u64, |fb, _| {
                let q = fb.get(l);
                let v = fb.load(Ty::I64, q);
                let v2 = fb.add(v, 1u64);
                fb.store(Ty::I64, q, v2);
            });
            fb.ret(None);
        });
        let mut m = mb.finish();
        // The store rides the load within the iteration; the load itself
        // is re-checked every trip (no fact on the entry path).
        assert_eq!(elide_redundant_checks(&mut m), 1);
        let f = &m.funcs[0];
        for blk in &f.blocks {
            for inst in &blk.insts {
                if let Inst::Load { attrs, .. } = inst {
                    assert!(!attrs.safe, "loop load must keep its check");
                }
            }
        }
    }

    #[test]
    fn flow_marking_subsumes_the_per_block_pass() {
        // Every program shape the per-block pass handles (its own unit
        // tests) must also be proven by the flow-sensitive analysis.
        let shapes: Vec<Module> = vec![
            {
                let mut mb = ModuleBuilder::new("slot");
                mb.func("main", &[], None, |fb| {
                    let s = fb.slot("buf", 16);
                    let p = fb.slot_addr(s);
                    fb.store(Ty::I64, p, 1u64);
                    let q = fb.gep(p, 1u64, 8, 0);
                    fb.store(Ty::I64, q, 2u64);
                    fb.ret(None);
                });
                mb.finish()
            },
            {
                let mut mb = ModuleBuilder::new("malloc");
                mb.func("main", &[], None, |fb| {
                    let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
                    let q = fb.gep(p, 2u64, 8, 0);
                    fb.store(Ty::I64, q, 7u64);
                    fb.ret(None);
                });
                mb.finish()
            },
            {
                let mut mb = ModuleBuilder::new("inbounds");
                mb.func("main", &[Ty::I64], None, |fb| {
                    let p = fb.intr_ptr("malloc", &[Operand::Imm(32)]);
                    let i = fb.param(0);
                    let q = fb.gep_inbounds(p, i, 8, 0);
                    fb.store(Ty::I64, q, 7u64);
                    fb.ret(None);
                });
                mb.finish()
            },
        ];
        for m in shapes {
            let mut per_block = m.clone();
            let n_block = sgxs_mir::analysis::safe::mark_safe_accesses(&mut per_block);
            let mut flow = m.clone();
            let n_flow = mark_safe_flow(&mut flow);
            assert!(
                n_flow >= n_block,
                "{}: flow {} < per-block {}",
                m.name,
                n_flow,
                n_block
            );
            // And site-by-site: everything the per-block pass marks, the
            // flow pass marks too.
            for (fb_, ff) in per_block.funcs.iter().zip(flow.funcs.iter()) {
                for (bb, bf) in fb_.blocks.iter().zip(ff.blocks.iter()) {
                    for (ib, if_) in bb.insts.iter().zip(bf.insts.iter()) {
                        if let (Some((_, _)), Some(ab), Some(af)) =
                            (access_of(ib), attrs_of(ib), attrs_of(if_))
                        {
                            assert!(!ab.safe || af.safe, "flow lost a per-block fact");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn availability_survives_call_to_heap_benign_callee() {
        // load p; call pure helper; store p — intraprocedurally the call
        // kills availability, interprocedurally the summary proves the
        // helper frees nothing and the second check is elided too.
        let mut mb = ModuleBuilder::new("t");
        let helper = mb.func("helper", &[Ty::I64], Some(Ty::I64), |fb| {
            let n = fb.param(0);
            let v = fb.add(n, 1u64);
            fb.ret(Some(v.into()));
        });
        mb.func("main", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            let v = fb.load(Ty::I64, p);
            let w = fb.call(helper, &[v.into()]).unwrap();
            fb.store(Ty::I64, p, w);
            fb.ret(None);
        });
        let m = mb.finish();
        let mut intra = m.clone();
        assert_eq!(elide_redundant_checks(&mut intra), 0);
        let summaries = crate::ipa::summarize(&m);
        let mut inter = m.clone();
        assert_eq!(elide_redundant_checks_with(&mut inter, Some(&summaries)), 1);
    }

    #[test]
    fn availability_dies_at_call_to_freeing_callee_even_with_summaries() {
        let mut mb = ModuleBuilder::new("t");
        let release = mb.func("release", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            fb.intr_void("free", &[p.into()]);
            fb.ret(None);
        });
        mb.func("main", &[Ty::Ptr, Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            let q = fb.param(1);
            let v = fb.load(Ty::I64, p);
            fb.call(release, &[q.into()]);
            fb.store(Ty::I64, p, v);
            fb.ret(None);
        });
        let m = mb.finish();
        let summaries = crate::ipa::summarize(&m);
        let mut inter = m.clone();
        // `release` frees its argument — which may alias `p` — so the
        // store's check must stay.
        assert_eq!(elide_redundant_checks_with(&mut inter, Some(&summaries)), 0);
    }

    fn attrs_of(inst: &Inst) -> Option<&sgxs_mir::ir::AccessAttrs> {
        match inst {
            Inst::Load { attrs, .. }
            | Inst::Store { attrs, .. }
            | Inst::AtomicRmw { attrs, .. }
            | Inst::AtomicCas { attrs, .. } => Some(attrs),
            _ => None,
        }
    }
}
