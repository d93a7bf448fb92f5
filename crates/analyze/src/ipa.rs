//! `sgxs-ipa` — interprocedural provenance summaries over the call graph.
//!
//! [`build_call_graph`] reads `Call` edges off the reachable blocks, and
//! resolves both `CallIndirect` targets and `spawn` intrinsic targets
//! through the value-range provenance (a `FuncAddr` value reaching the
//! call target) — the only case that runs a solve. It condenses the graph
//! into SCCs (iterative Tarjan) and orders them bottom-up (callees before
//! callers). [`summarize`] then computes one [`FuncSummary`] per function,
//! in one round for an SCC that is a single function without a self edge
//! and to fixpoint for a recursive SCC:
//!
//! - **return value**: interval, parameter + offset, global + offset, or a
//!   fresh allocation of known size (which becomes a numbered allocation
//!   site *of the caller*);
//! - **heap effects**: which parameters the callee may free
//!   (`frees_params`), definitely frees on every return path
//!   (`must_frees_params`), or may capture (`captures_params`), plus a
//!   `frees_unknown` bit for callees that may free a pointer the analysis
//!   cannot attribute.
//!
//! `prov.rs` consults the summaries at call sites, so provenance facts
//! survive calls into effect-free callees instead of dying at the blanket
//! call-kill — the basis of the interprocedural flow elision and of the
//! cross-call temporal lints. Each function's facts come from the same
//! solve as its summary, in its SCC's final round, and travel in
//! [`Summaries::facts`]: the flow elision and the lint read them there
//! and never solve again.
//!
//! Everything is deterministic: functions iterate in index order,
//! neighbour lists are sorted and deduplicated, and SCC members are
//! processed in ascending index order.

use crate::interval::Interval;
use crate::prov::{
    facts_of, frees_first_arg, preserves_heap, AbsVal, FnFacts, PState, ProvAnalysis, Referent,
    SiteLive,
};
use sgxs_mir::analysis::cfg;
use sgxs_mir::ir::{Inst, Module, Term};

/// The module call graph with SCC condensation.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Per function: resolved callee indices, sorted and deduplicated.
    pub callees: Vec<Vec<u32>>,
    /// Per function: whether it contains an indirect call the provenance
    /// analysis could not resolve to a single target.
    pub unresolved: Vec<bool>,
    /// Strongly connected components in bottom-up order (every callee's
    /// SCC precedes its callers'), members sorted ascending.
    pub sccs: Vec<Vec<u32>>,
    /// Per function: index of its SCC in `sccs`.
    pub scc_of: Vec<u32>,
}

impl CallGraph {
    /// Whether `f` can (transitively or directly) recurse: its SCC has
    /// more than one member or a self edge.
    pub fn recursive(&self, f: u32) -> bool {
        let scc = &self.sccs[self.scc_of[f as usize] as usize];
        scc.len() > 1 || self.callees[f as usize].contains(&f)
    }
}

/// Return-value summary of one function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetSummary {
    /// Nothing known.
    Top,
    /// A number in the interval.
    Num(Interval),
    /// Parameter `index` plus `off` bytes.
    Param {
        /// Parameter index.
        index: u32,
        /// Byte offset added to the parameter value.
        off: Interval,
    },
    /// A pointer into module global `id`.
    Global {
        /// Global index.
        id: u32,
        /// Declared size in bytes.
        size: u64,
        /// Byte offset from the global base.
        off: Interval,
    },
    /// A freshly allocated object of `size` bytes, live at return.
    FreshAlloc {
        /// Requested size in bytes.
        size: u64,
        /// Whether the callee also retained the pointer somewhere.
        escaped: bool,
    },
}

/// Heap-effect and return summary of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSummary {
    /// The return value, when the function returns one.
    pub ret: RetSummary,
    /// Parameters the function may free (directly or transitively).
    pub frees_params: Vec<bool>,
    /// Parameters the function definitely frees on every path to a `ret`.
    pub must_frees_params: Vec<bool>,
    /// Parameters whose pointer may be retained beyond the call.
    pub captures_params: Vec<bool>,
    /// The function may free a pointer the analysis cannot attribute to a
    /// parameter or a callee-local allocation.
    pub frees_unknown: bool,
}

impl FuncSummary {
    fn bottom(params: usize) -> Self {
        FuncSummary {
            ret: RetSummary::Top,
            frees_params: vec![false; params],
            must_frees_params: vec![false; params],
            captures_params: vec![false; params],
            frees_unknown: false,
        }
    }

    /// Whether a call to this function can invalidate any caller-side
    /// bounds fact (it frees nothing, attributably or otherwise).
    pub fn heap_benign(&self) -> bool {
        !self.frees_unknown && self.frees_params.iter().all(|b| !*b)
    }
}

/// Call graph plus one summary and one set of facts per function.
#[derive(Debug, Clone)]
pub struct Summaries {
    /// The condensed call graph.
    pub graph: CallGraph,
    /// Per-function summaries, indexed by function index.
    pub funcs: Vec<FuncSummary>,
    /// Per-function facts with these summaries attached, indexed by
    /// function index: equal to `function_facts(m, fi, Some(self))`.
    pub facts: Vec<FnFacts>,
}

/// Builds the call graph of `m`. Direct `Call` edges are read off the
/// reachable blocks; only a function that contains an indirect call or a
/// `spawn` runs the intraprocedural provenance analysis, to resolve those
/// targets.
pub fn build_call_graph(m: &Module) -> CallGraph {
    let n = m.funcs.len();
    let mut callees: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut unresolved = vec![false; n];
    for fi in 0..n {
        let f = &m.funcs[fi];
        let resolves = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|inst| match inst {
                Inst::CallIndirect { .. } => true,
                Inst::CallIntrinsic { intrinsic, .. } => {
                    m.intrinsics[intrinsic.0 as usize] == "spawn"
                }
                _ => false,
            });
        if resolves {
            unresolved[fi] = resolve_calls(m, fi, &mut callees[fi]);
        } else {
            for b in cfg::reverse_postorder(f) {
                for inst in &f.blocks[b.0 as usize].insts {
                    if let Inst::Call { func, .. } = inst {
                        callees[fi].push(func.0);
                    }
                }
            }
        }
        callees[fi].sort_unstable();
        callees[fi].dedup();
    }
    let (sccs, scc_of) = tarjan(&callees);
    CallGraph {
        callees,
        unresolved,
        sccs,
        scc_of,
    }
}

/// Pushes every call edge of function `fi`'s reachable blocks, resolving
/// indirect and `spawn` targets through the intraprocedural provenance;
/// returns whether some target stayed unresolved.
fn resolve_calls(m: &Module, fi: usize, callees: &mut Vec<u32>) -> bool {
    let analysis = ProvAnalysis::new(m, fi);
    let states = analysis.solve();
    let mut unresolved = false;
    for (bi, blk) in m.funcs[fi].blocks.iter().enumerate() {
        let Some(mut st) = states[bi].clone() else {
            continue;
        };
        for (ii, inst) in blk.insts.iter().enumerate() {
            match inst {
                Inst::Call { func, .. } => callees.push(func.0),
                Inst::CallIndirect { target, .. } => match analysis.eval(target, &st) {
                    AbsVal::Code { func } => callees.push(func),
                    _ => unresolved = true,
                },
                // A spawn transfers control to the spawned function
                // (concurrently): it is a call edge, resolved through the
                // same `Code` provenance as an indirect call.
                Inst::CallIntrinsic {
                    intrinsic, args, ..
                } if analysis.intr_name(*intrinsic) == "spawn" => {
                    match args.first().map(|a| analysis.eval(a, &st)) {
                        Some(AbsVal::Code { func }) => callees.push(func),
                        _ => unresolved = true,
                    }
                }
                _ => {}
            }
            analysis.step(bi as u32, ii as u32, inst, &mut st);
        }
    }
    unresolved
}

/// Iterative Tarjan SCC. Components are emitted callees-first (reverse
/// topological order of the condensation), which is exactly the bottom-up
/// summary order.
fn tarjan(callees: &[Vec<u32>]) -> (Vec<Vec<u32>>, Vec<u32>) {
    let n = callees.len();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    let mut scc_of = vec![0u32; n];
    // Explicit DFS frames: (node, next-callee cursor).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next;
        low[root as usize] = next;
        next += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(&w) = callees[v as usize].get(*cursor) {
                *cursor += 1;
                if index[w as usize] == UNSEEN {
                    index[w as usize] = next;
                    low[w as usize] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc_of[w as usize] = sccs.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    (sccs, scc_of)
}

/// Computes interprocedural summaries for every function of `m`,
/// bottom-up over the SCC condensation, together with every function's
/// facts. Each round solves each member's provenance problem once and
/// takes both its summary and its facts from that solve.
///
/// A summary reads only the summaries of its callees. An SCC that is one
/// function without a self edge therefore takes one round: its callees'
/// summaries are final and it never reads its own. A recursive SCC
/// iterates until a round changes no member; that round ran against the
/// final table, so its facts are the ones kept.
pub fn summarize(m: &Module) -> Summaries {
    let graph = build_call_graph(m);
    let n = m.funcs.len();
    let mut funcs: Vec<FuncSummary> = (0..n)
        .map(|fi| FuncSummary::bottom(m.funcs[fi].params.len()))
        .collect();
    let mut facts = vec![FnFacts::default(); n];
    for scc in &graph.sccs {
        let recursive = scc.len() > 1 || graph.recursive(scc[0]);
        // Effects grow monotonically from no-effect; a recursive return
        // value is pinned to Top so allocation-site numbering in callers
        // never depends on the iteration count.
        let limit = 4 * scc.len() + 4;
        for round in 0.. {
            assert!(round < limit, "ipa summary fixpoint diverged");
            let mut changed = false;
            for &fi in scc {
                let fi = fi as usize;
                let analysis = ProvAnalysis::with_parts(m, fi, Some((&graph, &funcs)));
                // The per-block states live only until this member's
                // summary and facts are taken.
                let states = analysis.solve();
                let mut s = summary_of(&analysis, &states, &funcs);
                facts[fi] = facts_of(&analysis, &states);
                if recursive {
                    s.ret = RetSummary::Top;
                }
                if s != funcs[fi] {
                    funcs[fi] = s;
                    changed = true;
                }
            }
            if !recursive || !changed {
                break;
            }
        }
    }
    // A direct call in an unreachable block is no call-graph edge, yet it
    // numbers an allocation site when its callee returns a fresh
    // allocation. If that callee was summarized after the caller, the
    // caller's facts are retaken against the final table.
    for (fi, f) in m.funcs.iter().enumerate() {
        let stale = f.blocks.iter().flat_map(|b| &b.insts).any(|inst| {
            matches!(inst, Inst::Call { func, .. }
                if (graph.scc_of[func.0 as usize] > graph.scc_of[fi]
                    || (func.0 as usize == fi && !graph.recursive(func.0)))
                    && matches!(funcs[func.0 as usize].ret, RetSummary::FreshAlloc { .. }))
        });
        if stale {
            let analysis = ProvAnalysis::with_parts(m, fi, Some((&graph, &funcs)));
            facts[fi] = facts_of(&analysis, &analysis.solve());
        }
    }
    Summaries {
        graph,
        funcs,
        facts,
    }
}

fn join_ret(a: RetSummary, b: RetSummary) -> RetSummary {
    use RetSummary::*;
    match (a, b) {
        (Num(x), Num(y)) => Num(x.join(&y)),
        (Param { index: i, off: x }, Param { index: j, off: y }) if i == j => Param {
            index: i,
            off: x.join(&y),
        },
        (
            Global {
                id: i,
                size,
                off: x,
            },
            Global { id: j, off: y, .. },
        ) if i == j => Global {
            id: i,
            size,
            off: x.join(&y),
        },
        (
            FreshAlloc {
                size: s1,
                escaped: e1,
            },
            FreshAlloc {
                size: s2,
                escaped: e2,
            },
        ) if s1 == s2 => FreshAlloc {
            size: s1,
            escaped: e1 || e2,
        },
        _ => Top,
    }
}

/// Walks a solved function once and extracts its summary: `states` is
/// `analysis.solve()` against the summary table `funcs`.
fn summary_of(
    analysis: &ProvAnalysis<'_>,
    states: &[Option<PState>],
    funcs: &[FuncSummary],
) -> FuncSummary {
    let f = analysis.func();
    let nparams = f.params.len();
    let mut s = FuncSummary::bottom(nparams);
    let mut ret: Option<RetSummary> = None;
    let mut saw_ret = false;
    let mark = |v: &mut Vec<bool>, i: u32| {
        if let Some(b) = v.get_mut(i as usize) {
            *b = true;
        }
    };
    for (bi, blk) in f.blocks.iter().enumerate() {
        let Some(mut st) = states[bi].clone() else {
            continue;
        };
        for (ii, inst) in blk.insts.iter().enumerate() {
            match inst {
                Inst::CallIntrinsic {
                    intrinsic, args, ..
                } => {
                    let name = analysis.intr_name(*intrinsic);
                    let free_family = frees_first_arg(name);
                    for (i, a) in args.iter().enumerate() {
                        if let AbsVal::Arg { index, .. } = analysis.eval(a, &st) {
                            if free_family && i == 0 {
                                mark(&mut s.frees_params, index);
                            } else {
                                // The runtime might retain the pointer
                                // (and sb_narrow derives an untracked
                                // alias): conservatively captured.
                                mark(&mut s.captures_params, index);
                            }
                        }
                    }
                    if name == "spawn" {
                        // The spawned function's effects happen at an
                        // unknown time on another thread: anything it may
                        // free is an unattributable free from the
                        // caller's point of view, so everything short of
                        // a proven heap-benign worker collapses to
                        // `frees_unknown`.
                        match args.first().map(|a| analysis.eval(a, &st)) {
                            Some(AbsVal::Code { func }) => {
                                s.frees_unknown |= !funcs[func as usize].heap_benign();
                            }
                            _ => s.frees_unknown = true,
                        }
                    } else if name == "join" {
                        // Pure synchronisation: the joined thread's
                        // effects were charged at its spawn.
                    } else if !preserves_heap(name) {
                        match (free_family, args.first().map(|a| analysis.eval(a, &st))) {
                            // Freeing a local allocation or a parameter is
                            // an attributed effect; anything else may free
                            // an arbitrary object.
                            (
                                true,
                                Some(AbsVal::Ptr {
                                    referent: Referent::Alloc { .. },
                                    ..
                                }),
                            ) => {}
                            (true, Some(AbsVal::Arg { .. })) => {}
                            _ => s.frees_unknown = true,
                        }
                    }
                }
                Inst::Call { func, args, .. } => {
                    let callee = &funcs[func.0 as usize];
                    s.frees_unknown |= callee.frees_unknown;
                    for (i, a) in args.iter().enumerate() {
                        if let AbsVal::Arg { index, .. } = analysis.eval(a, &st) {
                            if callee.frees_params.get(i).copied().unwrap_or(false) {
                                mark(&mut s.frees_params, index);
                            }
                            if callee.captures_params.get(i).copied().unwrap_or(false) {
                                mark(&mut s.captures_params, index);
                            }
                        }
                    }
                }
                Inst::CallIndirect { target, args, .. } => {
                    let resolved = matches!(analysis.eval(target, &st), AbsVal::Code { .. });
                    if let AbsVal::Code { func } = analysis.eval(target, &st) {
                        let callee = &funcs[func as usize];
                        s.frees_unknown |= callee.frees_unknown;
                        for (i, a) in args.iter().enumerate() {
                            if let AbsVal::Arg { index, .. } = analysis.eval(a, &st) {
                                if callee.frees_params.get(i).copied().unwrap_or(false) {
                                    mark(&mut s.frees_params, index);
                                }
                                if callee.captures_params.get(i).copied().unwrap_or(false) {
                                    mark(&mut s.captures_params, index);
                                }
                            }
                        }
                    }
                    if !resolved {
                        // Unknown target: assume the worst about every
                        // pointer argument.
                        s.frees_unknown = true;
                        for a in args {
                            if let AbsVal::Arg { index, .. } = analysis.eval(a, &st) {
                                mark(&mut s.frees_params, index);
                                mark(&mut s.captures_params, index);
                            }
                        }
                    }
                }
                Inst::Store { val, .. } => {
                    if let AbsVal::Arg { index, .. } = analysis.eval(val, &st) {
                        mark(&mut s.captures_params, index);
                    }
                }
                Inst::AtomicRmw { val, .. } => {
                    if let AbsVal::Arg { index, .. } = analysis.eval(val, &st) {
                        mark(&mut s.captures_params, index);
                    }
                }
                Inst::AtomicCas { new, .. } => {
                    if let AbsVal::Arg { index, .. } = analysis.eval(new, &st) {
                        mark(&mut s.captures_params, index);
                    }
                }
                _ => {}
            }
            analysis.step(bi as u32, ii as u32, inst, &mut st);
        }
        if let Term::Ret(val) = &blk.term {
            if !saw_ret {
                s.must_frees_params = (0..nparams)
                    .map(|i| st.freed_args.contains(&(i as u32)))
                    .collect();
                saw_ret = true;
            } else {
                for (i, b) in s.must_frees_params.iter_mut().enumerate() {
                    *b = *b && st.freed_args.contains(&(i as u32));
                }
            }
            if f.ret.is_some() {
                let r = match val.as_ref().map(|op| analysis.eval(op, &st)) {
                    Some(AbsVal::Num(iv)) => RetSummary::Num(iv),
                    Some(AbsVal::Arg { index, off }) => RetSummary::Param { index, off },
                    Some(AbsVal::Ptr {
                        referent: Referent::Global { id, size },
                        off,
                        ..
                    }) => RetSummary::Global { id, size, off },
                    Some(AbsVal::Ptr {
                        referent: Referent::Alloc { site, size },
                        ..
                    }) if st.liveness(site) == Some(SiteLive::Live(size)) => {
                        RetSummary::FreshAlloc {
                            size,
                            escaped: st.escaped.contains(&site),
                        }
                    }
                    _ => RetSummary::Top,
                };
                ret = Some(match ret {
                    None => r,
                    Some(prev) => join_ret(prev, r),
                });
            }
        }
    }
    s.ret = ret.unwrap_or(RetSummary::Top);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prov::{function_facts, Class, TemporalKind};
    use sgxs_mir::builder::ModuleBuilder;
    use sgxs_mir::ir::Operand;
    use sgxs_mir::ty::Ty;

    /// main -> helper(p) where helper only reads: facts survive the call.
    #[test]
    fn effect_free_callee_preserves_heap_facts() {
        let mut mb = ModuleBuilder::new("t");
        let helper = mb.func("peek", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            let v = fb.load(Ty::I64, p);
            fb.ret(Some(v.into()));
        });
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let l = fb.local(Ty::Ptr);
            fb.set(l, p);
            let _ = fb.call(helper, &[p.into()]);
            let q = fb.get(l);
            fb.store(Ty::I64, q, 1u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let s = summarize(&m);
        assert!(s.funcs[0].heap_benign());
        // Intraprocedural: the call kills the fact.
        let intra = function_facts(&m, 1, None);
        let store = intra.access.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Unknown);
        // Interprocedural: the summary proves the callee is benign.
        let inter = function_facts(&m, 1, Some(&s));
        let store = inter.access.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Safe, "{store:?}");
    }

    /// release(p) { free(p) }: must-freed parameter, and a use after the
    /// call in the caller is a proved UAF.
    #[test]
    fn must_freed_param_proves_cross_call_uaf() {
        let mut mb = ModuleBuilder::new("t");
        let release = mb.func("release", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            fb.intr_void("free", &[p.into()]);
            fb.ret(None);
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
            fb.store(Ty::I64, p, 7u64);
            fb.call(release, &[p.into()]);
            let v = fb.load(Ty::I64, p);
            fb.ret(Some(v.into()));
        });
        let m = mb.finish();
        let s = summarize(&m);
        assert_eq!(s.funcs[0].frees_params, vec![true]);
        assert_eq!(s.funcs[0].must_frees_params, vec![true]);
        let facts = function_facts(&m, 1, Some(&s));
        let uafs: Vec<_> = facts
            .temporal
            .iter()
            .filter(|t| t.kind == TemporalKind::UseAfterFree)
            .collect();
        assert_eq!(uafs.len(), 1, "{:?}", facts.temporal);
        assert_eq!(uafs[0].size, 24);
    }

    /// make(n) { return malloc(24) }: fresh allocation transfers to the
    /// caller as a numbered site, and never freeing it is a proved leak.
    #[test]
    fn fresh_alloc_return_transfers_and_leaks() {
        let mut mb = ModuleBuilder::new("t");
        let make = mb.func("make", &[], Some(Ty::Ptr), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
            fb.ret(Some(p.into()));
        });
        mb.func("owner", &[], None, |fb| {
            let p = fb.call(make, &[]).expect("make returns");
            fb.store(Ty::I64, p, 1u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let s = summarize(&m);
        assert_eq!(
            s.funcs[0].ret,
            RetSummary::FreshAlloc {
                size: 24,
                escaped: false
            }
        );
        let facts = function_facts(&m, 1, Some(&s));
        let store = facts.access.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Safe, "{store:?}");
        let leaks: Vec<_> = facts
            .temporal
            .iter()
            .filter(|t| t.kind == TemporalKind::Leak)
            .collect();
        assert_eq!(leaks.len(), 1, "{:?}", facts.temporal);
    }

    /// Double free across a call boundary: free(p); release(p).
    #[test]
    fn cross_call_double_free_is_proved() {
        let mut mb = ModuleBuilder::new("t");
        let release = mb.func("release", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            fb.intr_void("free", &[p.into()]);
            fb.ret(None);
        });
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            fb.intr_void("free", &[p.into()]);
            fb.call(release, &[p.into()]);
            fb.ret(None);
        });
        let m = mb.finish();
        let s = summarize(&m);
        let facts = function_facts(&m, 1, Some(&s));
        let dfs: Vec<_> = facts
            .temporal
            .iter()
            .filter(|t| t.kind == TemporalKind::DoubleFree)
            .collect();
        assert_eq!(dfs.len(), 1, "{:?}", facts.temporal);
    }

    /// Self-recursion terminates with a Top return and sound effects.
    #[test]
    fn recursive_scc_reaches_fixpoint() {
        let mut mb = ModuleBuilder::new("t");
        let selfrec = mb.declare("selfrec", &[Ty::Ptr, Ty::I64], Some(Ty::I64));
        mb.define(selfrec, |fb| {
            let p = fb.param(0);
            let n = fb.param(1);
            let done = fb.block();
            let more = fb.block();
            let cond = fb.cmp(sgxs_mir::ir::CmpOp::Eq, n, 0u64);
            fb.br(cond, done, more);
            fb.switch_to(done);
            fb.intr_void("free", &[p.into()]);
            fb.ret(Some(Operand::Imm(0)));
            fb.switch_to(more);
            let n1 = fb.sub(n, 1u64);
            let r = fb.call(selfrec, &[p.into(), n1.into()]).expect("returns");
            fb.ret(Some(r.into()));
        });
        let m = mb.finish();
        let s = summarize(&m);
        assert!(s.graph.recursive(0));
        assert_eq!(s.funcs[0].ret, RetSummary::Top);
        // free(p) happens on the base-case path: p is may-freed. The
        // must-freed bit is an under-approximation (the recursive ret
        // path cannot prove it before the fixpoint assumes it), so it is
        // allowed to stay false — but may-freed must hold.
        assert!(s.funcs[0].frees_params[0]);
        assert!(!s.funcs[0].heap_benign());
    }

    /// A spawn of a summary-proven heap-benign worker preserves heap
    /// facts across both the spawn and the join: the worker can never
    /// free anything, on any interleaving.
    #[test]
    fn benign_spawn_preserves_facts_across_join() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.func("worker", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            let v = fb.load(Ty::I64, p);
            fb.ret(Some(v.into()));
        });
        mb.func("main", &[], None, |fb| {
            let buf = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let wf = fb.func_addr(worker);
            let t = fb.intr("spawn", &[wf.into(), buf.into()]);
            fb.intr("join", &[t.into()]);
            fb.store(Ty::I64, buf, 1u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let s = summarize(&m);
        // The spawn is a call edge, resolved through Code provenance.
        assert_eq!(s.graph.callees[1], vec![0]);
        assert!(s.funcs[0].heap_benign());
        assert!(s.funcs[1].heap_benign(), "{:?}", s.funcs[1]);
        let intra = function_facts(&m, 1, None);
        let store = intra.access.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Unknown);
        let inter = function_facts(&m, 1, Some(&s));
        let store = inter.access.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Safe, "{store:?}");
    }

    /// A spawned worker that frees its argument runs concurrently: the
    /// caller's facts die at the spawn and a later join cannot revive
    /// them, and the effect is unattributable (`frees_unknown`).
    #[test]
    fn freeing_spawn_taints_the_caller() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.func("reaper", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            fb.intr_void("free", &[p.into()]);
            fb.ret(Some(Operand::Imm(0)));
        });
        mb.func("main", &[], None, |fb| {
            let buf = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let wf = fb.func_addr(worker);
            let t = fb.intr("spawn", &[wf.into(), buf.into()]);
            fb.intr("join", &[t.into()]);
            fb.store(Ty::I64, buf, 1u64);
            fb.ret(None);
        });
        let m = mb.finish();
        let s = summarize(&m);
        assert!(!s.funcs[0].heap_benign());
        assert!(s.funcs[1].frees_unknown);
        let inter = function_facts(&m, 1, Some(&s));
        let store = inter.access.iter().find(|a| a.kind == "store").unwrap();
        assert_eq!(store.class, Class::Unknown, "{store:?}");
    }

    /// Indirect calls resolve through FuncAddr provenance; an unresolved
    /// target poisons the caller conservatively.
    #[test]
    fn indirect_calls_resolve_through_provenance() {
        let mut mb = ModuleBuilder::new("t");
        let cb = mb.func("cb", &[], Some(Ty::I64), |fb| {
            fb.ret(Some(Operand::Imm(3)));
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let a = fb.func_addr(cb);
            let r = fb.call_indirect(a, &[], Some(Ty::I64)).expect("returns");
            fb.ret(Some(r.into()));
        });
        let m = mb.finish();
        let g = build_call_graph(&m);
        assert_eq!(g.callees[1], vec![0]);
        assert!(!g.unresolved[1]);
        let s = summarize(&m);
        assert_eq!(s.funcs[0].ret, RetSummary::Num(Interval::exact(3)));
    }
}
