//! Flow-sensitive pointer-provenance and value-range analysis.
//!
//! The abstract value of a register or local is a numeric interval, a
//! pointer `(referent, offset interval, inbounds)`, a pointer derived from
//! a function parameter, or a code address. Provenance is tracked across
//! blocks and joins, through `gep`s, copies, and cross-block locals —
//! strictly subsuming the per-block facts of `sgxs_mir::analysis::safe`.
//! Branch conditions refine intervals on CFG edges (including the local a
//! compared register was read from), which is what lets `count_loop`
//! bodies prove their index in range.
//!
//! On top of the spatial facts the state carries *allocation-site
//! liveness* (live / freed / unknown per site) and an escape set, which
//! powers the static temporal lints (use-after-free, double-free, leak)
//! and lets `free` mark an object dead without discarding its spatial
//! facts. With interprocedural summaries ([`crate::ipa`]) attached, calls
//! apply their callee's heap effects instead of the blanket
//! kill-all-heap-facts transfer.
//!
//! Soundness stance (documented in DESIGN.md §8 and §13): allocation is
//! fail-stop (a returned pointer refers to an object of the requested
//! size), calls with unknown effects kill heap provenance, and
//! `gep`/`sb_narrow` builder contracts are trusted exactly as the
//! per-block analysis already trusts them.

use crate::dataflow::{self, Analysis};
use crate::factmap::FactMap;
use crate::interval::Interval;
use crate::ipa::{CallGraph, FuncSummary, RetSummary, Summaries};
use sgxs_mir::ir::{
    def_of, BinOp, BlockId, CastKind, CmpOp, Function, Inst, IntrinsicId, LocalId, Module, Operand,
    Reg, Term,
};
use sgxs_mir::ty::Ty;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// What an abstract pointer refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Referent {
    /// Stack slot of the analyzed function.
    Slot {
        /// Slot index.
        id: u32,
        /// Declared size in bytes.
        size: u64,
    },
    /// Module global.
    Global {
        /// Global index.
        id: u32,
        /// Declared size in bytes.
        size: u64,
    },
    /// Heap object allocated at the numbered `malloc`/`calloc`/`realloc`
    /// site (sites are numbered per function, in block order; with
    /// summaries attached, direct calls returning a fresh allocation are
    /// numbered too).
    Alloc {
        /// Allocation-site number.
        site: u32,
        /// Requested size in bytes.
        size: u64,
    },
    /// Sub-object carved out by `sb_narrow` at the numbered site; offsets
    /// are relative to the narrowed base, bounds to the narrowed size.
    Narrow {
        /// Narrowing-site number.
        site: u32,
        /// Narrowed size in bytes.
        size: u64,
    },
}

impl Referent {
    /// Object (or sub-object) size in bytes.
    pub fn size(&self) -> u64 {
        match self {
            Referent::Slot { size, .. }
            | Referent::Global { size, .. }
            | Referent::Alloc { size, .. }
            | Referent::Narrow { size, .. } => *size,
        }
    }
}

/// Abstract value of a register or local.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsVal {
    /// A number in the interval.
    Num(Interval),
    /// A pointer `offset` bytes past the base of `referent`.
    Ptr {
        /// The object pointed into.
        referent: Referent,
        /// Byte offset from the object base.
        off: Interval,
        /// Produced by an `inbounds` gep: the builder vouches the address
        /// lies within the object even when the offset interval is ⊤.
        inb: bool,
    },
    /// A pointer `off` bytes past pointer parameter `index` of the
    /// analyzed function. The referent lives in some caller; the
    /// interprocedural summary layer transfers it across the call.
    Arg {
        /// Parameter index.
        index: u32,
        /// Byte offset from the parameter value.
        off: Interval,
    },
    /// The code address of module function `func` (from `FuncAddr`); lets
    /// the call-graph builder resolve indirect calls.
    Code {
        /// Function index.
        func: u32,
    },
}

impl AbsVal {
    /// No information.
    pub const TOP: AbsVal = AbsVal::Num(Interval::TOP);

    fn interval(&self) -> Interval {
        match self {
            AbsVal::Num(iv) => *iv,
            AbsVal::Ptr { .. } | AbsVal::Arg { .. } | AbsVal::Code { .. } => Interval::TOP,
        }
    }
}

fn join_val(a: &AbsVal, b: &AbsVal, widen: bool) -> AbsVal {
    let widened = |prev: &Interval, j: Interval| if widen { j.widen_from(prev) } else { j };
    match (a, b) {
        (AbsVal::Num(x), AbsVal::Num(y)) => AbsVal::Num(widened(x, x.join(y))),
        (
            AbsVal::Ptr {
                referent: ra,
                off: oa,
                inb: ia,
            },
            AbsVal::Ptr {
                referent: rb,
                off: ob,
                inb: ib,
            },
        ) if ra == rb => AbsVal::Ptr {
            referent: *ra,
            off: widened(oa, oa.join(ob)),
            inb: *ia && *ib,
        },
        (AbsVal::Arg { index: ia, off: oa }, AbsVal::Arg { index: ib, off: ob }) if ia == ib => {
            AbsVal::Arg {
                index: *ia,
                off: widened(oa, oa.join(ob)),
            }
        }
        (AbsVal::Code { func: fa }, AbsVal::Code { func: fb }) if fa == fb => *a,
        _ => AbsVal::TOP,
    }
}

/// Liveness of one allocation site on the current path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteLive {
    /// Definitely allocated and not freed; payload is the object size.
    Live(u64),
    /// Definitely freed.
    Freed,
    /// Maybe freed / maybe never allocated on this path.
    Top,
}

/// Per-point state: abstract values of registers and locals (absent = ⊤),
/// allocation-site liveness, the escape set, and the must-freed parameter
/// set (for interprocedural summaries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PState {
    regs: FactMap<u32, AbsVal>,
    locals: FactMap<u32, AbsVal>,
    /// Per allocation site: liveness on this path (absent = not yet
    /// allocated).
    pub(crate) heap: BTreeMap<u32, SiteLive>,
    /// Sites whose address may outlive the function body (stored, passed
    /// to an intrinsic, captured by a callee). May-set: grows at joins.
    pub(crate) escaped: BTreeSet<u32>,
    /// Pointer parameters definitely freed on this path. Must-set:
    /// intersected at joins; feeds `FuncSummary::must_frees_params`.
    pub(crate) freed_args: BTreeSet<u32>,
    /// A thread whose code may free memory could be running concurrently
    /// on this path: set by a `spawn` whose target is not summary-proven
    /// heap-benign, and by any call whose effects are unknown (it might
    /// spawn). While set, escaped sites never classify as proved — the
    /// concurrent thread could free them between any two instructions —
    /// and a `join` keeps killing heap facts. Or-joined at merges.
    pub(crate) thread_taint: bool,
}

impl PState {
    fn reg(&self, r: Reg) -> AbsVal {
        self.regs.get(&r.0).copied().unwrap_or(AbsVal::TOP)
    }

    fn set_reg(&mut self, r: Reg, v: AbsVal) {
        if v == AbsVal::TOP {
            self.regs.remove(&r.0);
        } else {
            self.regs.set(r.0, v);
        }
    }

    fn local(&self, l: LocalId) -> AbsVal {
        self.locals.get(&l.0).copied().unwrap_or(AbsVal::TOP)
    }

    fn set_local(&mut self, l: LocalId, v: AbsVal) {
        if v == AbsVal::TOP {
            self.locals.remove(&l.0);
        } else {
            self.locals.set(l.0, v);
        }
    }

    /// A call with unknown effects: every site becomes maybe-freed and
    /// every narrowed view (whose parent is unknown) is dropped. Spatial
    /// facts about `Alloc` referents survive but classify `Unknown` until
    /// re-established, which matches the old drop-the-facts behaviour.
    fn kill_heap(&mut self) {
        for v in self.heap.values_mut() {
            *v = SiteLive::Top;
        }
        self.drop_narrows();
    }

    /// Drops every fact about `Narrow` referents.
    fn drop_narrows(&mut self) {
        let narrow = |v: &AbsVal| {
            matches!(
                v,
                AbsVal::Ptr {
                    referent: Referent::Narrow { .. },
                    ..
                }
            )
        };
        self.regs.retain(|_, v| !narrow(v));
        self.locals.retain(|_, v| !narrow(v));
    }

    /// `free(p)` through a pointer of known provenance: the site is
    /// definitely dead, narrowed views (which may derive from it) are
    /// dropped, and every other object's facts survive. The spatial facts
    /// about the freed site are kept — the liveness gate turns them into
    /// `Unknown` (or a proved use-after-free).
    fn free_site(&mut self, site: u32) {
        self.heap.insert(site, SiteLive::Freed);
        self.drop_narrows();
    }

    /// A callee may (but need not) free `site`.
    fn taint_site(&mut self, site: u32) {
        self.heap.insert(site, SiteLive::Top);
        self.drop_narrows();
    }

    /// Drops facts derived from pointer parameter `index` (it was freed).
    fn kill_arg(&mut self, index: u32) {
        let dead = |v: &AbsVal| matches!(v, AbsVal::Arg { index: i, .. } if *i == index);
        self.regs.retain(|_, v| !dead(v));
        self.locals.retain(|_, v| !dead(v));
    }

    /// Liveness of `site` on this path.
    pub(crate) fn liveness(&self, site: u32) -> Option<SiteLive> {
        self.heap.get(&site).copied()
    }
}

/// Intrinsics that neither free memory nor hand control to code that
/// might: heap facts survive them. Everything else (free, realloc, munmap,
/// unknown names) kills heap provenance. `spawn` and `join` have a
/// dedicated thread-aware model in the transfer function: a spawn applies
/// the spawned function's summarised effects (heap-benign workers preserve
/// facts) and a join is pure synchronisation.
const HEAP_PRESERVING: [&str; 18] = [
    "malloc",
    "calloc",
    "mmap",
    "malloc_usable_size",
    "memcpy",
    "memmove",
    "memset",
    "memcmp",
    "strlen",
    "strcpy",
    "strncpy",
    "strcmp",
    "strcat",
    "strchr",
    "fmt_u64",
    "tag_input",
    "sb_narrow",
    "print_i64",
];

/// Returns whether an intrinsic call lets heap facts survive.
pub fn preserves_heap(name: &str) -> bool {
    HEAP_PRESERVING.contains(&name)
}

/// Returns whether an intrinsic is a deallocation entry point whose first
/// argument is the (possibly moved) object.
pub(crate) fn frees_first_arg(name: &str) -> bool {
    matches!(name, "free" | "munmap" | "realloc")
}

/// The compare a block's two-way branch tests, found once per function
/// for `refine_edge`, which reads it on every visit of either edge.
#[derive(Clone, Copy)]
struct BranchCmp {
    /// The branch's taken target.
    t: BlockId,
    op: CmpOp,
    /// The compared operands, each with the local it was read from and
    /// still equals at the end of the block, if any.
    args: [(Operand, Option<LocalId>); 2],
}

/// The dataflow problem: provenance + ranges for one function.
pub struct ProvAnalysis<'a> {
    m: &'a Module,
    fi: usize,
    /// Positions `(block, inst)` of the allocation/narrowing
    /// instructions in block order: a site's number is its index, so the
    /// list is sorted.
    sites: Vec<(u32, u32)>,
    /// Per block, the compare its two-way branch tests, if the condition
    /// is a register whose last definition in the block is a compare.
    branch_cmps: Vec<Option<BranchCmp>>,
    /// Interprocedural summaries, when running call-graph-aware.
    ipa: Option<(&'a CallGraph, &'a [FuncSummary])>,
}

impl<'a> ProvAnalysis<'a> {
    /// Prepares the intraprocedural analysis for function `fi` of `m`.
    pub fn new(m: &'a Module, fi: usize) -> Self {
        Self::with_parts(m, fi, None)
    }

    /// Prepares the analysis with interprocedural summaries attached:
    /// calls apply their callee's heap effects and provenance transfer.
    pub fn with_summaries(m: &'a Module, fi: usize, s: &'a Summaries) -> Self {
        Self::with_parts(m, fi, Some((&s.graph, &s.funcs)))
    }

    pub(crate) fn with_parts(
        m: &'a Module,
        fi: usize,
        ipa: Option<(&'a CallGraph, &'a [FuncSummary])>,
    ) -> Self {
        let mut sites = Vec::new();
        let mut branch_cmps = Vec::with_capacity(m.funcs[fi].blocks.len());
        for (bi, blk) in m.funcs[fi].blocks.iter().enumerate() {
            let cond = match &blk.term {
                Term::Br {
                    cond: Operand::Reg(c),
                    t,
                    f,
                } if t != f => Some((*c, *t)),
                _ => None,
            };
            // The condition's last definition, and the registers that
            // still equal the local they were last read from.
            let mut cmp = None;
            let mut read_from: Vec<(Reg, LocalId)> = Vec::new();
            for (ii, inst) in blk.insts.iter().enumerate() {
                if let Some((c, _)) = cond {
                    let def = def_of(inst);
                    if def == Some(c) {
                        cmp = match inst {
                            Inst::Cmp { op, a, b, .. } => Some((*op, *a, *b)),
                            _ => None,
                        };
                    }
                    match inst {
                        Inst::WriteLocal { local, .. } => read_from.retain(|(_, l)| l != local),
                        _ => read_from.retain(|(r, _)| Some(*r) != def),
                    }
                    if let Inst::ReadLocal { dst, local } = inst {
                        read_from.push((*dst, *local));
                    }
                }
                let numbered = match inst {
                    Inst::CallIntrinsic { intrinsic, .. } => {
                        let name = m.intrinsics[intrinsic.0 as usize].as_str();
                        matches!(name, "malloc" | "calloc" | "realloc" | "sb_narrow")
                    }
                    // A direct call whose callee provably returns a fresh
                    // allocation is an allocation site of the caller.
                    Inst::Call { func, .. } => ipa.is_some_and(|(_, funcs)| {
                        matches!(funcs[func.0 as usize].ret, RetSummary::FreshAlloc { .. })
                    }),
                    _ => false,
                };
                if numbered {
                    sites.push((bi as u32, ii as u32));
                }
            }
            let alias = |o: Operand| match o {
                Operand::Reg(r) => read_from.iter().find(|(x, _)| *x == r).map(|(_, l)| *l),
                Operand::Imm(_) => None,
            };
            branch_cmps.push(cond.zip(cmp).map(|((_, t), (op, a, b))| BranchCmp {
                t,
                op,
                args: [(a, alias(a)), (b, alias(b))],
            }));
        }
        ProvAnalysis {
            m,
            fi,
            sites,
            branch_cmps,
            ipa,
        }
    }

    pub(crate) fn func(&self) -> &Function {
        &self.m.funcs[self.fi]
    }

    /// Solves the dataflow problem: the state at entry to each block
    /// (`None` for blocks unreachable from the entry).
    pub(crate) fn solve(&self) -> Vec<Option<PState>> {
        dataflow::solve(self, self.func())
    }

    pub(crate) fn intr_name(&self, id: IntrinsicId) -> &str {
        &self.m.intrinsics[id.0 as usize]
    }

    /// Position of a numbered allocation/narrowing site.
    pub(crate) fn site_pos(&self, site: u32) -> Option<(u32, u32)> {
        self.sites.get(site as usize).copied()
    }

    /// Number of the allocation/narrowing site at `(bi, ii)`, if it is one.
    fn site_at(&self, bi: u32, ii: u32) -> Option<u32> {
        self.sites.binary_search(&(bi, ii)).ok().map(|i| i as u32)
    }

    pub(crate) fn eval(&self, op: &Operand, st: &PState) -> AbsVal {
        match op {
            Operand::Imm(v) => AbsVal::Num(Interval::exact(*v)),
            Operand::Reg(r) => st.reg(*r),
        }
    }

    fn eval_num(&self, op: &Operand, st: &PState) -> Interval {
        self.eval(op, st).interval()
    }

    /// Applies one instruction to the state.
    pub fn step(&self, bi: u32, ii: u32, inst: &Inst, st: &mut PState) {
        match inst {
            Inst::Bin { op, dst, a, b } => {
                let v = self.bin_val(*op, a, b, st);
                st.set_reg(*dst, v);
            }
            Inst::Cmp { dst, .. } => st.set_reg(*dst, AbsVal::Num(Interval::range(0, 1))),
            Inst::Cast { kind, dst, src } => {
                let v = match kind {
                    CastKind::Bitcast => self.eval(src, st),
                    CastKind::Trunc(bits) => {
                        let iv = self.eval_num(src, st);
                        let max = mask_of(*bits);
                        if iv.hi <= max {
                            AbsVal::Num(iv)
                        } else {
                            AbsVal::Num(Interval::range(0, max))
                        }
                    }
                    CastKind::Sext(bits) => {
                        let iv = self.eval_num(src, st);
                        // Non-negative in the source width: sext is identity.
                        if *bits > 0 && iv.hi <= mask_of(*bits) >> 1 {
                            AbsVal::Num(iv)
                        } else {
                            AbsVal::TOP
                        }
                    }
                    _ => AbsVal::TOP,
                };
                st.set_reg(*dst, v);
            }
            Inst::Select { dst, t, f, .. } => {
                let v = join_val(&self.eval(t, st), &self.eval(f, st), false);
                st.set_reg(*dst, v);
            }
            Inst::Gep {
                dst,
                base,
                index,
                scale,
                disp,
                inbounds,
            } => {
                let delta = self
                    .eval_num(index, st)
                    .mul(&Interval::exact(*scale as u64));
                let v = match self.eval(base, st) {
                    AbsVal::Ptr { referent, off, .. } => AbsVal::Ptr {
                        referent,
                        off: off.add(&delta).add_signed(*disp),
                        inb: *inbounds,
                    },
                    AbsVal::Arg { index: pi, off } => AbsVal::Arg {
                        index: pi,
                        off: off.add(&delta).add_signed(*disp),
                    },
                    AbsVal::Num(b) => AbsVal::Num(b.add(&delta).add_signed(*disp)),
                    AbsVal::Code { .. } => AbsVal::TOP,
                };
                st.set_reg(*dst, v);
            }
            Inst::Load { dst, .. } => st.set_reg(*dst, AbsVal::TOP),
            Inst::Store { val, .. } => {
                // A stored pointer may outlive every local fact: the
                // allocation site escapes (leak analysis must not claim it).
                if let AbsVal::Ptr {
                    referent: Referent::Alloc { site, .. },
                    ..
                } = self.eval(val, st)
                {
                    st.escaped.insert(site);
                }
            }
            Inst::Site { .. } => {}
            Inst::AtomicRmw { dst, val, .. } => {
                if let AbsVal::Ptr {
                    referent: Referent::Alloc { site, .. },
                    ..
                } = self.eval(val, st)
                {
                    st.escaped.insert(site);
                }
                st.set_reg(*dst, AbsVal::TOP)
            }
            Inst::AtomicCas { dst, new, .. } => {
                if let AbsVal::Ptr {
                    referent: Referent::Alloc { site, .. },
                    ..
                } = self.eval(new, st)
                {
                    st.escaped.insert(site);
                }
                st.set_reg(*dst, AbsVal::TOP)
            }
            Inst::ReadLocal { dst, local } => {
                let v = st.local(*local);
                st.set_reg(*dst, v);
            }
            Inst::WriteLocal { local, val } => {
                let v = self.eval(val, st);
                st.set_local(*local, v);
            }
            Inst::SlotAddr { dst, slot } => {
                let size = self.func().slots[slot.0 as usize].size as u64;
                st.set_reg(
                    *dst,
                    AbsVal::Ptr {
                        referent: Referent::Slot { id: slot.0, size },
                        off: Interval::exact(0),
                        inb: false,
                    },
                );
            }
            Inst::GlobalAddr { dst, global } => {
                let size = self.m.globals[global.0 as usize].size as u64;
                st.set_reg(
                    *dst,
                    AbsVal::Ptr {
                        referent: Referent::Global { id: global.0, size },
                        off: Interval::exact(0),
                        inb: false,
                    },
                );
            }
            Inst::FuncAddr { dst, func } => st.set_reg(*dst, AbsVal::Code { func: func.0 }),
            Inst::CallIntrinsic {
                dst,
                intrinsic,
                args,
            } => {
                let name = self.intr_name(*intrinsic);
                // Any heap pointer handed to an intrinsic other than as
                // the object being freed conservatively escapes (the
                // runtime might retain it; sb_narrow derives an untracked
                // alias of its parent).
                let free_family = frees_first_arg(name);
                for (i, a) in args.iter().enumerate() {
                    if free_family && i == 0 {
                        continue;
                    }
                    if let AbsVal::Ptr {
                        referent: Referent::Alloc { site, .. },
                        ..
                    } = self.eval(a, st)
                    {
                        st.escaped.insert(site);
                    }
                }
                if name == "spawn" {
                    // Thread effects are modelled at the spawn: a target
                    // resolved through `Code` provenance to a
                    // summary-proven heap-benign function can never free
                    // anything on its thread, so heap facts survive (the
                    // forwarded pointers escaped above). Anything else
                    // kills the facts and taints the path — the new
                    // thread may free concurrently from here on.
                    let benign = match (self.ipa, args.first().map(|a| self.eval(a, st))) {
                        (Some((_, funcs)), Some(AbsVal::Code { func })) => {
                            funcs[func as usize].heap_benign()
                        }
                        _ => false,
                    };
                    if !benign {
                        st.thread_taint = true;
                        st.kill_heap();
                    }
                } else if name == "join" {
                    // A join runs no user code — it only synchronises.
                    // The joined thread's effects were applied at its
                    // spawn; all a join adds is another point where a
                    // tainting thread may have freed.
                    if st.thread_taint {
                        st.kill_heap();
                    }
                } else if !preserves_heap(name) {
                    // Deallocating through a pointer of known provenance
                    // marks only that object dead (plus narrowed views,
                    // which may derive from it); freeing a parameter kills
                    // heap facts (it could alias any object) but records
                    // the must-freed parameter for the summary layer; an
                    // unknown argument or any other heap-killing intrinsic
                    // taints every site.
                    match (free_family, args.first().map(|a| self.eval(a, st))) {
                        (
                            true,
                            Some(AbsVal::Ptr {
                                referent: Referent::Alloc { site, .. },
                                ..
                            }),
                        ) => st.free_site(site),
                        (true, Some(AbsVal::Arg { index, .. })) => {
                            st.kill_heap();
                            st.kill_arg(index);
                            st.freed_args.insert(index);
                        }
                        _ => st.kill_heap(),
                    }
                }
                let site = self.site_at(bi, ii);
                let out = match name {
                    "malloc" => self
                        .exact_arg(args, 0, st)
                        .map(|size| self.alloc_val(site, size, st)),
                    "calloc" => {
                        let n = self.exact_arg(args, 0, st);
                        let e = self.exact_arg(args, 1, st);
                        match (n, e) {
                            (Some(n), Some(e)) => {
                                n.checked_mul(e).map(|size| self.alloc_val(site, size, st))
                            }
                            _ => None,
                        }
                    }
                    "realloc" => self
                        .exact_arg(args, 1, st)
                        .map(|size| self.alloc_val(site, size, st)),
                    "sb_narrow" => self.exact_arg(args, 1, st).map(|size| AbsVal::Ptr {
                        referent: Referent::Narrow {
                            site: site.expect("sb_narrow is a numbered site"),
                            size,
                        },
                        off: Interval::exact(0),
                        inb: false,
                    }),
                    _ => None,
                };
                if let Some(d) = dst {
                    st.set_reg(*d, out.unwrap_or(AbsVal::TOP));
                }
            }
            Inst::Call { dst, func, args } => self.call_step(bi, ii, Some(func.0), *dst, args, st),
            Inst::CallIndirect { dst, target, args } => {
                let callee = match self.eval(target, st) {
                    AbsVal::Code { func } => Some(func),
                    _ => None,
                };
                self.call_step(bi, ii, callee, *dst, args, st)
            }
            // Anything else (including future variants) just clobbers its def.
            other => {
                if let Some(d) = def_of(other) {
                    st.set_reg(d, AbsVal::TOP);
                }
            }
        }
    }

    /// Transfer for a (resolved or unresolved) call. Without summaries
    /// this is the blanket kill; with summaries the callee's recorded heap
    /// effects are applied instead, and its return provenance transfers.
    fn call_step(
        &self,
        bi: u32,
        ii: u32,
        callee: Option<u32>,
        dst: Option<Reg>,
        args: &[Operand],
        st: &mut PState,
    ) {
        let Some((_, funcs)) = self.ipa else {
            st.thread_taint = true;
            st.kill_heap();
            if let Some(d) = dst {
                st.set_reg(d, AbsVal::TOP);
            }
            return;
        };
        // Evaluate arguments against the pre-call state.
        let vals: Vec<AbsVal> = args.iter().map(|a| self.eval(a, st)).collect();
        let Some(g) = callee else {
            // Unresolved indirect call: every pointer argument escapes,
            // everything heap-derived is tainted.
            for v in &vals {
                if let AbsVal::Ptr {
                    referent: Referent::Alloc { site, .. },
                    ..
                } = v
                {
                    st.escaped.insert(*site);
                }
            }
            st.thread_taint = true;
            st.kill_heap();
            if let Some(d) = dst {
                st.set_reg(d, AbsVal::TOP);
            }
            return;
        };
        let s = &funcs[g as usize];
        let flag = |v: &[bool], i: usize| v.get(i).copied().unwrap_or(false);
        let mut full_kill = s.frees_unknown;
        for (i, v) in vals.iter().enumerate() {
            let may_free = flag(&s.frees_params, i);
            let must_free = flag(&s.must_frees_params, i);
            let captures = flag(&s.captures_params, i);
            match v {
                AbsVal::Ptr {
                    referent: Referent::Alloc { site, .. },
                    ..
                } => {
                    if must_free {
                        st.free_site(*site);
                    } else if may_free {
                        st.taint_site(*site);
                    }
                    if captures {
                        st.escaped.insert(*site);
                    }
                }
                AbsVal::Arg { index, .. } => {
                    if must_free {
                        st.freed_args.insert(*index);
                    }
                    if may_free {
                        st.kill_arg(*index);
                    }
                }
                // Freeing a narrowed view frees its (untracked) parent.
                AbsVal::Ptr {
                    referent: Referent::Narrow { .. },
                    ..
                } if may_free => full_kill = true,
                _ => {
                    if may_free {
                        // The callee frees a pointer we know nothing
                        // about: it could alias any object.
                        full_kill = true;
                    }
                }
            }
        }
        if s.frees_unknown {
            // The unattributed free may come from a thread the callee
            // spawned, which keeps running after it returns.
            st.thread_taint = true;
        }
        if full_kill {
            st.kill_heap();
        } else if s.frees_params.iter().any(|b| *b) {
            // Some object died; narrowed views might derive from it.
            st.drop_narrows();
        }
        let out = match &s.ret {
            RetSummary::Top => AbsVal::TOP,
            RetSummary::Num(iv) => AbsVal::Num(*iv),
            RetSummary::Param { index, off } => match vals.get(*index as usize) {
                Some(AbsVal::Ptr {
                    referent, off: o, ..
                }) => AbsVal::Ptr {
                    referent: *referent,
                    off: o.add(off),
                    inb: false,
                },
                Some(AbsVal::Arg { index: pi, off: o }) => AbsVal::Arg {
                    index: *pi,
                    off: o.add(off),
                },
                _ => AbsVal::TOP,
            },
            RetSummary::Global { id, size, off } => AbsVal::Ptr {
                referent: Referent::Global {
                    id: *id,
                    size: *size,
                },
                off: *off,
                inb: false,
            },
            RetSummary::FreshAlloc { size, escaped } => match self.site_at(bi, ii) {
                Some(site) => {
                    st.heap.insert(site, SiteLive::Live(*size));
                    if *escaped {
                        st.escaped.insert(site);
                    }
                    AbsVal::Ptr {
                        referent: Referent::Alloc { site, size: *size },
                        off: Interval::exact(0),
                        inb: false,
                    }
                }
                None => AbsVal::TOP,
            },
        };
        if let Some(d) = dst {
            st.set_reg(d, out);
        }
    }

    fn alloc_val(&self, site: Option<u32>, size: u64, st: &mut PState) -> AbsVal {
        let site = site.expect("allocation is a numbered site");
        st.heap.insert(site, SiteLive::Live(size));
        AbsVal::Ptr {
            referent: Referent::Alloc { site, size },
            off: Interval::exact(0),
            inb: false,
        }
    }

    fn exact_arg(&self, args: &[Operand], i: usize, st: &PState) -> Option<u64> {
        args.get(i).and_then(|a| self.eval_num(a, st).as_exact())
    }

    fn bin_val(&self, op: BinOp, a: &Operand, b: &Operand, st: &PState) -> AbsVal {
        let va = self.eval(a, st);
        let vb = self.eval(b, st);
        // Identity forms preserve provenance: `p ^ 0`, `p | 0`, `p + 0`,
        // `p - 0` all return the pointer unchanged (the fuzz generator's
        // cast-roundtrip op relies on this).
        let exact0 = |v: &AbsVal| v.interval().as_exact() == Some(0);
        match op {
            BinOp::Add | BinOp::Or | BinOp::Xor => {
                if exact0(&vb) {
                    return va;
                }
                if exact0(&va) {
                    return vb;
                }
            }
            BinOp::Sub | BinOp::Shl | BinOp::LShr if exact0(&vb) => return va,
            _ => {}
        }
        let (x, y) = (va.interval(), vb.interval());
        let iv = match op {
            BinOp::Add => x.add(&y),
            BinOp::Sub => x.sub(&y),
            BinOp::Mul => x.mul(&y),
            BinOp::And => x.and(&y),
            BinOp::Shl => x.shl(&y),
            BinOp::LShr => x.lshr(&y),
            BinOp::Or | BinOp::Xor => match (x.as_exact(), y.as_exact()) {
                (Some(p), Some(q)) => Interval::exact(if op == BinOp::Or { p | q } else { p ^ q }),
                _ => Interval::TOP,
            },
            _ => Interval::TOP,
        };
        AbsVal::Num(iv)
    }

    /// Meets `target`'s numeric value (register and `alias`, the local the
    /// register was read from and still equals, if any) with `constraint`.
    fn apply_constraint(
        &self,
        (target, alias): (Operand, Option<LocalId>),
        constraint: Option<Interval>,
        st: &mut PState,
    ) {
        let (Some(c), Operand::Reg(r)) = (constraint, target) else {
            return;
        };
        if let AbsVal::Num(iv) = st.reg(r) {
            if let Some(m) = iv.meet(&c) {
                st.set_reg(r, AbsVal::Num(m));
            }
        }
        if let Some(l) = alias {
            if let AbsVal::Num(iv) = st.local(l) {
                if let Some(m) = iv.meet(&c) {
                    st.set_local(l, AbsVal::Num(m));
                }
            }
        }
    }
}

fn mask_of(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// `[lo, u64::MAX]`, or `None` when `lo` overflows (empty edge).
fn at_least(lo: u64) -> Option<Interval> {
    Some(Interval::range(lo, u64::MAX))
}

/// `[0, hi]`.
fn at_most(hi: u64) -> Option<Interval> {
    Some(Interval::range(0, hi))
}

impl Analysis for ProvAnalysis<'_> {
    type State = PState;

    fn entry_state(&self, f: &Function) -> PState {
        let mut st = PState::default();
        // Pointer parameters start as themselves: facts derived from them
        // survive until the parameter object might be freed, and the
        // summary layer can transfer them into callers.
        for (i, ty) in f.params.iter().enumerate() {
            if *ty == Ty::Ptr {
                st.set_reg(
                    Reg(i as u32),
                    AbsVal::Arg {
                        index: i as u32,
                        off: Interval::exact(0),
                    },
                );
            }
        }
        st
    }

    fn transfer_block(&self, f: &Function, b: BlockId, st: &mut PState) {
        for (ii, inst) in f.blocks[b.0 as usize].insts.iter().enumerate() {
            self.step(b.0, ii as u32, inst, st);
        }
    }

    fn refine_edge(&self, _f: &Function, from: BlockId, to: BlockId, st: &mut PState) {
        let Some(BranchCmp {
            t,
            op,
            args: [a, b],
        }) = self.branch_cmps[from.0 as usize]
        else {
            return;
        };
        // Normalize to the predicate that holds on this edge.
        let eff = if to == t { op } else { negate(op) };
        let av = self.eval_num(&a.0, st);
        let bv = self.eval_num(&b.0, st);
        let (ca, cb) = match eff {
            CmpOp::ULt => (
                bv.hi.checked_sub(1).and_then(at_most),
                av.lo.checked_add(1).and_then(at_least),
            ),
            CmpOp::ULe => (at_most(bv.hi), at_least(av.lo)),
            CmpOp::UGt => (
                bv.lo.checked_add(1).and_then(at_least),
                av.hi.checked_sub(1).and_then(at_most),
            ),
            CmpOp::UGe => (at_least(bv.lo), at_most(av.hi)),
            CmpOp::Eq => (Some(bv), Some(av)),
            // Ne and the signed predicates refine nothing.
            _ => (None, None),
        };
        self.apply_constraint(a, ca, st);
        self.apply_constraint(b, cb, st);
    }

    fn join(&self, into: &mut PState, other: &PState, widen: bool) -> bool {
        // An absent value is ⊤, which absorbs: only keys present in both
        // states can survive, and a join that reaches ⊤ drops the key.
        let join_entry = |v: &AbsVal, o: Option<&AbsVal>| {
            let j = join_val(v, o.unwrap_or(&AbsVal::TOP), widen);
            (j != AbsVal::TOP).then_some(j)
        };
        let mut changed = into.regs.join_with(&other.regs, join_entry);
        changed |= into.locals.join_with(&other.locals, join_entry);
        // Site liveness: equal states agree, anything else (including a
        // site allocated on only one path) joins to Top.
        for (k, ov) in &other.heap {
            let nv = match into.heap.get(k) {
                Some(v) if v == ov => *v,
                _ => SiteLive::Top,
            };
            if into.heap.get(k) != Some(&nv) {
                into.heap.insert(*k, nv);
                changed = true;
            }
        }
        for (k, v) in into.heap.iter_mut() {
            if !other.heap.contains_key(k) && *v != SiteLive::Top {
                *v = SiteLive::Top;
                changed = true;
            }
        }
        // Escapes are a may-set (union), must-freed params intersect.
        for s in &other.escaped {
            changed |= into.escaped.insert(*s);
        }
        let before = into.freed_args.len();
        into.freed_args.retain(|a| other.freed_args.contains(a));
        changed |= into.freed_args.len() != before;
        // Thread taint is a may-property: true on any incoming path wins.
        if other.thread_taint && !into.thread_taint {
            into.thread_taint = true;
            changed = true;
        }
        changed
    }
}

fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::ULt => CmpOp::UGe,
        CmpOp::ULe => CmpOp::UGt,
        CmpOp::UGt => CmpOp::ULe,
        CmpOp::UGe => CmpOp::ULt,
        CmpOp::SLt => CmpOp::SGe,
        CmpOp::SLe => CmpOp::SGt,
        CmpOp::SGt => CmpOp::SLe,
        CmpOp::SGe => CmpOp::SLt,
    }
}

/// Verdict of the static analysis about one access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every execution of the access stays within its object.
    Safe,
    /// Every execution of the access leaves its object (or narrowed field).
    Oob,
    /// The analysis cannot decide.
    Unknown,
}

impl Class {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Class::Safe => "proved-safe",
            Class::Oob => "proved-oob",
            Class::Unknown => "unknown",
        }
    }
}

/// One classified memory-access site.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessFact {
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
    /// `"load"`, `"store"`, `"rmw"`, or `"cas"`.
    pub kind: &'static str,
    /// Access width in bytes.
    pub width: u8,
    /// The verdict.
    pub class: Class,
    /// Referent, when provenance is known.
    pub referent: Option<Referent>,
    /// Offset bounds `[lo, hi]`, when provenance is known.
    pub offset: Option<(u64, u64)>,
}

/// Kind of a proved temporal violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalKind {
    /// Access through a definitely-freed allocation.
    UseAfterFree,
    /// Second free of a definitely-freed allocation.
    DoubleFree,
    /// Allocation provably live, unescaped, and unreturned at a `ret`.
    Leak,
}

impl TemporalKind {
    /// Stable label used in reports (`"uaf"`, `"df"`, `"leak"`).
    pub fn label(&self) -> &'static str {
        match self {
            TemporalKind::UseAfterFree => "uaf",
            TemporalKind::DoubleFree => "df",
            TemporalKind::Leak => "leak",
        }
    }
}

/// One proved temporal violation. For `uaf` the position is the access,
/// for `df` the second free, for `leak` the allocation instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalFact {
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
    /// The violation kind.
    pub kind: TemporalKind,
    /// The allocation site concerned.
    pub site: u32,
    /// Object size in bytes.
    pub size: u64,
}

/// Spatial and temporal facts for one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnFacts {
    /// Every classified access site.
    pub access: Vec<AccessFact>,
    /// Every proved temporal violation.
    pub temporal: Vec<TemporalFact>,
}

/// Classifies a pointer value against an access of `width` bytes
/// (spatially — liveness gating happens in [`function_facts`]).
pub fn classify(val: &AbsVal, width: u8) -> Class {
    let AbsVal::Ptr { referent, off, inb } = val else {
        return Class::Unknown;
    };
    let (size, w) = (referent.size(), width as u64);
    if off.hi.checked_add(w).is_some_and(|end| end <= size) {
        return Class::Safe;
    }
    if *inb && off.is_top() && size >= w {
        // The builder vouched the address is in-bounds; an in-bounds base
        // of an object at least as large as the access cannot overrun.
        return Class::Safe;
    }
    if !inb && off.lo.checked_add(w).is_none_or(|end| end > size) {
        return Class::Oob;
    }
    Class::Unknown
}

/// Spatial classification gated by allocation-site liveness: a fact about
/// a freed (or maybe-freed) site proves nothing spatially, and a
/// definitely-freed site is a proved use-after-free.
fn classify_live(st: &PState, val: &AbsVal, width: u8) -> (Class, bool) {
    if let AbsVal::Ptr {
        referent: Referent::Alloc { site, .. },
        ..
    } = val
    {
        return match st.liveness(*site) {
            // With a possibly-freeing thread running, an escaped site can
            // die between any two instructions: nothing is provable.
            Some(SiteLive::Live(_)) if st.thread_taint && st.escaped.contains(site) => {
                (Class::Unknown, false)
            }
            Some(SiteLive::Live(_)) => (classify(val, width), false),
            Some(SiteLive::Freed) => (Class::Unknown, true),
            _ => (Class::Unknown, false),
        };
    }
    (classify(val, width), false)
}

/// Runs the analysis over function `fi` and classifies every access site.
/// Sites in unreachable blocks are reported `Unknown`.
pub fn access_facts(m: &Module, fi: usize) -> Vec<AccessFact> {
    function_facts(m, fi, None).access
}

/// Runs the analysis over function `fi` — with interprocedural summaries
/// when provided — and produces every spatial access fact plus every
/// proved temporal violation. [`crate::ipa::summarize`] already returns
/// these facts for every function (`Summaries::facts`); a caller holding
/// the summaries reads them there instead of solving again.
pub fn function_facts(m: &Module, fi: usize, ipa: Option<&Summaries>) -> FnFacts {
    let analysis = match ipa {
        Some(s) => ProvAnalysis::with_summaries(m, fi, s),
        None => ProvAnalysis::new(m, fi),
    };
    facts_of(&analysis, &analysis.solve())
}

/// The facts of function `fi`: read from `summaries` when given (which
/// must be `summarize(m)`), else solved intraprocedurally.
pub(crate) fn facts_for<'a>(
    m: &Module,
    fi: usize,
    summaries: Option<&'a Summaries>,
) -> Cow<'a, FnFacts> {
    match summaries {
        Some(s) => Cow::Borrowed(&s.facts[fi]),
        None => Cow::Owned(function_facts(m, fi, None)),
    }
}

/// Walks a solved function once and collects its facts: `states` is
/// `analysis.solve()`.
pub(crate) fn facts_of(analysis: &ProvAnalysis<'_>, states: &[Option<PState>]) -> FnFacts {
    let f = analysis.func();
    let mut out = FnFacts::default();
    // site -> size, first observed leak anchor resolved after the walk.
    let mut leaks: BTreeMap<u32, u64> = BTreeMap::new();
    for (bi, blk) in f.blocks.iter().enumerate() {
        let mut st = states[bi].clone();
        for (ii, inst) in blk.insts.iter().enumerate() {
            if let Some(a) = inst.access() {
                let (class, referent, offset, uaf) = match &st {
                    Some(st) => {
                        let val = analysis.eval(&a.addr, st);
                        let (class, uaf) = classify_live(st, &val, a.width());
                        match val {
                            AbsVal::Ptr { referent, off, .. } => {
                                (class, Some(referent), Some((off.lo, off.hi)), uaf)
                            }
                            _ => (class, None, None, uaf),
                        }
                    }
                    None => (Class::Unknown, None, None, false),
                };
                if uaf {
                    if let Some(Referent::Alloc { site, size }) = referent {
                        out.temporal.push(TemporalFact {
                            block: bi as u32,
                            inst: ii as u32,
                            kind: TemporalKind::UseAfterFree,
                            site,
                            size,
                        });
                    }
                }
                out.access.push(AccessFact {
                    block: bi as u32,
                    inst: ii as u32,
                    kind: a.op.label(),
                    width: a.width(),
                    class,
                    referent,
                    offset,
                });
            }
            if let Some(st) = &mut st {
                // Double free: an explicit free (or a call into a callee
                // that definitely frees its parameter) of a site that is
                // already definitely dead.
                let refreed = match inst {
                    Inst::CallIntrinsic {
                        intrinsic, args, ..
                    } if frees_first_arg(analysis.intr_name(*intrinsic)) => {
                        match args.first().map(|a| analysis.eval(a, st)) {
                            Some(AbsVal::Ptr {
                                referent: Referent::Alloc { site, size },
                                ..
                            }) => Some((site, size)),
                            _ => None,
                        }
                    }
                    Inst::Call { func, args, .. } => analysis.ipa.and_then(|(_, funcs)| {
                        let s = &funcs[func.0 as usize];
                        args.iter().enumerate().find_map(|(i, a)| {
                            if !s.must_frees_params.get(i).copied().unwrap_or(false) {
                                return None;
                            }
                            match analysis.eval(a, st) {
                                AbsVal::Ptr {
                                    referent: Referent::Alloc { site, size },
                                    ..
                                } => Some((site, size)),
                                _ => None,
                            }
                        })
                    }),
                    _ => None,
                };
                if let Some((site, size)) = refreed {
                    if st.liveness(site) == Some(SiteLive::Freed) {
                        out.temporal.push(TemporalFact {
                            block: bi as u32,
                            inst: ii as u32,
                            kind: TemporalKind::DoubleFree,
                            site,
                            size,
                        });
                    }
                }
                analysis.step(bi as u32, ii as u32, inst, st);
            }
        }
        // Leaks: at a return, a definitely-live site that never escaped
        // and is not the returned value can no longer be freed.
        if let (Some(st), Term::Ret(val)) = (&st, &blk.term) {
            let ret_site = val.as_ref().and_then(|op| match analysis.eval(op, st) {
                AbsVal::Ptr {
                    referent: Referent::Alloc { site, .. },
                    ..
                } => Some(site),
                _ => None,
            });
            for (site, live) in &st.heap {
                if let SiteLive::Live(size) = live {
                    if !st.escaped.contains(site) && ret_site != Some(*site) {
                        leaks.entry(*site).or_insert(*size);
                    }
                }
            }
        }
    }
    for (site, size) in leaks {
        let (block, inst) = analysis.site_pos(site).unwrap_or((0, 0));
        out.temporal.push(TemporalFact {
            block,
            inst,
            kind: TemporalKind::Leak,
            site,
            size,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sgxs_mir::builder::ModuleBuilder;
    use std::collections::HashMap;

    /// The register and local join of the hash-map states, kept as the
    /// reference for the merge walk that replaced it.
    fn retain_join(
        into: &mut HashMap<u32, AbsVal>,
        other: &HashMap<u32, AbsVal>,
        widen: bool,
    ) -> bool {
        let mut c = false;
        into.retain(|k, v| {
            let o = other.get(k).copied().unwrap_or(AbsVal::TOP);
            let j = join_val(v, &o, widen);
            if j != *v {
                *v = j;
                c = true;
            }
            j != AbsVal::TOP
        });
        c
    }

    /// Intervals from a small range, so that joins often meet equal values.
    fn interval() -> impl Strategy<Value = Interval> {
        (0u64..4, 0u64..4, 0u8..6).prop_map(|(lo, w, t)| {
            if t == 0 {
                Interval::TOP
            } else {
                Interval::range(lo, lo + w)
            }
        })
    }

    fn referent() -> impl Strategy<Value = Referent> {
        (0u32..2, 0u8..4).prop_map(|(id, kind)| match kind {
            0 => Referent::Slot { id, size: 16 },
            1 => Referent::Global { id, size: 16 },
            2 => Referent::Alloc { site: id, size: 16 },
            _ => Referent::Narrow { site: id, size: 8 },
        })
    }

    fn abs_val() -> impl Strategy<Value = AbsVal> {
        prop_oneof![
            interval().prop_map(AbsVal::Num),
            (referent(), interval(), any::<bool>()).prop_map(|(referent, off, inb)| AbsVal::Ptr {
                referent,
                off,
                inb
            }),
            (0u32..2, interval()).prop_map(|(index, off)| AbsVal::Arg { index, off }),
            (0u32..2).prop_map(|func| AbsVal::Code { func }),
        ]
    }

    fn entries() -> impl Strategy<Value = Vec<(u32, AbsVal)>> {
        prop::collection::vec((0u32..12, abs_val()), 0..10)
    }

    /// Writes `regs` and `locals` through the state's own setters, and the
    /// same pairs into one hash map each by the same rule (⊤ removes).
    fn build(
        regs: &[(u32, AbsVal)],
        locals: &[(u32, AbsVal)],
    ) -> (PState, [HashMap<u32, AbsVal>; 2]) {
        let mut st = PState::default();
        let mut model = [HashMap::new(), HashMap::new()];
        for (k, v) in regs {
            st.set_reg(Reg(*k), *v);
        }
        for (k, v) in locals {
            st.set_local(LocalId(*k), *v);
        }
        for (map, pairs) in model.iter_mut().zip([regs, locals]) {
            for (k, v) in pairs {
                if *v == AbsVal::TOP {
                    map.remove(k);
                } else {
                    map.insert(*k, *v);
                }
            }
        }
        (st, model)
    }

    fn fact_map(m: &HashMap<u32, AbsVal>) -> FactMap<u32, AbsVal> {
        let mut fm = FactMap::default();
        for (k, v) in m {
            fm.set(*k, *v);
        }
        fm
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn merge_walk_join_equals_the_retain_join(
            into_regs in entries(),
            into_locals in entries(),
            other_regs in entries(),
            other_locals in entries(),
            widen in any::<bool>(),
        ) {
            let mut mb = ModuleBuilder::new("t");
            mb.func("f", &[], None, |fb| fb.ret(None));
            let m = mb.finish();
            let analysis = ProvAnalysis::new(&m, 0);
            let (mut into, mut want) = build(&into_regs, &into_locals);
            let (other, other_model) = build(&other_regs, &other_locals);
            let changed = analysis.join(&mut into, &other, widen);
            let want_changed = retain_join(&mut want[0], &other_model[0], widen)
                | retain_join(&mut want[1], &other_model[1], widen);
            prop_assert_eq!(changed, want_changed);
            prop_assert_eq!(&into.regs, &fact_map(&want[0]));
            prop_assert_eq!(&into.locals, &fact_map(&want[1]));
            for st in [&into, &other] {
                for k in 0..12 {
                    prop_assert_ne!(st.regs.get(&k), Some(&AbsVal::TOP), "{:?}", st);
                    prop_assert_ne!(st.locals.get(&k), Some(&AbsVal::TOP), "{:?}", st);
                }
            }
        }
    }
}
