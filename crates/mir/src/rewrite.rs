//! What every check-inserting pass shares.
//!
//! SGXBounds, ASan and MPX are the same rewrite with a different check
//! (paper §5; *Intel MPX Explained* compares them that way): find each
//! memory access, put a check in front of it, branch to a failure path.
//! This module owns that rewrite, so each pass states only its check:
//!
//! - **access view**: [`Inst::access`] says whether an instruction
//!   touches memory and how; [`Inst::attrs_mut`],
//!   [`Inst::set_access_addr`] and [`Inst::mark_lowered`] edit one;
//! - **check-site protocol**: a [`Rewriter`] pairs one function with the
//!   module's check-site table. With markers on, every check registers a
//!   site; its `Begin` marker goes first in the check and its `End` marker
//!   right before the checked access ([`Rewriter::guard`],
//!   [`Rewriter::guard_inline`]), or last in a check hoisted away from any
//!   single access ([`Rewriter::hoisted`]). The profiler attributes the
//!   cycles between the two markers to the check and the access's own
//!   cycles to the application;
//! - **walk and split**: [`Rewriter::walk`] visits a function's
//!   instructions, following every block split into its continuation;
//! - **module plumbing**: [`Module::redirect_intrinsics`] sends libc-style
//!   calls to a scheme's wrappers and [`Module::add_startup`] builds an
//!   init function that `main` calls first.

use crate::ir::{
    AccessAttrs, Block, BlockId, CheckSite, FuncId, Function, Global, GlobalId, Inst, Module,
    Operand, SiteMarker, Term,
};
use crate::ty::Ty;

/// How an instruction touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// [`Inst::Load`].
    Load,
    /// [`Inst::Store`].
    Store,
    /// [`Inst::AtomicRmw`].
    Rmw,
    /// [`Inst::AtomicCas`].
    Cas,
}

impl AccessOp {
    /// Stable label: `load`, `store`, `rmw` or `cas` (lint documents print
    /// it).
    pub fn label(self) -> &'static str {
        match self {
            AccessOp::Load => "load",
            AccessOp::Store => "store",
            AccessOp::Rmw => "rmw",
            AccessOp::Cas => "cas",
        }
    }
}

/// One memory access, as [`Inst::access`] reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// Which access instruction it is.
    pub op: AccessOp,
    /// The accessed address.
    pub addr: Operand,
    /// The accessed type.
    pub ty: Ty,
    /// The instrumentation flags.
    pub attrs: AccessAttrs,
}

impl Access {
    /// Access width in bytes.
    pub fn width(&self) -> u8 {
        self.ty.width()
    }

    /// Whether the access writes memory: stores and both atomics.
    pub fn is_store(&self) -> bool {
        self.op != AccessOp::Load
    }
}

impl Inst {
    /// The memory access this instruction performs, if any.
    #[inline]
    pub fn access(&self) -> Option<Access> {
        let (op, addr, ty, attrs) = match self {
            Inst::Load {
                addr, ty, attrs, ..
            } => (AccessOp::Load, addr, ty, attrs),
            Inst::Store {
                addr, ty, attrs, ..
            } => (AccessOp::Store, addr, ty, attrs),
            Inst::AtomicRmw {
                addr, ty, attrs, ..
            } => (AccessOp::Rmw, addr, ty, attrs),
            Inst::AtomicCas {
                addr, ty, attrs, ..
            } => (AccessOp::Cas, addr, ty, attrs),
            _ => return None,
        };
        Some(Access {
            op,
            addr: *addr,
            ty: *ty,
            attrs: *attrs,
        })
    }

    /// The instrumentation flags of a memory access, if this is one.
    #[inline]
    pub fn attrs_mut(&mut self) -> Option<&mut AccessAttrs> {
        self.access_mut().map(|(_, attrs)| attrs)
    }

    /// Points a memory access at `addr`.
    ///
    /// # Panics
    ///
    /// If the instruction is not a memory access.
    #[inline]
    pub fn set_access_addr(&mut self, addr: Operand) {
        *self
            .access_mut()
            .expect("set_access_addr on a non-access")
            .0 = addr;
    }

    /// Marks a memory access lowered, so no rewriting walk instruments it
    /// again.
    ///
    /// # Panics
    ///
    /// If the instruction is not a memory access.
    #[inline]
    pub fn mark_lowered(&mut self) {
        self.access_mut()
            .expect("mark_lowered on a non-access")
            .1
            .lowered = true;
    }

    #[inline]
    fn access_mut(&mut self) -> Option<(&mut Operand, &mut AccessAttrs)> {
        match self {
            Inst::Load { addr, attrs, .. }
            | Inst::Store { addr, attrs, .. }
            | Inst::AtomicRmw { addr, attrs, .. }
            | Inst::AtomicCas { addr, attrs, .. } => Some((addr, attrs)),
            _ => None,
        }
    }
}

/// Where [`Rewriter::walk`] goes after one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// On in the same block, at this instruction.
    At(usize),
    /// The block was split: on in block `block`, at instruction `at`.
    Resume {
        /// The continuation block.
        block: BlockId,
        /// The first instruction not yet visited.
        at: usize,
    },
}

/// The order in which [`Rewriter::walk`] starts a function's blocks.
/// Blocks a split creates are always visited right after the split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOrder {
    /// Entry block first, for passes whose state follows program order.
    Forward,
    /// Last block first.
    Reverse,
}

/// An inline check in front of one memory access, spliced in by
/// [`Rewriter::guard`].
#[derive(Debug)]
pub struct Guard {
    /// Site kind registered when markers are on (e.g. `sb_full`, `asan`).
    pub kind: &'static str,
    /// The check sequence, run in the access's block before its branch.
    pub check: Vec<Inst>,
    /// Instructions the continuation runs before the access, still inside
    /// the site.
    pub lead: Vec<Inst>,
    /// The address the access uses after the check, if it changes.
    pub addr: Option<Operand>,
    /// Instructions right after the access, outside the site.
    pub trail: Vec<Inst>,
}

/// One function being rewritten, paired with its module's check-site
/// table so a pass can register sites while it holds the function.
pub struct Rewriter<'a> {
    /// The function being rewritten.
    pub func: &'a mut Function,
    /// The module's check-site table; `None` when markers are off.
    sites: Option<&'a mut Vec<CheckSite>>,
}

impl Rewriter<'_> {
    /// Visits every instruction of the function: `step(rw, block, inst)`
    /// says where to go next. After a split the walk follows the
    /// continuation at once, then starts the next original block in
    /// `order`.
    pub fn walk(
        &mut self,
        order: BlockOrder,
        mut step: impl FnMut(&mut Self, usize, usize) -> Next,
    ) {
        let n = self.func.blocks.len();
        let mut work: Vec<(usize, usize)> = match order {
            BlockOrder::Forward => (0..n).rev().map(|b| (b, 0)).collect(),
            BlockOrder::Reverse => (0..n).map(|b| (b, 0)).collect(),
        };
        while let Some((bi, mut i)) = work.pop() {
            while i < self.func.blocks[bi].insts.len() {
                match step(self, bi, i) {
                    Next::At(next) => i = next,
                    Next::Resume { block, at } => {
                        work.push((block.0 as usize, at));
                        break;
                    }
                }
            }
        }
    }

    /// [`Rewriter::walk`] restricted to memory accesses not yet lowered:
    /// `step(rw, block, inst, access)`.
    pub fn walk_accesses(
        &mut self,
        order: BlockOrder,
        mut step: impl FnMut(&mut Self, usize, usize, Access) -> Next,
    ) {
        self.walk(order, |rw, bi, i| {
            match rw.func.blocks[bi].insts[i].access() {
                Some(a) if !a.attrs.lowered => step(rw, bi, i, a),
                _ => Next::At(i + 1),
            }
        });
    }

    /// With markers on, registers a site of `kind` in this function, puts
    /// its `Begin` marker first in `check` and returns its `End` marker.
    fn begin(&mut self, kind: &'static str, check: &mut Vec<Inst>) -> Option<Inst> {
        let sites = self.sites.as_deref_mut()?;
        let site = sites.len() as u32;
        sites.push(CheckSite {
            func: self.func.name.clone(),
            kind,
        });
        let marker = |marker| Inst::Site { site, marker };
        check.insert(0, marker(SiteMarker::Begin));
        Some(marker(SiteMarker::End))
    }

    /// Guards the access at instruction `i` of block `bi` with a branching
    /// check and marks it lowered.
    ///
    /// The access and everything after it move to a new continuation
    /// block, which keeps the old terminator: `lead`, the `End` marker, the
    /// access (pointed at `addr`), `trail`, the rest. Block `bi` ends with
    /// `check` and the terminator `side(cont)` returns; the blocks returned
    /// with it (failure and slow paths) take the ids after `cont`, in
    /// order. The walk resumes after the access and its trail.
    pub fn guard<S: IntoIterator<Item = Block>>(
        &mut self,
        bi: usize,
        i: usize,
        g: Guard,
        side: impl FnOnce(BlockId) -> (Term, S),
    ) -> Next {
        let Guard {
            kind,
            mut check,
            lead,
            addr,
            trail,
        } = g;
        let end = self.begin(kind, &mut check);
        let f = &mut *self.func;
        let term = std::mem::replace(&mut f.blocks[bi].term, Term::Unreachable);
        // One copy of the block's tail; a second only when the access
        // gains neighbours (`lead`, the `End` marker, `trail`).
        let mut rest = f.blocks[bi].insts.split_off(i);
        let access = &mut rest[0];
        if let Some(a) = addr {
            access.set_access_addr(a);
        }
        access.mark_lowered();
        let at = lead.len() + end.is_some() as usize + 1 + trail.len();
        let insts = if at == 1 {
            rest
        } else {
            let mut insts = lead;
            insts.reserve(at + rest.len());
            insts.extend(end);
            let mut rest = rest.into_iter();
            insts.extend(rest.next());
            insts.extend(trail);
            insts.extend(rest);
            insts
        };
        let cont = BlockId(f.blocks.len() as u32);
        f.blocks.push(Block { insts, term });
        let (branch, side_blocks) = side(cont);
        f.blocks.extend(side_blocks);
        f.blocks[bi].insts.extend(check);
        f.blocks[bi].term = branch;
        Next::Resume { block: cont, at }
    }

    /// Guards the access at instruction `i` of block `bi` with a check
    /// that cannot fail (SGXBounds' tag strip on a proven-safe access):
    /// `check` goes right in front of the access, which is pointed at
    /// `addr` and marked lowered. The walk resumes after the access.
    pub fn guard_inline(
        &mut self,
        bi: usize,
        i: usize,
        kind: &'static str,
        mut check: Vec<Inst>,
        addr: Operand,
    ) -> Next {
        let access = &mut self.func.blocks[bi].insts[i];
        access.set_access_addr(addr);
        access.mark_lowered();
        let end = self.begin(kind, &mut check);
        check.extend(end);
        let n = check.len();
        self.func.blocks[bi].insts.splice(i..i, check);
        Next::At(i + n + 1)
    }

    /// Registers a check hoisted away from the accesses it covers: with
    /// markers on, `Begin` goes first in `check` and `End` last.
    pub fn hoisted(&mut self, kind: &'static str, check: &mut Vec<Inst>) {
        let end = self.begin(kind, check);
        check.extend(end);
    }
}

impl Module {
    /// Runs `pass` over every function in order, each paired with this
    /// module's check-site table when `markers` is on.
    pub fn rewrite_funcs(&mut self, markers: bool, mut pass: impl FnMut(&mut Rewriter<'_>)) {
        for func in &mut self.funcs {
            let sites = markers.then_some(&mut self.check_sites);
            pass(&mut Rewriter { func, sites });
        }
    }

    /// Redirects every call of intrinsic `from` to `to` for each
    /// `(from, to)` in `table` the module uses, interning the targets in
    /// table order. Returns how many calls were redirected.
    pub fn redirect_intrinsics(&mut self, table: &[(&str, &str)]) -> usize {
        let mapping: Vec<_> = table
            .iter()
            .filter_map(|(from, to)| {
                let from = self.intrinsics.iter().position(|n| n == from)?;
                Some((from as u32, self.intrinsic(to)))
            })
            .collect();
        let mut redirected = 0;
        for inst in self
            .funcs
            .iter_mut()
            .flat_map(|f| &mut f.blocks)
            .flat_map(|b| &mut b.insts)
        {
            if let Inst::CallIntrinsic { intrinsic, .. } = inst {
                if let Some(&(_, to)) = mapping.iter().find(|(from, _)| *from == intrinsic.0) {
                    *intrinsic = to;
                    redirected += 1;
                }
            }
        }
        redirected
    }

    /// Adds a startup function `name` — one block holding what
    /// `per_global(init, id, global)` returns for every global, in order —
    /// and calls it first in `main`, if the module has one.
    pub fn add_startup<I: IntoIterator<Item = Inst>>(
        &mut self,
        name: &str,
        mut per_global: impl FnMut(&mut Function, GlobalId, &Global) -> I,
    ) -> FuncId {
        let mut init = Function {
            name: name.to_owned(),
            params: vec![],
            ret: None,
            reg_tys: vec![],
            locals: vec![],
            slots: vec![],
            blocks: vec![Block {
                insts: vec![],
                term: Term::Ret(None),
            }],
        };
        for (gi, g) in self.globals.iter().enumerate() {
            let insts = per_global(&mut init, GlobalId(gi as u32), g);
            init.blocks[0].insts.extend(insts);
        }
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(init);
        if let Some(main) = self.func_by_name("main") {
            self.funcs[main.0 as usize].blocks[0].insts.insert(
                0,
                Inst::Call {
                    dst: None,
                    func: id,
                    args: vec![],
                },
            );
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, IntrinsicId, Reg};
    use crate::ModuleBuilder;

    fn every_access_kind() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            let v = fb.load(Ty::I32, p);
            fb.store(Ty::I8, p, v);
            fb.atomic_rmw(BinOp::Add, Ty::I64, p, 1u64);
            fb.atomic_cas(Ty::I16, p, 0u64, 1u64);
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn the_view_reads_every_access_kind() {
        let m = every_access_kind();
        let seen: Vec<(&str, u8, bool)> = m.funcs[0].blocks[0]
            .insts
            .iter()
            .filter_map(Inst::access)
            .map(|a| (a.op.label(), a.width(), a.is_store()))
            .collect();
        assert_eq!(
            seen,
            [
                ("load", 4, false),
                ("store", 1, true),
                ("rmw", 8, true),
                ("cas", 2, true)
            ]
        );
    }

    #[test]
    fn the_view_edits_address_and_flags() {
        let mut m = every_access_kind();
        for inst in &mut m.funcs[0].blocks[0].insts {
            if inst.access().is_some() {
                inst.set_access_addr(Operand::Imm(64));
                inst.mark_lowered();
                inst.attrs_mut().unwrap().safe = true;
            } else {
                assert!(inst.attrs_mut().is_none());
            }
        }
        for a in m.funcs[0].blocks[0].insts.iter().filter_map(Inst::access) {
            assert_eq!(a.addr, Operand::Imm(64));
            assert!(a.attrs.lowered && a.attrs.safe && !a.attrs.no_lower);
        }
    }

    #[test]
    #[should_panic(expected = "mark_lowered on a non-access")]
    fn marking_a_non_access_panics() {
        Inst::ReadLocal {
            dst: Reg(0),
            local: crate::ir::LocalId(0),
        }
        .mark_lowered();
    }

    /// Guards every access with a one-instruction check branching to a
    /// failure block, as ASan and MPX do.
    fn guard_all(m: &mut Module, markers: bool) -> usize {
        let mut guarded = 0;
        m.rewrite_funcs(markers, |rw| {
            rw.walk_accesses(BlockOrder::Reverse, |rw, bi, i, a| {
                guarded += 1;
                let c = rw.func.new_reg(Ty::I64);
                let check = vec![Inst::Cast {
                    kind: crate::ir::CastKind::Bitcast,
                    dst: c,
                    src: a.addr,
                }];
                let g = Guard {
                    kind: "test",
                    check,
                    lead: vec![],
                    addr: None,
                    trail: vec![],
                };
                rw.guard(bi, i, g, |cont| {
                    let fail = Block {
                        insts: vec![],
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
        guarded
    }

    #[test]
    fn guards_split_once_per_access_and_bracket_each_access() {
        let mut m = every_access_kind();
        assert_eq!(guard_all(&mut m, true), 4);
        crate::verify(&m).expect("guarded IR verifies");
        // Entry plus a continuation and a failure block per access.
        assert_eq!(m.funcs[0].blocks.len(), 9);
        assert_eq!(m.check_sites.len(), 4);
        for b in &m.funcs[0].blocks {
            for (i, inst) in b.insts.iter().enumerate() {
                if let Inst::Site {
                    marker: SiteMarker::End,
                    ..
                } = inst
                {
                    assert!(b.insts[i + 1].access().unwrap().attrs.lowered);
                }
            }
        }
        // A second walk finds nothing left to guard.
        assert_eq!(guard_all(&mut m, true), 0);

        let mut plain = every_access_kind();
        guard_all(&mut plain, false);
        assert!(plain.check_sites.is_empty());
        let markers = plain.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Site { .. }))
            .count();
        assert_eq!(markers, 0);
    }

    #[test]
    fn inline_and_hoisted_checks_follow_the_protocol() {
        let mut m = every_access_kind();
        m.rewrite_funcs(true, |rw| {
            let mut hoisted = vec![Inst::ReadLocal {
                dst: Reg(99),
                local: crate::ir::LocalId(0),
            }];
            rw.hoisted("hoist", &mut hoisted);
            assert!(matches!(
                (&hoisted[0], &hoisted[2]),
                (
                    Inst::Site {
                        site: 0,
                        marker: SiteMarker::Begin
                    },
                    Inst::Site {
                        site: 0,
                        marker: SiteMarker::End
                    }
                )
            ));
            let next = rw.guard_inline(0, 0, "inline", vec![], Operand::Imm(8));
            assert_eq!(next, Next::At(3));
        });
        let insts = &m.funcs[0].blocks[0].insts;
        assert!(matches!(
            insts[1],
            Inst::Site {
                site: 1,
                marker: SiteMarker::End
            }
        ));
        let a = insts[2].access().unwrap();
        assert_eq!((a.addr, a.attrs.lowered), (Operand::Imm(8), true));
        let kinds: Vec<&str> = m.check_sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["hoist", "inline"]);
    }

    #[test]
    fn redirection_and_startup_are_module_wide() {
        let mut mb = ModuleBuilder::new("t");
        mb.global_zeroed("a", 8);
        mb.global_zeroed("b", 8);
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            fb.intr_void("free", &[p.into()]);
            fb.intr_void("free", &[p.into()]);
            fb.ret(None);
        });
        let mut m = mb.finish();
        let table = [
            ("free", "x_free"),
            ("memcpy", "x_memcpy"),
            ("malloc", "x_malloc"),
        ];
        assert_eq!(m.redirect_intrinsics(&table), 3);
        // Only targets of used sources are interned, in table order.
        assert_eq!(m.intrinsics[2..], ["x_free", "x_malloc"]);
        let init = m.add_startup("__t_init", |f, gi, g| {
            let r = f.new_reg(Ty::Ptr);
            assert_eq!(g.size, 8);
            [Inst::GlobalAddr { dst: r, global: gi }]
        });
        let main = &m.funcs[m.func_by_name("main").unwrap().0 as usize];
        assert!(matches!(main.blocks[0].insts[0], Inst::Call { func, .. } if func == init));
        assert_eq!(m.funcs[init.0 as usize].inst_count(), 2);
        assert!(!m
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .any(|i| matches!(
                i,
                Inst::CallIntrinsic {
                    intrinsic: IntrinsicId(0 | 1),
                    ..
                }
            )));
        crate::verify(&m).expect("rewritten module verifies");
    }
}
