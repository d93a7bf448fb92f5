//! Lowering from MIR to the dense opcode arrays executed by the compiled
//! tier.
//!
//! Each function flattens into one contiguous `Box<[Op]>`: every basic
//! block's instructions followed by its terminator (also an [`Op`]), with
//! superinstruction *headers* interleaved by the fusion pass (see below).
//! An [`Op`] is what it does ([`OpKind`]) and what it charges: the
//! `Inst::cycles` or `Term::cycles` of its instruction, baked under the
//! VM's cost model (the definitions the reference interpreter charges
//! from), so no cost-model field is named here.
//! The reference interpreter's architectural `(block, ip)` coordinates map
//! to pcs through [`FuncCode::pc_of`] (an interned coordinate → pc table)
//! and back through `loc`, which is what makes mid-quantum state handoff
//! (traps, retries, blocked intrinsics) trivially exact.
//!
//! **Superinstruction fusion.** The fusion pass pattern-matches each block
//! and inserts header ops in front of fusable sequences: [`OpKind::Fused`]
//! before a maximal run of trap-free register-only ops,
//! [`OpKind::FusedLoad`]/[`OpKind::FusedStore`]/[`OpKind::FusedBr`]/[`OpKind::FusedJmp`]
//! when such a run feeds directly into a memory access or branch (the
//! terminal op is absorbed into the same dispatch), and [`OpKind::SbCheck`]
//! for the eight-op bounds-check sequence the sgxbounds passes emit
//! (`and → lshr → add → cmp → load → cmp → or → br`: extract the lower
//! bound and upper-bound pointer from the tagged pointer, compare against
//! the access end, fetch the lower bound, and branch to the trap block).
//! A header executes its whole sequence with one dispatch and one batched
//! counter update when the sequence fits the remaining quantum; otherwise
//! the engine skips the header and steps the constituent ops — which
//! always follow it verbatim — one at a time. Headers are transparent to
//! the architectural state: they are uncounted, uncharged, and share the
//! `(block, ip)` of their first constituent.
//!
//! Lowering also pre-decodes everything the reference interpreter resolves
//! per-execution: jump targets become absolute pcs, `GlobalAddr`/`FuncAddr`
//! collapse to [`OpKind::Addr`] immediates (the address layout is fixed at
//! `Vm::new`), intrinsic ids are carried verbatim (their binding to
//! builtins/handlers stays in the VM, shared with the reference tier),
//! every call's arguments go to the function's argument table, and each
//! `CallIndirect` site gets an inline-cache slot.
//!
//! **Operand interning.** Every operand — register or immediate — lowers to
//! one `u32` index into the frame's value file. Immediates are deduplicated
//! into a per-function constant pool ([`FuncCode::consts`]) that the VM
//! appends after the architectural registers when it builds a frame (see
//! `Vm::set_frame_consts`), so the dispatch loop reads all operands with a
//! single indexed load and zero branches. The reference tier never touches
//! the appended slots, so frame semantics are unchanged.

use sgxs_mir::interp::code_addr;
use sgxs_mir::{BinOp, CastKind, CmpOp, FBinOp, FCmpOp, Function, Inst, Operand, SiteMarker, Term};
use sgxs_sim::CostModel;

/// One lowered op: what it does and the cycles it charges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// What the op does.
    pub kind: OpKind,
    /// Cycles the op charges once it has succeeded (a trapping op charges
    /// nothing, a call charges before its frame push), baked from
    /// `Inst::cycles` or `Term::cycles`; a memory op adds what the machine
    /// prices its access at. Headers and site markers charge 0: a fused
    /// run charges what its header's kind carries.
    pub cyc: u64,
}

/// A call's argument operands: `len` entries of [`FuncCode::args`] from
/// `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgList {
    /// Index of the first argument.
    pub start: u32,
    /// Number of arguments.
    pub len: u32,
}

/// What a lowered op does. Operands are `u32` indexes into the frame's
/// unified value file (`regs ++ consts`). Trapping division is split out
/// of [`OpKind::Bin`] so everything left in `Bin` is trap-free and fusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Trap-free integer binary op (never `udiv`/`sdiv`/`urem`/`srem`).
    Bin {
        /// Operation (verified non-division by lowering).
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// Integer division/remainder; traps on a zero divisor.
    DivRem {
        /// Operation (one of the four division ops).
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Dividend.
        a: u32,
        /// Divisor.
        b: u32,
    },
    /// Integer comparison producing 0/1.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// Floating binary op on f64 bit patterns.
    FBin {
        /// Operation.
        op: FBinOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// Floating comparison producing 0/1.
    FCmp {
        /// Predicate.
        op: FCmpOp,
        /// Destination register.
        dst: u32,
        /// Left operand.
        a: u32,
        /// Right operand.
        b: u32,
    },
    /// Integer/float conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Destination register.
        dst: u32,
        /// Source operand.
        src: u32,
    },
    /// `dst = cond != 0 ? t : f`.
    Select {
        /// Destination register.
        dst: u32,
        /// Condition operand.
        cond: u32,
        /// Value if true.
        t: u32,
        /// Value if false.
        f: u32,
    },
    /// Address arithmetic: `dst = base + index*scale + disp`.
    Gep {
        /// Destination register.
        dst: u32,
        /// Base address operand.
        base: u32,
        /// Index operand.
        index: u32,
        /// Element size.
        scale: u32,
        /// Constant displacement.
        disp: i64,
    },
    /// Memory load of `width` bytes.
    Load {
        /// Destination register.
        dst: u32,
        /// Address operand.
        addr: u32,
        /// Access width in bytes.
        width: u8,
    },
    /// Memory store of `width` bytes.
    Store {
        /// Address operand.
        addr: u32,
        /// Value operand.
        val: u32,
        /// Access width in bytes.
        width: u8,
    },
    /// Atomic read-modify-write; `dst` receives the old value.
    AtomicRmw {
        /// Combining operation (exchange for non-bitwise/add ops).
        op: BinOp,
        /// Destination register (old value).
        dst: u32,
        /// Address operand.
        addr: u32,
        /// Operand value.
        val: u32,
        /// Access width in bytes.
        width: u8,
    },
    /// Atomic compare-and-swap; `dst` receives the old value.
    AtomicCas {
        /// Destination register (old value).
        dst: u32,
        /// Address operand.
        addr: u32,
        /// Expected value.
        expected: u32,
        /// Replacement value.
        new: u32,
        /// Access width in bytes.
        width: u8,
    },
    /// `dst = local`.
    ReadLocal {
        /// Destination register.
        dst: u32,
        /// Local index.
        local: u32,
    },
    /// `local = val`.
    WriteLocal {
        /// Local index.
        local: u32,
        /// Value operand.
        val: u32,
    },
    /// `dst = address of stack slot`.
    SlotAddr {
        /// Destination register.
        dst: u32,
        /// Slot index.
        slot: u32,
    },
    /// Pre-resolved address constant (`GlobalAddr` / `FuncAddr`).
    Addr {
        /// Destination register.
        dst: u32,
        /// The resolved address.
        imm: u64,
    },
    /// Direct call.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<u32>,
        /// Callee function index.
        func: u32,
        /// Argument operands.
        args: ArgList,
    },
    /// Indirect call through a code address, with an inline-cache slot.
    CallIndirect {
        /// Register receiving the return value, if any.
        dst: Option<u32>,
        /// Target address operand.
        target: u32,
        /// Argument operands.
        args: ArgList,
        /// Index of this site's inline-cache entry.
        ic: u32,
    },
    /// Call into the host runtime.
    CallIntrinsic {
        /// Register receiving the return value, if any.
        dst: Option<u32>,
        /// Intrinsic index (bound by the VM at run time, like the
        /// reference tier).
        intrinsic: u32,
        /// Argument operands.
        args: ArgList,
    },
    /// Transparent check-site marker (uncounted, uncharged).
    Site {
        /// Check-site id.
        site: u32,
        /// Which end of the check sequence it delimits.
        marker: SiteMarker,
    },
    /// Superinstruction header: the next `len` ops are a trap-free
    /// register-only run, executed with one dispatch and one batched
    /// counter update when the run fits the remaining quantum. Headers are
    /// uncounted and uncharged; the engine falls back to stepping the
    /// constituents when the run does not fit.
    Fused {
        /// Number of constituent ops following the header.
        len: u32,
        /// Total baked cycle charge of the run.
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`OpKind::Load`] (all absorbed into
    /// one dispatch; the load's memory cost stays dynamic).
    FusedLoad {
        /// Number of pure ops between the header and the load.
        len: u32,
        /// Baked cycle charge of the pure run (excludes the load).
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`OpKind::Store`].
    FusedStore {
        /// Number of pure ops between the header and the store.
        len: u32,
        /// Baked cycle charge of the pure run (excludes the store).
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`OpKind::Br`].
    FusedBr {
        /// Number of pure ops between the header and the branch.
        len: u32,
        /// Baked cycle charge of the run *including* the branch.
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`OpKind::Jmp`].
    FusedJmp {
        /// Number of pure ops between the header and the jump.
        len: u32,
        /// Baked cycle charge of the run *including* the jump.
        cyc: u64,
    },
    /// Header for the eight-op sgxbounds check sequence
    /// (`and, lshr, add, cmp.ugt, load.4, cmp.ult, or, br`): the whole
    /// check — bounds extraction, limit compare, lower-bound fetch, and
    /// the trap branch — executes as one dispatch. The match is purely
    /// structural (the engine executes the constituents' own operands in
    /// order), so it is exact for any sequence of that shape.
    SbCheck {
        /// Baked cycle charge of the four ops before the bound load.
        cyc_pre: u64,
        /// Baked charge of the bound load (besides its access), the
        /// compare and or after it, and the branch.
        cyc_post: u64,
    },
    /// Unconditional jump to an absolute pc (a block start).
    Jmp {
        /// Target pc.
        target: u32,
    },
    /// Conditional branch on `cond != 0`.
    Br {
        /// Condition operand.
        cond: u32,
        /// Target pc if true.
        t: u32,
        /// Target pc if false.
        f: u32,
    },
    /// Function return.
    Ret {
        /// Returned operand (0 if absent).
        val: Option<u32>,
    },
    /// Verifier-unreachable terminator; traps.
    Unreachable,
}

/// One function lowered to a dense opcode array plus its side tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCode {
    /// Function name (for display/diagnostics).
    pub name: String,
    /// Architectural register count; constant-pool slots start here.
    pub nregs: u32,
    /// Interned immediates, appended to `regs` at frame construction.
    pub consts: Box<[u64]>,
    /// Every call's argument operands, back to back (see [`ArgList`]).
    pub args: Box<[u32]>,
    /// The flattened opcode array: per block, instructions then terminator,
    /// with superinstruction headers interleaved by the fusion pass.
    pub ops: Box<[Op]>,
    /// Starting pc of each block (jump targets land only here; the first
    /// op may be a fusion header).
    pub block_start: Box<[u32]>,
    /// Inverse map `pc -> (block, ip)` for interpreter-state writeback.
    /// Headers share the coordinate of their first constituent.
    pub loc: Box<[(u32, u32)]>,
    /// Per-block base into `pc_map`'s dense architectural coordinates
    /// (block `b`, ip `i` lives at `ir_start[b] + i`).
    pub ir_start: Box<[u32]>,
    /// Architectural coordinate -> pc. Where a header shares a coordinate
    /// with its first constituent, the header's (smaller) pc wins, so
    /// re-entering at a run boundary re-enters the fused path.
    pub pc_map: Box<[u32]>,
}

impl FuncCode {
    /// The pc addressing interpreter coordinates `(block, ip)`.
    #[inline]
    pub fn pc_of(&self, block: u32, ip: u32) -> usize {
        self.pc_map[(self.ir_start[block as usize] + ip) as usize] as usize
    }

    /// The argument operands of a call.
    #[inline]
    pub fn args(&self, list: ArgList) -> &[u32] {
        &self.args[list.start as usize..(list.start + list.len) as usize]
    }
}

/// Per-function operand interner: immediates share constant-pool slots,
/// and call arguments fill the argument table.
struct Pool {
    nregs: u32,
    consts: Vec<u64>,
    args: Vec<u32>,
}

impl Pool {
    fn args(&mut self, ops: &[Operand]) -> ArgList {
        let start = self.args.len() as u32;
        for &op in ops {
            let a = self.src(op);
            self.args.push(a);
        }
        ArgList {
            start,
            len: ops.len() as u32,
        }
    }

    fn src(&mut self, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => r.0,
            Operand::Imm(v) => self.imm(v),
        }
    }

    fn imm(&mut self, v: u64) -> u32 {
        let idx = match self.consts.iter().position(|c| *c == v) {
            Some(i) => i,
            None => {
                self.consts.push(v);
                self.consts.len() - 1
            }
        };
        self.nregs + idx as u32
    }
}

/// Charge of a trap-free register-only op, or `None` if the op can trap,
/// touch memory, transfer control, or emit events — the fusion boundary.
fn fusable(op: &Op) -> Option<u64> {
    use OpKind::*;
    match op.kind {
        Bin { .. }
        | Cmp { .. }
        | FBin { .. }
        | FCmp { .. }
        | Cast { .. }
        | Select { .. }
        | Gep { .. }
        | ReadLocal { .. }
        | WriteLocal { .. }
        | SlotAddr { .. }
        | Addr { .. } => Some(op.cyc),
        _ => None,
    }
}

/// Lowers one function, baking each op's charge under `cost`.
/// `global_addr` maps global indices to their runtime addresses (fixed at
/// `Vm::new`); `ic_count` allocates inline-cache slots across the whole
/// module.
pub fn lower_func(
    f: &Function,
    global_addr: &dyn Fn(u32) -> u32,
    cost: &CostModel,
    ic_count: &mut u32,
) -> FuncCode {
    // Pass A: lower each block's instructions and terminator. Jump targets
    // are carried as block ids here and rewritten to pcs in pass C, after
    // fusion has fixed every block's final length.
    let mut pool = Pool {
        nregs: f.reg_tys.len() as u32,
        consts: Vec::new(),
        args: Vec::new(),
    };
    let mut ir_start = Vec::with_capacity(f.blocks.len());
    let mut ir_total = 0u32;
    let mut blocks: Vec<Vec<Op>> = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        ir_start.push(ir_total);
        ir_total += b.insts.len() as u32 + 1;
        let mut ops = Vec::with_capacity(b.insts.len() + 1);
        for inst in &b.insts {
            ops.push(Op {
                kind: lower_inst(inst, global_addr, ic_count, &mut pool),
                cyc: inst.cycles(cost),
            });
        }
        let kind = match &b.term {
            Term::Jmp(t) => OpKind::Jmp { target: t.0 },
            Term::Br { cond, t, f: fb } => OpKind::Br {
                cond: pool.src(*cond),
                t: t.0,
                f: fb.0,
            },
            Term::Ret(v) => OpKind::Ret {
                val: v.map(|s| pool.src(s)),
            },
            Term::Unreachable => OpKind::Unreachable,
        };
        ops.push(Op {
            kind,
            cyc: b.term.cycles(cost),
        });
        blocks.push(ops);
    }

    // Pass B: per-block superinstruction selection. Sequences never span
    // Site markers (their events read intermediate cycle counts) or block
    // boundaries, so a fused sequence with one batched counter update is
    // observationally identical to per-op execution.
    let fused: Vec<Vec<(Op, u32)>> = blocks.iter().map(|ops| fuse_block(ops)).collect();

    // Pass C: concatenate, resolve block-id targets to pcs, and build the
    // pc <-> (block, ip) maps.
    let mut block_start = Vec::with_capacity(fused.len());
    let mut pc = 0u32;
    for fb in &fused {
        block_start.push(pc);
        pc += fb.len() as u32;
    }
    let total = pc as usize;
    let mut ops = Vec::with_capacity(total);
    let mut loc = Vec::with_capacity(total);
    let mut pc_map = vec![u32::MAX; ir_total as usize];
    for (bi, fb) in fused.into_iter().enumerate() {
        for (mut op, ir_ip) in fb {
            let coord = (ir_start[bi] + ir_ip) as usize;
            // First writer wins: a header precedes its first constituent,
            // so re-entry at the coordinate lands on the header.
            if pc_map[coord] == u32::MAX {
                pc_map[coord] = ops.len() as u32;
            }
            loc.push((bi as u32, ir_ip));
            match &mut op.kind {
                OpKind::Jmp { target } => *target = block_start[*target as usize],
                OpKind::Br { t, f, .. } => {
                    *t = block_start[*t as usize];
                    *f = block_start[*f as usize];
                }
                _ => {}
            }
            ops.push(op);
        }
    }
    debug_assert_eq!(ops.len(), total);
    debug_assert!(pc_map.iter().all(|p| *p != u32::MAX));

    FuncCode {
        name: f.name.clone(),
        nregs: pool.nregs,
        consts: pool.consts.into_boxed_slice(),
        args: pool.args.into_boxed_slice(),
        ops: ops.into_boxed_slice(),
        block_start: block_start.into_boxed_slice(),
        loc: loc.into_boxed_slice(),
        ir_start: ir_start.into_boxed_slice(),
        pc_map: pc_map.into_boxed_slice(),
    }
}

/// The eight-op bounds-check shape emitted by the sgxbounds passes:
/// extract `lo`/`ub` from the tagged pointer, add the access size, compare
/// against the upper bound, fetch the 4-byte lower bound from the object
/// footer, compare, or the verdicts together, branch to the trap block.
fn is_sbcheck(w: &[Op]) -> bool {
    use OpKind::*;
    matches!(w[0].kind, Bin { op: BinOp::And, .. })
        && matches!(
            w[1].kind,
            Bin {
                op: BinOp::LShr,
                ..
            }
        )
        && matches!(w[2].kind, Bin { op: BinOp::Add, .. })
        && matches!(w[3].kind, Cmp { op: CmpOp::UGt, .. })
        && matches!(w[4].kind, Load { width: 4, .. })
        && matches!(w[5].kind, Cmp { op: CmpOp::ULt, .. })
        && matches!(w[6].kind, Bin { op: BinOp::Or, .. })
        && matches!(w[7].kind, Br { .. })
}

/// Selects superinstruction headers over one block's lowered ops. Returns
/// `(op, ip)` pairs, where `ip` is the op's architectural instruction
/// index; headers share the `ip` of their first constituent (they are
/// transparent to the architectural state).
fn fuse_block(ops: &[Op]) -> Vec<(Op, u32)> {
    // A header: uncounted and uncharged itself.
    let header = |kind| Op { kind, cyc: 0 };
    let n = ops.len();
    let mut out = Vec::with_capacity(n + n / 4);
    let mut i = 0usize;
    while i < n {
        // The sgxbounds check sequence fuses whole, bound load and trap
        // branch included: one dispatch per check.
        if i + 8 <= n && is_sbcheck(&ops[i..i + 8]) {
            let cyc_pre: u64 = ops[i..i + 4]
                .iter()
                .map(|o| fusable(o).expect("pre-load check ops are pure"))
                .sum();
            let cyc_post: u64 = ops[i + 5..i + 7]
                .iter()
                .map(|o| fusable(o).expect("post-load check ops are pure"))
                .sum::<u64>()
                + ops[i + 4].cyc
                + ops[i + 7].cyc;
            out.push((header(OpKind::SbCheck { cyc_pre, cyc_post }), i as u32));
            for (k, op) in ops[i..i + 8].iter().enumerate() {
                out.push((op.clone(), (i + k) as u32));
            }
            i += 8;
            continue;
        }
        // Maximal run of trap-free register-only ops starting here.
        let mut j = i;
        let mut run_cyc = 0u64;
        while j < n {
            match fusable(&ops[j]) {
                Some(c) => {
                    run_cyc += c;
                    j += 1;
                }
                None => break,
            }
        }
        let len = (j - i) as u32;
        if len == 0 {
            out.push((ops[i].clone(), i as u32));
            i += 1;
            continue;
        }
        // Absorb the op the run feeds into when it is a memory access or
        // branch: address/condition computation and its consumer become
        // one dispatch. A lone pure op is only worth a header when it
        // absorbs something.
        let absorbing = ops.get(j).and_then(|op| match op.kind {
            OpKind::Load { .. } => Some(OpKind::FusedLoad { len, cyc: run_cyc }),
            OpKind::Store { .. } => Some(OpKind::FusedStore { len, cyc: run_cyc }),
            OpKind::Br { .. } => Some(OpKind::FusedBr {
                len,
                cyc: run_cyc + op.cyc,
            }),
            OpKind::Jmp { .. } => Some(OpKind::FusedJmp {
                len,
                cyc: run_cyc + op.cyc,
            }),
            _ => None,
        });
        match absorbing {
            Some(h) => {
                out.push((header(h), i as u32));
                for (k, op) in ops[i..=j].iter().enumerate() {
                    out.push((op.clone(), (i + k) as u32));
                }
                i = j + 1;
            }
            None if len >= 2 => {
                out.push((header(OpKind::Fused { len, cyc: run_cyc }), i as u32));
                for (k, op) in ops[i..j].iter().enumerate() {
                    out.push((op.clone(), (i + k) as u32));
                }
                i = j;
            }
            None => {
                out.push((ops[i].clone(), i as u32));
                i = j;
            }
        }
    }
    out
}

fn lower_inst(
    inst: &Inst,
    global_addr: &dyn Fn(u32) -> u32,
    ic_count: &mut u32,
    pool: &mut Pool,
) -> OpKind {
    match inst {
        Inst::Bin { op, dst, a, b } if op.is_division() => OpKind::DivRem {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::Bin { op, dst, a, b } => OpKind::Bin {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::Cmp { op, dst, a, b } => OpKind::Cmp {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::FBin { op, dst, a, b } => OpKind::FBin {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::FCmp { op, dst, a, b } => OpKind::FCmp {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::Cast { kind, dst, src } => OpKind::Cast {
            kind: *kind,
            dst: dst.0,
            src: pool.src(*src),
        },
        Inst::Select { dst, cond, t, f } => OpKind::Select {
            dst: dst.0,
            cond: pool.src(*cond),
            t: pool.src(*t),
            f: pool.src(*f),
        },
        Inst::Gep {
            dst,
            base,
            index,
            scale,
            disp,
            ..
        } => OpKind::Gep {
            dst: dst.0,
            base: pool.src(*base),
            index: pool.src(*index),
            scale: *scale,
            disp: *disp,
        },
        Inst::Load { dst, addr, ty, .. } => OpKind::Load {
            dst: dst.0,
            addr: pool.src(*addr),
            width: ty.width(),
        },
        Inst::Store { addr, val, ty, .. } => OpKind::Store {
            addr: pool.src(*addr),
            val: pool.src(*val),
            width: ty.width(),
        },
        Inst::AtomicRmw {
            op,
            dst,
            addr,
            val,
            ty,
            ..
        } => OpKind::AtomicRmw {
            op: *op,
            dst: dst.0,
            addr: pool.src(*addr),
            val: pool.src(*val),
            width: ty.width(),
        },
        Inst::AtomicCas {
            dst,
            addr,
            expected,
            new,
            ty,
            ..
        } => OpKind::AtomicCas {
            dst: dst.0,
            addr: pool.src(*addr),
            expected: pool.src(*expected),
            new: pool.src(*new),
            width: ty.width(),
        },
        Inst::ReadLocal { dst, local } => OpKind::ReadLocal {
            dst: dst.0,
            local: local.0,
        },
        Inst::WriteLocal { local, val } => OpKind::WriteLocal {
            local: local.0,
            val: pool.src(*val),
        },
        Inst::SlotAddr { dst, slot } => OpKind::SlotAddr {
            dst: dst.0,
            slot: slot.0,
        },
        Inst::GlobalAddr { dst, global } => OpKind::Addr {
            dst: dst.0,
            imm: global_addr(global.0) as u64,
        },
        Inst::FuncAddr { dst, func } => OpKind::Addr {
            dst: dst.0,
            imm: code_addr(*func),
        },
        Inst::Call { dst, func, args } => OpKind::Call {
            dst: dst.map(|r| r.0),
            func: func.0,
            args: pool.args(args),
        },
        Inst::CallIndirect { dst, target, args } => {
            let ic = *ic_count;
            *ic_count += 1;
            OpKind::CallIndirect {
                dst: dst.map(|r| r.0),
                target: pool.src(*target),
                args: pool.args(args),
                ic,
            }
        }
        Inst::CallIntrinsic {
            dst,
            intrinsic,
            args,
        } => OpKind::CallIntrinsic {
            dst: dst.map(|r| r.0),
            intrinsic: intrinsic.0,
            args: pool.args(args),
        },
        Inst::Site { site, marker } => OpKind::Site {
            site: *site,
            marker: *marker,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::Op;

    /// Carrying its charge leaves the dispatch array's stride where it was.
    #[test]
    fn op_stays_forty_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 40);
    }
}
