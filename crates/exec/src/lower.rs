//! Lowering from MIR to the dense opcode arrays executed by the compiled
//! tier.
//!
//! Each function flattens into one contiguous `Box<[Op]>`: every basic
//! block's instructions followed by its terminator (also an [`Op`]), with
//! superinstruction *headers* interleaved by the fusion pass (see below).
//! The reference interpreter's architectural `(block, ip)` coordinates map
//! to pcs through [`FuncCode::pc_of`] (an interned coordinate → pc table)
//! and back through `loc`, which is what makes mid-quantum state handoff
//! (traps, retries, blocked intrinsics) trivially exact.
//!
//! **Superinstruction fusion.** The fusion pass pattern-matches each block
//! and inserts header ops in front of fusable sequences: [`Op::Fused`]
//! before a maximal run of trap-free register-only ops,
//! [`Op::FusedLoad`]/[`Op::FusedStore`]/[`Op::FusedBr`]/[`Op::FusedJmp`]
//! when such a run feeds directly into a memory access or branch (the
//! terminal op is absorbed into the same dispatch), and [`Op::SbCheck`]
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
//! collapse to [`Op::Addr`] immediates (the address layout is fixed at
//! `Vm::new`), per-op cycle charges are baked in from the cost model,
//! intrinsic ids are carried verbatim (their binding to builtins/handlers
//! stays in the VM, shared with the reference tier), and each
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

/// One lowered opcode. Operands are `u32` indexes into the frame's unified
/// value file (`regs ++ consts`). Arithmetic variants carry their cycle
/// charge (`cyc`) pre-computed from the cost model; trapping division is
/// split out of [`Op::Bin`] so everything left in `Bin` is trap-free and
/// fusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
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
        /// Baked cycle charge (`mul` or `alu`).
        cyc: u64,
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
        /// Baked cycle charge (`div`).
        cyc: u64,
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
        /// Baked cycle charge (`fmul`, `fdiv` or `fsimple`).
        cyc: u64,
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
        /// Baked cycle charge.
        cyc: u64,
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
    /// `dst = local` (zero-cycle).
    ReadLocal {
        /// Destination register.
        dst: u32,
        /// Local index.
        local: u32,
    },
    /// `local = val` (zero-cycle).
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
        args: Box<[u32]>,
    },
    /// Indirect call through a code address, with an inline-cache slot.
    CallIndirect {
        /// Register receiving the return value, if any.
        dst: Option<u32>,
        /// Target address operand.
        target: u32,
        /// Argument operands.
        args: Box<[u32]>,
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
        args: Box<[u32]>,
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
    /// Header: `len` pure ops feeding a [`Op::Load`] (all absorbed into
    /// one dispatch; the load's memory cost stays dynamic).
    FusedLoad {
        /// Number of pure ops between the header and the load.
        len: u32,
        /// Baked cycle charge of the pure run (excludes the load).
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`Op::Store`].
    FusedStore {
        /// Number of pure ops between the header and the store.
        len: u32,
        /// Baked cycle charge of the pure run (excludes the store).
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`Op::Br`].
    FusedBr {
        /// Number of pure ops between the header and the branch.
        len: u32,
        /// Baked cycle charge of the run *including* the branch.
        cyc: u64,
    },
    /// Header: `len` pure ops feeding a [`Op::Jmp`].
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
        /// Baked charge of the two compares/or plus the branch after it.
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
}

/// Per-function immediate interner: immediates share constant-pool slots.
struct Pool {
    nregs: u32,
    consts: Vec<u64>,
}

impl Pool {
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

/// Cycle charge of a trap-free register-only op, or `None` if the op can
/// trap, touch memory, transfer control, or emit events — the fusion
/// boundary. The charges are the reference interpreter's (`Bin`, `FBin`
/// and `Cast` carry theirs from the ops' shared `cycles`).
fn fusable(op: &Op, cost: &CostModel) -> Option<u64> {
    match op {
        Op::Bin { cyc, .. } | Op::FBin { cyc, .. } | Op::Cast { cyc, .. } => Some(*cyc),
        Op::Cmp { .. } | Op::Select { .. } => Some(cost.alu),
        Op::FCmp { .. } => Some(cost.fsimple),
        Op::Gep { .. } => Some(cost.gep),
        Op::ReadLocal { .. } | Op::WriteLocal { .. } => Some(0),
        Op::SlotAddr { .. } | Op::Addr { .. } => Some(cost.alu),
        _ => None,
    }
}

/// Lowers one function. `global_addr` maps global indices to their runtime
/// addresses (fixed at `Vm::new`); `ic_count` allocates inline-cache slots
/// across the whole module.
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
    };
    let mut ir_start = Vec::with_capacity(f.blocks.len());
    let mut ir_total = 0u32;
    let mut blocks: Vec<Vec<Op>> = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        ir_start.push(ir_total);
        ir_total += b.insts.len() as u32 + 1;
        let mut ops = Vec::with_capacity(b.insts.len() + 1);
        for inst in &b.insts {
            ops.push(lower_inst(inst, global_addr, cost, ic_count, &mut pool));
        }
        ops.push(match &b.term {
            Term::Jmp(t) => Op::Jmp { target: t.0 },
            Term::Br { cond, t, f: fb } => Op::Br {
                cond: pool.src(*cond),
                t: t.0,
                f: fb.0,
            },
            Term::Ret(v) => Op::Ret {
                val: v.map(|s| pool.src(s)),
            },
            Term::Unreachable => Op::Unreachable,
        });
        blocks.push(ops);
    }

    // Pass B: per-block superinstruction selection. Sequences never span
    // Site markers (their events read intermediate cycle counts) or block
    // boundaries, so a fused sequence with one batched counter update is
    // observationally identical to per-op execution.
    let fused: Vec<Vec<(Op, u32)>> = blocks.iter().map(|ops| fuse_block(ops, cost)).collect();

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
            match &mut op {
                Op::Jmp { target } => *target = block_start[*target as usize],
                Op::Br { t, f, .. } => {
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
    matches!(w[0], Op::Bin { op: BinOp::And, .. })
        && matches!(
            w[1],
            Op::Bin {
                op: BinOp::LShr,
                ..
            }
        )
        && matches!(w[2], Op::Bin { op: BinOp::Add, .. })
        && matches!(w[3], Op::Cmp { op: CmpOp::UGt, .. })
        && matches!(w[4], Op::Load { width: 4, .. })
        && matches!(w[5], Op::Cmp { op: CmpOp::ULt, .. })
        && matches!(w[6], Op::Bin { op: BinOp::Or, .. })
        && matches!(w[7], Op::Br { .. })
}

/// Selects superinstruction headers over one block's lowered ops. Returns
/// `(op, ip)` pairs, where `ip` is the op's architectural instruction
/// index; headers share the `ip` of their first constituent (they are
/// transparent to the architectural state).
fn fuse_block(ops: &[Op], cost: &CostModel) -> Vec<(Op, u32)> {
    let n = ops.len();
    let mut out = Vec::with_capacity(n + n / 4);
    let mut i = 0usize;
    while i < n {
        // The sgxbounds check sequence fuses whole, bound load and trap
        // branch included: one dispatch per check.
        if i + 8 <= n && is_sbcheck(&ops[i..i + 8]) {
            let cyc_pre: u64 = ops[i..i + 4]
                .iter()
                .map(|o| fusable(o, cost).expect("pre-load check ops are pure"))
                .sum();
            let cyc_post: u64 = ops[i + 5..i + 7]
                .iter()
                .map(|o| fusable(o, cost).expect("post-load check ops are pure"))
                .sum::<u64>()
                + cost.branch;
            out.push((Op::SbCheck { cyc_pre, cyc_post }, i as u32));
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
            match fusable(&ops[j], cost) {
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
        let header = match ops.get(j) {
            Some(Op::Load { .. }) => Some(Op::FusedLoad { len, cyc: run_cyc }),
            Some(Op::Store { .. }) => Some(Op::FusedStore { len, cyc: run_cyc }),
            Some(Op::Br { .. }) => Some(Op::FusedBr {
                len,
                cyc: run_cyc + cost.branch,
            }),
            Some(Op::Jmp { .. }) => Some(Op::FusedJmp {
                len,
                cyc: run_cyc + cost.branch,
            }),
            _ => None,
        };
        match header {
            Some(h) => {
                out.push((h, i as u32));
                for (k, op) in ops[i..=j].iter().enumerate() {
                    out.push((op.clone(), (i + k) as u32));
                }
                i = j + 1;
            }
            None if len >= 2 => {
                out.push((Op::Fused { len, cyc: run_cyc }, i as u32));
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
    cost: &CostModel,
    ic_count: &mut u32,
    pool: &mut Pool,
) -> Op {
    match inst {
        Inst::Bin { op, dst, a, b } if op.is_division() => Op::DivRem {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
            cyc: op.cycles(cost),
        },
        Inst::Bin { op, dst, a, b } => Op::Bin {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
            cyc: op.cycles(cost),
        },
        Inst::Cmp { op, dst, a, b } => Op::Cmp {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::FBin { op, dst, a, b } => Op::FBin {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
            cyc: op.cycles(cost),
        },
        Inst::FCmp { op, dst, a, b } => Op::FCmp {
            op: *op,
            dst: dst.0,
            a: pool.src(*a),
            b: pool.src(*b),
        },
        Inst::Cast { kind, dst, src } => Op::Cast {
            kind: *kind,
            dst: dst.0,
            src: pool.src(*src),
            cyc: kind.cycles(cost),
        },
        Inst::Select { dst, cond, t, f } => Op::Select {
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
        } => Op::Gep {
            dst: dst.0,
            base: pool.src(*base),
            index: pool.src(*index),
            scale: *scale,
            disp: *disp,
        },
        Inst::Load { dst, addr, ty, .. } => Op::Load {
            dst: dst.0,
            addr: pool.src(*addr),
            width: ty.width(),
        },
        Inst::Store { addr, val, ty, .. } => Op::Store {
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
        } => Op::AtomicRmw {
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
        } => Op::AtomicCas {
            dst: dst.0,
            addr: pool.src(*addr),
            expected: pool.src(*expected),
            new: pool.src(*new),
            width: ty.width(),
        },
        Inst::ReadLocal { dst, local } => Op::ReadLocal {
            dst: dst.0,
            local: local.0,
        },
        Inst::WriteLocal { local, val } => Op::WriteLocal {
            local: local.0,
            val: pool.src(*val),
        },
        Inst::SlotAddr { dst, slot } => Op::SlotAddr {
            dst: dst.0,
            slot: slot.0,
        },
        Inst::GlobalAddr { dst, global } => Op::Addr {
            dst: dst.0,
            imm: global_addr(global.0) as u64,
        },
        Inst::FuncAddr { dst, func } => Op::Addr {
            dst: dst.0,
            imm: code_addr(*func),
        },
        Inst::Call { dst, func, args } => Op::Call {
            dst: dst.map(|r| r.0),
            func: func.0,
            args: args.iter().map(|a| pool.src(*a)).collect(),
        },
        Inst::CallIndirect { dst, target, args } => {
            let ic = *ic_count;
            *ic_count += 1;
            Op::CallIndirect {
                dst: dst.map(|r| r.0),
                target: pool.src(*target),
                args: args.iter().map(|a| pool.src(*a)).collect(),
                ic,
            }
        }
        Inst::CallIntrinsic {
            dst,
            intrinsic,
            args,
        } => Op::CallIntrinsic {
            dst: dst.map(|r| r.0),
            intrinsic: intrinsic.0,
            args: args.iter().map(|a| pool.src(*a)).collect(),
        },
        Inst::Site { site, marker } => Op::Site {
            site: *site,
            marker: *marker,
        },
    }
}
