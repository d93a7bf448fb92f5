//! The compiled tier's dispatch loop.
//!
//! [`CompiledEngine`] implements [`QuantumEngine`]: it replaces only the
//! reference interpreter's inner instruction loop. Everything that could
//! drift — scheduling, intrinsic dispatch, call-frame construction, return
//! bookkeeping, recovery — is delegated back to the VM through its engine
//! entry points, so both tiers share one implementation of the cold paths;
//! each op's value and the site-marker protocol come from the same
//! `sgxs-mir` definitions the reference calls.
//!
//! Bit-identity invariants replicated here (see DESIGN.md §10):
//!
//! - `stats.instructions` increments *before* an op executes; site markers
//!   are consumed uncounted and uncharged, and only while quantum slots
//!   remain (a marker after the quantum's last counted op waits for the
//!   next quantum, preserving event order across thread interleavings).
//!   The engine accumulates the counter in a register and syncs it before
//!   anything that can observe it — memory accesses (EPC events timestamp
//!   with it), event emission, intrinsics, calls/returns, traps, and
//!   quantum exit — so every observable read sees the exact value.
//! - Each op pays the charge lowering baked from `Inst::cycles` or
//!   `Term::cycles`, the reference's own source, under the same
//!   charge-after-success rule: a trapped op retires in the instruction
//!   counter but charges nothing, and a call pays before its frame push.
//! - On any trap or block, the exact `(block, ip)` of the responsible op is
//!   written back to the frame, so retries and wakeups re-enter exactly
//!   where the reference would.
//! - Fused runs execute only when the whole run fits in the remaining
//!   quantum; otherwise each op runs individually.

use crate::lower::{FuncCode, Op, OpKind};
use sgxs_mir::interp::func_of_code_addr;
use sgxs_mir::{gep_addr, note_site, BinOp, CmpOp, Frame, QuantumEngine, Reg, Trap, Vm};

/// Inline-cache entry for one `CallIndirect` site: the last validated
/// target address and the function index it resolved to. Code addresses
/// are never 0, so 0 marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct IC {
    target: u64,
    func: u32,
}

/// The pre-lowered fast execution tier (built by [`crate::compile`]). On
/// its first quantum it installs its frame constant pools into the VM,
/// live frames included, so it can take over a VM mid-run.
pub struct CompiledEngine {
    funcs: Box<[FuncCode]>,
    /// Per-function parameter count, for indirect-call validation.
    arity: Box<[u32]>,
    ics: Vec<IC>,
    argbuf: Vec<u64>,
    /// Scheduling quantum snapshot.
    quantum: u32,
    /// Whether the VM's frames carry this engine's constant pools.
    pools_installed: bool,
}

impl CompiledEngine {
    pub(crate) fn new(funcs: Vec<FuncCode>, arity: Vec<u32>, ic_count: u32, quantum: u32) -> Self {
        CompiledEngine {
            funcs: funcs.into_boxed_slice(),
            arity: arity.into_boxed_slice(),
            ics: vec![IC { target: 0, func: 0 }; ic_count as usize],
            argbuf: Vec::new(),
            quantum,
            pools_installed: false,
        }
    }

    #[cold]
    #[inline(never)]
    fn install_pools(&mut self, vm: &mut Vm<'_>) {
        vm.set_frame_consts(self.funcs.iter().map(|f| f.consts.clone()).collect());
        self.pools_installed = true;
    }
}

/// `x <op> y` for an [`OpKind::Bin`]. Lowering sends every division to
/// [`OpKind::DivRem`], so a division here is a lowering bug, not a trap.
#[inline(always)]
fn pure_bin(op: BinOp, x: u64, y: u64) -> u64 {
    match op.eval(x, y) {
        Some(v) if !op.is_division() => v,
        _ => unreachable!("division in OpKind::Bin"),
    }
}

/// Executes one trap-free register-only op (a fused-run constituent)
/// without touching counters, through the same shared definitions as the
/// main dispatch.
#[inline(always)]
fn exec_pure(op: &Op, frame: &mut Frame) {
    let regs = &mut frame.regs;
    match &op.kind {
        OpKind::Bin { op, dst, a, b } => {
            regs[*dst as usize] = pure_bin(*op, regs[*a as usize], regs[*b as usize]);
        }
        OpKind::Cmp { op, dst, a, b } => {
            regs[*dst as usize] = op.eval(regs[*a as usize], regs[*b as usize]) as u64;
        }
        OpKind::FBin { op, dst, a, b } => {
            regs[*dst as usize] = op.eval(regs[*a as usize], regs[*b as usize]);
        }
        OpKind::FCmp { op, dst, a, b } => {
            regs[*dst as usize] = op.eval(regs[*a as usize], regs[*b as usize]) as u64;
        }
        OpKind::Cast { kind, dst, src } => {
            regs[*dst as usize] = kind.eval(regs[*src as usize]);
        }
        OpKind::Select { dst, cond, t, f } => {
            let i = if regs[*cond as usize] != 0 { *t } else { *f };
            regs[*dst as usize] = regs[i as usize];
        }
        OpKind::Gep {
            dst,
            base,
            index,
            scale,
            disp,
        } => {
            regs[*dst as usize] =
                gep_addr(regs[*base as usize], regs[*index as usize], *scale, *disp);
        }
        OpKind::ReadLocal { dst, local } => {
            regs[*dst as usize] = frame.locals[*local as usize];
        }
        OpKind::WriteLocal { local, val } => {
            frame.locals[*local as usize] = regs[*val as usize];
        }
        OpKind::SlotAddr { dst, slot } => {
            regs[*dst as usize] = frame.slots[*slot as usize] as u64;
        }
        OpKind::Addr { dst, imm } => {
            regs[*dst as usize] = *imm;
        }
        _ => unreachable!("non-pure op in fused run"),
    }
}

/// What the inner loop hands back to the outer (vm-borrow-free) loop.
enum Pending {
    /// Push a frame for `func`; args are in the scratch buffer, the
    /// caller's ip is already advanced and the call charged.
    Call { func: u32, ret_dst: Option<Reg> },
    /// Run intrinsic `idx`; the frame's ip points *at* the CallIntrinsic op
    /// located at `pc`, which charges on success.
    Intrinsic {
        idx: u32,
        dst: Option<u32>,
        pc: usize,
    },
    /// Pop the frame, returning `val` (the return already charged).
    Ret { val: u64 },
}

impl QuantumEngine for CompiledEngine {
    fn run_quantum(&mut self, vm: &mut Vm<'_>, tid: usize) -> Result<(), Trap> {
        if !self.pools_installed {
            self.install_pools(vm);
        }
        let CompiledEngine {
            funcs,
            arity,
            ics,
            argbuf,
            quantum,
            ..
        } = self;
        let quantum = *quantum;
        let max_insts = vm.config().max_instructions;
        let mut left = quantum;
        'outer: loop {
            if !vm.engine_runnable(tid) {
                return Ok(());
            }
            let (rival_lo, rival_hi) = vm.engine_rival_cycles(tid);
            let hot = vm.engine_hot(tid);
            let machine = hot.machine;
            let frame = hot.frame;
            let cycles = hot.cycles;
            let obs_site = hot.obs_site;
            let core = hot.core;
            let code = &funcs[frame.func];
            let mut pc = code.pc_of(frame.block, frame.ip);
            // Retired ops, branches, and cycle charges accumulated in
            // locals; synced to the machine counters and the thread's cycle
            // clock before anything that can observe them.
            let mut done: u64 = 0;
            let mut brs: u64 = 0;
            let mut cyc_acc: u64 = 0;
            macro_rules! sync {
                () => {{
                    machine.stats.instructions += done;
                    machine.stats.branches += brs;
                    *cycles += cyc_acc;
                    // Dead at return sites, live at continue sites.
                    #[allow(unused_assignments)]
                    {
                        done = 0;
                        brs = 0;
                        cyc_acc = 0;
                    }
                }};
            }
            // Flush the architectural (block, ip) and counters on the way
            // out of the quantum (trap, block, or slots exhausted).
            macro_rules! flush {
                ($pc:expr) => {{
                    let (b, i) = code.loc[$pc];
                    frame.block = b;
                    frame.ip = i;
                    sync!();
                }};
            }
            let pending = loop {
                if left == 0 {
                    // Quantum exhausted. The scheduler round-trip is
                    // unobservable when this thread would be re-picked and
                    // the instruction limit is not hit (see
                    // `Vm::engine_rival_cycles`), so refill in place.
                    sync!();
                    if machine.stats.instructions <= max_insts
                        && *cycles < rival_lo
                        && *cycles <= rival_hi
                    {
                        left = quantum;
                        continue;
                    }
                    let (b, i) = code.loc[pc];
                    frame.block = b;
                    frame.ip = i;
                    return Ok(());
                }
                // One dispatch per iteration: superinstruction headers,
                // site markers, and plain ops are all arms of a single
                // match. `ct!()` retires one instruction (the reference
                // counts before an op executes); headers batch their own
                // counts and `continue`, falling through to per-op
                // stepping of their constituents when the sequence does
                // not fit the remaining quantum.
                macro_rules! ct {
                    () => {{
                        done += 1;
                        left -= 1;
                    }};
                }
                // `cyc` is the op's own charge; header arms rebind it to
                // their run's.
                let Op { kind, cyc } = &code.ops[pc];
                match kind {
                    // Site markers: transparent, consumed outside the
                    // counted stream by the reference's own handler (the
                    // counters are synced first, since events read them).
                    OpKind::Site { site, marker } => {
                        if machine.obs_enabled() {
                            sync!();
                            note_site(machine, obs_site, *cycles, *site, *marker);
                        }
                    }
                    OpKind::Fused { len, cyc } => {
                        if left >= *len {
                            for op in &code.ops[pc + 1..pc + 1 + *len as usize] {
                                exec_pure(op, frame);
                            }
                            done += *len as u64;
                            cyc_acc += cyc;
                            left -= *len;
                            pc += 1 + *len as usize;
                            continue;
                        }
                        // Does not fit: step the constituents one at a time.
                    }
                    OpKind::FusedLoad { len, cyc } => {
                        if left > *len {
                            for op in &code.ops[pc + 1..pc + 1 + *len as usize] {
                                exec_pure(op, frame);
                            }
                            done += *len as u64 + 1;
                            cyc_acc += cyc;
                            left -= *len + 1;
                            let lpc = pc + 1 + *len as usize;
                            let load = &code.ops[lpc];
                            let OpKind::Load { dst, addr, width } = &load.kind else {
                                unreachable!("FusedLoad not followed by a load")
                            };
                            let a = frame.regs[*addr as usize];
                            sync!();
                            match machine.load(core, a, *width) {
                                Ok((v, c)) => {
                                    frame.regs[*dst as usize] = v;
                                    cyc_acc += c + load.cyc;
                                }
                                Err(e) => {
                                    flush!(lpc);
                                    return Err(Trap::Mem(e));
                                }
                            }
                            pc = lpc + 1;
                            continue;
                        }
                    }
                    OpKind::FusedStore { len, cyc } => {
                        if left > *len {
                            for op in &code.ops[pc + 1..pc + 1 + *len as usize] {
                                exec_pure(op, frame);
                            }
                            done += *len as u64 + 1;
                            cyc_acc += cyc;
                            left -= *len + 1;
                            let spc = pc + 1 + *len as usize;
                            let store = &code.ops[spc];
                            let OpKind::Store { addr, val, width } = &store.kind else {
                                unreachable!("FusedStore not followed by a store")
                            };
                            let a = frame.regs[*addr as usize];
                            let v = frame.regs[*val as usize];
                            sync!();
                            match machine.store(core, a, *width, v) {
                                Ok(c) => cyc_acc += c + store.cyc,
                                Err(e) => {
                                    flush!(spc);
                                    return Err(Trap::Mem(e));
                                }
                            }
                            pc = spc + 1;
                            continue;
                        }
                    }
                    OpKind::FusedBr { len, cyc } => {
                        if left > *len {
                            for op in &code.ops[pc + 1..pc + 1 + *len as usize] {
                                exec_pure(op, frame);
                            }
                            done += *len as u64 + 1;
                            brs += 1;
                            cyc_acc += cyc;
                            left -= *len + 1;
                            let OpKind::Br { cond, t, f } = &code.ops[pc + 1 + *len as usize].kind
                            else {
                                unreachable!("FusedBr not followed by a branch")
                            };
                            let c = frame.regs[*cond as usize];
                            pc = (if c != 0 { *t } else { *f }) as usize;
                            continue;
                        }
                    }
                    OpKind::FusedJmp { len, cyc } => {
                        if left > *len {
                            for op in &code.ops[pc + 1..pc + 1 + *len as usize] {
                                exec_pure(op, frame);
                            }
                            done += *len as u64 + 1;
                            cyc_acc += cyc;
                            left -= *len + 1;
                            let OpKind::Jmp { target } = &code.ops[pc + 1 + *len as usize].kind
                            else {
                                unreachable!("FusedJmp not followed by a jump")
                            };
                            pc = *target as usize;
                            continue;
                        }
                    }
                    OpKind::SbCheck { cyc_pre, cyc_post } => {
                        if left >= 8 {
                            // The whole check runs straight-line: the
                            // lowering pattern pinned each constituent's
                            // opcode, so each runs as that constant op
                            // (destructuring only re-checks the shape) and
                            // no per-op dispatch happens. Values are
                            // re-read from the register file between steps,
                            // so operand aliasing behaves exactly as
                            // per-op execution.
                            let (
                                &OpKind::Bin {
                                    dst: d0,
                                    a: a0,
                                    b: b0,
                                    ..
                                },
                                &OpKind::Bin {
                                    dst: d1,
                                    a: a1,
                                    b: b1,
                                    ..
                                },
                                &OpKind::Bin {
                                    dst: d2,
                                    a: a2,
                                    b: b2,
                                    ..
                                },
                                &OpKind::Cmp {
                                    dst: d3,
                                    a: a3,
                                    b: b3,
                                    ..
                                },
                                &OpKind::Load { dst, addr, width },
                                &OpKind::Cmp {
                                    dst: d5,
                                    a: a5,
                                    b: b5,
                                    ..
                                },
                                &OpKind::Bin {
                                    dst: d6,
                                    a: a6,
                                    b: b6,
                                    ..
                                },
                                &OpKind::Br { cond, t, f },
                            ) = (
                                &code.ops[pc + 1].kind,
                                &code.ops[pc + 2].kind,
                                &code.ops[pc + 3].kind,
                                &code.ops[pc + 4].kind,
                                &code.ops[pc + 5].kind,
                                &code.ops[pc + 6].kind,
                                &code.ops[pc + 7].kind,
                                &code.ops[pc + 8].kind,
                            )
                            else {
                                unreachable!("SbCheck constituents out of shape")
                            };
                            let r = &mut frame.regs;
                            // and: lower bound from the tagged pointer.
                            r[d0 as usize] = pure_bin(BinOp::And, r[a0 as usize], r[b0 as usize]);
                            // lshr: upper-bound pointer from the tag.
                            r[d1 as usize] = pure_bin(BinOp::LShr, r[a1 as usize], r[b1 as usize]);
                            // add: end of the access.
                            r[d2 as usize] = pure_bin(BinOp::Add, r[a2 as usize], r[b2 as usize]);
                            // cmp.ugt: past the upper bound?
                            r[d3 as usize] = CmpOp::UGt.eval(r[a3 as usize], r[b3 as usize]) as u64;
                            done += 5;
                            cyc_acc += cyc_pre;
                            left -= 8;
                            // Lower-bound fetch (the one op that can trap;
                            // it retires before executing, like the
                            // reference, and charges only on success).
                            let a = frame.regs[addr as usize];
                            sync!();
                            match machine.load(core, a, width) {
                                Ok((v, c)) => {
                                    frame.regs[dst as usize] = v;
                                    cyc_acc += c;
                                }
                                Err(e) => {
                                    flush!(pc + 5);
                                    return Err(Trap::Mem(e));
                                }
                            }
                            let r = &mut frame.regs;
                            // cmp.ult: before the lower bound?
                            r[d5 as usize] = CmpOp::ULt.eval(r[a5 as usize], r[b5 as usize]) as u64;
                            // or: combined verdict.
                            r[d6 as usize] = pure_bin(BinOp::Or, r[a6 as usize], r[b6 as usize]);
                            done += 3;
                            brs += 1;
                            cyc_acc += cyc_post;
                            let c = frame.regs[cond as usize];
                            pc = (if c != 0 { t } else { f }) as usize;
                            continue;
                        }
                    }
                    OpKind::Bin { op, dst, a, b } => {
                        ct!();
                        let v = pure_bin(*op, frame.regs[*a as usize], frame.regs[*b as usize]);
                        frame.regs[*dst as usize] = v;
                        cyc_acc += cyc;
                    }
                    OpKind::DivRem { op, dst, a, b } => {
                        ct!();
                        let (x, y) = (frame.regs[*a as usize], frame.regs[*b as usize]);
                        let Some(v) = op.eval(x, y) else {
                            flush!(pc);
                            return Err(Trap::DivByZero);
                        };
                        frame.regs[*dst as usize] = v;
                        cyc_acc += cyc;
                    }
                    OpKind::Cmp { op, dst, a, b } => {
                        ct!();
                        let v = op.eval(frame.regs[*a as usize], frame.regs[*b as usize]);
                        frame.regs[*dst as usize] = v as u64;
                        cyc_acc += cyc;
                    }
                    OpKind::FBin { op, dst, a, b } => {
                        ct!();
                        let v = op.eval(frame.regs[*a as usize], frame.regs[*b as usize]);
                        frame.regs[*dst as usize] = v;
                        cyc_acc += cyc;
                    }
                    OpKind::FCmp { op, dst, a, b } => {
                        ct!();
                        let v = op.eval(frame.regs[*a as usize], frame.regs[*b as usize]);
                        frame.regs[*dst as usize] = v as u64;
                        cyc_acc += cyc;
                    }
                    OpKind::Cast { kind, dst, src } => {
                        ct!();
                        frame.regs[*dst as usize] = kind.eval(frame.regs[*src as usize]);
                        cyc_acc += cyc;
                    }
                    OpKind::Select { dst, cond, t, f } => {
                        ct!();
                        let c = frame.regs[*cond as usize];
                        let i = if c != 0 { *t } else { *f };
                        frame.regs[*dst as usize] = frame.regs[i as usize];
                        cyc_acc += cyc;
                    }
                    OpKind::Gep {
                        dst,
                        base,
                        index,
                        scale,
                        disp,
                    } => {
                        ct!();
                        let b = frame.regs[*base as usize];
                        let i = frame.regs[*index as usize];
                        frame.regs[*dst as usize] = gep_addr(b, i, *scale, *disp);
                        cyc_acc += cyc;
                    }
                    OpKind::Load { dst, addr, width } => {
                        ct!();
                        let a = frame.regs[*addr as usize];
                        sync!();
                        match machine.load(core, a, *width) {
                            Ok((v, c)) => {
                                frame.regs[*dst as usize] = v;
                                cyc_acc += c + cyc;
                            }
                            Err(e) => {
                                flush!(pc);
                                return Err(Trap::Mem(e));
                            }
                        }
                    }
                    OpKind::Store { addr, val, width } => {
                        ct!();
                        let a = frame.regs[*addr as usize];
                        let v = frame.regs[*val as usize];
                        sync!();
                        match machine.store(core, a, *width, v) {
                            Ok(c) => cyc_acc += c + cyc,
                            Err(e) => {
                                flush!(pc);
                                return Err(Trap::Mem(e));
                            }
                        }
                    }
                    OpKind::AtomicRmw {
                        op,
                        dst,
                        addr,
                        val,
                        width,
                    } => {
                        ct!();
                        let a = frame.regs[*addr as usize];
                        let v = frame.regs[*val as usize];
                        sync!();
                        let (old, c1) = match machine.load(core, a, *width) {
                            Ok(r) => r,
                            Err(e) => {
                                flush!(pc);
                                return Err(Trap::Mem(e));
                            }
                        };
                        let c2 = match machine.store(core, a, *width, op.rmw(old, v)) {
                            Ok(c) => c,
                            Err(e) => {
                                flush!(pc);
                                return Err(Trap::Mem(e));
                            }
                        };
                        frame.regs[*dst as usize] = old;
                        cyc_acc += c1 + c2 + cyc;
                    }
                    OpKind::AtomicCas {
                        dst,
                        addr,
                        expected,
                        new,
                        width,
                    } => {
                        ct!();
                        let a = frame.regs[*addr as usize];
                        let exp = frame.regs[*expected as usize];
                        let newv = frame.regs[*new as usize];
                        sync!();
                        let (old, c1) = match machine.load(core, a, *width) {
                            Ok(r) => r,
                            Err(e) => {
                                flush!(pc);
                                return Err(Trap::Mem(e));
                            }
                        };
                        let mut c2 = 0;
                        if old == exp {
                            c2 = match machine.store(core, a, *width, newv) {
                                Ok(c) => c,
                                Err(e) => {
                                    flush!(pc);
                                    return Err(Trap::Mem(e));
                                }
                            };
                        }
                        frame.regs[*dst as usize] = old;
                        cyc_acc += c1 + c2 + cyc;
                    }
                    OpKind::ReadLocal { dst, local } => {
                        ct!();
                        frame.regs[*dst as usize] = frame.locals[*local as usize];
                        cyc_acc += cyc;
                    }
                    OpKind::WriteLocal { local, val } => {
                        ct!();
                        frame.locals[*local as usize] = frame.regs[*val as usize];
                        cyc_acc += cyc;
                    }
                    OpKind::SlotAddr { dst, slot } => {
                        ct!();
                        frame.regs[*dst as usize] = frame.slots[*slot as usize] as u64;
                        cyc_acc += cyc;
                    }
                    OpKind::Addr { dst, imm } => {
                        ct!();
                        frame.regs[*dst as usize] = *imm;
                        cyc_acc += cyc;
                    }
                    OpKind::Call { dst, func, args } => {
                        ct!();
                        argbuf.clear();
                        argbuf.extend(code.args(*args).iter().map(|a| frame.regs[*a as usize]));
                        let (b, i) = code.loc[pc];
                        frame.block = b;
                        frame.ip = i + 1; // Return past the call.
                        cyc_acc += cyc;
                        sync!();
                        break Pending::Call {
                            func: *func,
                            ret_dst: dst.map(Reg),
                        };
                    }
                    OpKind::CallIndirect {
                        dst,
                        target,
                        args,
                        ic,
                    } => {
                        ct!();
                        let t = frame.regs[*target as usize];
                        let slot = &mut ics[*ic as usize];
                        // Inline cache: a hit skips decode and arity
                        // validation (both depend only on the target).
                        let func = if slot.target == t {
                            slot.func
                        } else {
                            let Some(fid) = func_of_code_addr(t, arity.len()) else {
                                flush!(pc);
                                return Err(Trap::BadIndirectCall { target: t });
                            };
                            if arity[fid.0 as usize] != args.len {
                                flush!(pc);
                                return Err(Trap::BadIndirectCall { target: t });
                            }
                            *slot = IC {
                                target: t,
                                func: fid.0,
                            };
                            fid.0
                        };
                        argbuf.clear();
                        argbuf.extend(code.args(*args).iter().map(|a| frame.regs[*a as usize]));
                        let (b, i) = code.loc[pc];
                        frame.block = b;
                        frame.ip = i + 1;
                        cyc_acc += cyc;
                        sync!();
                        break Pending::Call {
                            func,
                            ret_dst: dst.map(Reg),
                        };
                    }
                    OpKind::CallIntrinsic {
                        dst,
                        intrinsic,
                        args,
                    } => {
                        ct!();
                        argbuf.clear();
                        argbuf.extend(code.args(*args).iter().map(|a| frame.regs[*a as usize]));
                        // ip stays *at* the op: a blocked thread retries it
                        // on wake, a retryable trap re-executes it.
                        flush!(pc);
                        break Pending::Intrinsic {
                            idx: *intrinsic,
                            dst: *dst,
                            pc,
                        };
                    }
                    OpKind::Jmp { target } => {
                        ct!();
                        cyc_acc += cyc;
                        pc = *target as usize;
                        continue;
                    }
                    OpKind::Br { cond, t, f } => {
                        ct!();
                        let c = frame.regs[*cond as usize];
                        pc = if c != 0 { *t } else { *f } as usize;
                        brs += 1;
                        cyc_acc += cyc;
                        continue;
                    }
                    OpKind::Ret { val } => {
                        ct!();
                        let v = val.map(|s| frame.regs[s as usize]).unwrap_or(0);
                        // The return pays before its frame pops.
                        cyc_acc += cyc;
                        sync!();
                        break Pending::Ret { val: v };
                    }
                    OpKind::Unreachable => {
                        // Retires like any op (`left` is dead: we trap out).
                        done += 1;
                        flush!(pc);
                        return Err(Trap::Unreachable);
                    }
                }
                pc += 1;
            };
            // Cold paths: delegate to the VM so call/return/intrinsic
            // semantics are shared with the reference tier.
            match pending {
                Pending::Call { func, ret_dst } => {
                    vm.engine_call(tid, func as usize, argbuf, ret_dst)?;
                }
                Pending::Intrinsic { idx, dst, pc } => {
                    let res = vm.engine_intrinsic(tid, idx as usize, argbuf)?;
                    if !vm.engine_runnable(tid) {
                        return Ok(());
                    }
                    let hot = vm.engine_hot(tid);
                    if let (Some(d), Some(v)) = (dst, res) {
                        hot.frame.regs[d as usize] = v;
                    }
                    let code = &funcs[hot.frame.func];
                    *hot.cycles += code.ops[pc].cyc;
                    let (b, i) = code.loc[pc];
                    hot.frame.block = b;
                    hot.frame.ip = i + 1;
                    if vm.engine_exited() {
                        return Ok(());
                    }
                }
                Pending::Ret { val } => {
                    vm.engine_ret(tid, val);
                }
            }
            continue 'outer;
        }
    }
}
