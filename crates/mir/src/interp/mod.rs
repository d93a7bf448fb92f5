//! A multithreaded, cost-accounting interpreter for the mini-IR.
//!
//! Threads are simulated with a deterministic discrete-event scheduler: at
//! every step the runnable thread with the smallest cycle count executes one
//! quantum. This approximates parallel execution on the modelled 8-core
//! machine (wall-clock time is the maximum per-thread cycle count), makes
//! every run exactly reproducible, and still exhibits the interleavings that
//! matter for the paper — e.g. the §4.1 demonstration that MPX-style
//! disjoint metadata desynchronizes from its pointer under concurrent
//! updates, while an SGXBounds tagged pointer cannot (tag and pointer share
//! one 64-bit word).
//!
//! Intrinsics are the boundary to the host runtime (allocator, libc
//! wrappers, protection-scheme runtimes). Scheduling-sensitive intrinsics
//! (`spawn`, `join`, mutexes, `exit`) are built into the VM; everything else
//! is a registered handler operating on [`Machine`] + [`Env`].

pub mod env;
pub mod recovery;
pub mod trap;

pub use env::Env;
pub use recovery::{PolicySet, RecoveryPolicy, RecoveryStats, TrapClass};
pub use trap::{AccessKind, Trap};

use recovery::{RecoveryAction, RecoveryCtl};

use crate::ir::{gep_addr, FuncId, Inst, Module, Operand, Reg, SiteMarker, Term};
use sgxs_sim::obs::Event;
use sgxs_sim::{Machine, MachineConfig, Stats};
use std::collections::HashMap;

/// Base address where globals are laid out.
pub const GLOBALS_BASE: u32 = 0x0001_0000;
/// Base of the synthetic code-address region used by [`Inst::FuncAddr`].
pub const CODE_BASE: u64 = 0xF100_0000;
/// Spacing between synthetic function addresses.
pub const CODE_STRIDE: u64 = 16;
/// Default top of the thread-stack region (stacks grow down from here).
pub const STACK_TOP: u32 = 0xE000_0000;

/// Returns the synthetic code address of a function.
pub fn code_addr(f: FuncId) -> u64 {
    CODE_BASE + f.0 as u64 * CODE_STRIDE
}

/// Maps a code address back to a function index, if it is one.
pub fn func_of_code_addr(addr: u64, nfuncs: usize) -> Option<FuncId> {
    if addr < CODE_BASE || !(addr - CODE_BASE).is_multiple_of(CODE_STRIDE) {
        return None;
    }
    let idx = (addr - CODE_BASE) / CODE_STRIDE;
    (idx < nfuncs as u64).then_some(FuncId(idx as u32))
}

/// VM configuration.
#[derive(Clone, Copy)]
pub struct VmConfig {
    /// Machine (caches, EPC, cost model).
    pub machine: MachineConfig,
    /// Hard cap on total executed instructions.
    pub max_instructions: u64,
    /// Instructions per scheduling quantum.
    pub quantum: u32,
    /// Per-thread stack size in bytes.
    pub stack_size: u32,
    /// Maximum number of threads (including main).
    pub max_threads: usize,
}

impl VmConfig {
    /// Reasonable defaults on top of a machine configuration.
    pub fn new(machine: MachineConfig) -> Self {
        VmConfig {
            machine,
            max_instructions: 2_000_000_000,
            quantum: 64,
            stack_size: 256 << 10,
            max_threads: 64,
        }
    }
}

/// Context passed to intrinsic handlers.
pub struct IntrinsicCtx<'a> {
    /// The machine (memory + caches + counters).
    pub machine: &'a mut Machine,
    /// Shared runtime state bag.
    pub env: &'a mut Env,
    /// Core of the calling thread.
    pub core: usize,
    /// Cycles the handler has charged so far (added to the calling thread).
    pub cycles: u64,
    /// Captured program output lines.
    pub output: &'a mut Vec<String>,
}

impl IntrinsicCtx<'_> {
    /// Charged load on behalf of the program.
    pub fn load(&mut self, addr: u64, len: u8) -> Result<u64, Trap> {
        let (v, c) = self.machine.load(self.core, addr, len).map_err(Trap::Mem)?;
        self.cycles += c;
        Ok(v)
    }

    /// Charged store on behalf of the program.
    pub fn store(&mut self, addr: u64, len: u8, val: u64) -> Result<(), Trap> {
        let c = self
            .machine
            .store(self.core, addr, len, val)
            .map_err(Trap::Mem)?;
        self.cycles += c;
        Ok(())
    }

    /// Charges a bulk transfer (one cache access per line).
    pub fn charge_bulk(&mut self, addr: u64, len: u32, is_store: bool) -> Result<(), Trap> {
        let c = self
            .machine
            .charge_bulk(self.core, addr, len, is_store)
            .map_err(Trap::Mem)?;
        self.cycles += c;
        Ok(())
    }

    /// Charges flat cycles (ALU work inside the runtime).
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

/// Handler signature for registered intrinsics.
pub type IntrinsicFn = Box<dyn FnMut(&mut IntrinsicCtx<'_>, &[u64]) -> Result<Option<u64>, Trap>>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Builtin {
    Spawn,
    Join,
    ThreadId,
    NCores,
    MutexLock,
    MutexUnlock,
    Exit,
    Abort,
    PrintI64,
}

#[derive(Clone, Copy)]
enum Resolved {
    Builtin(Builtin),
    Handler(usize),
    Unknown,
}

/// One activation record of the interpreted call stack.
///
/// Public so an alternative execution tier (see [`QuantumEngine`]) can read
/// and write the architectural thread state directly; the reference
/// interpreter remains the authority on what each field means.
pub struct Frame {
    /// Index of the executing function in `module.funcs`.
    pub func: usize,
    /// Current basic block.
    pub block: u32,
    /// Instruction index within the block; `insts.len()` addresses the
    /// terminator.
    pub ip: u32,
    /// Virtual registers.
    pub regs: Box<[u64]>,
    /// Function-local variables (zero-cycle access, never addressable).
    pub locals: Box<[u64]>,
    /// Runtime addresses of the function's stack slots.
    pub slots: Box<[u32]>,
    /// Caller register receiving the return value, if any.
    pub ret_dst: Option<Reg>,
    /// Caller stack pointer to restore on return.
    pub saved_sp: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedOnMutex(u64),
    Joining(usize),
    Done,
}

struct Thread {
    frames: Vec<Frame>,
    cycles: u64,
    state: ThreadState,
    core: usize,
    sp: u32,
    stack_limit: u32,
    retval: u64,
    // Check site this thread is inside (site ID, thread cycles at Begin).
    // Only maintained when an enabled recorder is installed.
    obs_site: Option<(u32, u64)>,
}

struct MutexState {
    owner: Option<usize>,
    pending_grant: bool,
    waiters: std::collections::VecDeque<usize>,
}

/// Result of running a module to completion (or failure).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Entry function's return value, or the trap that stopped the program.
    pub result: Result<u64, Trap>,
    /// Simulated wall-clock cycles (max over threads).
    pub wall_cycles: u64,
    /// Summed per-thread cycles (total CPU time; the denominator for
    /// app-vs-instrumentation cycle attribution).
    pub cpu_cycles: u64,
    /// Hardware counters.
    pub stats: Stats,
    /// Peak reserved virtual memory in bytes (the paper's memory metric).
    pub peak_reserved: u64,
    /// Peak committed (touched) memory in bytes.
    pub peak_committed: u64,
    /// Captured output lines.
    pub output: Vec<String>,
}

impl RunOutcome {
    /// Unwraps a successful exit code.
    ///
    /// # Panics
    ///
    /// Panics with the trap message if the program trapped.
    pub fn expect_ok(&self) -> u64 {
        match &self.result {
            Ok(v) => *v,
            Err(t) => panic!("program trapped: {t}"),
        }
    }
}

/// Handles a transparent [`Inst::Site`] marker of a thread whose open
/// check site is `open` and whose cycle count is `cycles`: `Begin`
/// snapshots the count and opens a `check` span; `End` emits a
/// `CheckExec` event for the open site (not its own) with the cycles since
/// that site's `Begin`, then closes the span, so those cycles attribute to
/// the still-open span. An `End` with no open site is dropped. Does
/// nothing unless an enabled recorder is installed. Both tiers call this,
/// so `repro profile`'s app-versus-check split has one protocol.
pub fn note_site(
    machine: &mut Machine,
    open: &mut Option<(u32, u64)>,
    cycles: u64,
    site: u32,
    marker: SiteMarker,
) {
    if !machine.obs_enabled() {
        return;
    }
    match marker {
        SiteMarker::Begin => {
            *open = Some((site, cycles));
            if machine.spans_enabled() {
                machine.emit(Event::SpanBegin {
                    name: "check",
                    arg: site as u64,
                });
            }
        }
        SiteMarker::End => {
            if let Some((begin_site, at)) = open.take() {
                machine.emit(Event::CheckExec {
                    site: begin_site,
                    cycles: cycles.saturating_sub(at),
                });
                if machine.spans_enabled() {
                    machine.emit(Event::SpanEnd { name: "check" });
                }
            }
        }
    }
}

/// An alternative per-quantum execution strategy for the VM.
///
/// The scheduler, recovery loop, intrinsic handlers, and machine model stay
/// in the VM; an engine only replaces the instruction-dispatch inner loop
/// ([`Vm::interpret_quantum`]'s job): run up to `quantum` counted
/// instructions of thread `tid`, with semantics, cycle charges, counters,
/// and event ordering bit-identical to the reference interpreter. Every
/// quantum ends with the architectural `(block, ip)` written back, so an
/// engine may hand any quantum to [`Vm::interpret_quantum`] and take the
/// next one back: `sgxs-exec` interprets a module that way until it has
/// run long enough to pay for lowering, then runs it pre-lowered.
/// Installing nothing keeps the reference oracle.
pub trait QuantumEngine {
    /// Executes one scheduling quantum of thread `tid`.
    fn run_quantum(&mut self, vm: &mut Vm<'_>, tid: usize) -> Result<(), Trap>;
}

/// Mutable views of the state an engine touches on every instruction,
/// borrowed disjointly so the hot loop pays no re-indexing per op.
pub struct HotRefs<'a> {
    /// The machine (memory, caches, counters, event recorder).
    pub machine: &'a mut Machine,
    /// The executing thread's top frame.
    pub frame: &'a mut Frame,
    /// The executing thread's cycle counter.
    pub cycles: &'a mut u64,
    /// The thread's open check site, `(site, cycles at Begin)`; engines
    /// hand it to [`note_site`].
    pub obs_site: &'a mut Option<(u32, u64)>,
    /// The core the thread is pinned to (selects the private caches).
    pub core: usize,
}

/// The virtual machine.
pub struct Vm<'m> {
    /// The module being executed.
    pub module: &'m Module,
    /// The machine model.
    pub machine: Machine,
    /// Shared runtime state.
    pub env: Env,
    /// Captured program output.
    pub output: Vec<String>,
    cfg: VmConfig,
    handler_names: Vec<String>,
    handler_fns: Vec<Option<IntrinsicFn>>,
    resolved: Vec<Resolved>,
    globals_addr: Vec<u32>,
    heap_base: u32,
    threads: Vec<Thread>,
    mutexes: HashMap<u64, MutexState>,
    exited: Option<u64>,
    recovery: Option<RecoveryCtl>,
    engine: Option<Box<dyn QuantumEngine>>,
    /// Per-function constant pools appended to `Frame::regs` at frame
    /// construction (installed together with a compiled engine). The
    /// reference tier never reads the appended slots, so frame semantics
    /// are unchanged whether or not pools are installed.
    frame_consts: Option<Box<[Box<[u64]>]>>,
}

impl<'m> Vm<'m> {
    /// Creates a VM for `module`, laying out its globals in memory.
    pub fn new(module: &'m Module, cfg: VmConfig) -> Self {
        let mut machine = Machine::new(cfg.machine);
        let mut addr = GLOBALS_BASE;
        let mut globals_addr = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let align = g.align.max(1);
            addr = (addr + align - 1) & !(align - 1);
            globals_addr.push(addr);
            if !g.init.is_empty() {
                machine.mem.write_bytes(addr, &g.init);
            }
            addr = addr
                .checked_add(g.padded_size.max(1))
                .expect("globals exceed address space");
        }
        let heap_base = (addr + 4095) & !4095;
        // Account globals as reserved program memory.
        machine.mem.reserve((heap_base - GLOBALS_BASE) as u64);
        Vm {
            module,
            machine,
            env: Env::new(),
            output: Vec::new(),
            cfg,
            handler_names: Vec::new(),
            handler_fns: Vec::new(),
            resolved: Vec::new(),
            globals_addr,
            heap_base,
            threads: Vec::new(),
            mutexes: HashMap::new(),
            exited: None,
            recovery: None,
            engine: None,
            frame_consts: None,
        }
    }

    /// Installs an alternative execution engine (e.g. the `sgxs-exec`
    /// compiled tier) that replaces the reference dispatch loop. Everything
    /// else — scheduling, recovery, intrinsics, the machine — is shared.
    pub fn set_engine(&mut self, engine: Box<dyn QuantumEngine>) {
        self.engine = Some(engine);
    }

    /// Installs per-function constant pools that [`Vm`] appends to
    /// `Frame::regs` after the architectural registers when building
    /// frames, and appends each function's pool to every live frame of
    /// that function on every thread (replacing any pool a frame already
    /// carries), so an engine may install them mid-run. A compiled engine
    /// uses the extra slots as pre-interned immediates; the reference
    /// dispatch never indexes past the architectural registers, so
    /// behaviour is identical either way. `consts` must have one entry per
    /// module function.
    pub fn set_frame_consts(&mut self, consts: Vec<Box<[u64]>>) {
        assert_eq!(
            consts.len(),
            self.module.funcs.len(),
            "one constant pool per function"
        );
        for frame in self.threads.iter_mut().flat_map(|t| &mut t.frames) {
            let nregs = self.module.funcs[frame.func].reg_tys.len();
            frame.regs = [&frame.regs[..nregs], &consts[frame.func]].concat().into();
        }
        self.frame_consts = Some(consts.into_boxed_slice());
    }

    /// Whether an alternative engine is installed.
    pub fn engine_installed(&self) -> bool {
        self.engine.is_some()
    }

    /// The VM configuration (quantum length, machine, limits).
    pub fn config(&self) -> &VmConfig {
        &self.cfg
    }

    /// Installs a trap-recovery policy set consulted whenever a trap
    /// reaches the scheduler loop. With no policy installed (or with
    /// [`RecoveryPolicy::Abort`] everywhere, the default) traps propagate
    /// exactly as before; the consultation happens only on the
    /// already-terminal trap path, so the hot path is untouched.
    pub fn set_recovery(&mut self, policies: PolicySet) {
        self.recovery = Some(RecoveryCtl::new(policies));
    }

    /// Recovery-activity counters, cumulative across `run()` calls.
    /// Zero if no policy is installed.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// First heap address (just past the globals), page-aligned.
    pub fn heap_base(&self) -> u32 {
        self.heap_base
    }

    /// Runtime address of a global.
    pub fn global_addr(&self, g: crate::ir::GlobalId) -> u32 {
        self.globals_addr[g.0 as usize]
    }

    /// Registers (or replaces) an intrinsic handler by name.
    pub fn register_intrinsic(
        &mut self,
        name: &str,
        f: impl FnMut(&mut IntrinsicCtx<'_>, &[u64]) -> Result<Option<u64>, Trap> + 'static,
    ) {
        if let Some(i) = self.handler_names.iter().position(|n| n == name) {
            self.handler_fns[i] = Some(Box::new(f));
        } else {
            self.handler_names.push(name.to_owned());
            self.handler_fns.push(Some(Box::new(f)));
        }
    }

    fn resolve_intrinsics(&mut self) {
        self.resolved = self
            .module
            .intrinsics
            .iter()
            .map(|name| match name.as_str() {
                "spawn" => Resolved::Builtin(Builtin::Spawn),
                "join" => Resolved::Builtin(Builtin::Join),
                "thread_id" => Resolved::Builtin(Builtin::ThreadId),
                "ncores" => Resolved::Builtin(Builtin::NCores),
                "mutex_lock" => Resolved::Builtin(Builtin::MutexLock),
                "mutex_unlock" => Resolved::Builtin(Builtin::MutexUnlock),
                "exit" => Resolved::Builtin(Builtin::Exit),
                "abort" => Resolved::Builtin(Builtin::Abort),
                "print_i64" => Resolved::Builtin(Builtin::PrintI64),
                other => match self.handler_names.iter().position(|n| n == other) {
                    Some(i) => Resolved::Handler(i),
                    None => Resolved::Unknown,
                },
            })
            .collect();
    }

    fn make_frame(
        &mut self,
        tid: usize,
        func: usize,
        args: &[u64],
        ret_dst: Option<Reg>,
    ) -> Result<Frame, Trap> {
        let f = &self.module.funcs[func];
        debug_assert_eq!(f.params.len(), args.len(), "arity checked by verifier");
        let consts = self.frame_consts.as_ref().map(|c| &*c[func]).unwrap_or(&[]);
        let mut regs = vec![0u64; f.reg_tys.len() + consts.len()].into_boxed_slice();
        regs[..args.len()].copy_from_slice(args);
        regs[f.reg_tys.len()..].copy_from_slice(consts);
        let locals = vec![0u64; f.locals.len()].into_boxed_slice();
        let t = &mut self.threads[tid];
        let saved_sp = t.sp;
        let mut sp = t.sp;
        let mut slots = Vec::with_capacity(f.slots.len());
        for s in &f.slots {
            let size = s.padded_size.max(1);
            sp = sp.checked_sub(size).ok_or(Trap::StackOverflow)?;
            sp &= !(s.align.max(1) - 1);
            if sp < t.stack_limit {
                return Err(Trap::StackOverflow);
            }
            slots.push(sp);
        }
        t.sp = sp;
        if t.frames.len() >= 4096 {
            return Err(Trap::StackOverflow);
        }
        Ok(Frame {
            func,
            block: 0,
            ip: 0,
            regs,
            locals,
            slots: slots.into_boxed_slice(),
            ret_dst,
            saved_sp,
        })
    }

    fn spawn_thread(&mut self, func: usize, args: &[u64], cycles: u64) -> Result<usize, Trap> {
        if self.threads.len() >= self.cfg.max_threads {
            return Err(Trap::ThreadError("too many threads".into()));
        }
        let tid = self.threads.len();
        let top = STACK_TOP - (tid as u32) * self.cfg.stack_size;
        let limit = top - self.cfg.stack_size + 4096;
        self.machine.mem.reserve(self.cfg.stack_size as u64);
        self.threads.push(Thread {
            frames: Vec::new(),
            cycles,
            state: ThreadState::Runnable,
            core: tid % self.cfg.machine.cores,
            sp: top,
            stack_limit: limit,
            retval: 0,
            obs_site: None,
        });
        let frame = self.make_frame(tid, func, args, None)?;
        self.threads[tid].frames.push(frame);
        Ok(tid)
    }

    /// Runs `entry(args...)` to completion.
    pub fn run(&mut self, entry: &str, args: &[u64]) -> RunOutcome {
        let result = self.run_inner(entry, args);
        let wall = self.threads.iter().map(|t| t.cycles).max().unwrap_or(0);
        let cpu = self.threads.iter().map(|t| t.cycles).sum();
        RunOutcome {
            result,
            wall_cycles: wall,
            cpu_cycles: cpu,
            stats: self.machine.stats,
            peak_reserved: self.machine.mem.peak_reserved(),
            peak_committed: self.machine.mem.peak_committed(),
            output: std::mem::take(&mut self.output),
        }
    }

    fn run_inner(&mut self, entry: &str, args: &[u64]) -> Result<u64, Trap> {
        let Some(fid) = self.module.func_by_name(entry) else {
            return Err(Trap::NoEntry(entry.to_owned()));
        };
        self.resolve_intrinsics();
        self.threads.clear();
        self.mutexes.clear();
        self.exited = None;
        if let Some(ctl) = self.recovery.as_mut() {
            ctl.attempts_this_run = 0;
        }
        self.spawn_thread(fid.0 as usize, args, 0)?;
        loop {
            // Pick the runnable thread with the smallest cycle count.
            let mut best: Option<usize> = None;
            for (i, t) in self.threads.iter().enumerate() {
                if t.state == ThreadState::Runnable
                    && best.is_none_or(|b| t.cycles < self.threads[b].cycles)
                {
                    best = Some(i);
                }
            }
            let Some(tid) = best else {
                if self.threads.iter().all(|t| t.state == ThreadState::Done) {
                    return Ok(self.threads[0].retval);
                }
                return Err(Trap::Deadlock);
            };
            // Dispatch the quantum through the installed engine, if any.
            // The engine is taken out for the call so it can borrow the VM
            // mutably, then put back (engines never call `run`).
            let step = match self.engine.take() {
                Some(mut e) => {
                    let r = e.run_quantum(self, tid);
                    self.engine = Some(e);
                    r
                }
                None => self.interpret_quantum(tid),
            };
            if let Err(trap) = step {
                match self.consult_recovery(&trap, tid) {
                    RecoveryAction::Propagate => return Err(trap),
                    RecoveryAction::ExitDegraded => return Ok(0),
                    RecoveryAction::Retry => {}
                }
            }
            if let Some(code) = self.exited {
                return Ok(code);
            }
            if self.threads[0].state == ThreadState::Done {
                return Ok(self.threads[0].retval);
            }
            if self.machine.stats.instructions > self.cfg.max_instructions {
                return Err(Trap::InstructionLimit);
            }
        }
    }

    /// Consults the installed recovery policy about a trap that reached
    /// the scheduler loop. Cold path: runs at most once per trap, which is
    /// otherwise terminal for the whole run.
    fn consult_recovery(&mut self, trap: &Trap, tid: usize) -> RecoveryAction {
        let Some(ctl) = self.recovery.as_mut() else {
            return RecoveryAction::Propagate;
        };
        let class = TrapClass::of(trap);
        let kind = class.label();
        match ctl.policies.policy_for(class) {
            RecoveryPolicy::Abort => RecoveryAction::Propagate,
            RecoveryPolicy::GracefulExit => {
                ctl.stats.degraded += 1;
                if self.machine.obs_enabled() {
                    self.machine.emit(Event::RecoveryDegraded { kind });
                }
                RecoveryAction::ExitDegraded
            }
            RecoveryPolicy::Boundless => {
                // The boundless runtime absorbs violations before they trap;
                // one that still escapes (e.g. a fail-stop libc wrapper) ends
                // the run degraded-but-clean. Other traps stay fatal.
                if class == TrapClass::Safety {
                    ctl.stats.degraded += 1;
                    if self.machine.obs_enabled() {
                        self.machine.emit(Event::RecoveryDegraded { kind });
                    }
                    RecoveryAction::ExitDegraded
                } else {
                    RecoveryAction::Propagate
                }
            }
            RecoveryPolicy::RetryWithBackoff {
                max_attempts,
                backoff,
            } => {
                if !class.retryable() {
                    return RecoveryAction::Propagate;
                }
                if ctl.attempts_this_run >= max_attempts {
                    ctl.stats.gave_up += 1;
                    let attempts = ctl.attempts_this_run;
                    if self.machine.obs_enabled() {
                        self.machine.emit(Event::RecoveryGaveUp { kind, attempts });
                    }
                    return RecoveryAction::Propagate;
                }
                ctl.attempts_this_run += 1;
                ctl.stats.attempts += 1;
                let attempt = ctl.attempts_this_run;
                // Linear backoff: waiting longer each time models the
                // enclave riding out an environmental pressure spike.
                self.threads[tid].cycles += backoff * attempt as u64;
                if self.machine.obs_enabled() {
                    self.machine.emit(Event::RecoveryAttempt { kind, attempt });
                }
                RecoveryAction::Retry
            }
        }
    }

    // ---- Engine support -------------------------------------------------
    //
    // The accessors below are the complete surface an alternative
    // execution tier needs: the per-instruction hot state, one reference
    // quantum, and entry points into the cold paths (calls, returns,
    // intrinsics) that stay shared with the reference interpreter so their
    // semantics cannot drift between tiers. What each op computes and
    // charges is shared too: the `eval` methods beside the op declarations
    // in `ir`, `Inst::cycles` and `Term::cycles`, `gep_addr`, and
    // [`note_site`] for site markers. An engine owns only its dispatch.

    /// Executes one scheduling quantum of thread `tid` on the reference
    /// interpreter: up to `quantum` counted instructions, leaving the
    /// frame's `(block, ip)` at the next instruction. This is the VM's own
    /// dispatch when no engine is installed, and an engine may run any
    /// quantum through it (the thread must have a frame).
    pub fn interpret_quantum(&mut self, tid: usize) -> Result<(), Trap> {
        let module = self.module;
        for _ in 0..self.cfg.quantum {
            if self.threads[tid].state != ThreadState::Runnable {
                return Ok(());
            }
            let frame = self.threads[tid]
                .frames
                .last()
                .expect("runnable thread has a frame");
            let func = &module.funcs[frame.func];
            let block = &func.blocks[frame.block as usize];
            let mut ip = frame.ip as usize;
            // Site markers are transparent: consume them *outside* the
            // counted instruction stream so they never retire an
            // instruction, charge a cycle, or occupy a quantum slot —
            // instrumented runs keep bit-identical counters and scheduling.
            while let Some(&Inst::Site { site, marker }) = block.insts.get(ip) {
                let t = &mut self.threads[tid];
                note_site(&mut self.machine, &mut t.obs_site, t.cycles, site, marker);
                ip += 1;
                t.frames.last_mut().expect("has frame").ip = ip as u32;
            }
            self.machine.stats.instructions += 1;
            if ip < block.insts.len() {
                // SAFETY-free borrow dance: instructions are read from the
                // immutable module reference, never from self.
                let inst = &block.insts[ip];
                self.exec_inst(tid, inst)?;
            } else {
                let term = &block.term;
                self.exec_term(tid, term)?;
            }
            if self.exited.is_some() {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Borrows the per-instruction hot state of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no frame (engines only run runnable
    /// threads, which always have one).
    pub fn engine_hot(&mut self, tid: usize) -> HotRefs<'_> {
        let t = &mut self.threads[tid];
        HotRefs {
            machine: &mut self.machine,
            frame: t.frames.last_mut().expect("runnable thread has a frame"),
            cycles: &mut t.cycles,
            obs_site: &mut t.obs_site,
            core: t.core,
        }
    }

    /// Whether thread `tid` is runnable (not blocked, joining, or done).
    pub fn engine_runnable(&self, tid: usize) -> bool {
        self.threads[tid].state == ThreadState::Runnable
    }

    /// Whether the program has called the `exit` intrinsic.
    pub fn engine_exited(&self) -> bool {
        self.exited.is_some()
    }

    /// Scheduler-replication bounds for an engine running thread `tid`:
    /// `(lo, hi)` where `lo` is the minimum cycle count among runnable
    /// threads with index `< tid` and `hi` the same for index `> tid`
    /// (`u64::MAX` when the group is empty).
    ///
    /// `run_inner` picks the first runnable thread with the smallest cycle
    /// count between quanta, so it would re-dispatch `tid` exactly when
    /// `tid`'s cycles are `< lo` and `<= hi` (strict against earlier
    /// indices, which win ties). Other threads' cycles and states only
    /// change through `tid`'s own intrinsics/returns while `tid` runs, so
    /// an engine may snapshot these bounds once per dispatch and re-check
    /// them in O(1) at each quantum boundary — skipping the scheduler
    /// round-trip when nothing observable would happen. The same reasoning
    /// pins `exited` and thread 0's done-ness for the duration, leaving
    /// only the instruction limit to re-check against live stats.
    pub fn engine_rival_cycles(&self, tid: usize) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = u64::MAX;
        for (i, t) in self.threads.iter().enumerate() {
            if i != tid && t.state == ThreadState::Runnable {
                if i < tid {
                    lo = lo.min(t.cycles);
                } else {
                    hi = hi.min(t.cycles);
                }
            }
        }
        (lo, hi)
    }

    /// Pushes a frame for a call to `func` (index into `module.funcs`).
    ///
    /// The caller's `ip` must already be advanced past the call and its
    /// `Inst::cycles` charged, exactly as the reference interpreter does
    /// before `make_frame` — a stack overflow then traps with that state
    /// intact.
    pub fn engine_call(
        &mut self,
        tid: usize,
        func: usize,
        args: &[u64],
        ret_dst: Option<Reg>,
    ) -> Result<(), Trap> {
        let new = self.make_frame(tid, func, args, ret_dst)?;
        self.threads[tid].frames.push(new);
        Ok(())
    }

    /// Pops the top frame returning `val`: restores the caller's stack
    /// pointer, writes the caller's return register or — for the last
    /// frame — parks the thread and wakes its joiners. The return's
    /// `Term::cycles` must already be charged, as the reference interpreter
    /// does before it pops.
    pub fn engine_ret(&mut self, tid: usize, val: u64) {
        self.do_ret(tid, val);
    }

    /// Executes intrinsic `intrinsic` (index into `module.intrinsics`) for
    /// thread `tid` — the same builtins and registered handlers the
    /// reference interpreter dispatches to, including scheduling effects
    /// (spawn/join/mutex/exit) and cycle charges. The engine must replicate
    /// the caller protocol: flush `ip` to the `CallIntrinsic` *before* the
    /// call, and advance it only if the thread is still runnable after.
    pub fn engine_intrinsic(
        &mut self,
        tid: usize,
        intrinsic: usize,
        args: &[u64],
    ) -> Result<Option<u64>, Trap> {
        self.exec_intrinsic(tid, intrinsic, args)
    }

    #[inline]
    fn val(frame: &Frame, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => frame.regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    fn exec_inst(&mut self, tid: usize, inst: &Inst) -> Result<(), Trap> {
        // Paid after the arm succeeds: a trapping instruction charges nothing.
        let charge = inst.cycles(&self.cfg.machine.cost);
        // Most instructions only need the top frame; split the borrow.
        macro_rules! frame {
            () => {
                self.threads[tid].frames.last_mut().expect("has frame")
            };
        }
        match inst {
            Inst::Bin { op, dst, a, b } => {
                let f = frame!();
                let v = op.eval(Self::val(f, *a), Self::val(f, *b));
                f.regs[dst.0 as usize] = v.ok_or(Trap::DivByZero)?;
            }
            Inst::Cmp { op, dst, a, b } => {
                let f = frame!();
                f.regs[dst.0 as usize] = op.eval(Self::val(f, *a), Self::val(f, *b)) as u64;
            }
            Inst::FBin { op, dst, a, b } => {
                let f = frame!();
                f.regs[dst.0 as usize] = op.eval(Self::val(f, *a), Self::val(f, *b));
            }
            Inst::FCmp { op, dst, a, b } => {
                let f = frame!();
                f.regs[dst.0 as usize] = op.eval(Self::val(f, *a), Self::val(f, *b)) as u64;
            }
            Inst::Cast { kind, dst, src } => {
                let f = frame!();
                f.regs[dst.0 as usize] = kind.eval(Self::val(f, *src));
            }
            Inst::Select {
                dst,
                cond,
                t,
                f: fo,
            } => {
                let f = frame!();
                let c = Self::val(f, *cond);
                let v = if c != 0 {
                    Self::val(f, *t)
                } else {
                    Self::val(f, *fo)
                };
                f.regs[dst.0 as usize] = v;
            }
            Inst::Gep {
                dst,
                base,
                index,
                scale,
                disp,
                ..
            } => {
                let f = frame!();
                let v = gep_addr(Self::val(f, *base), Self::val(f, *index), *scale, *disp);
                f.regs[dst.0 as usize] = v;
            }
            Inst::Load { dst, addr, ty, .. } => {
                let f = frame!();
                let a = Self::val(f, *addr);
                let core = self.threads[tid].core;
                let (v, c) = self.machine.load(core, a, ty.width()).map_err(Trap::Mem)?;
                let f = frame!();
                f.regs[dst.0 as usize] = v;
                self.threads[tid].cycles += c;
            }
            Inst::Store { addr, val, ty, .. } => {
                let f = frame!();
                let a = Self::val(f, *addr);
                let v = Self::val(f, *val);
                let core = self.threads[tid].core;
                let c = self
                    .machine
                    .store(core, a, ty.width(), v)
                    .map_err(Trap::Mem)?;
                self.threads[tid].cycles += c;
            }
            Inst::AtomicRmw {
                op,
                dst,
                addr,
                val,
                ty,
                ..
            } => {
                let f = frame!();
                let a = Self::val(f, *addr);
                let v = Self::val(f, *val);
                let core = self.threads[tid].core;
                let (old, c1) = self.machine.load(core, a, ty.width()).map_err(Trap::Mem)?;
                let c2 = self
                    .machine
                    .store(core, a, ty.width(), op.rmw(old, v))
                    .map_err(Trap::Mem)?;
                let f = frame!();
                f.regs[dst.0 as usize] = old;
                self.threads[tid].cycles += c1 + c2;
            }
            Inst::AtomicCas {
                dst,
                addr,
                expected,
                new,
                ty,
                ..
            } => {
                let f = frame!();
                let a = Self::val(f, *addr);
                let exp = Self::val(f, *expected);
                let newv = Self::val(f, *new);
                let core = self.threads[tid].core;
                let (old, c1) = self.machine.load(core, a, ty.width()).map_err(Trap::Mem)?;
                let mut c2 = 0;
                if old == exp {
                    c2 = self
                        .machine
                        .store(core, a, ty.width(), newv)
                        .map_err(Trap::Mem)?;
                }
                let f = frame!();
                f.regs[dst.0 as usize] = old;
                self.threads[tid].cycles += c1 + c2;
            }
            Inst::ReadLocal { dst, local } => {
                let f = frame!();
                f.regs[dst.0 as usize] = f.locals[local.0 as usize];
            }
            Inst::WriteLocal { local, val } => {
                let f = frame!();
                let v = Self::val(f, *val);
                f.locals[local.0 as usize] = v;
            }
            Inst::SlotAddr { dst, slot } => {
                let f = frame!();
                f.regs[dst.0 as usize] = f.slots[slot.0 as usize] as u64;
            }
            Inst::GlobalAddr { dst, global } => {
                let a = self.globals_addr[global.0 as usize] as u64;
                let f = frame!();
                f.regs[dst.0 as usize] = a;
            }
            Inst::FuncAddr { dst, func } => {
                let f = frame!();
                f.regs[dst.0 as usize] = code_addr(*func);
            }
            Inst::Call { dst, func, args } => {
                let f = frame!();
                let argv: Vec<u64> = args.iter().map(|a| Self::val(f, *a)).collect();
                f.ip += 1; // Return past the call.
                self.threads[tid].cycles += charge;
                let new = self.make_frame(tid, func.0 as usize, &argv, *dst)?;
                self.threads[tid].frames.push(new);
                return Ok(()); // ip already advanced.
            }
            Inst::CallIndirect { dst, target, args } => {
                let f = frame!();
                let t = Self::val(f, *target);
                let Some(fid) = func_of_code_addr(t, self.module.funcs.len()) else {
                    return Err(Trap::BadIndirectCall { target: t });
                };
                let callee = &self.module.funcs[fid.0 as usize];
                if callee.params.len() != args.len() {
                    return Err(Trap::BadIndirectCall { target: t });
                }
                let f = frame!();
                let argv: Vec<u64> = args.iter().map(|a| Self::val(f, *a)).collect();
                f.ip += 1;
                self.threads[tid].cycles += charge;
                let new = self.make_frame(tid, fid.0 as usize, &argv, *dst)?;
                self.threads[tid].frames.push(new);
                return Ok(());
            }
            Inst::CallIntrinsic {
                dst,
                intrinsic,
                args,
            } => {
                let f = frame!();
                let argv: Vec<u64> = args.iter().map(|a| Self::val(f, *a)).collect();
                let res = self.exec_intrinsic(tid, intrinsic.0 as usize, &argv)?;
                // The intrinsic may have blocked the thread (mutex/join); in
                // that case do not advance ip or charge — retry on wake.
                if self.threads[tid].state != ThreadState::Runnable {
                    return Ok(());
                }
                if let (Some(d), Some(v)) = (dst, res) {
                    frame!().regs[d.0 as usize] = v;
                }
            }
            // Site markers are consumed by `interpret_quantum` before the
            // counted step; reaching one here is an interpreter bug.
            Inst::Site { .. } => unreachable!("site markers never retire"),
        }
        let t = &mut self.threads[tid];
        t.cycles += charge;
        t.frames.last_mut().expect("has frame").ip += 1;
        Ok(())
    }

    fn exec_intrinsic(
        &mut self,
        tid: usize,
        intrinsic: usize,
        args: &[u64],
    ) -> Result<Option<u64>, Trap> {
        let cost = self.cfg.machine.cost;
        match self.resolved[intrinsic] {
            Resolved::Builtin(b) => match b {
                Builtin::Spawn => {
                    let target = *args.first().ok_or_else(|| {
                        Trap::ThreadError("spawn needs a function address".into())
                    })?;
                    let Some(fid) = func_of_code_addr(target, self.module.funcs.len()) else {
                        return Err(Trap::BadIndirectCall { target });
                    };
                    let fargs = &args[1..];
                    if self.module.funcs[fid.0 as usize].params.len() != fargs.len() {
                        return Err(Trap::ThreadError(format!(
                            "spawn of {} with wrong arity",
                            self.module.funcs[fid.0 as usize].name
                        )));
                    }
                    let cycles = self.threads[tid].cycles + 600; // Thread creation cost.
                    let new = self.spawn_thread(fid.0 as usize, fargs, cycles)?;
                    self.threads[tid].cycles += 600;
                    Ok(Some(new as u64))
                }
                Builtin::Join => {
                    let target = *args
                        .first()
                        .ok_or_else(|| Trap::ThreadError("join needs a thread id".into()))?
                        as usize;
                    if target >= self.threads.len() || target == tid {
                        return Err(Trap::ThreadError(format!("bad join target {target}")));
                    }
                    if self.threads[target].state == ThreadState::Done {
                        let c = self.threads[target].cycles;
                        let me = &mut self.threads[tid];
                        me.cycles = me.cycles.max(c);
                        Ok(Some(self.threads[target].retval))
                    } else {
                        self.threads[tid].state = ThreadState::Joining(target);
                        Ok(None)
                    }
                }
                Builtin::ThreadId => Ok(Some(tid as u64)),
                Builtin::NCores => Ok(Some(self.cfg.machine.cores as u64)),
                Builtin::MutexLock => {
                    let addr = *args
                        .first()
                        .ok_or_else(|| Trap::ThreadError("lock needs an address".into()))?;
                    let m = self.mutexes.entry(addr).or_insert(MutexState {
                        owner: None,
                        pending_grant: false,
                        waiters: Default::default(),
                    });
                    match m.owner {
                        None => {
                            m.owner = Some(tid);
                            self.threads[tid].cycles += cost.atomic_extra;
                            Ok(None)
                        }
                        Some(o) if o == tid => {
                            if m.pending_grant {
                                m.pending_grant = false;
                                self.threads[tid].cycles += cost.atomic_extra;
                                Ok(None)
                            } else {
                                Err(Trap::ThreadError("recursive mutex_lock".into()))
                            }
                        }
                        Some(_) => {
                            m.waiters.push_back(tid);
                            self.threads[tid].state = ThreadState::BlockedOnMutex(addr);
                            Ok(None)
                        }
                    }
                }
                Builtin::MutexUnlock => {
                    let addr = *args
                        .first()
                        .ok_or_else(|| Trap::ThreadError("unlock needs an address".into()))?;
                    let release_cycles = self.threads[tid].cycles + cost.atomic_extra;
                    let m = self
                        .mutexes
                        .get_mut(&addr)
                        .filter(|m| m.owner == Some(tid))
                        .ok_or_else(|| Trap::ThreadError("unlock of unowned mutex".into()))?;
                    self.threads[tid].cycles = release_cycles;
                    if let Some(w) = m.waiters.pop_front() {
                        m.owner = Some(w);
                        m.pending_grant = true;
                        let wt = &mut self.threads[w];
                        wt.state = ThreadState::Runnable;
                        wt.cycles = wt.cycles.max(release_cycles);
                    } else {
                        m.owner = None;
                    }
                    Ok(None)
                }
                Builtin::Exit => {
                    self.exited = Some(args.first().copied().unwrap_or(0));
                    Ok(None)
                }
                Builtin::Abort => Err(Trap::Abort("program called abort".into())),
                Builtin::PrintI64 => {
                    let v = args.first().copied().unwrap_or(0);
                    self.output.push((v as i64).to_string());
                    Ok(None)
                }
            },
            Resolved::Handler(h) => {
                let mut f = self.handler_fns[h]
                    .take()
                    .ok_or_else(|| Trap::ThreadError("re-entrant intrinsic handler".into()))?;
                let core = self.threads[tid].core;
                // Let violation handlers attribute failures to the check
                // site the calling thread is inside (if any).
                if self.machine.obs_enabled() {
                    self.machine.cur_site = self.threads[tid].obs_site.map(|(s, _)| s);
                }
                let mut ctx = IntrinsicCtx {
                    machine: &mut self.machine,
                    env: &mut self.env,
                    core,
                    cycles: cost.call,
                    output: &mut self.output,
                };
                let res = f(&mut ctx, args);
                let add = ctx.cycles;
                self.handler_fns[h] = Some(f);
                self.threads[tid].cycles += add;
                res
            }
            Resolved::Unknown => Err(Trap::UnknownIntrinsic(
                self.module.intrinsics[intrinsic].clone(),
            )),
        }
    }

    fn exec_term(&mut self, tid: usize, term: &Term) -> Result<(), Trap> {
        // Only `Unreachable` traps, and it charges nothing; a return pays
        // before its frame pops.
        self.threads[tid].cycles += term.cycles(&self.cfg.machine.cost);
        match term {
            Term::Jmp(b) => {
                let f = self.threads[tid].frames.last_mut().expect("has frame");
                f.block = b.0;
                f.ip = 0;
            }
            Term::Br { cond, t, f: fb } => {
                let f = self.threads[tid].frames.last_mut().expect("has frame");
                let c = Self::val(f, *cond);
                f.block = if c != 0 { t.0 } else { fb.0 };
                f.ip = 0;
                self.machine.stats.branches += 1;
            }
            Term::Ret(v) => {
                let f = self.threads[tid].frames.last().expect("has frame");
                let val = v.map(|o| Self::val(f, o)).unwrap_or(0);
                self.do_ret(tid, val);
            }
            Term::Unreachable => return Err(Trap::Unreachable),
        }
        Ok(())
    }

    fn do_ret(&mut self, tid: usize, val: u64) {
        let frame = self.threads[tid].frames.pop().expect("has frame");
        self.threads[tid].sp = frame.saved_sp;
        match self.threads[tid].frames.last_mut() {
            Some(caller) => {
                if let Some(d) = frame.ret_dst {
                    caller.regs[d.0 as usize] = val;
                }
            }
            None => {
                self.threads[tid].retval = val;
                self.threads[tid].state = ThreadState::Done;
                let done_cycles = self.threads[tid].cycles;
                // Wake joiners.
                for i in 0..self.threads.len() {
                    if self.threads[i].state == ThreadState::Joining(tid) {
                        self.threads[i].state = ThreadState::Runnable;
                        self.threads[i].cycles = self.threads[i].cycles.max(done_cycles);
                    }
                }
            }
        }
    }
}
