//! Core IR data structures: modules, functions, blocks, instructions.
//!
//! The IR is a deliberately small subset of what LLVM offers, chosen so the
//! paper's three instrumentation schemes can be expressed as the same kind
//! of rewrite they perform on LLVM IR:
//!
//! - memory is accessed only through [`Inst::Load`]/[`Inst::Store`] (plus
//!   atomics), the points where bounds checks are inserted;
//! - pointer arithmetic is the dedicated [`Inst::Gep`] instruction, the
//!   point where SGXBounds masks the low 32 bits (paper §3.2 "Pointer
//!   arithmetic");
//! - object creation sites are explicit: stack slots, globals, and calls to
//!   allocation intrinsics;
//! - cross-block values live in *locals*, register-allocated scalars with no
//!   memory cost, which keeps the IR phi-free and easy to instrument.

use crate::ty::Ty;
use sgxs_sim::CostModel;

/// Index of a function in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a basic block in a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Virtual register within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// Cross-block mutable scalar slot (register-allocated; no memory traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalId(pub u32);

/// Stack slot within a function (has a runtime address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// Index of a global in a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Index into a module's intrinsic name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntrinsicId(pub u32);

/// An instruction operand: a register or a 64-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(Reg),
    /// Immediate (f64 immediates are bit-cast).
    Imm(u64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Imm(v)
    }
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (traps on zero).
    UDiv,
    /// Signed division (traps on zero).
    SDiv,
    /// Unsigned remainder (traps on zero).
    URem,
    /// Signed remainder (traps on zero).
    SRem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    LShr,
    /// Arithmetic right shift.
    AShr,
}

// Each op's value and cycle charge, defined once beside its declaration
// (`Inst::cycles` and `Term::cycles` below take the arithmetic charges
// from here): both execution tiers call these, so they cannot drift apart.

impl BinOp {
    /// `x <op> y`, or `None` for a division by zero (the VM traps with
    /// [`Trap::DivByZero`](crate::Trap::DivByZero)). Shifts take the
    /// amount modulo 64 and `i64::MIN / -1` wraps.
    #[inline(always)]
    pub fn eval(self, x: u64, y: u64) -> Option<u64> {
        Some(match self {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::UDiv => x.checked_div(y)?,
            BinOp::URem => x.checked_rem(y)?,
            BinOp::SDiv | BinOp::SRem if y == 0 => return None,
            BinOp::SDiv => (x as i64).wrapping_div(y as i64) as u64,
            BinOp::SRem => (x as i64).wrapping_rem(y as i64) as u64,
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::LShr => x.wrapping_shr(y as u32),
            BinOp::AShr => (x as i64).wrapping_shr(y as u32) as u64,
        })
    }

    /// The value an [`Inst::AtomicRmw`] with this op stores over `old`:
    /// add, sub, and, or and xor combine; every other op exchanges.
    #[inline(always)]
    pub fn rmw(self, old: u64, v: u64) -> u64 {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                self.eval(old, v).expect("combining ops never divide")
            }
            _ => v,
        }
    }

    /// Whether the op divides, and so can trap on a zero divisor.
    #[inline(always)]
    pub fn is_division(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }

    /// Cycles one execution charges.
    #[inline(always)]
    pub fn cycles(self, cost: &CostModel) -> u64 {
        match self {
            BinOp::Mul => cost.mul,
            _ if self.is_division() => cost.div,
            _ => cost.alu,
        }
    }
}

/// Integer comparison predicates (result is 0 or 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
}

impl CmpOp {
    /// Whether `x <pred> y` holds.
    #[inline(always)]
    pub fn eval(self, x: u64, y: u64) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::ULt => x < y,
            CmpOp::ULe => x <= y,
            CmpOp::UGt => x > y,
            CmpOp::UGe => x >= y,
            CmpOp::SLt => (x as i64) < y as i64,
            CmpOp::SLe => (x as i64) <= y as i64,
            CmpOp::SGt => (x as i64) > y as i64,
            CmpOp::SGe => (x as i64) >= y as i64,
        }
    }
}

/// Floating-point binary operations (operands are bit-cast f64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE minimum.
    Min,
    /// IEEE maximum.
    Max,
}

impl FBinOp {
    /// `x <op> y` on the bit patterns of two f64 values.
    #[inline(always)]
    pub fn eval(self, x: u64, y: u64) -> u64 {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        let v = match self {
            FBinOp::Add => x + y,
            FBinOp::Sub => x - y,
            FBinOp::Mul => x * y,
            FBinOp::Div => x / y,
            FBinOp::Min => x.min(y),
            FBinOp::Max => x.max(y),
        };
        v.to_bits()
    }

    /// Cycles one execution charges.
    #[inline(always)]
    pub fn cycles(self, cost: &CostModel) -> u64 {
        match self {
            FBinOp::Mul => cost.fmul,
            FBinOp::Div => cost.fdiv,
            _ => cost.fsimple,
        }
    }
}

/// Floating-point comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FCmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl FCmpOp {
    /// Whether `x <pred> y` holds for the f64 values with these bit
    /// patterns (every predicate but `Ne` is false on a NaN).
    #[inline(always)]
    pub fn eval(self, x: u64, y: u64) -> bool {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        match self {
            FCmpOp::Eq => x == y,
            FCmpOp::Ne => x != y,
            FCmpOp::Lt => x < y,
            FCmpOp::Le => x <= y,
            FCmpOp::Gt => x > y,
            FCmpOp::Ge => x >= y,
        }
    }
}

/// Value conversions. Variant payloads are bit widths.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastKind {
    /// Sign-extend from the given source width in bits (8, 16, or 32).
    Sext(u8),
    /// Zero out all but the low `n` bits.
    Trunc(u8),
    /// Signed integer to f64.
    SiToF,
    /// Unsigned integer to f64.
    UiToF,
    /// f64 to signed integer (round toward zero, saturating).
    FToSi,
    /// Raw bit copy (used for ptr <-> int casts; SGXBounds survives these by
    /// design because the tag travels with the bits, paper §3.2).
    Bitcast,
    /// f64 absolute value.
    FAbs,
    /// f64 square root.
    FSqrt,
}

impl CastKind {
    /// The converted value of `x`. A `Sext` of any other width and a
    /// `Trunc` of 64 bits or more leave `x` unchanged.
    #[inline(always)]
    pub fn eval(self, x: u64) -> u64 {
        match self {
            CastKind::Sext(8) => (x as i8) as i64 as u64,
            CastKind::Sext(16) => (x as i16) as i64 as u64,
            CastKind::Sext(32) => (x as i32) as i64 as u64,
            CastKind::Sext(_) | CastKind::Bitcast => x,
            CastKind::Trunc(n) if n >= 64 => x,
            CastKind::Trunc(n) => x & ((1u64 << n) - 1),
            CastKind::SiToF => ((x as i64) as f64).to_bits(),
            CastKind::UiToF => (x as f64).to_bits(),
            CastKind::FToSi => (f64::from_bits(x) as i64) as u64,
            CastKind::FAbs => f64::from_bits(x).abs().to_bits(),
            CastKind::FSqrt => f64::from_bits(x).sqrt().to_bits(),
        }
    }

    /// Cycles one execution charges.
    #[inline(always)]
    pub fn cycles(self, cost: &CostModel) -> u64 {
        match self {
            CastKind::FSqrt => cost.fdiv,
            CastKind::SiToF | CastKind::UiToF | CastKind::FToSi | CastKind::FAbs => cost.fsimple,
            _ => cost.alu,
        }
    }
}

/// Flags attached to memory accesses, consumed by instrumentation passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessAttrs {
    /// Proven in-bounds by the safe-access analysis (paper §4.4): the
    /// instrumentation pass elides the entire check, keeping only the tag
    /// strip.
    pub safe: bool,
    /// The lower-bound check (and thus the LB memory load) is unnecessary:
    /// the pointer provably moves monotonically upward from the object base
    /// (paper §4.4 "Hoisting checks out of loops").
    pub no_lower: bool,
    /// Set by instrumentation passes on accesses they have already rewritten
    /// (including check-sequence accesses they emit), so a rewriting
    /// worklist never instruments its own output.
    pub lowered: bool,
}

/// One IR instruction.
///
/// Field conventions throughout: `dst` is the destination register, `a`/`b`
/// are operands, `addr` is the accessed address, `ty` the accessed type, and
/// `attrs` the instrumentation flags.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = a <op> b` on 64-bit integers.
    Bin {
        op: BinOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = (a <pred> b) ? 1 : 0`.
    Cmp {
        op: CmpOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = a <op> b` on bit-cast f64.
    FBin {
        op: FBinOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = (a <pred> b) ? 1 : 0` on bit-cast f64.
    FCmp {
        op: FCmpOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// Value conversion.
    Cast {
        kind: CastKind,
        dst: Reg,
        src: Operand,
    },
    /// `dst = cond != 0 ? t : f`.
    Select {
        dst: Reg,
        cond: Operand,
        t: Operand,
        f: Operand,
    },
    /// Pointer arithmetic: `dst = base + index * scale + disp`.
    ///
    /// `inbounds` asserts the builder knows the result stays within the
    /// referent object (e.g. struct-field offsets), enabling safe-access
    /// elision.
    Gep {
        dst: Reg,
        base: Operand,
        index: Operand,
        scale: u32,
        disp: i64,
        inbounds: bool,
    },
    /// `dst = *(ty*)addr` (zero-extended).
    Load {
        dst: Reg,
        addr: Operand,
        ty: Ty,
        attrs: AccessAttrs,
    },
    /// `*(ty*)addr = val`.
    Store {
        addr: Operand,
        val: Operand,
        ty: Ty,
        attrs: AccessAttrs,
    },
    /// Atomic read-modify-write; `dst` receives the old value.
    AtomicRmw {
        op: BinOp,
        dst: Reg,
        addr: Operand,
        val: Operand,
        ty: Ty,
        attrs: AccessAttrs,
    },
    /// Atomic compare-and-swap; `dst` receives the old value.
    AtomicCas {
        dst: Reg,
        addr: Operand,
        expected: Operand,
        new: Operand,
        ty: Ty,
        attrs: AccessAttrs,
    },
    /// `dst = local`.
    ReadLocal { dst: Reg, local: LocalId },
    /// `local = val`.
    WriteLocal { local: LocalId, val: Operand },
    /// `dst = &stack_slot`.
    SlotAddr { dst: Reg, slot: SlotId },
    /// `dst = &global`.
    GlobalAddr { dst: Reg, global: GlobalId },
    /// `dst = &function` (a synthetic code address usable by
    /// [`Inst::CallIndirect`]).
    FuncAddr { dst: Reg, func: FuncId },
    /// Direct call.
    Call {
        dst: Option<Reg>,
        func: FuncId,
        args: Vec<Operand>,
    },
    /// Indirect call through a code address (how RIPE-style control-flow
    /// hijacks are expressed).
    CallIndirect {
        dst: Option<Reg>,
        target: Operand,
        args: Vec<Operand>,
    },
    /// Call into the host runtime (allocator, libc wrappers, scheme
    /// runtimes).
    CallIntrinsic {
        dst: Option<Reg>,
        intrinsic: IntrinsicId,
        args: Vec<Operand>,
    },
    /// Observability marker delimiting an inserted check sequence.
    ///
    /// Markers are *transparent*: the interpreter consumes them outside the
    /// counted instruction stream, so they never retire an instruction,
    /// charge a cycle, or occupy a scheduling-quantum slot. Instrumentation
    /// passes only emit them when site markers are requested, and `site`
    /// indexes [`Module::check_sites`]. [`crate::rewrite`] places them.
    Site { site: u32, marker: SiteMarker },
}

impl Inst {
    /// The fixed cycles one execution charges, paid only once the
    /// instruction has succeeded (a trapping or blocked one charges
    /// nothing) and, for a call, before the callee's frame is pushed. A
    /// memory access adds what the machine prices it at, and an intrinsic
    /// call what its handler charges; a local is a register, and a site
    /// marker retires nothing.
    #[inline(always)]
    pub fn cycles(&self, cost: &CostModel) -> u64 {
        match self {
            Inst::Bin { op, .. } => op.cycles(cost),
            Inst::FBin { op, .. } => op.cycles(cost),
            Inst::Cast { kind, .. } => kind.cycles(cost),
            Inst::Cmp { .. }
            | Inst::Select { .. }
            | Inst::SlotAddr { .. }
            | Inst::GlobalAddr { .. }
            | Inst::FuncAddr { .. } => cost.alu,
            Inst::FCmp { .. } => cost.fsimple,
            Inst::Gep { .. } => cost.gep,
            Inst::AtomicRmw { .. } | Inst::AtomicCas { .. } => cost.atomic_extra,
            Inst::Call { .. } => cost.call,
            Inst::CallIndirect { .. } => cost.call + cost.branch,
            Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::ReadLocal { .. }
            | Inst::WriteLocal { .. }
            | Inst::CallIntrinsic { .. }
            | Inst::Site { .. } => 0,
        }
    }
}

/// The address an [`Inst::Gep`] computes: `base + index * scale + disp`,
/// wrapping.
#[inline(always)]
pub fn gep_addr(base: u64, index: u64, scale: u32, disp: i64) -> u64 {
    base.wrapping_add(index.wrapping_mul(scale as u64))
        .wrapping_add(disp as u64)
}

/// Which end of a check sequence a [`Inst::Site`] marker delimits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteMarker {
    /// First marker: the check sequence starts at the next instruction.
    Begin,
    /// Second marker: the check sequence ended at the previous
    /// instruction. For a check guarding one access, that access is the
    /// next instruction, so its own cycles count as application time.
    End,
}

/// Metadata for one check site inserted by an instrumentation pass.
///
/// Site IDs are indices into [`Module::check_sites`] and are stable for a
/// given module + pass configuration because passes run deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSite {
    /// Function the check was inserted into.
    pub func: String,
    /// Check kind label (e.g. `sb_full`, `sb_safe`, `sb_hoist`, `asan`,
    /// `mpx`).
    pub kind: &'static str,
}

/// Block terminator.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch on `cond != 0`.
    Br {
        cond: Operand,
        t: BlockId,
        f: BlockId,
    },
    /// Function return.
    Ret(Option<Operand>),
    /// Must never execute (traps if reached).
    Unreachable,
}

impl Term {
    /// The fixed cycles one execution charges. A return pays before its
    /// frame pops; `Unreachable` traps and charges nothing.
    #[inline(always)]
    pub fn cycles(&self, cost: &CostModel) -> u64 {
        match self {
            Term::Jmp(_) | Term::Br { .. } => cost.branch,
            Term::Ret(_) => cost.call,
            Term::Unreachable => 0,
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Term,
}

/// A function-local stack allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSlot {
    /// Debug name.
    pub name: String,
    /// Size the program asked for.
    pub size: u32,
    /// Alignment (power of two).
    pub align: u32,
    /// Size actually carved from the stack frame; instrumentation passes
    /// grow this to append metadata (SGXBounds LB, ASan redzones).
    pub padded_size: u32,
}

/// A function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types; parameters occupy registers `0..params.len()`.
    pub params: Vec<Ty>,
    /// Return type, if any.
    pub ret: Option<Ty>,
    /// Type of every virtual register (indexed by [`Reg`]).
    pub reg_tys: Vec<Ty>,
    /// Types of cross-block locals.
    pub locals: Vec<Ty>,
    /// Stack slots.
    pub slots: Vec<StackSlot>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Allocates a fresh register of type `ty`.
    pub fn new_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_tys.len() as u32);
        self.reg_tys.push(ty);
        r
    }

    /// Allocates a fresh local of type `ty`.
    pub fn new_local(&mut self, ty: Ty) -> LocalId {
        let l = LocalId(self.locals.len() as u32);
        self.locals.push(ty);
        l
    }

    /// Total IR instructions (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size the program declared.
    pub size: u32,
    /// Alignment (power of two).
    pub align: u32,
    /// Initializer; shorter than `size` means zero-fill the tail.
    pub init: Vec<u8>,
    /// Size actually laid out; instrumentation passes grow this to append
    /// metadata.
    pub padded_size: u32,
}

/// A compilation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (used in diagnostics and reports).
    pub name: String,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Functions; `main` must exist to run the module.
    pub funcs: Vec<Function>,
    /// Intrinsic name table referenced by [`IntrinsicId`].
    pub intrinsics: Vec<String>,
    /// Name of the hardening scheme applied, if any. Passes set this and
    /// refuse to instrument a module twice.
    pub hardening: Option<&'static str>,
    /// Check-site table filled by instrumentation passes when site markers
    /// are enabled; [`Inst::Site`] markers index into it.
    pub check_sites: Vec<CheckSite>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            globals: Vec::new(),
            funcs: Vec::new(),
            intrinsics: Vec::new(),
            hardening: None,
            check_sites: Vec::new(),
        }
    }

    /// Registers a check site and returns its stable ID.
    pub fn add_check_site(&mut self, func: impl Into<String>, kind: &'static str) -> u32 {
        let id = self.check_sites.len() as u32;
        self.check_sites.push(CheckSite {
            func: func.into(),
            kind,
        });
        id
    }

    /// Interns an intrinsic name, returning its id.
    pub fn intrinsic(&mut self, name: &str) -> IntrinsicId {
        if let Some(i) = self.intrinsics.iter().position(|n| n == name) {
            return IntrinsicId(i as u32);
        }
        self.intrinsics.push(name.to_owned());
        IntrinsicId((self.intrinsics.len() - 1) as u32)
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Total IR instructions across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }
}

/// Iterates over the operands of an instruction (used by analyses).
pub fn operands(inst: &Inst) -> Vec<Operand> {
    match inst {
        Inst::Bin { a, b, .. }
        | Inst::Cmp { a, b, .. }
        | Inst::FBin { a, b, .. }
        | Inst::FCmp { a, b, .. } => vec![*a, *b],
        Inst::Cast { src, .. } => vec![*src],
        Inst::Select { cond, t, f, .. } => vec![*cond, *t, *f],
        Inst::Gep { base, index, .. } => vec![*base, *index],
        Inst::Load { addr, .. } => vec![*addr],
        Inst::Store { addr, val, .. } => vec![*addr, *val],
        Inst::AtomicRmw { addr, val, .. } => vec![*addr, *val],
        Inst::AtomicCas {
            addr,
            expected,
            new,
            ..
        } => vec![*addr, *expected, *new],
        Inst::ReadLocal { .. }
        | Inst::SlotAddr { .. }
        | Inst::GlobalAddr { .. }
        | Inst::FuncAddr { .. }
        | Inst::Site { .. } => vec![],
        Inst::WriteLocal { val, .. } => vec![*val],
        Inst::Call { args, .. } | Inst::CallIntrinsic { args, .. } => args.clone(),
        Inst::CallIndirect { target, args, .. } => {
            let mut v = vec![*target];
            v.extend_from_slice(args);
            v
        }
    }
}

/// Returns the destination register of an instruction, if any.
pub fn def_of(inst: &Inst) -> Option<Reg> {
    match inst {
        Inst::Bin { dst, .. }
        | Inst::Cmp { dst, .. }
        | Inst::FBin { dst, .. }
        | Inst::FCmp { dst, .. }
        | Inst::Cast { dst, .. }
        | Inst::Select { dst, .. }
        | Inst::Gep { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::AtomicRmw { dst, .. }
        | Inst::AtomicCas { dst, .. }
        | Inst::ReadLocal { dst, .. }
        | Inst::SlotAddr { dst, .. }
        | Inst::GlobalAddr { dst, .. }
        | Inst::FuncAddr { dst, .. } => Some(*dst),
        Inst::Call { dst, .. }
        | Inst::CallIndirect { dst, .. }
        | Inst::CallIntrinsic { dst, .. } => *dst,
        Inst::Store { .. } | Inst::WriteLocal { .. } | Inst::Site { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_interning_dedupes() {
        let mut m = Module::new("t");
        let a = m.intrinsic("malloc");
        let b = m.intrinsic("free");
        let c = m.intrinsic("malloc");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(m.intrinsics.len(), 2);
    }

    #[test]
    fn operand_conversions() {
        let r: Operand = Reg(3).into();
        let i: Operand = 42u64.into();
        assert_eq!(r, Operand::Reg(Reg(3)));
        assert_eq!(i, Operand::Imm(42));
    }

    #[test]
    fn def_and_operands_cover_store() {
        let s = Inst::Store {
            addr: Reg(0).into(),
            val: Operand::Imm(1),
            ty: Ty::I64,
            attrs: AccessAttrs::default(),
        };
        assert_eq!(def_of(&s), None);
        assert_eq!(operands(&s).len(), 2);
    }
}
