//! Fault injector: splices exactly one spatial-safety violation into a safe
//! generated program and records the ground truth.
//!
//! Each [`FaultKind`] models one row of the paper's Table-4-style security
//! evaluation: off-by-N heap overflows and underflows, an intra-object
//! overflow through a narrowed field pointer, libc-wrapper overflows
//! (memcpy/strcpy), and global/stack array overflows.

use crate::gen::{FOp, Obj, Prog, BUF_LEN, STR_SMALL_BYTES};
use rand::prelude::*;

/// The class of spatial violation to plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// 8-byte store starting at the first byte past a heap array (lands in
    /// an ASan redzone).
    HeapOverflow,
    /// 8-byte store 4 slots (32 bytes) past a heap array — beyond typical
    /// redzones.
    HeapOverflowFar,
    /// 8-byte store one slot before a heap array.
    HeapUnderflow,
    /// 8-byte load just past a heap array.
    HeapOobRead,
    /// Byte store past the `buf` field but inside the struct allocation —
    /// only bounds narrowing can see it.
    IntraObject,
    /// `memcpy` whose length exceeds the destination array.
    MemcpyOverflow,
    /// `strcpy` of a staged long string into the 8-byte buffer.
    StrcpyOverflow,
    /// Store one slot past the global array.
    GlobalOverflow,
    /// Store one slot past the stack array.
    StackOverflow,
}

/// Every fault kind, in campaign round-robin order.
pub const ALL_KINDS: [FaultKind; 9] = [
    FaultKind::HeapOverflow,
    FaultKind::HeapOverflowFar,
    FaultKind::HeapUnderflow,
    FaultKind::HeapOobRead,
    FaultKind::IntraObject,
    FaultKind::MemcpyOverflow,
    FaultKind::StrcpyOverflow,
    FaultKind::GlobalOverflow,
    FaultKind::StackOverflow,
];

impl FaultKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::HeapOverflow => "heap-overflow",
            FaultKind::HeapOverflowFar => "heap-overflow-far",
            FaultKind::HeapUnderflow => "heap-underflow",
            FaultKind::HeapOobRead => "heap-oob-read",
            FaultKind::IntraObject => "intra-object",
            FaultKind::MemcpyOverflow => "memcpy-overflow",
            FaultKind::StrcpyOverflow => "strcpy-overflow",
            FaultKind::GlobalOverflow => "global-overflow",
            FaultKind::StackOverflow => "stack-overflow",
        }
    }

    /// The kind campaign seed `seed` injects: [`ALL_KINDS`] in turn.
    pub fn for_seed(seed: u64) -> FaultKind {
        ALL_KINDS[(seed % ALL_KINDS.len() as u64) as usize]
    }
}

/// Ground truth about the planted violation, derived by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truth {
    /// Object whose bounds the fault exceeds.
    pub obj: Obj,
    /// Byte offset (relative to the object base) of the first OOB byte.
    pub off: i64,
    /// OOB bytes accessed.
    pub len: u64,
    /// Whether the fault writes.
    pub write: bool,
    /// Intra-object (in-allocation, out-of-field) overflow.
    pub intra: bool,
}

/// A planted fault: which ops were inserted where, and what they violate.
#[derive(Debug, Clone)]
pub struct Fault {
    /// The violation class.
    pub kind: FaultKind,
    /// Ops spliced into the program, contiguous at `at`.
    pub ops: Vec<FOp>,
    /// Index within `ops` of the op performing the violating access.
    pub victim: usize,
    /// Splice position in the original op list.
    pub at: usize,
    /// Ground truth for the oracle to validate.
    pub truth: Truth,
}

impl Fault {
    /// Absolute index of the violating op in the faulty program.
    pub fn victim_index(&self) -> usize {
        self.at + self.victim
    }
}

/// Splices a `kind` fault into `prog` at an rng-chosen position and returns
/// the faulty program plus ground truth. Deterministic in `(prog, kind,
/// salt)`.
pub fn inject(prog: &Prog, kind: FaultKind, salt: u64) -> (Prog, Fault) {
    let mut rng = SmallRng::seed_from_u64(prog.seed ^ salt.rotate_left(17) ^ 0xFA17_FA17);
    let at = rng.gen_range(0..=prog.ops.len());
    let heap = Obj::Heap(rng.gen_range(0..3u8));
    let slots = |o: Obj| prog.slots(o) as i64;
    let (ops, victim, truth) = match kind {
        FaultKind::HeapOverflow => {
            let s = slots(heap);
            (
                vec![FOp::OobStore {
                    obj: heap,
                    slot_off: s,
                }],
                0,
                Truth {
                    obj: heap,
                    off: s * 8,
                    len: 8,
                    write: true,
                    intra: false,
                },
            )
        }
        FaultKind::HeapOverflowFar => {
            let s = slots(heap) + 4;
            (
                vec![FOp::OobStore {
                    obj: heap,
                    slot_off: s,
                }],
                0,
                Truth {
                    obj: heap,
                    off: s * 8,
                    len: 8,
                    write: true,
                    intra: false,
                },
            )
        }
        FaultKind::HeapUnderflow => (
            vec![FOp::OobStore {
                obj: heap,
                slot_off: -1,
            }],
            0,
            Truth {
                obj: heap,
                off: -8,
                len: 8,
                write: true,
                intra: false,
            },
        ),
        FaultKind::HeapOobRead => {
            let s = slots(heap);
            (
                vec![FOp::OobLoad {
                    obj: heap,
                    slot_off: s,
                }],
                0,
                Truth {
                    obj: heap,
                    off: s * 8,
                    len: 8,
                    write: false,
                    intra: false,
                },
            )
        }
        FaultKind::IntraObject => {
            // buf spans [8, 24) of the 32-byte struct; off in [16, 20)
            // stays inside the allocation (bytes 24..28 — the tail field).
            let off = BUF_LEN + rng.gen_range(0..4u32);
            (
                vec![FOp::OobBufStore { off }],
                0,
                Truth {
                    obj: Obj::Struct,
                    off: 8 + off as i64,
                    len: 1,
                    write: true,
                    intra: true,
                },
            )
        }
        FaultKind::MemcpyOverflow => {
            // heap_slots is ascending, so Heap(2) always has enough source
            // bytes for dst + 1 slot.
            let dst = Obj::Heap(0);
            let src = Obj::Heap(2);
            let dst_bytes = prog.bytes(dst);
            let bytes = dst_bytes + 8;
            assert!(bytes <= prog.bytes(src), "source array too small");
            (
                vec![FOp::OobMemcpy { dst, src, bytes }],
                0,
                Truth {
                    obj: dst,
                    off: dst_bytes as i64,
                    len: 8,
                    write: true,
                    intra: false,
                },
            )
        }
        FaultKind::StrcpyOverflow => {
            let len = rng.gen_range(STR_SMALL_BYTES..=13u32);
            (
                vec![FOp::StrFill { len }, FOp::OobStrcpy],
                1,
                Truth {
                    obj: Obj::StrSmall,
                    off: STR_SMALL_BYTES as i64,
                    len: (len + 1 - STR_SMALL_BYTES) as u64,
                    write: true,
                    intra: false,
                },
            )
        }
        FaultKind::GlobalOverflow => {
            let s = slots(Obj::Global);
            (
                vec![FOp::OobStore {
                    obj: Obj::Global,
                    slot_off: s,
                }],
                0,
                Truth {
                    obj: Obj::Global,
                    off: s * 8,
                    len: 8,
                    write: true,
                    intra: false,
                },
            )
        }
        FaultKind::StackOverflow => {
            let s = slots(Obj::Stack);
            (
                vec![FOp::OobStore {
                    obj: Obj::Stack,
                    slot_off: s,
                }],
                0,
                Truth {
                    obj: Obj::Stack,
                    off: s * 8,
                    len: 8,
                    write: true,
                    intra: false,
                },
            )
        }
    };
    let fault = Fault {
        kind,
        ops: ops.clone(),
        victim,
        at,
        truth,
    };
    let mut fprog = prog.clone();
    fprog.ops.splice(at..at, ops);
    (fprog, fault)
}

/// The class of temporal violation to plant. Deliberately NOT part of
/// [`ALL_KINDS`]: spatial campaigns (and the schemes they grade, which
/// detect bounds violations, not lifetime ones) stay unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TemporalFaultKind {
    /// In-bounds load from a heap array after it was freed.
    UseAfterFree,
    /// The same heap array freed twice.
    DoubleFree,
}

/// Every temporal fault kind.
pub const TEMPORAL_KINDS: [TemporalFaultKind; 2] = [
    TemporalFaultKind::UseAfterFree,
    TemporalFaultKind::DoubleFree,
];

impl TemporalFaultKind {
    /// Short label for reports (matches the lint's finding kinds).
    pub fn label(&self) -> &'static str {
        match self {
            TemporalFaultKind::UseAfterFree => "uaf",
            TemporalFaultKind::DoubleFree => "df",
        }
    }
}

/// A planted temporal fault.
#[derive(Debug, Clone)]
pub struct TemporalFault {
    /// The violation class.
    pub kind: TemporalFaultKind,
    /// Heap array index the fault targets.
    pub heap: u8,
    /// Absolute index of the freeing op.
    pub free_at: usize,
    /// Absolute index of the violating op (the post-free access, or the
    /// second free).
    pub victim: usize,
}

/// Splices a temporal fault into `prog` and returns the faulty program
/// plus ground truth. Deterministic in `(prog, kind, salt)`.
///
/// Temporal faults append at the END of the op list: every earlier op
/// keeps its original lifetime assumptions, so the planted free/use pair
/// is the program's only temporal violation. The digest epilogue reads
/// every materialized object and would turn the tail into use-after-free
/// noise, so it is disabled.
pub fn inject_temporal(prog: &Prog, kind: TemporalFaultKind, salt: u64) -> (Prog, TemporalFault) {
    let mut rng = SmallRng::seed_from_u64(prog.seed ^ salt.rotate_left(17) ^ 0x7E4A_7E4A);
    let heap = rng.gen_range(0..3u8);
    let mut fprog = prog.clone();
    fprog.emit_digest = false;
    let free_at = fprog.ops.len();
    fprog.ops.push(FOp::FreeArr { heap });
    match kind {
        TemporalFaultKind::UseAfterFree => fprog.ops.push(FOp::Load {
            obj: Obj::Heap(heap),
            slot: 0,
        }),
        TemporalFaultKind::DoubleFree => fprog.ops.push(FOp::FreeArr { heap }),
    }
    let fault = TemporalFault {
        kind,
        heap,
        free_at,
        victim: free_at + 1,
    };
    (fprog, fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::oracle;

    /// The oracle must agree with every injector ground truth: same victim
    /// op, same object, same first OOB byte — and no violation anywhere
    /// else in the program.
    #[test]
    fn oracle_validates_ground_truth_for_every_kind() {
        for seed in 0..40u64 {
            let prog = generate(seed, 16);
            for kind in ALL_KINDS {
                let (fprog, fault) = inject(&prog, kind, seed);
                let v = oracle::analyze(&fprog)
                    .unwrap_or_else(|| panic!("seed {seed} {kind:?}: oracle saw no violation"));
                assert_eq!(v.op_index, fault.victim_index(), "seed {seed} {kind:?}");
                assert_eq!(v.obj, fault.truth.obj, "seed {seed} {kind:?}");
                assert_eq!(v.off, fault.truth.off, "seed {seed} {kind:?}");
                assert_eq!(v.write, fault.truth.write, "seed {seed} {kind:?}");
                assert_eq!(v.intra, fault.truth.intra, "seed {seed} {kind:?}");
            }
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let prog = generate(9, 16);
        let (a, fa) = inject(&prog, FaultKind::HeapOverflow, 3);
        let (b, fb) = inject(&prog, FaultKind::HeapOverflow, 3);
        assert_eq!(a.ops, b.ops);
        assert_eq!(fa.at, fb.at);
        // A different salt may move the splice point.
        let mut moved = false;
        for salt in 0..32 {
            let (_, f) = inject(&prog, FaultKind::HeapOverflow, salt);
            if f.at != fa.at {
                moved = true;
                break;
            }
        }
        assert!(moved, "salt never moved the splice point");
    }

    #[test]
    fn strcpy_fault_stages_its_own_long_string() {
        let prog = generate(11, 16);
        let (fprog, fault) = inject(&prog, FaultKind::StrcpyOverflow, 0);
        assert_eq!(fault.ops.len(), 2);
        assert!(matches!(fault.ops[0], FOp::StrFill { len } if len >= STR_SMALL_BYTES));
        assert!(matches!(fprog.ops[fault.victim_index()], FOp::OobStrcpy));
    }
}
