//! Host-speed reference: a fixed kernel timed before every round.
//!
//! On a shared host the same round can run 40 % slower from one minute to
//! the next because of other tenants. The kernel does no work from the
//! repository, so its time moves only with the host; host rates are
//! reported at the kernel's nominal speed, which divides that drift out.

use std::time::Instant;

/// Words in the kernel's table: 16 MB, so part of every walk misses the
/// last-level cache the way the simulator's memory-heavy rounds do.
const WORDS: usize = 1 << 21;

/// Resident bytes the table adds to the process (it is touched on every
/// kernel run, so it stays resident).
pub const TABLE_BYTES: usize = WORDS * 8;

/// Steps per kernel run.
const STEPS: u64 = 1_000_000;

/// Host seconds the kernel takes at nominal speed; rates are scaled to it.
/// (About what it takes on a quiet 2-core x86-64 VM, so normalised and
/// raw rates read alike there.)
pub const NOMINAL_SECS: f64 = 0.013;

/// A seeded random walk of loads, stores and unpredictable branches over
/// the table, shaped like an interpreter's dispatch loop.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        match x >> 61 {
            0..=2 => acc = acc.wrapping_add(table[i]),
            3 => table[i] ^= acc,
            4 => acc = acc.rotate_left(5) ^ x,
            5 => acc = acc.wrapping_mul(x | 1),
            _ => table[(i + 1) & mask] = table[(i + 1) & mask].wrapping_add(1),
        }
    }
    acc
}

/// The kernel's table, allocated and touched once.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    /// Allocates the table and runs the kernel once to touch it.
    pub fn new() -> Reference {
        let mut r = Reference {
            table: vec![1; WORDS],
        };
        r.secs();
        r
    }

    /// Host seconds one kernel run takes now.
    pub fn secs(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(&mut self.table)));
        t.elapsed().as_secs_f64()
    }
}
