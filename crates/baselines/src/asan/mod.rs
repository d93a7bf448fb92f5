//! AddressSanitizer-style baseline (paper §2.2, §5.2).
//!
//! Shadow memory at 1/8 scale with redzones around objects and a quarantine
//! for freed chunks. Inside an enclave the shadow accesses and the inflated
//! footprint are what destroy performance: every program access adds a
//! shadow byte access (more cache lines, more EPC pressure), and the
//! constant shadow reservation plus redzones/quarantine inflate memory by
//! the large factors the paper measures (8.1x on Phoenix/PARSEC).

pub mod pass;
pub mod runtime;

pub use pass::{instrument_asan_with, AsanReport};
pub use runtime::{install_asan, AsanRuntime};

/// Base address of the shadow region.
///
/// `shadow(addr) = SHADOW_BASE + (addr >> 3)`, mapping the 4 GB enclave
/// address space onto 512 MB above the thread stacks — the 32-bit layout
/// the paper switches ASan to for SGX (§5.2).
pub const SHADOW_BASE: u32 = 0xE000_0000;

/// Shadow scale shift (8 application bytes per shadow byte).
pub const SHADOW_SHIFT: u32 = 3;

/// Redzone bytes on each side of heap objects (ASan default minimum).
pub const REDZONE: u32 = 16;

/// Redzone appended to globals and stack slots.
pub const GLOBAL_REDZONE: u32 = 32;

/// Shadow byte marking heap redzones.
pub const POISON_HEAP_RZ: u8 = 0xFA;
/// Shadow byte marking freed (quarantined) memory.
pub const POISON_FREED: u8 = 0xFD;
/// Shadow byte marking global/stack redzones.
pub const POISON_GLOBAL_RZ: u8 = 0xF9;

/// ASan configuration.
#[derive(Debug, Clone, Copy)]
pub struct AsanConfig {
    /// Bytes of shadow to account as reserved at startup. The paper's SGX
    /// port reserves 512 MB (32-bit mode); scaled presets divide this by
    /// the machine-scale factor so the ratio to the enclave is preserved.
    pub shadow_reserve: u64,
    /// Quarantine capacity in bytes (ASan default 256 MB, scaled).
    pub quarantine_bytes: u64,
}

impl AsanConfig {
    /// Configuration for a given machine scale divisor (1 = paper scale).
    pub fn for_scale(scale: u64) -> Self {
        AsanConfig {
            shadow_reserve: (512 << 20) / scale,
            quarantine_bytes: (256 << 20) / scale,
        }
    }
}

/// Shadow address of an application address.
pub fn shadow_of(addr: u32) -> u32 {
    SHADOW_BASE.wrapping_add(addr >> SHADOW_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_mapping_is_one_eighth() {
        assert_eq!(shadow_of(0), SHADOW_BASE);
        assert_eq!(shadow_of(8), SHADOW_BASE + 1);
        assert_eq!(shadow_of(0x1000), SHADOW_BASE + 0x200);
    }

    #[test]
    fn scaled_config_preserves_ratio() {
        let paper = AsanConfig::for_scale(1);
        let mini = AsanConfig::for_scale(32);
        assert_eq!(paper.shadow_reserve, 512 << 20);
        assert_eq!(paper.shadow_reserve / mini.shadow_reserve, 32);
    }
}
