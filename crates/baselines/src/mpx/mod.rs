//! Intel MPX-style baseline (paper §2.2, §5.2).
//!
//! Bounds live in registers while a pointer stays in registers (`bndmk`,
//! `bndcl`/`bndcu` are cheap ALU work), but every time a **pointer value
//! crosses memory** its bounds must be spilled/filled through a two-level
//! table: a Bounds Directory (BD) indexes on-demand Bounds Tables (BTs).
//! Those table accesses are ordinary memory traffic — which is exactly what
//! kills MPX inside enclaves: pointer-dense programs allocate hundreds of
//! BTs (4 MB each at paper scale), exhausting enclave memory (SQLite,
//! dedup) or thrashing the EPC (memcached).
//!
//! Geometry follows the paper's 32-bit adaptation (§5.2): the BD covers the
//! whole 4 GB space; each BT covers 1 MB of it and is allocated on first
//! `bndstx` into that megabyte. Entries are 32 bytes: lower bound, upper
//! bound, and the stored pointer value for the `bndldx` consistency check —
//! whose failure semantics (mismatched pointer => INIT bounds, i.e. no
//! protection) reproduce both MPX's weak RIPE score and its §4.1
//! multithreading hazard.

pub mod pass;
pub mod tables;

pub use pass::{instrument_mpx_with, MpxReport};
pub use tables::{install_mpx, MpxRuntime, MpxStats, MpxTables};

/// MPX configuration.
#[derive(Debug, Clone, Copy)]
pub struct MpxConfig {
    /// Scale divisor (1 = paper scale). BT size and coverage shrink with
    /// the machine scale so the BT-pressure-to-enclave ratio is preserved.
    pub scale: u64,
}

impl MpxConfig {
    /// Configuration for a machine-scale divisor.
    pub fn for_scale(scale: u64) -> Self {
        MpxConfig { scale }
    }

    /// Address bytes covered by one bounds table (1 MB at paper scale).
    pub fn bt_coverage(&self) -> u32 {
        ((1u64 << 20) / self.scale).max(4096) as u32
    }

    /// Size of one bounds table in bytes (4 MB at paper scale: 32 bytes of
    /// entry per 8 covered bytes).
    pub fn bt_bytes(&self) -> u32 {
        self.bt_coverage() * 4
    }

    /// Size of the bounds directory in bytes.
    ///
    /// Constant 32 KB, the paper's 32-bit adaptation (§5.2: "we were able
    /// to restrict the size of BD to 32KB"). At scaled presets, directory
    /// indices are folded into the region modulo its entry count — only
    /// truth-in-the-`bts`-map matters for correctness; the fold keeps the
    /// directory's cache/EPC footprint proportionate.
    pub fn bd_bytes(&self) -> u64 {
        32 << 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_geometry_matches_section_5_2() {
        let c = MpxConfig::for_scale(1);
        assert_eq!(c.bt_coverage(), 1 << 20);
        assert_eq!(c.bt_bytes(), 4 << 20);
        assert_eq!(c.bd_bytes(), 32 << 10);
    }

    #[test]
    fn scaled_geometry_preserves_bt_to_coverage_ratio() {
        let c = MpxConfig::for_scale(32);
        assert_eq!(c.bt_bytes() / c.bt_coverage(), 4);
        assert_eq!(c.bt_coverage(), 32 << 10);
    }
}
