//! Figure 12: SPEC outside the enclave (normal, unconstrained execution).
//! The shape inverts: without EPC pressure, SGXBounds' per-access
//! arithmetic costs more than ASan's cached shadow loads (paper §6.7:
//! 55% vs 38%).

use super::overheads::{self, Overheads};
use super::Effort;
use crate::scheme::RunConfig;
use sgxs_sim::Mode;

/// Runs SPEC (single-threaded) in native (non-enclave) mode.
pub fn run(base: &RunConfig, effort: Effort) -> Overheads {
    let workloads = sgxs_workloads::spec::all();
    Overheads {
        caption: Some(
            "Figure 12: SPEC outside the enclave — overheads over native execution".into(),
        ),
        ..overheads::run(base, effort, workloads, Mode::Native, 1)
    }
}
