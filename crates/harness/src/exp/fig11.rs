//! Figure 11: SPEC CPU2006 inside the enclave — performance and memory
//! overheads over native SGX. MPX fails astar, mcf, and xalancbmk.

use super::overheads::{self, Overheads};
use super::Effort;
use crate::scheme::RunConfig;
use sgxs_sim::Mode;

/// Runs SPEC (single-threaded) in the enclave.
pub fn run(base: &RunConfig, effort: Effort) -> Overheads {
    let workloads = sgxs_workloads::spec::all();
    Overheads {
        caption: Some("Figure 11: SPEC inside the enclave — overheads over native SGX".into()),
        ..overheads::run(base, effort, workloads, Mode::Enclave, 1)
    }
}
