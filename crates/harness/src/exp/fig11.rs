//! Figure 11: SPEC CPU2006 inside the enclave — performance and memory
//! overheads over native SGX. MPX fails astar, mcf, and xalancbmk.

use super::overheads::{self, Overheads};
use super::Effort;
use sgxs_sim::{Mode, Preset};

/// Runs SPEC (single-threaded) in the enclave.
pub fn run(preset: Preset, effort: Effort, seed: u64) -> Overheads {
    let workloads = sgxs_workloads::spec::all();
    Overheads {
        caption: Some("Figure 11: SPEC inside the enclave — overheads over native SGX".into()),
        ..overheads::run(preset, effort, workloads, Mode::Enclave, 1, seed)
    }
}
