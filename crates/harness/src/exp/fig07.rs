//! Figure 7: performance and memory overheads of MPX, ASan, and SGXBounds
//! over native SGX on Phoenix + PARSEC (8 threads).

use super::overheads::{self, Overheads};
use super::Effort;
use sgxs_sim::{Mode, Preset};

/// Runs the experiment.
pub fn run(preset: Preset, effort: Effort, seed: u64) -> Overheads {
    let workloads = sgxs_workloads::phoenix_parsec();
    overheads::run(preset, effort, workloads, Mode::Enclave, 8, seed)
}
