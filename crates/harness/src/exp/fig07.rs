//! Figure 7: performance and memory overheads of MPX, ASan, and SGXBounds
//! over native SGX on Phoenix + PARSEC (8 threads).

use super::overheads::{self, Overheads};
use super::Effort;
use crate::scheme::RunConfig;
use sgxs_sim::Mode;

/// Runs the experiment.
pub fn run(base: &RunConfig, effort: Effort) -> Overheads {
    let workloads = sgxs_workloads::phoenix_parsec();
    overheads::run(base, effort, workloads, Mode::Enclave, 8)
}
