#![warn(missing_docs)]

//! Experiment harness: runs every workload under every scheme and
//! regenerates each table and figure of the paper (the reproduction's
//! equivalent of the Fex framework the paper uses, §6.1).
//!
//! The `repro` binary drives the experiments from the command line:
//!
//! ```text
//! repro fig7          # Phoenix+PARSEC overheads (Fig. 7)
//! repro all --quick   # everything, small inputs
//! ```

pub mod audit;
pub mod cli;
pub mod exp;
pub mod lint;
pub mod profile;
pub mod report;
pub mod scheme;
mod selfcheck;

pub use exp::Effort;
pub use profile::{profile_one, ProfileRun};
pub use scheme::{run_one, run_one_obs, Measured, ObsRun, RunConfig, Scheme};
