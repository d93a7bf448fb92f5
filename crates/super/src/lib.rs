#![warn(missing_docs)]

//! Fault-tolerant campaign supervisor for the SGXBounds reproduction
//! stack.
//!
//! Every gate in this repo — fuzz matrices, chaos campaigns, metrics
//! demos — is a loop over deterministic seeds. This crate turns that loop
//! into a supervised, work-stealing pool without changing a single output
//! byte:
//!
//! * [`pool`] — the work-stealing shard pool over `std::thread` (the
//!   workspace is offline: no rayon, no crossbeam), with per-item panic
//!   isolation and a cooperative [`StopFlag`] for graceful stops;
//! * [`supervise`] — the robustness ladder on top: failure taxonomy
//!   ([`SeedFailure`]: panic / budget / transient), the deterministic
//!   instruction-budget watchdog contract, a bounded retry ladder for
//!   transients, quarantine, and explicit coverage accounting;
//! * [`journal`] — the `sgxs-campaign-v1` append-only checkpoint so an
//!   interrupted campaign resumes exactly where it stopped.
//!
//! The determinism contract the whole design hangs on: a campaign's
//! `run_seed` depends only on `(seed, attempt)`, and merges are performed
//! in seed order after the pool drains — so `--workers N` produces
//! byte-identical artifacts for every `N`, and a resumed campaign's
//! artifact is byte-identical to an uninterrupted one. Wall-clock time
//! never feeds a verdict; the watchdog caps retired instructions
//! (`VmConfig::max_instructions`).

pub mod journal;
pub mod pool;
pub mod supervise;

pub use journal::{done_line, fingerprint, quarantined_line, JournalHeader, JournalWriter};
pub use pool::{panic_message, resolve_workers, run_indexed, ItemState, StopFlag};
pub use supervise::{
    supervise, Campaign, CampaignRun, Coverage, Quarantined, Restored, SeedFailure, SuperOpts,
    TaskError, MAX_ATTEMPTS, MAX_WORKERS,
};
