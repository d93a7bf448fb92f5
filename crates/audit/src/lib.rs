#![warn(missing_docs)]

//! Incident forensics for the SGXBounds reproduction stack.
//!
//! When a bounds check fires (or should have fired), the interesting
//! question is never just *that* it fired — it is *which object* the
//! pointer escaped, *how* the pointer was derived, *what lives next door*
//! in the heap, and *what the recovery policy did about it*. The rest of
//! the stack already computes most of those answers (the allocator emits
//! alloc/free events, `analyze::prov` classifies every access, the span
//! stream names the enclosing campaign/request, the shrinker produces a
//! minimal repro); this crate joins them into one deterministic record.
//!
//! Three pieces:
//!
//! 1. [`ObjectLedger`] — an append-only ledger of every heap object the
//!    recorder saw: birth timestamp, base, size (so LB = base and
//!    UB = base + size, exactly the bounds the tagged-pointer checks
//!    enforce), and free timestamp. From the ledger, a *heap
//!    neighborhood*: the K objects nearest a faulting address.
//! 2. [`LedgerRecorder`] — a [`Recorder`] that composes the standard
//!    [`TraceRecorder`] (digest, counters, bounded ring) with the ledger,
//!    a snapshot of the first check failure (including the open span path
//!    at that instant), and the recovery-policy trail.
//! 3. [`assemble`] — joins a finished recorder with what the producer
//!    knows ([`IncidentMeta`]: identity, ground truth, derivation chain,
//!    shrunk repro) into the declared `sgxs-incident-v1` document,
//!    [`IncidentDoc`] (validated by `sgxs_obs::read::parse_incident`, and
//!    rendered by its one text view, `IncidentDoc::render`). The document
//!    is a pure function of simulated state, so it is byte-identical
//!    across execution tiers and reruns.
//!
//! Determinism rules: no wall-clock, no host pointers, no hash-map
//! iteration — every collection is ordered by birth id or event index,
//! and the incident id is an FNV-1a digest of the serialized document
//! itself (computed with the `id` field blanked, so a reader can
//! recompute and verify it).

mod incident;
mod ledger;

pub use incident::{assemble, assemble_with, post_run_fault, IncidentMeta};
pub use ledger::{FaultRecord, LedgerRecorder, ObjectLedger, ObjectRecord, RecoveryTrail};

// Re-exported so downstream forensic runners name the recorder trait and
// the incident document without a separate obs import.
pub use sgxs_obs::read::{IncidentDoc, IncidentFault, IncidentRepro, IncidentTruth};
pub use sgxs_obs::{Recorder, TraceRecorder};

/// Default heap-neighborhood size: the faulting object (when the address
/// resolves to one) plus its nearest neighbors on either side.
pub const NEIGHBOR_K: usize = 5;

/// Default bounded-window size for the incident trace tail — the same
/// 32-event window the differential fuzzer historically rendered.
pub const DEFAULT_TRACE_WINDOW: usize = 32;
