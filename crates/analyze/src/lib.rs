#![warn(missing_docs)]

//! `sgxs-analyze` — the flow-sensitive dataflow tier over the mini-MIR.
//!
//! The crate provides, bottom-up:
//!
//! - [`interval`]: an unsigned interval domain whose exact arithmetic
//!   wraps modulo 2^64 like the interpreter (constant underflows stay
//!   precise) and whose range arithmetic is overflow-checked (collapses to
//!   ⊤ instead of wrapping a bound).
//! - [`dataflow`]: a generic forward worklist engine over the MIR CFG with
//!   per-edge refinement and join-count-triggered widening. The client
//!   states keep their per-register and per-local facts in a key-sorted
//!   vector map, joined by one merge walk (`factmap`).
//! - [`prov`]: the value-range + pointer-provenance analysis. Pointers are
//!   `(referent, offset interval, inbounds)`; provenance flows through
//!   blocks, joins, geps, copies, and cross-block locals, and branch
//!   conditions narrow intervals on CFG edges — strictly subsuming the
//!   per-block `sgxs_mir::analysis::safe` facts.
//! - [`opt`]: [`opt::mark_safe_flow`] (flow-sensitive §4.4 safe-access
//!   elision) and [`opt::elide_redundant_checks`] (a must-availability
//!   pass: a check of the same pointer value with ≥ width on every
//!   incoming path makes a later check dead).
//! - [`ipa`]: the interprocedural tier — call graph with SCC condensation
//!   (indirect targets resolved through provenance), and per-function
//!   summaries (return provenance, parameter free/capture effect sets)
//!   computed to fixpoint bottom-up over the condensation, each carrying
//!   the function's facts from the same solve.
//! - [`lint`]: the static OOB lint classifying every access site as
//!   proved-safe / proved-oob / unknown, with check-site-registered
//!   diagnostics, plus (with summaries) proved temporal violations —
//!   use-after-free, double-free, leak. Its verdicts are validated against
//!   the sgxs-fuzz fault-injection ground truth in
//!   `tests/lint_validation.rs` and `tests/temporal_lint.rs`.

pub mod dataflow;
mod factmap;
pub mod interval;
pub mod ipa;
pub mod lint;
pub mod opt;
pub mod prov;

pub use interval::Interval;
pub use ipa::{build_call_graph, summarize, CallGraph, FuncSummary, RetSummary, Summaries};
pub use lint::{lint_module, lint_module_ipa, Finding, LintReport, TemporalFinding};
pub use opt::{
    elide_redundant_checks, elide_redundant_checks_with, mark_safe_flow, mark_safe_flow_with,
};
pub use prov::{
    access_facts, function_facts, AccessFact, Class, FnFacts, Referent, TemporalFact, TemporalKind,
};
