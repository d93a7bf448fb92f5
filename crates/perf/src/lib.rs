#![warn(missing_docs)]

//! Benchmark analysis tier for the SGXBounds reproduction.
//!
//! The paper's headline claims are *ratios* (17 % performance / 0.1 %
//! memory overhead for SGXBounds vs 51 %/8.1× ASan and 75 %/1.95× MPX),
//! and bounds-checking comparisons are notoriously noisy and
//! configuration-sensitive. This crate turns the machine-readable
//! snapshots the observability layer emits (`sgxs-bench-v1`,
//! `sgxs-profile-v1`) into a *tracked, statistically gated trajectory*:
//!
//! 1. [`history`] — an append-only run log (`results/history.jsonl`), one
//!    `sgxs-history-v1` record per run: git rev + preset + effort + input
//!    seed wrapping the full bench document. Replicates of the same rev
//!    differ only by seed, which makes the input-sensitivity noise floor
//!    derivable from the repo itself.
//! 2. [`metrics`] — flattening of bench and `sgxs-metrics-v1` documents
//!    into dotted metric paths with a goodness direction per path
//!    (overheads and latencies: lower is better; throughput and attacks
//!    prevented: higher is better).
//! 3. [`stats`] — means, percentile-bootstrap confidence intervals over
//!    replicate sets (seeded by the vendored deterministic `rand`), and
//!    noise-floor estimation from same-rev replicates.
//! 4. [`compare`] — the regression engine: per-metric verdicts
//!    (improved / unchanged / regressed / incomparable) with effect
//!    sizes, an ASCII report, a `sgxs-compare-v1` JSON form, and a gate
//!    decision for CI.
//! 5. [`render`] — `sgxs-profile-v1` renderers (inferno-compatible
//!    folded-stack text, a self-contained SVG flame/treemap view) plus
//!    span-tree timeline views and the SVG heap-neighborhood map of an
//!    `sgxs-incident-v1` document. Text views of the documents are not
//!    here: each has one, beside its declaration in `sgxs-obs`.
//!
//! The crate is pure data-in/data-out: no filesystem or process access.
//! The `repro` binary (`repro bench record` / `repro compare` /
//! `repro render`) does the I/O.

pub mod compare;
pub mod history;
pub mod metrics;
pub mod render;
pub mod stats;

pub use compare::{compare, CompareOpts, CompareReport, MetricCompare, Verdict};
pub use history::{parse_history, HistoryRecord, HISTORY_SCHEMA};
pub use metrics::{flatten, flatten_metrics, Direction, Metric};
pub use render::{incident_svg, span_ascii, span_svg};
pub use stats::{bootstrap_ci, noise_floor, summarize, Summary};
