#![warn(missing_docs)]

//! `sgxs-resil` — the recovery-and-chaos tier.
//!
//! The paper's §4.2 and §7 argue that SGXBounds' boundless-memory mode buys
//! *availability*: a server that tolerates out-of-bounds accesses keeps
//! serving requests where a fail-stop scheme dies on the first one. This
//! crate turns that claim into a measured experiment:
//!
//! * [`chaos`] — deterministic seed-driven fault schedules: attack
//!   requests plus environmental windows (EPC pressure storms, allocator
//!   failure injection, overlay-cache exhaustion, AEX re-entry storms);
//! * [`serve`] — request-level crash isolation for the per-request server
//!   modules in `sgxs-workloads` (nginx / apache / memcached): one
//!   `vm.run` per request, recovery governed by a
//!   [`PolicySet`], cross-object corruption checked against host-known
//!   canary objects after the run;
//! * [`campaign`] — seeds × scheme/policy matrices with an availability
//!   gate and the `sgxs-chaos-v1` JSON document (driven by `repro chaos`).
//!
//! The recovery policies themselves live in the interpreter
//! ([`sgxs_mir::interp::recovery`]) so they can intercept traps on the
//! scheduler loop's otherwise-terminal path; this crate re-exports them.

pub mod campaign;
pub mod chaos;
pub mod serve;

pub use campaign::{
    run_chaos_campaign, run_chaos_campaign_supervised, run_chaos_seed, CampaignOpts, ChaosCampaign,
    ChaosOutcome, ChaosReport, ComboDelta, ComboRow,
};
pub use chaos::{check_requests, ChaosEvent, ChaosKind, ChaosSchedule, MIN_REQUESTS};
pub use serve::{
    abort_policy, boundless_policy, graceful_policy, retry_policy, serve_tier, serve_traced,
    AvailabilityReport, RScheme, ServerApp,
};
pub use sgxs_mir::{PolicySet, RecoveryPolicy, RecoveryStats, TrapClass};
