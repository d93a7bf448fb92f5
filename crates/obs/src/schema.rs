//! The artifact documents this repo's producers emit, each declared once
//! with [`document!`](crate::document): the struct's fields are the
//! document's keys in serialized order, and the declaration derives both
//! the writer ([`Field::put`]) and the structural half of the reader
//! ([`Field::take`]). Writers fill these structs (or, for [`Profile`],
//! [`Coverage`] and [`Quarantined`], use them as their own types);
//! [`crate::read`] adds the domain cross-checks and re-exports everything
//! here.

use crate::codec::Field;
use crate::json::Json;

/// Schema tag of bench documents.
pub const BENCH_SCHEMA: &str = "sgxs-bench-v1";

/// Schema tag of profile documents.
pub const PROFILE_SCHEMA: &str = "sgxs-profile-v1";

/// Schema tag of chaos-campaign documents.
pub const CHAOS_SCHEMA: &str = "sgxs-chaos-v1";

/// Schema tag of metrics documents.
pub const METRICS_SCHEMA: &str = "sgxs-metrics-v1";

/// Schema tag of incident documents.
pub const INCIDENT_SCHEMA: &str = "sgxs-incident-v1";

/// Schema tag of differential-fuzz documents.
pub const FUZZ_SCHEMA: &str = "sgxs-fuzz-v1";

/// Schema tag of v1 lint documents.
pub const LINT_SCHEMA: &str = "sgxs-lint-v1";

/// Schema tag of v2 (interprocedural) lint documents.
pub const LINT_SCHEMA_V2: &str = "sgxs-lint-v2";

/// Schema tag of campaign-journal documents.
pub const CAMPAIGN_SCHEMA: &str = "sgxs-campaign-v1";

/// The failure classes a quarantined seed can carry.
pub const FAILURE_CLASSES: [&str; 3] = ["panic", "budget", "transient"];

document! {
    /// An `sgxs-bench-v1` document.
    #[derive(Debug, Clone)]
    pub struct BenchDoc[BENCH_SCHEMA] {
        /// Machine preset the run used (`Tiny` / `Mini` / `Paper`).
        pub preset: String,
        /// Effort level (`Quick` / `Full`).
        pub effort: String,
        /// `(experiment id, payload)` in document order.
        pub experiments: Vec<(String, Json)>,
        /// Host-side facts of a `--timed` run (`tier`, `wall_ms`). Outside
        /// `experiments`, so no comparison ever sees it.
        pub host: Option<Json> = absent,
    }
}

document! {
    /// One row of a per-check-site profile.
    #[derive(Debug, Clone)]
    pub struct SiteRow {
        /// Check-site ID.
        pub site: u32,
        /// Function the check was inserted into.
        pub func: String,
        /// Check kind label (e.g. `sb_full`, `sb_safe`, `asan`).
        pub kind: String,
        /// Completed executions.
        pub execs: u64,
        /// Cycles spent in the check sequence.
        pub cycles: u64,
        /// Violations at this site.
        pub fails: u64,
    }
}

document! {
    /// A profile's split of CPU cycles into application and check cost.
    #[derive(Debug, Clone)]
    pub struct Attribution {
        /// CPU cycles minus check cycles (application cost).
        pub app_cycles: u64,
        /// Cycles attributed to check sequences (instrumentation cost).
        pub check_cycles: u64,
        /// Instrumentation share of CPU cycles, in percent
        /// ([`Profile::check_pct`]).
        pub check_pct: f64,
    }
}

document! {
    /// Allocator counters of a profiled run.
    #[derive(Debug, Clone)]
    pub struct AllocCounts {
        /// Allocations served.
        pub allocs: u64,
        /// Frees served.
        pub frees: u64,
        /// Total bytes allocated.
        pub bytes: u64,
    }
}

document! {
    /// EPC counters of a profiled run.
    #[derive(Debug, Clone)]
    pub struct EpcCounts {
        /// EPC faults seen by the recorder.
        pub faults: u64,
        /// EPC evictions seen by the recorder.
        pub evictions: u64,
    }
}

document! {
    /// The EPC-pressure timeline, one entry per bucket.
    #[derive(Debug, Clone)]
    pub struct Timeline {
        /// Bucket width, in instructions.
        pub bucket_instructions: u64,
        /// EPC faults per bucket.
        pub faults: Vec<u64>,
        /// EPC evictions per bucket.
        pub evictions: Vec<u64>,
    }
}

document! {
    /// Aggregated per-run profile: what `repro profile` prints and
    /// serializes (schema `sgxs-profile-v1`, built by `Profile::build`,
    /// read back by [`crate::read::parse_profile`]).
    #[derive(Debug, Clone)]
    pub struct Profile[PROFILE_SCHEMA] {
        /// Workload name.
        pub workload: String,
        /// Scheme label.
        pub scheme: String,
        /// Simulated wall-clock cycles (max over threads).
        pub wall_cycles: u64,
        /// Summed thread cycles (the attribution denominator).
        pub cpu_cycles: u64,
        /// App-vs-check split of `cpu_cycles`.
        pub attribution: Attribution,
        /// Completed check executions.
        pub check_execs: u64,
        /// Violations recorded.
        pub check_fails: u64,
        /// Allocator counters.
        pub alloc: AllocCounts,
        /// EPC counters.
        pub epc: EpcCounts,
        /// The EPC-pressure timeline.
        pub epc_timeline: Timeline,
        /// Total check sites the pass inserted.
        pub sites_total: usize,
        /// Sites with at least one execution or failure.
        pub sites_active: usize,
        /// Hottest sites, by check cycles, descending (at most `top_n`).
        pub top_sites: Vec<SiteRow>,
        /// Total events recorded.
        pub events: u64,
        /// Hex FNV digest over the full event stream.
        pub digest: String,
    }
}

document! {
    /// One histogram of a metrics document.
    #[derive(Debug, Clone)]
    pub struct MetricsHist {
        /// Metric name (`/`-separated path).
        pub name: String,
        /// Samples recorded.
        pub count: u64,
        /// Saturating sum of all samples.
        pub sum: u64,
        /// Smallest sample (0 when empty).
        pub min: u64,
        /// Largest sample (0 when empty).
        pub max: u64,
        /// Median representative.
        pub p50: u64,
        /// 90th percentile representative.
        pub p90: u64,
        /// 99th percentile representative.
        pub p99: u64,
        /// 99.9th percentile representative.
        pub p999: u64,
        /// Non-empty `(bucket index, count)` pairs, ascending by index.
        pub buckets: Vec<(u64, u64)>,
    }
}

document! {
    /// An `sgxs-metrics-v1` document.
    #[derive(Debug, Clone, Default)]
    pub struct MetricsDoc[METRICS_SCHEMA] {
        /// Named counters, document order (sorted by name at emission).
        pub counters: Vec<(String, u64)>,
        /// Named gauges, document order.
        pub gauges: Vec<(String, u64)>,
        /// Histograms, document order.
        pub hists: Vec<MetricsHist>,
    }
}

impl MetricsDoc {
    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&MetricsHist> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

document! {
    /// One combo row of a chaos-campaign document.
    #[derive(Debug, Clone)]
    pub struct ChaosCombo {
        /// Scheme label.
        pub scheme: String,
        /// Policy label.
        pub policy: String,
        /// Server runs aggregated.
        pub runs: u64,
        /// Requests scheduled.
        pub total: u64,
        /// Served cleanly.
        pub served: u64,
        /// Degraded but answered.
        pub degraded: u64,
        /// Aborted individually.
        pub aborted: u64,
        /// Lost to whole-server death.
        pub lost: u64,
        /// Interpreter retry attempts.
        pub retries: u64,
        /// Runs that ended with corrupted canaries.
        pub corrupted_runs: u64,
        /// Corrupted canary bytes.
        pub corrupted_bytes: u64,
        /// AEX re-entry cycles charged.
        pub aex_cycles: u64,
        /// Answered fraction.
        pub availability: f64,
    }
}

document! {
    /// Explicit coverage accounting of a campaign: every seed in the range
    /// is completed, quarantined, or skipped — nothing is silently
    /// truncated. The block omits resume/stop provenance, so a resumed
    /// campaign's artifact stays byte-identical to an uninterrupted one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Coverage {
        /// Seeds in the campaign range.
        pub seeds: u64,
        /// Seeds that completed (fresh or restored from a journal).
        pub completed: u64,
        /// Seeds quarantined by the failure ladder.
        pub quarantined: u64,
        /// Seeds skipped by a graceful stop.
        pub skipped: u64,
    }
}

document! {
    /// One quarantined seed of a finished campaign.
    #[derive(Debug, Clone)]
    pub struct Quarantined {
        /// The seed.
        pub seed: u64,
        /// Attempts the ladder spent.
        pub attempts: u32,
        /// Failure class, one of [`FAILURE_CLASSES`].
        pub class: String,
        /// Human-readable detail.
        pub detail: String,
    }
}

document! {
    /// The availability gate of a chaos campaign.
    #[derive(Debug, Clone)]
    pub struct ChaosGate {
        /// Whether any gate condition failed.
        pub failed: bool,
        /// Gate failures, human-readable.
        pub failures: Vec<String>,
    }
}

document! {
    /// An `sgxs-chaos-v1` document.
    #[derive(Debug, Clone)]
    pub struct ChaosDoc[CHAOS_SCHEMA] {
        /// Seeds the campaign ran.
        pub seeds: u64,
        /// First seed.
        pub seed0: u64,
        /// Requests per server run.
        pub requests: u64,
        /// Availability gate threshold.
        pub threshold: f64,
        /// One row per scheme × policy combo, campaign order.
        pub combos: Vec<ChaosCombo>,
        /// The embedded `sgxs-metrics-v1` latency block.
        pub latency: MetricsDoc,
        /// Embedded `sgxs-incident-v1` forensic reports for gate-failing
        /// canary corruptions (empty when the campaign saw none).
        pub incidents: Vec<IncidentDoc>,
        /// Coverage ledger over the seed range.
        pub coverage: Coverage,
        /// Quarantined seeds, in seed order.
        pub quarantine: Vec<Quarantined>,
        /// The gate verdict.
        pub gate: ChaosGate,
    }
}

document! {
    /// The faulting access of an incident document.
    #[derive(Debug, Clone)]
    pub struct IncidentFault {
        /// Instruction timestamp (0 for post-run discoveries).
        pub at: u64,
        /// Absolute event index in the forensic run's stream.
        pub index: u64,
        /// Check-site ID, when attributable.
        pub site: Option<u64>,
        /// Raw address as the handler saw it (tagged under sgxbounds).
        pub raw_addr: u64,
        /// Decoded pointer (low 32 bits of `raw_addr`).
        pub ptr: u64,
        /// Decoded upper-bound tag (high 32 bits of `raw_addr`).
        pub tag_ub: u64,
        /// Access size in bytes.
        pub size: u64,
        /// `load` or `store`.
        pub kind: String,
    }
}

document! {
    /// Injected ground truth of an incident, when the producer knew it.
    #[derive(Debug, Clone)]
    pub struct IncidentTruth {
        /// Injected fault-kind label (e.g. `oob-store`).
        pub kind: String,
        /// Debug rendering of the injected victim op.
        pub op: String,
        /// Index of the victim op in the program's op list.
        pub op_index: u64,
    }
}

document! {
    /// One open span at fault time.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanStep {
        /// Span name.
        pub name: String,
        /// Span argument.
        pub arg: u64,
    }
}

document! {
    /// The recovery-policy trail of an incident.
    #[derive(Debug, Clone)]
    pub struct IncidentRecovery {
        /// Retry attempts issued.
        pub attempts: u64,
        /// Traps converted to degraded service.
        pub degraded: u64,
        /// Retry budgets exhausted.
        pub gave_up: u64,
        /// Decision label implied by the counts.
        pub decision: String,
    }
}

document! {
    /// One heap-neighborhood row of an incident document.
    #[derive(Debug, Clone)]
    pub struct IncidentNeighbor {
        /// Birth-order object id.
        pub id: u64,
        /// Lower bound (user base address).
        pub base: u64,
        /// Object size in bytes.
        pub size: u64,
        /// Upper bound (`base + size`).
        pub ub: u64,
        /// Allocation timestamp.
        pub birth_at: u64,
        /// Free timestamp, if the object died.
        pub free_at: Option<u64>,
        /// `contains` / `before` / `after`, relative to the faulting address.
        pub relation: String,
        /// Byte distance from the faulting address (0 iff `contains`).
        pub distance: u64,
    }
}

document! {
    /// The heap ledger summary of an incident.
    #[derive(Debug, Clone)]
    pub struct IncidentHeap {
        /// Objects the ledger observed in total.
        pub objects_total: u64,
        /// Objects still live at end of run.
        pub objects_live: u64,
        /// Heap neighborhood of the faulting address.
        pub neighborhood: Vec<IncidentNeighbor>,
    }
}

document! {
    /// One trace-tail line of an incident.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceLine {
        /// Absolute event index in the forensic run's stream.
        pub index: u64,
        /// Rendered event.
        pub line: String,
    }
}

document! {
    /// The trace tail of an incident's forensic run.
    #[derive(Debug, Clone)]
    pub struct IncidentTrace {
        /// Trace-ring window of the forensic run.
        pub window: u64,
        /// Total events the forensic run recorded.
        pub total: u64,
        /// The tail, oldest first.
        pub events: Vec<TraceLine>,
    }
}

document! {
    /// The shrunk minimal reproducer of an incident.
    #[derive(Debug, Clone)]
    pub struct IncidentRepro {
        /// Instructions the shrunk program executes.
        pub insts: u64,
        /// Debug renderings of the surviving ops, in order.
        pub ops: Vec<String>,
    }
}

document! {
    /// A `sgxs-incident-v1` document.
    #[derive(Debug, Clone)]
    pub struct IncidentDoc[INCIDENT_SCHEMA] {
        /// Content-derived incident id ([`IncidentDoc::content_id`]).
        pub id: String,
        /// Producing surface (`fuzz` / `chaos` / `lint` / `audit`).
        pub origin: String,
        /// Workload label.
        pub workload: String,
        /// Scheme label.
        pub scheme: String,
        /// Execution-tier label.
        pub tier: String,
        /// Oracle verdict or gate outcome.
        pub verdict: String,
        /// The faulting access (`None` for near-misses without a trap).
        pub fault: Option<IncidentFault>,
        /// Injected ground truth, when known.
        pub truth: Option<IncidentTruth>,
        /// Open spans at fault time, outermost first.
        pub span_path: Vec<SpanStep>,
        /// Recovery-policy trail.
        pub recovery: IncidentRecovery,
        /// Heap ledger summary and neighborhood.
        pub heap: IncidentHeap,
        /// Pointer-derivation chain, one line per fact.
        pub derivation: Vec<String>,
        /// Trace tail of the forensic run.
        pub trace: IncidentTrace,
        /// Shrunk minimal reproducer, when the shrinker ran.
        pub repro: Option<IncidentRepro>,
        /// Hex digest of the forensic run's full event stream.
        pub digest: String,
    }
}

impl IncidentDoc {
    /// The content-derived id: 16 hex digits of FNV-1a over the compact
    /// document with `id` blanked. Writers store it in `id`; the reader
    /// recomputes it, so any mutation of the document invalidates it.
    pub fn content_id(&self) -> String {
        let blank = IncidentDoc {
            id: String::new(),
            ..self.clone()
        };
        let text = blank.put().to_compact();
        format!("{:016x}", crate::fnv(crate::FNV_OFFSET, text.as_bytes()))
    }
}

document! {
    /// One scheme's safe-program row of a fuzz document.
    #[derive(Debug, Clone)]
    pub struct FuzzSafe {
        /// Scheme label.
        pub scheme: String,
        /// Bit-identical completions.
        pub passes: u64,
        /// Detections on in-bounds programs.
        pub false_positives: u64,
        /// Completions with a diverging digest.
        pub mismatches: u64,
        /// Other traps.
        pub crashes: u64,
        /// Safe runs.
        pub total: u64,
    }
}

document! {
    /// One (fault kind, scheme) cell of a fuzz document's matrix.
    #[derive(Debug, Clone)]
    pub struct FuzzCell {
        /// Injected fault-kind label.
        pub kind: String,
        /// Scheme label.
        pub scheme: String,
        /// Runs detected at the injected access.
        pub detected: u64,
        /// Runs detected at another site.
        pub wrong_site: u64,
        /// Runs the scheme missed.
        pub missed: u64,
        /// Runs the boundless overlay tolerated.
        pub tolerated: u64,
        /// Runs that crashed.
        pub crashed: u64,
        /// Runs whose verdict fell outside the detection model.
        pub disagreements: u64,
        /// Runs.
        pub total: u64,
    }
}

document! {
    /// One disagreement of a fuzz document.
    #[derive(Debug, Clone)]
    pub struct FuzzDisagreement {
        /// Seed of the program.
        pub seed: u64,
        /// Injected fault-kind label (`null` for the safe program).
        pub kind: Option<String>,
        /// Scheme whose verdict fell outside the model.
        pub scheme: String,
        /// The observed verdict's label.
        pub verdict: String,
        /// The verdict's payload (trap text, digest pair), if any.
        pub detail: Option<String>,
        /// The forensic record of the failing execution.
        pub incident: IncidentDoc,
    }
}

document! {
    /// An `sgxs-fuzz-v1` document.
    #[derive(Debug, Clone)]
    pub struct FuzzDoc[FUZZ_SCHEMA] {
        /// Programs fuzzed.
        pub programs: u64,
        /// Scheme executions.
        pub runs: u64,
        /// Safe-program rows, one per scheme.
        pub safe: Vec<FuzzSafe>,
        /// Fault-matrix cells, by fault kind then scheme.
        pub matrix: Vec<FuzzCell>,
        /// Every disagreement, in seed order.
        pub disagreements: Vec<FuzzDisagreement>,
        /// Coverage ledger over the seed range.
        pub coverage: Coverage,
        /// Quarantined seeds, in seed order.
        pub quarantine: Vec<Quarantined>,
    }
}

/// The recovery decision label a trail's counts imply.
pub fn recovery_decision(attempts: u64, degraded: u64, gave_up: u64) -> &'static str {
    if gave_up > 0 {
        "gave-up"
    } else if degraded > 0 {
        "degraded"
    } else if attempts > 0 {
        "retried"
    } else {
        "trapped"
    }
}

document! {
    /// One spatial (proved-OOB) finding of a lint document.
    #[derive(Debug, Clone)]
    pub struct LintFinding {
        /// Enclosing function name.
        pub function: String,
        /// Block index.
        pub block: u64,
        /// Instruction index within the block.
        pub inst: u64,
        /// Registered check-site id.
        pub site: u64,
        /// Access kind (`load`/`store`/`rmw`/`cas`).
        pub kind: String,
        /// Access width in bytes.
        pub width: u64,
        /// Object description (e.g. `alloc#0(40B)`).
        pub object: String,
        /// Proven lowest offset (`null` when unknown, with `offset_hi`).
        pub offset_lo: Option<u64>,
        /// Proven highest offset (`null` when unknown, with `offset_lo`).
        pub offset_hi: Option<u64>,
        /// Textual IR of the offending instruction.
        pub ir: String,
    }
}

document! {
    /// One temporal finding (`uaf`/`df`/`leak`) of a v2 lint document.
    #[derive(Debug, Clone)]
    pub struct LintTemporal {
        /// Enclosing function name.
        pub function: String,
        /// Block index.
        pub block: u64,
        /// Instruction index within the block.
        pub inst: u64,
        /// Registered check-site id.
        pub site: u64,
        /// `"uaf"`, `"df"`, or `"leak"`.
        pub kind: String,
        /// Allocation-site number within the function.
        pub alloc_site: u64,
        /// Object description (e.g. `alloc#0(24B)`).
        pub object: String,
        /// Textual IR of the anchoring instruction.
        pub ir: String,
    }
}

document! {
    /// One call-graph node of a v2 lint document.
    #[derive(Debug, Clone)]
    pub struct LintCgNode {
        /// Function name.
        pub func: String,
        /// Resolved direct/indirect callees, by name.
        pub callees: Vec<String>,
        /// Condensation component index (bottom-up order).
        pub scc: u64,
        /// Whether the function had an unresolvable indirect call.
        pub unresolved: bool,
    }
}

document! {
    /// One function summary of a v2 lint document.
    #[derive(Debug, Clone)]
    pub struct LintSummary {
        /// Function name.
        pub func: String,
        /// Rendered return-value summary (e.g. `fresh(24B)`, `param0+[0,0]`).
        pub ret: String,
        /// Per parameter: may the callee free it (transitively)?
        pub frees_params: Vec<bool>,
        /// Per parameter: does the callee free it on every return path?
        pub must_frees_params: Vec<bool>,
        /// Per parameter: may the callee capture (escape) it?
        pub captures_params: Vec<bool>,
        /// May the callee free memory of unknown provenance?
        pub frees_unknown: bool,
        /// Derived: the callee provably frees nothing at all.
        pub heap_benign: bool,
    }
}

document! {
    /// One module block of a lint document. The keys marked v2 are absent
    /// from v1 documents.
    #[derive(Debug, Clone)]
    pub struct LintModule {
        /// Module name.
        pub module: String,
        /// Total classified access sites.
        pub sites: u64,
        /// Proved-safe access count.
        pub proved_safe: u64,
        /// Undecided access count.
        pub unknown: u64,
        /// Proved-OOB access count.
        pub proved_oob: u64,
        /// Proved use-after-free count (v2).
        pub proved_uaf: Option<u64> = absent,
        /// Proved double-free count (v2).
        pub proved_df: Option<u64> = absent,
        /// Proved leak count (v2).
        pub leaks: Option<u64> = absent,
        /// Spatial findings.
        pub findings: Vec<LintFinding>,
        /// Temporal findings (v2).
        pub temporal: Option<Vec<LintTemporal>> = absent,
        /// Call graph (v2).
        pub call_graph: Option<Vec<LintCgNode>> = absent,
        /// Function summaries (v2).
        pub summaries: Option<Vec<LintSummary>> = absent,
    }
}

document! {
    /// A `sgxs-lint-v1` or `sgxs-lint-v2` document. The keys marked v2 are
    /// absent from v1 documents.
    #[derive(Debug, Clone)]
    pub struct LintDoc {
        /// The schema tag ([`LINT_SCHEMA`] or [`LINT_SCHEMA_V2`]).
        pub schema: String,
        /// Workload-build seed.
        pub seed: u64,
        /// Whether the interprocedural tier ran (v2, always `true`).
        pub ipa: Option<bool> = absent,
        /// Total proved-OOB across modules.
        pub proved_oob: u64,
        /// Total proved use-after-free across modules (v2).
        pub proved_uaf: Option<u64> = absent,
        /// Total proved double-free across modules (v2).
        pub proved_df: Option<u64> = absent,
        /// Total proved leaks across modules (v2).
        pub leaks: Option<u64> = absent,
        /// Per-module reports.
        pub modules: Vec<LintModule>,
    }
}

document! {
    /// The header line of a `sgxs-campaign-v1` journal: the identity of
    /// the campaign it belongs to. Resume refuses a journal whose header
    /// does not match the live campaign bit-for-bit — replaying half of a
    /// different campaign would silently corrupt the artifact.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JournalHeader[CAMPAIGN_SCHEMA] {
        /// Campaign kind (`fuzz`, `chaos-fuzz`, `chaos`).
        pub campaign: String,
        /// FNV fingerprint of every option that changes per-seed results.
        pub fingerprint: String,
        /// First seed.
        pub seed0: u64,
        /// Seed count.
        pub seeds: u64,
    }
}

document! {
    /// Why a journaled seed was quarantined.
    #[derive(Debug, Clone)]
    pub struct JournalFailure {
        /// Failure class, one of [`FAILURE_CLASSES`].
        pub class: String,
        /// Human-readable detail.
        pub detail: String,
    }
}

document! {
    /// One journaled seed of a campaign: either `done` with the
    /// campaign-specific payload needed to rebuild that seed's
    /// contribution to the final artifact, or `quarantined` with its
    /// failure.
    #[derive(Debug, Clone)]
    pub struct JournalEntry {
        /// The seed this entry checkpoints.
        pub seed: u64,
        /// `done` or `quarantined`.
        pub status: String,
        /// Attempts the retry ladder spent on the seed (≥ 1).
        pub attempts: u32,
        /// Campaign-specific checkpoint payload (`done` entries only).
        pub payload: Option<Json> = absent,
        /// Failure class and detail (`quarantined` entries only).
        pub failure: Option<JournalFailure> = absent,
    }
}
