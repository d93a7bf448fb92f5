//! Chaos campaigns: many seeds × scheme/policy combos, aggregated into an
//! availability matrix with a CI gate and a `sgxs-chaos-v1` JSON document.

use crate::chaos::{check_requests, ChaosSchedule};
use crate::serve::{
    abort_policy, boundless_policy, graceful_policy, retry_policy, serve_tier, serve_traced,
    AvailabilityReport, RScheme, ServerApp,
};
use sgxs_audit::{IncidentDoc, IncidentMeta, LedgerRecorder, DEFAULT_TRACE_WINDOW};
use sgxs_metrics::{Hist, Registry};
use sgxs_mir::PolicySet;
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{ChaosCombo, ChaosDoc, ChaosGate};
use sgxs_obs::view::render_quarantine;
use sgxs_sim::ExecTier;
use sgxs_super::{
    supervise, Campaign, Coverage, Quarantined, Restored, StopFlag, SuperOpts, TaskError,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Seeds (one server run per seed per combo; the app rotates by seed).
    pub seeds: u64,
    /// First seed.
    pub seed0: u64,
    /// Requests per server run, at least [`crate::MIN_REQUESTS`].
    pub requests: u32,
    /// Minimum availability the boundless combo must reach (gate).
    pub threshold: f64,
    /// CI negative test: also gate the native combo's corruption, which a
    /// working corruption oracle always reports.
    pub demo_corruption: bool,
    /// Execution tier to run every server on. The emitted `sgxs-chaos-v1`
    /// document carries no tier field on purpose: a campaign run on the
    /// compiled tier must produce a byte-identical document, and CI diffs
    /// the two.
    pub tier: ExecTier,
    /// Demo hook: this seed panics at the top of its run, exercising the
    /// supervisor's panic isolation end to end (`--demo-panic SEED`).
    pub demo_panic: Option<u64>,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            seeds: 100,
            seed0: 1,
            requests: 48,
            threshold: 0.90,
            demo_corruption: false,
            tier: ExecTier::default(),
            demo_panic: None,
        }
    }
}

impl CampaignOpts {
    /// Checks the campaign's input rules, which both runners apply before
    /// any work: [`check_requests`], at least one seed, a seed range that
    /// fits in `u64`, and a threshold within [0, 1] (a NaN would pass the
    /// availability gate silently).
    pub fn validate(&self) -> Result<(), String> {
        check_requests(self.requests)?;
        Err(if self.seeds == 0 {
            "seeds must be at least 1".to_owned()
        } else if self.seed0.checked_add(self.seeds).is_none() {
            format!("seed0 {} + seeds {} overflows u64", self.seed0, self.seeds)
        } else if !(0.0..=1.0).contains(&self.threshold) {
            format!("threshold must be within [0, 1], got {}", self.threshold)
        } else {
            return Ok(());
        })
    }
}

/// One scheme × policy configuration under campaign test.
pub struct Combo {
    /// Scheme to instrument with.
    pub scheme: RScheme,
    /// Policy-set label for reports.
    pub policy: &'static str,
    /// The recovery policies.
    pub policies: PolicySet,
    /// Whether the corruption gate applies (protected schemes only).
    pub gated: bool,
}

/// The campaign matrix: the fail-stop baselines, the crash-only lattice
/// steps, and the boundless deployment.
pub fn combos() -> Vec<Combo> {
    vec![
        Combo {
            scheme: RScheme::Native,
            policy: "abort",
            policies: abort_policy(),
            gated: false,
        },
        Combo {
            scheme: RScheme::SgxBounds,
            policy: "abort",
            policies: abort_policy(),
            gated: true,
        },
        Combo {
            scheme: RScheme::SgxBounds,
            policy: "graceful",
            policies: graceful_policy(),
            gated: true,
        },
        Combo {
            scheme: RScheme::SgxBounds,
            policy: "retry",
            policies: retry_policy(),
            gated: true,
        },
        Combo {
            scheme: RScheme::Boundless,
            policy: "boundless",
            policies: boundless_policy(),
            gated: true,
        },
    ]
}

/// Aggregated results for one combo across every seed.
#[derive(Debug, Clone, Default)]
pub struct ComboRow {
    /// Scheme label.
    pub scheme: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Server runs.
    pub runs: u64,
    /// Total requests scheduled.
    pub total: u64,
    /// Served cleanly.
    pub served: u64,
    /// Degraded but answered.
    pub degraded: u64,
    /// Aborted individually (crash-only isolation).
    pub aborted: u64,
    /// Lost to whole-server death (fail-stop).
    pub lost: u64,
    /// Interpreter retry attempts.
    pub retries: u64,
    /// Runs that ended with corrupted canaries.
    pub corrupted_runs: u64,
    /// Total corrupted canary bytes.
    pub corrupted_bytes: u64,
    /// AEX re-entry cycles charged.
    pub aex_cycles: u64,
    /// Per-request wall-cycle latency, merged across every seed's run.
    /// Each seed's [`AvailabilityReport`] is one shard; the merge is
    /// order- and shard-count-independent, so a future parallel runner
    /// reproduces this histogram bit-for-bit.
    pub latency: Hist,
}

impl ComboRow {
    /// Folds one seed's delta for this combo into the row. Pure counter
    /// and histogram merges: associative and shard-count-independent, so
    /// absorbing per-seed deltas in seed order reproduces the sequential
    /// campaign bit-for-bit.
    fn absorb(&mut self, d: &ComboDelta) {
        self.runs += 1;
        self.total += d.total;
        self.served += d.served;
        self.degraded += d.degraded;
        self.aborted += d.aborted;
        self.lost += d.lost;
        self.retries += d.retries;
        if d.corrupted {
            self.corrupted_runs += 1;
        }
        self.corrupted_bytes += d.corrupted_bytes;
        self.aex_cycles += d.aex_cycles;
        self.latency.merge(&d.lat);
    }

    /// Answered fraction across every scheduled request.
    pub fn availability(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        (self.served + self.degraded) as f64 / self.total as f64
    }
}

sgxs_obs::document! {
    /// One combo's contribution from a single seed: the per-seed unit of
    /// work the supervisor schedules, journals, and merges. Carries
    /// everything [`ComboRow::absorb`] needs — including the full latency
    /// histogram as exact parts — so a journal-restored delta is
    /// indistinguishable from a freshly-run one.
    #[derive(Debug, Clone)]
    pub struct ComboDelta {
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
        /// Whether this run ended with corrupted canaries.
        pub corrupted: bool,
        /// Corrupted canary bytes.
        pub corrupted_bytes: u64,
        /// AEX re-entry cycles charged.
        pub aex_cycles: u64,
        /// This run's per-request latency histogram.
        pub lat: Hist,
    }
}

sgxs_obs::document! {
    /// A chaos seed's journal checkpoint: one delta per combo, in
    /// [`combos`] order.
    struct Checkpoint {
        combos: Vec<ComboDelta>,
    }
}

impl ComboDelta {
    fn from_report(r: &AvailabilityReport) -> ComboDelta {
        ComboDelta {
            total: r.total as u64,
            served: r.served as u64,
            degraded: r.degraded as u64,
            aborted: r.aborted as u64,
            lost: r.lost as u64,
            retries: r.recovery.attempts,
            corrupted: !r.intact(),
            corrupted_bytes: r.corrupted_canary_bytes as u64,
            aex_cycles: r.aex_penalty_cycles,
            lat: r.latency.clone(),
        }
    }
}

/// Campaign results.
pub struct ChaosReport {
    /// The options the campaign ran with.
    pub opts: CampaignOpts,
    /// One row per combo, `combos()` order.
    pub rows: Vec<ComboRow>,
    /// Gate failures, human-readable.
    pub failures: Vec<String>,
    /// One `sgxs-incident-v1` forensic record per combo whose corruption
    /// gate failed, assembled from a forensic re-run of that combo's first
    /// corrupted seed. Empty when the corruption gates all hold.
    pub incidents: Vec<IncidentDoc>,
    /// Seeds quarantined by the supervisor's failure ladder, in seed
    /// order. Always empty in unsupervised runs.
    pub quarantine: Vec<Quarantined>,
    /// Seeds skipped by a graceful stop.
    pub skipped: u64,
}

impl ChaosReport {
    /// True when any gate condition failed.
    pub fn gate_failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Explicit coverage ledger over the seed range: every seed is
    /// completed (contributed to every row), quarantined, or skipped.
    pub fn coverage(&self) -> Coverage {
        let completed = self.rows.first().map(|r| r.runs).unwrap_or(0);
        Coverage {
            seeds: completed + self.quarantine.len() as u64 + self.skipped,
            completed,
            quarantined: self.quarantine.len() as u64,
            skipped: self.skipped,
        }
    }

    /// Renders the availability matrix.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos campaign: {} seeds x {} combos, {} requests/run, \
             availability threshold {:.2}\n",
            self.opts.seeds,
            self.rows.len(),
            self.opts.requests,
            self.opts.threshold
        );
        let _ = writeln!(
            s,
            "  {:<22} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8}",
            "scheme/policy",
            "runs",
            "served",
            "degraded",
            "aborted",
            "lost",
            "retries",
            "corrupted",
            "avail"
        );
        for row in &self.rows {
            let _ = writeln!(
                s,
                "  {:<22} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>7.1}%",
                format!("{}/{}", row.scheme, row.policy),
                row.runs,
                row.served,
                row.degraded,
                row.aborted,
                row.lost,
                row.retries,
                format!("{}B/{}r", row.corrupted_bytes, row.corrupted_runs),
                row.availability() * 100.0
            );
        }
        // The latency table is the view of the embedded metrics document,
        // the one `repro metrics` prints.
        s.push('\n');
        s.push_str(&self.metrics().doc().render());
        s.push_str(&render_quarantine(&self.quarantine, self.skipped));
        if self.failures.is_empty() {
            let _ = writeln!(s, "\ngate: ok");
        } else {
            let _ = writeln!(s, "\ngate: FAILED");
            for f in &self.failures {
                let _ = writeln!(s, "  {f}");
            }
        }
        s
    }

    /// The campaign's metrics registry (`sgxs-metrics-v1`): one latency
    /// histogram per scheme × policy, request-outcome counters, and a
    /// peak-latency gauge. Fully derived from the rows, so it inherits
    /// their tier- and run-order-independence.
    pub fn metrics(&self) -> Registry {
        let mut reg = Registry::new();
        for row in &self.rows {
            let combo = format!("{}/{}", row.scheme, row.policy);
            reg.merge_hist(&format!("latency/{combo}"), &row.latency);
            reg.gauge_max(&format!("latency_max/{combo}"), row.latency.max());
            reg.counter_add(&format!("requests/{combo}/served"), row.served);
            reg.counter_add(&format!("requests/{combo}/degraded"), row.degraded);
            reg.counter_add(&format!("requests/{combo}/aborted"), row.aborted);
            reg.counter_add(&format!("requests/{combo}/lost"), row.lost);
        }
        reg
    }

    /// The `sgxs-chaos-v1` document.
    pub fn to_json(&self) -> Json {
        ChaosDoc {
            seeds: self.opts.seeds,
            seed0: self.opts.seed0,
            requests: self.opts.requests.into(),
            threshold: self.opts.threshold,
            combos: self
                .rows
                .iter()
                .map(|r| ChaosCombo {
                    scheme: r.scheme.into(),
                    policy: r.policy.into(),
                    runs: r.runs,
                    total: r.total,
                    served: r.served,
                    degraded: r.degraded,
                    aborted: r.aborted,
                    lost: r.lost,
                    retries: r.retries,
                    corrupted_runs: r.corrupted_runs,
                    corrupted_bytes: r.corrupted_bytes,
                    aex_cycles: r.aex_cycles,
                    availability: r.availability(),
                })
                .collect(),
            // The embedded sgxs-metrics-v1 document: per-combo latency
            // histograms with p50/p90/p99/p999. Like the rest of the
            // chaos doc, byte-identical across execution tiers.
            latency: self.metrics().doc(),
            incidents: self.incidents.clone(),
            // Coverage + quarantine ledger: every seed in the range is
            // accounted for. Deliberately free of resume/stop provenance,
            // so a resumed campaign's document stays byte-identical.
            coverage: self.coverage(),
            quarantine: self.quarantine.clone(),
            gate: ChaosGate {
                failed: self.gate_failed(),
                failures: self.failures.clone(),
            },
        }
        .put()
    }
}

/// Runs one campaign seed: one server run per combo, the app rotating
/// with the seed so all three servers contribute to every row.
/// Deterministic in `seed` alone (the chaos schedule is seed-derived), so
/// per-seed deltas merge identically regardless of worker scheduling.
pub fn run_chaos_seed(opts: &CampaignOpts, combos: &[Combo], seed: u64) -> Vec<ComboDelta> {
    if opts.demo_panic == Some(seed) {
        panic!("demo: injected panicking seed {seed}");
    }
    let schedule = ChaosSchedule::generate(seed, opts.requests);
    let app = ServerApp::ALL[(seed % ServerApp::ALL.len() as u64) as usize];
    combos
        .iter()
        .map(|combo| {
            ComboDelta::from_report(&serve_tier(
                app,
                combo.scheme,
                &combo.policies,
                &schedule,
                opts.tier,
            ))
        })
        .collect()
}

/// Builds the final report from seed-ordered outcomes: absorb deltas into
/// the rows, derive each combo's first corrupted seed, then evaluate the
/// gates and assemble corruption forensics.
fn finalize(
    opts: &CampaignOpts,
    combos: &[Combo],
    outcomes: &[(u64, Vec<ComboDelta>)],
    quarantine: Vec<Quarantined>,
    skipped: u64,
) -> ChaosReport {
    let mut rows: Vec<ComboRow> = combos
        .iter()
        .map(|c| ComboRow {
            scheme: c.scheme.label(),
            policy: c.policy,
            ..ComboRow::default()
        })
        .collect();
    let mut first_corrupted_seed: Vec<Option<u64>> = vec![None; combos.len()];
    for (seed, deltas) in outcomes {
        for (c, (row, d)) in rows.iter_mut().zip(deltas.iter()).enumerate() {
            if d.corrupted && first_corrupted_seed[c].is_none() {
                first_corrupted_seed[c] = Some(*seed);
            }
            row.absorb(d);
        }
    }

    let mut failures = Vec::new();
    let mut incidents = Vec::new();
    for (c, (combo, row)) in combos.iter().zip(rows.iter()).enumerate() {
        let gated = combo.gated || (opts.demo_corruption && combo.scheme == RScheme::Native);
        if gated && row.corrupted_bytes > 0 {
            failures.push(format!(
                "{}/{}: {} corrupted canary bytes across {} run(s) — \
                 cross-object corruption escaped the scheme",
                row.scheme, row.policy, row.corrupted_bytes, row.corrupted_runs
            ));
            incidents.push(corruption_incident(
                opts,
                combo,
                first_corrupted_seed[c].expect("corrupted combo has a corrupted seed"),
            ));
        }
        if combo.scheme == RScheme::Boundless && row.availability() < opts.threshold {
            failures.push(format!(
                "{}/{}: availability {:.3} below threshold {:.2}",
                row.scheme,
                row.policy,
                row.availability(),
                opts.threshold
            ));
        }
    }
    ChaosReport {
        opts: opts.clone(),
        rows,
        failures,
        incidents,
        quarantine,
        skipped,
    }
}

/// Runs the campaign sequentially in-process: every combo over every
/// seed, after [`CampaignOpts::validate`].
pub fn run_chaos_campaign(opts: &CampaignOpts) -> Result<ChaosReport, String> {
    opts.validate()?;
    let combos = combos();
    let mut outcomes = Vec::new();
    for i in 0..opts.seeds {
        let seed = opts.seed0 + i;
        outcomes.push((seed, run_chaos_seed(opts, &combos, seed)));
    }
    Ok(finalize(opts, &combos, &outcomes, Vec::new(), 0))
}

/// The chaos campaign as a supervised [`Campaign`]. Every seed checkpoints
/// its full per-combo delta vector (counters plus exact latency-histogram
/// parts), so a resumed campaign rebuilds every row without re-running a
/// single server and still emits a byte-identical document.
pub struct ChaosCampaign {
    /// The options every seed runs under.
    pub opts: CampaignOpts,
    combos: Vec<Combo>,
}

impl ChaosCampaign {
    /// Builds the campaign over the standard combo matrix.
    pub fn new(opts: CampaignOpts) -> ChaosCampaign {
        ChaosCampaign {
            opts,
            combos: combos(),
        }
    }
}

impl Campaign for ChaosCampaign {
    type Out = Vec<ComboDelta>;

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn fingerprint(&self) -> String {
        // Deliberately excludes the tier (the document is pinned
        // byte-identical across tiers, so cross-tier resume is sound) and
        // gate-time options (threshold, demo_corruption), which do not
        // change per-seed results.
        format!(
            "chaos requests={} demo_panic={:?}",
            self.opts.requests, self.opts.demo_panic
        )
    }

    fn run_seed(&self, seed: u64, _attempt: u32) -> Result<Vec<ComboDelta>, TaskError> {
        Ok(run_chaos_seed(&self.opts, &self.combos, seed))
    }

    fn checkpoint(&self, deltas: &Vec<ComboDelta>) -> Json {
        Checkpoint {
            combos: deltas.clone(),
        }
        .put()
    }

    fn restore(&self, _seed: u64, payload: &Json) -> Result<Restored<Vec<ComboDelta>>, String> {
        let combos = Checkpoint::take(payload, "chaos checkpoint")?.combos;
        if combos.len() != self.combos.len() {
            return Err(format!(
                "chaos checkpoint: {} combos journaled, campaign has {}",
                combos.len(),
                self.combos.len()
            ));
        }
        Ok(Restored::Value(combos))
    }
}

/// A supervised chaos campaign's outcome: the report plus stop/resume
/// provenance (kept out of the artifact so a resumed run's document stays
/// byte-identical to an uninterrupted one).
pub struct ChaosOutcome {
    /// The finalized campaign report.
    pub report: ChaosReport,
    /// Whether a graceful stop ended the campaign early.
    pub stopped: bool,
    /// Seeds restored from the journal instead of re-run.
    pub resumed: u64,
}

/// Runs the chaos campaign under the supervisor: seeds shard across the
/// work-stealing pool, a panicking seed is quarantined instead of killing
/// the run, and deltas merge in seed order — byte-identical output for
/// every worker count and across checkpoint/resume. Invalid options
/// ([`CampaignOpts::validate`]) are refused before any seed runs.
pub fn run_chaos_campaign_supervised(
    opts: &CampaignOpts,
    sup: &SuperOpts,
    stop: &StopFlag,
) -> Result<ChaosOutcome, String> {
    opts.validate()?;
    let campaign = ChaosCampaign::new(opts.clone());
    let run = supervise(&campaign, opts.seed0, opts.seeds, sup, stop)?;
    let report = finalize(
        opts,
        &campaign.combos,
        &run.outcomes,
        run.quarantined.clone(),
        run.skipped.len() as u64,
    );
    Ok(ChaosOutcome {
        report,
        stopped: run.stopped,
        resumed: run.resumed,
    })
}

/// Forensic re-run of the first corrupted seed of a gate-failing combo:
/// the same server run with a ledger recorder attached (zero-perturbation,
/// so the availability numbers reproduce exactly), assembled into an
/// incident around the first corrupted canary byte. Corruption is found
/// post-run by the canary scan, not by a firing check, so the fault block
/// is a [`sgxs_audit::post_run_fault`].
fn corruption_incident(opts: &CampaignOpts, combo: &Combo, seed: u64) -> IncidentDoc {
    let schedule = ChaosSchedule::generate(seed, opts.requests);
    let app = ServerApp::ALL[(seed % ServerApp::ALL.len() as u64) as usize];
    let rec = Rc::new(RefCell::new(LedgerRecorder::new(DEFAULT_TRACE_WINDOW)));
    let (rep, first) = serve_traced(
        app,
        combo.scheme,
        &combo.policies,
        &schedule,
        opts.tier,
        rec.clone(),
    );
    let rec = Rc::try_unwrap(rec)
        .expect("server dropped its recorder handle")
        .into_inner();
    let meta = IncidentMeta {
        origin: "chaos".into(),
        workload: format!("{}-seed-{seed}", app.label()),
        scheme: format!("{}/{}", combo.scheme.label(), combo.policy),
        tier: "pinned".into(),
        verdict: "corrupted".into(),
        ..IncidentMeta::default()
    };
    let fault =
        first.map(|addr| sgxs_audit::post_run_fault(addr as u64, rep.corrupted_canary_bytes));
    sgxs_audit::assemble_with(meta, fault, &rec, DEFAULT_TRACE_WINDOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_runners_refuse_invalid_options_before_any_work() {
        let journal =
            std::env::temp_dir().join(format!("sgxs-chaos-invalid-{}.jsonl", std::process::id()));
        let sup = SuperOpts {
            journal: Some(journal.to_string_lossy().into_owned()),
            ..SuperOpts::default()
        };
        let ok = CampaignOpts {
            seeds: 1,
            requests: crate::MIN_REQUESTS,
            ..CampaignOpts::default()
        };
        assert_eq!(ok.validate(), Ok(()));
        for bad in [
            CampaignOpts {
                requests: crate::MIN_REQUESTS - 1,
                ..ok.clone()
            },
            CampaignOpts {
                seeds: 0,
                ..ok.clone()
            },
            CampaignOpts {
                seed0: u64::MAX,
                ..ok.clone()
            },
            CampaignOpts {
                threshold: f64::NAN,
                ..ok.clone()
            },
            CampaignOpts {
                threshold: 1.5,
                ..ok.clone()
            },
        ] {
            let e = bad.validate().expect_err("invalid options validate");
            assert_eq!(run_chaos_campaign(&bad).err(), Some(e.clone()));
            let supervised = run_chaos_campaign_supervised(&bad, &sup, &StopFlag::new());
            assert_eq!(supervised.err(), Some(e));
        }
        assert!(!journal.exists(), "a refused campaign opened its journal");
    }

    #[test]
    fn small_campaign_passes_the_gate_and_orders_the_lattice() {
        let opts = CampaignOpts {
            seeds: 6,
            seed0: 1,
            requests: 24,
            ..CampaignOpts::default()
        };
        let rep = run_chaos_campaign(&opts).unwrap();
        assert!(!rep.gate_failed(), "{}", rep.render());
        // Native corrupts but is not gated by default — no incident.
        assert!(rep.incidents.is_empty());
        let avail: std::collections::HashMap<(&str, &str), f64> = rep
            .rows
            .iter()
            .map(|r| ((r.scheme, r.policy), r.availability()))
            .collect();
        // Fail-stop loses availability; the crash-only and boundless
        // configurations answer everything the schedule throws at them.
        assert!(avail[&("sgxbounds", "abort")] < avail[&("sgxbounds", "graceful")]);
        assert!(avail[&("sb-boundless", "boundless")] >= opts.threshold);
        // Native corrupts (reported, not gated by default).
        let native = &rep.rows[0];
        assert!(native.corrupted_bytes > 0);
        let json = rep.to_json().to_pretty();
        assert!(json.contains("sgxs-chaos-v1"));
        assert!(json.contains("availability"));
        // The embedded latency block is a full sgxs-metrics-v1 document.
        assert!(json.contains("sgxs-metrics-v1"));
        assert!(json.contains("p999"));
        assert!(json.contains("latency/sb-boundless/boundless"));
        // Every attempted request sampled.
        for row in &rep.rows {
            assert_eq!(
                row.latency.count(),
                row.served + row.degraded + row.aborted,
                "{}/{}",
                row.scheme,
                row.policy
            );
        }
    }

    #[test]
    fn supervised_campaign_matches_serial_for_every_worker_count() {
        let opts = CampaignOpts {
            seeds: 4,
            seed0: 1,
            requests: 16,
            ..CampaignOpts::default()
        };
        let serial = run_chaos_campaign(&opts).unwrap().to_json().to_pretty();
        for workers in [1usize, 2, 4] {
            let sup = SuperOpts {
                workers,
                ..SuperOpts::default()
            };
            let out = run_chaos_campaign_supervised(&opts, &sup, &StopFlag::new())
                .expect("supervised chaos campaign runs");
            assert!(!out.stopped);
            assert_eq!(out.resumed, 0);
            assert_eq!(
                out.report.to_json().to_pretty(),
                serial,
                "chaos doc diverged at {workers} worker(s)"
            );
        }
    }

    #[test]
    fn demo_panic_seed_is_quarantined_with_accurate_coverage() {
        let opts = CampaignOpts {
            seeds: 4,
            seed0: 1,
            requests: 16,
            demo_panic: Some(2),
            ..CampaignOpts::default()
        };
        let sup = SuperOpts {
            workers: 2,
            quiet_panics: true,
            ..SuperOpts::default()
        };
        let out = run_chaos_campaign_supervised(&opts, &sup, &StopFlag::new())
            .expect("supervised chaos campaign runs");
        let rep = &out.report;
        assert_eq!(rep.quarantine.len(), 1);
        assert_eq!(rep.quarantine[0].seed, 2);
        assert_eq!(rep.quarantine[0].class, "panic");
        assert!(rep.quarantine[0]
            .detail
            .contains("injected panicking seed 2"));
        let cov = rep.coverage();
        assert_eq!((cov.seeds, cov.completed, cov.quarantined), (4, 3, 1));
        // The rows only absorbed the three completed seeds.
        assert_eq!(rep.rows[0].runs, 3);
        let render = rep.render();
        assert!(render.contains("quarantined seeds:"), "{render}");
        let json = rep.to_json().to_pretty();
        assert!(json.contains("\"quarantine\""), "{json}");
        assert!(json.contains("\"coverage\""), "{json}");
    }

    #[test]
    fn chaos_checkpoints_restore_to_byte_identical_deltas() {
        // Every per-seed delta must survive the journal codec exactly —
        // counters and latency-histogram parts alike — so a resumed
        // campaign rebuilds rows without re-running a single server.
        let opts = CampaignOpts {
            seeds: 3,
            seed0: 1,
            requests: 16,
            ..CampaignOpts::default()
        };
        let campaign = ChaosCampaign::new(opts.clone());
        for seed in 1..=3 {
            let deltas = campaign.run_seed(seed, 1).expect("chaos seed runs");
            let payload = campaign.checkpoint(&deltas);
            match campaign.restore(seed, &payload).expect("restores") {
                Restored::Value(back) => {
                    assert_eq!(back.len(), deltas.len());
                    for (a, b) in deltas.iter().zip(back.iter()) {
                        assert_eq!(a.put(), b.put());
                        assert_eq!(a.lat, b.lat, "hist parts diverged at seed {seed}");
                    }
                }
                Restored::Rerun => panic!("chaos checkpoints are never dirty"),
            }
        }
    }

    #[test]
    fn split_campaign_registries_merge_to_the_full_campaign() {
        // Production shard merge: running the first and second halves of a
        // seed range as separate campaigns and merging their registries
        // must serialize byte-identically to the single full campaign —
        // the property the parallel seed-shard pool will rely on.
        let full = run_chaos_campaign(&CampaignOpts {
            seeds: 4,
            seed0: 1,
            requests: 16,
            ..CampaignOpts::default()
        })
        .unwrap();
        let lo = run_chaos_campaign(&CampaignOpts {
            seeds: 2,
            seed0: 1,
            requests: 16,
            ..CampaignOpts::default()
        })
        .unwrap();
        let hi = run_chaos_campaign(&CampaignOpts {
            seeds: 2,
            seed0: 3,
            requests: 16,
            ..CampaignOpts::default()
        })
        .unwrap();
        let mut merged = hi.metrics();
        merged.merge(&lo.metrics());
        assert_eq!(
            merged.to_json().to_pretty(),
            full.metrics().to_json().to_pretty()
        );
    }

    #[test]
    fn emitted_chaos_doc_round_trips_through_the_validating_reader() {
        // Write → parse: the document a real campaign emits must satisfy
        // every cross-check `sgxs_obs::read::parse_chaos` enforces (ledger
        // sums, availability arithmetic, per-combo latency sample counts,
        // gate/failure agreement).
        let opts = CampaignOpts {
            seeds: 3,
            seed0: 7,
            requests: 16,
            ..CampaignOpts::default()
        };
        let rep = run_chaos_campaign(&opts).unwrap();
        let doc = sgxs_obs::read::parse_chaos(&rep.to_json().to_pretty())
            .expect("own chaos output parses back");
        assert_eq!((doc.seeds, doc.seed0, doc.requests), (3, 7, 16));
        assert_eq!(doc.combos.len(), rep.rows.len());
        assert_eq!(doc.gate.failed, rep.gate_failed());
        let lat = &doc.latency;
        for (c, row) in doc.combos.iter().zip(&rep.rows) {
            assert_eq!(c.scheme, row.scheme);
            assert_eq!(c.total, row.total);
            let h = lat
                .hist(&format!("latency/{}/{}", c.scheme, c.policy))
                .expect("per-combo latency histogram");
            assert_eq!(h.count, row.latency.count());
            assert_eq!(h.p999, row.latency.percentile_permille(999));
        }
    }

    #[test]
    fn demo_corruption_flag_fails_the_gate() {
        let opts = CampaignOpts {
            seeds: 2,
            seed0: 1,
            requests: 16,
            demo_corruption: true,
            ..CampaignOpts::default()
        };
        let rep = run_chaos_campaign(&opts).unwrap();
        assert!(rep.gate_failed(), "{}", rep.render());
        assert!(rep.failures.iter().any(|f| f.contains("native")));
        // The failing corruption gate comes with a forensic incident built
        // around the first corrupted canary byte, and the embedded document
        // survives the validating reader's cross-checks.
        assert_eq!(rep.incidents.len(), 1);
        let inc = &rep.incidents[0];
        assert_eq!(inc.origin, "chaos");
        assert_eq!(inc.verdict, "corrupted");
        assert!(inc.fault.is_some(), "corruption incident carries a fault");
        assert!(
            !inc.heap.neighborhood.is_empty(),
            "canary corruption has heap neighbours by construction"
        );
        let doc = sgxs_obs::read::parse_chaos(&rep.to_json().to_pretty())
            .expect("chaos doc with embedded incidents parses back");
        assert_eq!(doc.incidents.len(), 1);
        assert_eq!(doc.incidents[0].origin, "chaos");
        // Rerun: the incident (id included) is byte-stable.
        let again = run_chaos_campaign(&opts).unwrap();
        assert_eq!(
            rep.to_json().to_pretty(),
            again.to_json().to_pretty(),
            "chaos doc with incidents is not rerun-stable"
        );
    }
}
