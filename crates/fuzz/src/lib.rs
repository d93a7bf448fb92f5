#![warn(missing_docs)]

//! `sgxs-fuzz` — differential fuzzing and fault injection across every
//! bounds-checking scheme in the workspace.
//!
//! The pipeline per seed:
//!
//! 1. [`gen::generate`] builds a random, in-bounds-by-construction program
//!    over a fixed object environment (heap/stack/global arrays, a struct
//!    with interior fields, a pointer chain, string buffers).
//! 2. The safe program runs under native, five SGXBounds configurations,
//!    ASan, and MPX; every scheme must reproduce the native digest
//!    bit-for-bit (no false positives, no silent corruption).
//! 3. [`inject::inject`] splices exactly one spatial violation in;
//!    [`oracle::analyze`] independently re-derives the violation and must
//!    agree with the injector's ground truth.
//! 4. [`runner`] executes the faulty program everywhere and classifies
//!    each scheme's verdict (detected / detected-at-wrong-site / missed /
//!    tolerated / false-positive / crash) against its detection model.
//! 5. Any verdict outside the model is a *disagreement*; [`shrink`]
//!    minimizes it to a small reproducer.
//!
//! [`run_campaign`] drives the loop and aggregates an extended
//! Table-4-style security matrix (fault kinds x schemes).

pub mod gen;
pub mod inject;
pub mod oracle;
pub mod runner;
pub mod shrink;

use inject::{FaultKind, ALL_KINDS};
use runner::{
    classify, exec, exec_chaos, exec_forensic, is_budget_trap, is_oom_trap, verdict_ok, FScheme,
    Verdict, ALL_SCHEMES, DEFAULT_BUDGET, OOM_RETRY_ATTEMPTS,
};
use sgxs_audit::{IncidentDoc, IncidentMeta, IncidentRepro, IncidentTruth};
use sgxs_sim::obs::codec::Field;
use sgxs_sim::obs::json::Json;
use sgxs_sim::obs::read::{FuzzCell, FuzzDisagreement, FuzzDoc, FuzzSafe};
use sgxs_sim::obs::view::render_quarantine;
use sgxs_sim::ExecTier;
use sgxs_super::{
    supervise, Campaign, Coverage, Quarantined, Restored, SeedFailure, StopFlag, SuperOpts,
    TaskError,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Number of seeds (programs) to fuzz.
    pub seeds: u64,
    /// First seed.
    pub seed0: u64,
    /// Maximum safe ops per generated program.
    pub max_ops: usize,
    /// Minimize disagreements to small reproducers.
    pub shrink: bool,
    /// Execution tier the campaign runs on. Verdicts, digests, and the
    /// rendered matrix must be identical across tiers (the tier-equivalence
    /// gate runs the same corpus on both and diffs).
    pub tier: ExecTier,
    /// Trace-ring window of the forensic re-run attached to each
    /// disagreement (`repro fuzz --trace-window N`).
    pub trace_window: usize,
    /// Instruction-budget watchdog per execution, in retired instructions
    /// (`VmConfig::max_instructions`). A run that exhausts it is not a
    /// verdict: the whole seed is reported as a `budget` failure and
    /// quarantined, and a corpus entry fails its replay
    /// (`repro fuzz --budget N`).
    pub budget: u64,
    /// Demo hook: this seed panics at the top of its run, exercising the
    /// supervisor's panic isolation end to end (`--demo-panic SEED`).
    pub demo_panic: Option<u64>,
    /// Demo hook: this seed runs under the deliberately tiny
    /// [`DEMO_BUDGET`] so the watchdog provably fires
    /// (`--demo-budget SEED`).
    pub demo_budget: Option<u64>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seeds: 100,
            seed0: 0,
            max_ops: 20,
            shrink: true,
            tier: ExecTier::default(),
            trace_window: sgxs_audit::DEFAULT_TRACE_WINDOW,
            budget: DEFAULT_BUDGET,
            demo_panic: None,
            demo_budget: None,
        }
    }
}

impl FuzzOpts {
    /// Checks the options every campaign runner refuses before running a
    /// seed: `max_ops` at most [`MAX_OPS`], a `budget` and a
    /// `trace_window` of at least 1, and a seed range whose end fits in
    /// `u64`. Zero seeds is valid: the campaign runs nothing.
    pub fn validate(&self) -> Result<(), String> {
        Err(if self.max_ops > MAX_OPS {
            format!("max_ops {} exceeds the cap {MAX_OPS}", self.max_ops)
        } else if self.budget == 0 {
            "budget must be at least 1".to_owned()
        } else if self.trace_window == 0 {
            "trace_window must be at least 1".to_owned()
        } else if self.seed0.checked_add(self.seeds).is_none() {
            format!("seed0 {} + seeds {} overflows u64", self.seed0, self.seeds)
        } else {
            return Ok(());
        })
    }
}

/// The largest `max_ops` a campaign or corpus line may ask for. The
/// generator allocates every op up front, so an unbounded request aborts
/// the process; real uses stay far below (defaults 16 and 20, the corpus
/// at most 20, the largest test 300).
pub const MAX_OPS: usize = 4096;

/// The budget a `--demo-budget` seed runs under: smaller than even program
/// setup (the 16-slot init loop alone exceeds it), so the watchdog fires
/// deterministically.
pub const DEMO_BUDGET: u64 = 100;

/// The watchdog budget in force for one seed (the demo hook shrinks it).
fn seed_budget(opts: &FuzzOpts, seed: u64) -> u64 {
    if opts.demo_budget == Some(seed) {
        DEMO_BUDGET
    } else {
        opts.budget
    }
}

/// Verdict tallies for one (fault kind, scheme) cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Runs classified `Detected`.
    pub detected: u64,
    /// Runs classified `DetectedWrongSite`.
    pub wrong_site: u64,
    /// Runs classified `Missed`.
    pub missed: u64,
    /// Runs classified `Tolerated` (boundless).
    pub tolerated: u64,
    /// Runs classified `Crash`.
    pub crashed: u64,
    /// Runs whose verdict fell outside the detection model.
    pub disagreements: u64,
    /// Total runs.
    pub total: u64,
}

impl Cell {
    fn add(&mut self, v: &Verdict, ok: bool) {
        self.total += 1;
        if !ok {
            self.disagreements += 1;
        }
        match v {
            Verdict::Detected => self.detected += 1,
            Verdict::DetectedWrongSite { .. } => self.wrong_site += 1,
            Verdict::Missed => self.missed += 1,
            Verdict::Tolerated => self.tolerated += 1,
            Verdict::Crash(_) => self.crashed += 1,
            _ => {}
        }
    }

    /// Runs where the scheme flagged the violation at all.
    pub fn flagged(&self) -> u64 {
        self.detected + self.wrong_site + self.tolerated
    }

    /// Adds another cell's tallies (shard merge).
    fn absorb(&mut self, o: &Cell) {
        self.detected += o.detected;
        self.wrong_site += o.wrong_site;
        self.missed += o.missed;
        self.tolerated += o.tolerated;
        self.crashed += o.crashed;
        self.disagreements += o.disagreements;
        self.total += o.total;
    }
}

/// Safe-program tallies for one scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct SafeCell {
    /// Bit-identical completions.
    pub passes: u64,
    /// Detections on in-bounds programs.
    pub false_positives: u64,
    /// Completions with a diverging digest.
    pub mismatches: u64,
    /// Other traps.
    pub crashes: u64,
    /// Total safe runs.
    pub total: u64,
}

impl SafeCell {
    /// Adds another cell's tallies (shard merge).
    fn absorb(&mut self, o: &SafeCell) {
        self.passes += o.passes;
        self.false_positives += o.false_positives;
        self.mismatches += o.mismatches;
        self.crashes += o.crashes;
        self.total += o.total;
    }
}

/// One disagreement found during the campaign.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Seed of the originating program.
    pub seed: u64,
    /// Fault kind (`None` = safe program).
    pub kind: Option<FaultKind>,
    /// Scheme whose verdict fell outside the model.
    pub scheme: FScheme,
    /// The observed verdict.
    pub verdict: Verdict,
    /// Full forensic record of a re-run of the failing execution: object
    /// ledger neighborhood, derivation chain, indexed trace tail, ground
    /// truth, and the shrunk repro — an `sgxs-incident-v1` document.
    pub incident: IncidentDoc,
}

/// Assembles the forensic incident for one disagreement: re-runs the
/// failing execution with a [`sgxs_audit::LedgerRecorder`] attached (on
/// the campaign's tier), then joins in the injector ground truth, the
/// static derivation chain from `analyze::prov`, and the shrunk repro.
fn forensic_incident(
    prog: &gen::Prog,
    fault: Option<&inject::Fault>,
    seed: u64,
    scheme: FScheme,
    verdict: &Verdict,
    repro: Option<&shrink::Repro>,
    opts: &FuzzOpts,
) -> IncidentDoc {
    let budget = seed_budget(opts, seed);
    let (_, rec) = exec_forensic(prog, scheme, opts.tier, budget, opts.trace_window);
    let meta = IncidentMeta {
        origin: "fuzz".into(),
        workload: format!("seed-{seed}"),
        scheme: scheme.label().into(),
        // The forensic payload derives from simulated instruction counts
        // only, so the artifact is pinned byte-identical across execution
        // tiers; `pinned` records that claim in the document.
        tier: "pinned".into(),
        verdict: verdict.label().into(),
        truth: fault.map(|f| IncidentTruth {
            kind: f.kind.label().into(),
            op: format!("{:?}", f.ops[f.victim]),
            op_index: f.victim_index() as u64,
        }),
        derivation: derivation_lines(prog),
        repro: repro.map(|r| IncidentRepro {
            insts: r.insts as u64,
            ops: r.prog.ops.iter().map(|o| format!("{o:?}")).collect(),
        }),
    };
    sgxs_audit::assemble(meta, &rec, opts.trace_window)
}

/// The static pointer-derivation chain for the program's suspicious
/// accesses: every access site `analyze::prov` could not prove safe, with
/// its referent and offset interval.
fn derivation_lines(prog: &gen::Prog) -> Vec<String> {
    let module = gen::build(prog);
    sgxs_analyze::access_facts(&module, 0)
        .into_iter()
        .filter(|f| !matches!(f.class, sgxs_analyze::Class::Safe))
        .map(|f| {
            let referent = match &f.referent {
                Some(r) => format!("{r:?}"),
                None => "?".into(),
            };
            let offset = match f.offset {
                Some((lo, hi)) => format!("[{lo},{hi}]"),
                None => "[?]".into(),
            };
            format!(
                "b{} i{} {} w{} {} referent={} offset={}",
                f.block,
                f.inst,
                f.kind,
                f.width,
                f.class.label(),
                referent,
                offset
            )
        })
        .collect()
}

/// Campaign results.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Programs fuzzed.
    pub programs: u64,
    /// Total scheme executions.
    pub runs: u64,
    /// Per-scheme safe-program tallies.
    pub safe: BTreeMap<FScheme, SafeCell>,
    /// Per-(kind, scheme) fault tallies.
    pub cells: BTreeMap<(FaultKind, FScheme), Cell>,
    /// Every disagreement, shrunk when requested.
    pub disagreements: Vec<Disagreement>,
    /// Seeds quarantined by the failure ladder (panic / budget /
    /// transient), in seed order.
    pub quarantine: Vec<Quarantined>,
    /// Seeds skipped by a graceful stop.
    pub skipped: u64,
}

impl Report {
    /// An empty report with every scheme's safe row present, so even a
    /// fully-quarantined campaign renders the complete safe table.
    pub fn seeded() -> Report {
        let mut r = Report::default();
        for scheme in ALL_SCHEMES {
            r.safe.insert(scheme, SafeCell::default());
        }
        r
    }

    /// Folds one shard (typically a single seed's report) into the
    /// aggregate. Merging per-seed reports in seed order reproduces the
    /// sequential campaign bit-for-bit — the property the work-stealing
    /// pool's byte-identity contract rests on.
    pub fn merge(&mut self, other: &Report) {
        self.programs += other.programs;
        self.runs += other.runs;
        for (scheme, c) in &other.safe {
            self.safe.entry(*scheme).or_default().absorb(c);
        }
        for (key, c) in &other.cells {
            self.cells.entry(*key).or_default().absorb(c);
        }
        self.disagreements
            .extend(other.disagreements.iter().cloned());
        self.quarantine.extend(other.quarantine.iter().cloned());
        self.skipped += other.skipped;
    }

    /// Explicit coverage ledger: every seed is completed, quarantined, or
    /// skipped — nothing is silently truncated.
    pub fn coverage(&self) -> Coverage {
        Coverage {
            seeds: self.programs + self.quarantine.len() as u64 + self.skipped,
            completed: self.programs,
            quarantined: self.quarantine.len() as u64,
            skipped: self.skipped,
        }
    }

    /// Renders the extended security matrix plus a disagreement summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "differential fuzz: {} programs, {} runs, {} disagreement(s)\n",
            self.programs,
            self.runs,
            self.disagreements.len()
        );
        let _ = writeln!(
            s,
            "safe programs (every scheme must reproduce the native digest):"
        );
        let _ = writeln!(
            s,
            "  {:<14} {:>6} {:>6} {:>10} {:>9}",
            "scheme", "pass", "fp", "mismatch", "crash"
        );
        for (scheme, c) in &self.safe {
            let _ = writeln!(
                s,
                "  {:<14} {:>6} {:>6} {:>10} {:>9}",
                scheme.label(),
                c.passes,
                c.false_positives,
                c.mismatches,
                c.crashes
            );
        }
        let _ = writeln!(s, "\ninjected faults — flagged/total per scheme:");
        let _ = write!(s, "  {:<18}", "fault kind");
        for scheme in ALL_SCHEMES {
            let _ = write!(s, " {:>12}", scheme.label());
        }
        let _ = writeln!(s);
        for kind in ALL_KINDS {
            let _ = write!(s, "  {:<18}", kind.label());
            for scheme in ALL_SCHEMES {
                match self.cells.get(&(kind, scheme)) {
                    Some(c) => {
                        let mark = if c.disagreements > 0 { "!" } else { " " };
                        let cell = format!("{}/{}", c.flagged(), c.total);
                        let _ = write!(s, " {cell:>11}{mark}");
                    }
                    None => {
                        let _ = write!(s, " {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(s);
        }
        if !self.disagreements.is_empty() {
            let _ = writeln!(s, "\ndisagreements:");
            for d in &self.disagreements {
                let kind = d.kind.map(|k| k.label()).unwrap_or("safe-program");
                let _ = write!(
                    s,
                    "  seed {} {} under {}: {}",
                    d.seed,
                    kind,
                    d.scheme.label(),
                    d.verdict.label()
                );
                // The verdict payload (trap text, preserved panic message,
                // digest pair) rides on the summary line.
                if let Some(det) = d.verdict.detail() {
                    let _ = write!(s, " — {det}");
                }
                let _ = writeln!(s);
                // The full forensic record — ground truth, heap
                // neighborhood, derivation, indexed trace tail, shrunk
                // repro — through the incident's one text view.
                for line in d.incident.render().lines() {
                    let _ = writeln!(s, "    {line}");
                }
            }
        }
        s.push_str(&render_quarantine(&self.quarantine, self.skipped));
        s
    }

    /// Serializes the campaign (schema `sgxs-fuzz-v1`): envelope counts,
    /// the safe table, the fault matrix, and one embedded
    /// `sgxs-incident-v1` document per disagreement.
    pub fn to_json(&self) -> Json {
        let safe = self.safe.iter().map(|(scheme, c)| FuzzSafe {
            scheme: scheme.label().into(),
            passes: c.passes,
            false_positives: c.false_positives,
            mismatches: c.mismatches,
            crashes: c.crashes,
            total: c.total,
        });
        let matrix = self.cells.iter().map(|((kind, scheme), c)| FuzzCell {
            kind: kind.label().into(),
            scheme: scheme.label().into(),
            detected: c.detected,
            wrong_site: c.wrong_site,
            missed: c.missed,
            tolerated: c.tolerated,
            crashed: c.crashed,
            disagreements: c.disagreements,
            total: c.total,
        });
        let disagreements = self.disagreements.iter().map(|d| FuzzDisagreement {
            seed: d.seed,
            kind: d.kind.map(|k| k.label().into()),
            scheme: d.scheme.label().into(),
            verdict: d.verdict.label().into(),
            detail: d.verdict.detail(),
            incident: d.incident.clone(),
        });
        FuzzDoc {
            programs: self.programs,
            runs: self.runs,
            safe: safe.collect(),
            matrix: matrix.collect(),
            disagreements: disagreements.collect(),
            coverage: self.coverage(),
            quarantine: self.quarantine.clone(),
        }
        .put()
    }
}

/// Runs one seed of the differential campaign: the safe program across
/// every scheme plus one injected fault (kinds round-robin by seed).
/// Deterministic in `seed` alone; the returned report covers exactly this
/// seed and folds into the campaign aggregate via [`Report::merge`].
///
/// A run that exhausts the instruction budget is not a verdict — the whole
/// seed comes back as [`TaskError::Budget`], and the supervisor
/// quarantines it without retrying (a deterministic seed re-run against
/// the same budget retires the same instructions and fails the same way).
pub fn run_seed_report(opts: &FuzzOpts, seed: u64) -> Result<Report, TaskError> {
    if opts.demo_panic == Some(seed) {
        panic!("demo: injected panicking seed {seed}");
    }
    let budget = seed_budget(opts, seed);
    let over = TaskError::Budget {
        spent: budget,
        budget,
    };
    let mut report = Report::seeded();
    let prog = gen::generate(seed, opts.max_ops);
    assert_eq!(
        oracle::analyze(&prog),
        None,
        "seed {seed}: generator emitted an out-of-bounds op"
    );
    report.programs += 1;

    let native = exec(&prog, FScheme::Native, opts.tier, budget);
    if is_budget_trap(&native) {
        return Err(over);
    }
    report.runs += 1;
    {
        let cell = report.safe.get_mut(&FScheme::Native).expect("seeded");
        cell.total += 1;
        match &native.result {
            Ok(_) => cell.passes += 1,
            Err(_) => cell.crashes += 1,
        }
    }
    let native_digest = match &native.result {
        Ok(d) => *d,
        Err(t) => {
            let verdict = Verdict::Crash(t.to_string());
            let incident =
                forensic_incident(&prog, None, seed, FScheme::Native, &verdict, None, opts);
            report.disagreements.push(Disagreement {
                seed,
                kind: None,
                scheme: FScheme::Native,
                verdict,
                incident,
            });
            return Ok(report);
        }
    };

    for scheme in ALL_SCHEMES.into_iter().skip(1) {
        let e = exec(&prog, scheme, opts.tier, budget);
        if is_budget_trap(&e) {
            return Err(over);
        }
        let v = classify(None, native_digest, &e);
        report.runs += 1;
        let cell = report.safe.get_mut(&scheme).expect("seeded");
        cell.total += 1;
        match &v {
            Verdict::Pass => cell.passes += 1,
            Verdict::FalsePositive(_) => cell.false_positives += 1,
            Verdict::DigestMismatch { .. } => cell.mismatches += 1,
            _ => cell.crashes += 1,
        }
        if !verdict_ok(scheme, None, &v) {
            let repro = opts.shrink.then(|| shrink::shrink(&prog, None, scheme, &v));
            let incident = forensic_incident(&prog, None, seed, scheme, &v, repro.as_ref(), opts);
            report.disagreements.push(Disagreement {
                seed,
                kind: None,
                scheme,
                verdict: v,
                incident,
            });
        }
    }

    let kind = FaultKind::for_seed(seed);
    let (fprog, fault) = inject::inject(&prog, kind, seed);
    let v = oracle::analyze(&fprog).expect("injected program must violate");
    assert_eq!(
        v.op_index,
        fault.victim_index(),
        "seed {seed} {kind:?}: oracle disagrees with injector ground truth"
    );
    for scheme in ALL_SCHEMES {
        let e = exec(&fprog, scheme, opts.tier, budget);
        if is_budget_trap(&e) {
            return Err(over);
        }
        let v = classify(Some(&fault), native_digest, &e);
        report.runs += 1;
        let ok = verdict_ok(scheme, Some(kind), &v);
        report.cells.entry((kind, scheme)).or_default().add(&v, ok);
        if !ok {
            let repro = opts
                .shrink
                .then(|| shrink::shrink(&prog, Some(&fault), scheme, &v));
            let incident =
                forensic_incident(&fprog, Some(&fault), seed, scheme, &v, repro.as_ref(), opts);
            report.disagreements.push(Disagreement {
                seed,
                kind: Some(kind),
                scheme,
                verdict: v,
                incident,
            });
        }
    }
    Ok(report)
}

/// Builds the quarantine record for a seed-level task error in the
/// unsupervised (serial, single-attempt) drivers.
fn quarantine_entry(seed: u64, attempts: u32, e: &TaskError) -> Quarantined {
    let failure = match e {
        TaskError::Budget { spent, budget } => SeedFailure::Budget {
            spent: *spent,
            budget: *budget,
        },
        TaskError::Transient(m) => SeedFailure::Transient {
            attempts,
            last: m.clone(),
        },
    };
    Quarantined {
        seed,
        attempts,
        class: failure.class().to_owned(),
        detail: failure.detail(),
    }
}

/// Runs the differential campaign sequentially in-process, after
/// [`FuzzOpts::validate`]. Seeds that trip the budget watchdog are
/// quarantined in the report; a panicking seed propagates (use
/// [`run_campaign_supervised`] for isolation, retries, and
/// checkpoint/resume).
pub fn run_campaign(opts: &FuzzOpts) -> Result<Report, String> {
    opts.validate()?;
    let mut report = Report::seeded();
    for seed in opts.seed0..opts.seed0 + opts.seeds {
        match run_seed_report(opts, seed) {
            Ok(r) => report.merge(&r),
            Err(e) => report.quarantine.push(quarantine_entry(seed, 1, &e)),
        }
    }
    Ok(report)
}

/// Maps a checkpoint verdict label back to a representative [`Verdict`].
/// Payload-carrying verdicts restore with empty payloads: the merged
/// matrix only counts variants, and any payload-bearing verdict outside
/// the detection model marks its seed dirty (re-run) instead.
fn verdict_from_label(label: &str) -> Option<Verdict> {
    Some(match label {
        "pass" => Verdict::Pass,
        "detected" => Verdict::Detected,
        "wrong-site" => Verdict::DetectedWrongSite { beacon: 0 },
        "missed" => Verdict::Missed,
        "tolerated" => Verdict::Tolerated,
        "crash" => Verdict::Crash(String::new()),
        "false-positive" => Verdict::FalsePositive(String::new()),
        "digest-mismatch" => Verdict::DigestMismatch { want: 0, got: 0 },
        _ => return None,
    })
}

/// The verdict label a clean per-seed fault cell encodes, when the cell
/// holds exactly one run of a single variant.
fn cell_label(c: &Cell) -> Option<&'static str> {
    if c.total != 1 || c.disagreements != 0 {
        return None;
    }
    match (c.detected, c.wrong_site, c.missed, c.tolerated, c.crashed) {
        (1, 0, 0, 0, 0) => Some("detected"),
        (0, 1, 0, 0, 0) => Some("wrong-site"),
        (0, 0, 1, 0, 0) => Some("missed"),
        (0, 0, 0, 1, 0) => Some("tolerated"),
        (0, 0, 0, 0, 1) => Some("crash"),
        _ => None,
    }
}

sgxs_sim::obs::document! {
    /// The checkpoint of a seed with a disagreement or failure: resume
    /// re-runs it, since its records are cheaper to recompute than to
    /// journal.
    struct Dirty {
        dirty: bool,
    }
}

const DIRTY: Dirty = Dirty { dirty: true };

sgxs_sim::obs::document! {
    /// A clean fuzz seed's checkpoint: its fault kind and one fault-cell
    /// verdict label per scheme, [`ALL_SCHEMES`] order.
    struct FaultRow {
        kind: String,
        fault: Vec<String>,
    }
}

sgxs_sim::obs::document! {
    /// A clean chaos-fuzz seed's checkpoint.
    struct ChaosCounts {
        runs: u64,
        clean: u64,
        rode_out: u64,
        retries: u64,
    }
}

/// The differential fuzz campaign as a supervised [`Campaign`].
///
/// Checkpoints are verdict labels only: a clean seed journals its fault
/// kind plus the eight per-scheme verdict labels ([`FaultRow`]) — enough
/// to rebuild its matrix contribution exactly — while a seed with any
/// disagreement journals `{"dirty": true}` and is deterministically re-run
/// on resume. Restore takes only rows the seed can produce: its own kind,
/// and labels the detection model allows.
pub struct FuzzCampaign {
    /// The options every seed runs under.
    pub opts: FuzzOpts,
}

impl Campaign for FuzzCampaign {
    type Out = Report;

    fn name(&self) -> &'static str {
        "fuzz"
    }

    fn fingerprint(&self) -> String {
        format!(
            "fuzz max_ops={} shrink={} tier={:?} trace_window={} budget={} \
             demo_panic={:?} demo_budget={:?}",
            self.opts.max_ops,
            self.opts.shrink,
            self.opts.tier,
            self.opts.trace_window,
            self.opts.budget,
            self.opts.demo_panic,
            self.opts.demo_budget
        )
    }

    fn run_seed(&self, seed: u64, _attempt: u32) -> Result<Report, TaskError> {
        run_seed_report(&self.opts, seed)
    }

    fn checkpoint(&self, r: &Report) -> Json {
        let dirty = DIRTY.put();
        if !r.disagreements.is_empty() || r.cells.len() != ALL_SCHEMES.len() {
            return dirty;
        }
        let kind = match r.cells.keys().next() {
            Some(&(k, _)) => k,
            None => return dirty,
        };
        let mut fault = Vec::new();
        for scheme in ALL_SCHEMES {
            match r.cells.get(&(kind, scheme)).and_then(cell_label) {
                Some(l) => fault.push(l.to_owned()),
                None => return dirty,
            }
        }
        FaultRow {
            kind: kind.label().to_owned(),
            fault,
        }
        .put()
    }

    fn restore(&self, seed: u64, payload: &Json) -> Result<Restored<Report>, String> {
        let what = "fuzz checkpoint";
        if *payload == DIRTY.put() {
            return Ok(Restored::Rerun);
        }
        let row = FaultRow::take(payload, what)?;
        let kind = FaultKind::for_seed(seed);
        if row.kind != kind.label() || row.fault.len() != ALL_SCHEMES.len() {
            return Err(format!(
                "{what}: a '{}' row of {} labels, but the seed injects '{}' under {} schemes",
                row.kind,
                row.fault.len(),
                kind.label(),
                ALL_SCHEMES.len()
            ));
        }
        let mut report = Report::seeded();
        report.programs = 1;
        // 1 native + 7 safe + 8 fault executions per clean seed.
        report.runs = 2 * ALL_SCHEMES.len() as u64;
        for scheme in ALL_SCHEMES {
            let cell = report.safe.get_mut(&scheme).expect("seeded");
            cell.passes = 1;
            cell.total = 1;
        }
        for (scheme, label) in ALL_SCHEMES.into_iter().zip(&row.fault) {
            // Only a label a clean cell encodes, inside the detection model.
            let mut cell = Cell::default();
            if let Some(v) = verdict_from_label(label).filter(|v| verdict_ok(scheme, Some(kind), v))
            {
                cell.add(&v, true);
            }
            if cell_label(&cell) != Some(label.as_str()) {
                return Err(format!(
                    "{what}: '{label}' under {} is not a clean {} verdict",
                    scheme.label(),
                    kind.label()
                ));
            }
            report.cells.insert((kind, scheme), cell);
        }
        Ok(Restored::Value(report))
    }
}

/// A supervised campaign's outcome: the merged report plus stop/resume
/// provenance (kept out of the artifact so a resumed run's document stays
/// byte-identical to an uninterrupted one).
#[derive(Debug)]
pub struct SupervisedFuzz {
    /// The merged campaign report.
    pub report: Report,
    /// Whether a graceful stop ended the campaign early.
    pub stopped: bool,
    /// Seeds restored from the journal instead of re-run.
    pub resumed: u64,
}

/// Runs the differential campaign under the [`sgxs_super`] supervisor:
/// seeds shard across the work-stealing pool, panicking and over-budget
/// seeds are quarantined instead of killing the run, and per-seed reports
/// merge in seed order, so the output is byte-identical for every worker
/// count and across checkpoint/resume. Invalid options
/// ([`FuzzOpts::validate`]) are refused before any seed runs.
pub fn run_campaign_supervised(
    opts: &FuzzOpts,
    sup: &SuperOpts,
    stop: &StopFlag,
) -> Result<SupervisedFuzz, String> {
    opts.validate()?;
    let campaign = FuzzCampaign { opts: opts.clone() };
    let run = supervise(&campaign, opts.seed0, opts.seeds, sup, stop)?;
    let mut report = Report::seeded();
    for (_, r) in &run.outcomes {
        report.merge(r);
    }
    report.quarantine = run.quarantined.clone();
    report.skipped = run.skipped.len() as u64;
    Ok(SupervisedFuzz {
        report,
        stopped: run.stopped,
        resumed: run.resumed,
    })
}

/// Results of the environmental-chaos campaign mode.
#[derive(Debug, Clone, Default)]
pub struct ChaosFuzzReport {
    /// Programs fuzzed.
    pub programs: u64,
    /// Total chaotic scheme executions.
    pub runs: u64,
    /// Runs that completed with the clean digest and zero retries (the
    /// fault plan happened not to fire).
    pub clean: u64,
    /// Runs that rode out at least one injected allocator failure and
    /// still reproduced the clean digest ([`Verdict::Tolerated`]).
    pub rode_out: u64,
    /// Total retry attempts across all runs.
    pub retries: u64,
    /// Runs whose result diverged under chaos (digest mismatch, false
    /// positive, or crash) — each one is a recovery bug.
    pub failures: Vec<(u64, FScheme, Verdict)>,
    /// Seeds quarantined by the failure ladder, in seed order.
    pub quarantine: Vec<Quarantined>,
    /// Seeds skipped by a graceful stop.
    pub skipped: u64,
}

impl ChaosFuzzReport {
    /// True when every chaotic run reproduced the clean digest.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds one shard (typically a single seed's report) into the
    /// aggregate; merging in seed order reproduces the sequential campaign
    /// bit-for-bit.
    pub fn merge(&mut self, other: &ChaosFuzzReport) {
        self.programs += other.programs;
        self.runs += other.runs;
        self.clean += other.clean;
        self.rode_out += other.rode_out;
        self.retries += other.retries;
        self.failures.extend(other.failures.iter().cloned());
        self.quarantine.extend(other.quarantine.iter().cloned());
        self.skipped += other.skipped;
    }

    /// Explicit coverage ledger over the seed range.
    pub fn coverage(&self) -> Coverage {
        Coverage {
            seeds: self.programs + self.quarantine.len() as u64 + self.skipped,
            completed: self.programs,
            quarantined: self.quarantine.len() as u64,
            skipped: self.skipped,
        }
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos fuzz: {} programs, {} runs — {} clean, {} rode out \
             injected OOM ({} retries), {} failure(s)",
            self.programs,
            self.runs,
            self.clean,
            self.rode_out,
            self.retries,
            self.failures.len()
        );
        for (seed, scheme, v) in &self.failures {
            let _ = writeln!(
                s,
                "  seed {seed} under {}: {} ({v:?})",
                scheme.label(),
                v.label()
            );
        }
        s.push_str(&render_quarantine(&self.quarantine, self.skipped));
        s
    }
}

/// Runs one chaos-fuzz seed: the safe program under every scheme with an
/// allocator fault plan installed and an OOM-retry recovery policy.
/// `attempt` salts the chaos schedule, so a transiently-exhausted retry
/// ladder sees a genuinely different fault pattern on the supervisor's
/// next rung — while attempt 1 reproduces the historical sequential
/// schedule exactly.
pub fn run_chaos_seed(
    opts: &FuzzOpts,
    seed: u64,
    attempt: u32,
) -> Result<ChaosFuzzReport, TaskError> {
    if opts.demo_panic == Some(seed) {
        panic!("demo: injected panicking seed {seed}");
    }
    let budget = seed_budget(opts, seed);
    let over = TaskError::Budget {
        spent: budget,
        budget,
    };
    let mut report = ChaosFuzzReport::default();
    let prog = gen::generate(seed, opts.max_ops);
    report.programs += 1;
    let native = exec(&prog, FScheme::Native, opts.tier, budget);
    if is_budget_trap(&native) {
        return Err(over);
    }
    let Ok(native_digest) = native.result else {
        report
            .failures
            .push((seed, FScheme::Native, Verdict::Crash("clean run".into())));
        return Ok(report);
    };
    let chaos_seed = seed
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .wrapping_add(attempt as u64);
    for scheme in ALL_SCHEMES {
        let e = exec_chaos(&prog, scheme, chaos_seed, opts.tier, budget);
        if is_budget_trap(&e) {
            return Err(over);
        }
        if is_oom_trap(&e) {
            return Err(TaskError::Transient(format!(
                "injected allocator faults exhausted the VM retry ladder under {}",
                scheme.label()
            )));
        }
        report.runs += 1;
        report.retries += e.retries;
        let mut v = classify(None, native_digest, &e);
        if v == Verdict::Pass && e.retries > 0 {
            v = Verdict::Tolerated;
        }
        match v {
            Verdict::Pass => report.clean += 1,
            Verdict::Tolerated => report.rode_out += 1,
            bad => report.failures.push((seed, scheme, bad)),
        }
    }
    Ok(report)
}

/// Chaos campaign mode, sequentially in-process: every *safe* program runs
/// under every scheme with an allocator fault plan installed. The
/// environmental faults are transient by construction, so every run must
/// still reproduce the clean native digest bit-for-bit; a run that needed
/// retries to get there is classified [`Verdict::Tolerated`]. Seeds whose
/// VM retry ladder is exhausted outright are quarantined as transient
/// (single attempt here; [`run_chaos_fuzz_supervised`] retries them with
/// fresh chaos salts). Invalid options ([`FuzzOpts::validate`]) are
/// refused before any seed runs.
pub fn run_chaos_fuzz(opts: &FuzzOpts) -> Result<ChaosFuzzReport, String> {
    opts.validate()?;
    let mut report = ChaosFuzzReport::default();
    for seed in opts.seed0..opts.seed0 + opts.seeds {
        match run_chaos_seed(opts, seed, 1) {
            Ok(r) => report.merge(&r),
            Err(e) => report.quarantine.push(quarantine_entry(seed, 1, &e)),
        }
    }
    Ok(report)
}

/// The chaos-fuzz campaign as a supervised [`Campaign`]. Clean seeds
/// checkpoint their four counters ([`ChaosCounts`]), and restore takes only
/// counters a clean seed can produce; seeds with failures journal
/// `{"dirty": true}` and re-run deterministically on resume.
pub struct ChaosFuzzCampaign {
    /// The options every seed runs under.
    pub opts: FuzzOpts,
}

impl Campaign for ChaosFuzzCampaign {
    type Out = ChaosFuzzReport;

    fn name(&self) -> &'static str {
        "chaos-fuzz"
    }

    fn fingerprint(&self) -> String {
        format!(
            "chaos-fuzz max_ops={} tier={:?} budget={} demo_panic={:?} demo_budget={:?}",
            self.opts.max_ops,
            self.opts.tier,
            self.opts.budget,
            self.opts.demo_panic,
            self.opts.demo_budget
        )
    }

    fn run_seed(&self, seed: u64, attempt: u32) -> Result<ChaosFuzzReport, TaskError> {
        run_chaos_seed(&self.opts, seed, attempt)
    }

    fn checkpoint(&self, r: &ChaosFuzzReport) -> Json {
        if !r.failures.is_empty() {
            return DIRTY.put();
        }
        ChaosCounts {
            runs: r.runs,
            clean: r.clean,
            rode_out: r.rode_out,
            retries: r.retries,
        }
        .put()
    }

    fn restore(&self, _seed: u64, payload: &Json) -> Result<Restored<ChaosFuzzReport>, String> {
        let what = "chaos-fuzz checkpoint";
        if *payload == DIRTY.put() {
            return Ok(Restored::Rerun);
        }
        let c = ChaosCounts::take(payload, what)?;
        let runs = ALL_SCHEMES.len() as u64;
        let max_retries = c.rode_out.saturating_mul(u64::from(OOM_RETRY_ATTEMPTS));
        if c.runs != runs
            || c.clean.checked_add(c.rode_out) != Some(runs)
            || c.retries < c.rode_out
            || c.retries > max_retries
        {
            return Err(format!(
                "{what}: runs {} clean {} rode_out {} retries {} are not a clean \
                 seed's counters ({runs} runs, each clean or ridden out with 1 to \
                 {OOM_RETRY_ATTEMPTS} retries)",
                c.runs, c.clean, c.rode_out, c.retries
            ));
        }
        Ok(Restored::Value(ChaosFuzzReport {
            programs: 1,
            runs: c.runs,
            clean: c.clean,
            rode_out: c.rode_out,
            retries: c.retries,
            ..ChaosFuzzReport::default()
        }))
    }
}

/// A supervised chaos-fuzz campaign's outcome.
#[derive(Debug)]
pub struct SupervisedChaosFuzz {
    /// The merged campaign report.
    pub report: ChaosFuzzReport,
    /// Whether a graceful stop ended the campaign early.
    pub stopped: bool,
    /// Seeds restored from the journal instead of re-run.
    pub resumed: u64,
}

/// Runs the chaos-fuzz campaign under the supervisor (worker pool, panic
/// isolation, transient retries with fresh chaos salts, checkpoint/
/// resume). Byte-identical output for every worker count. Invalid options
/// ([`FuzzOpts::validate`]) are refused before any seed runs.
pub fn run_chaos_fuzz_supervised(
    opts: &FuzzOpts,
    sup: &SuperOpts,
    stop: &StopFlag,
) -> Result<SupervisedChaosFuzz, String> {
    opts.validate()?;
    let campaign = ChaosFuzzCampaign { opts: opts.clone() };
    let run = supervise(&campaign, opts.seed0, opts.seeds, sup, stop)?;
    let mut report = ChaosFuzzReport::default();
    for (_, r) in &run.outcomes {
        report.merge(r);
    }
    report.quarantine = run.quarantined.clone();
    report.skipped = run.skipped.len() as u64;
    Ok(SupervisedChaosFuzz {
        report,
        stopped: run.stopped,
        resumed: run.resumed,
    })
}

/// One replayable corpus entry: everything needed to regenerate a
/// (program, fault) pair deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Generator seed.
    pub seed: u64,
    /// Max safe ops at generation time.
    pub max_ops: usize,
    /// Injected fault kind, or `None` for the safe program.
    pub kind: Option<FaultKind>,
}

impl CorpusEntry {
    /// Serializes to one corpus line: `seed max_ops kind`.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {}",
            self.seed,
            self.max_ops,
            self.kind.map(|k| k.label()).unwrap_or("safe")
        )
    }

    /// Parses one corpus line (ignores blank lines and `#` comments).
    pub fn parse(line: &str) -> Option<CorpusEntry> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut it = line.split_whitespace();
        let seed = it.next()?.parse().ok()?;
        let max_ops = it.next()?.parse().ok()?;
        let kind_s = it.next()?;
        let kind = if kind_s == "safe" {
            None
        } else {
            Some(*ALL_KINDS.iter().find(|k| k.label() == kind_s)?)
        };
        Some(CorpusEntry {
            seed,
            max_ops,
            kind,
        })
    }

    /// Replays the entry under every scheme on `tier`, each run under
    /// `budget` instructions; returns the disagreements (empty = the entry
    /// conforms to the detection model). A run that exhausts the budget is
    /// not a verdict: the replay fails with the [`SeedFailure::Budget`] a
    /// campaign quarantines such a seed with. `repro fuzz --corpus F --tier
    /// compiled` replays the regression corpus on the compiled tier and
    /// expects the same clean verdicts.
    pub fn replay(
        &self,
        tier: ExecTier,
        budget: u64,
    ) -> Result<Vec<(FScheme, Verdict)>, SeedFailure> {
        let over = SeedFailure::Budget {
            spent: budget,
            budget,
        };
        let prog = gen::generate(self.seed, self.max_ops);
        let (prog, fault) = match self.kind {
            None => (prog, None),
            Some(kind) => {
                let (fprog, fault) = inject::inject(&prog, kind, self.seed);
                (fprog, Some(fault))
            }
        };
        let native = exec(&prog, FScheme::Native, tier, budget);
        if is_budget_trap(&native) {
            return Err(over);
        }
        let native_digest = native.result.unwrap_or_default();
        let mut bad = Vec::new();
        for scheme in ALL_SCHEMES {
            let e = exec(&prog, scheme, tier, budget);
            if is_budget_trap(&e) {
                return Err(over);
            }
            let v = classify(fault.as_ref(), native_digest, &e);
            if !verdict_ok(scheme, self.kind, &v) {
                bad.push((scheme, v));
            }
        }
        Ok(bad)
    }
}

/// Parses a whole corpus file. A non-blank, non-comment line that does not
/// parse is an error (a typo'd fault kind must not silently drop coverage).
pub fn parse_corpus(text: &str) -> Result<Vec<CorpusEntry>, String> {
    let mut entries = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        match CorpusEntry::parse(t) {
            Some(e) if e.max_ops > MAX_OPS => {
                return Err(format!(
                    "corpus line {}: max_ops {} exceeds the cap {MAX_OPS}",
                    n + 1,
                    e.max_ops
                ))
            }
            Some(e) => entries.push(e),
            None => return Err(format!("corpus line {}: cannot parse '{t}'", n + 1)),
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_audit::LedgerRecorder;
    use sgxs_sim::obs::Recorder;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn corpus_lines_round_trip() {
        for entry in [
            CorpusEntry {
                seed: 7,
                max_ops: 20,
                kind: None,
            },
            CorpusEntry {
                seed: 8,
                max_ops: 16,
                kind: Some(FaultKind::StrcpyOverflow),
            },
        ] {
            assert_eq!(CorpusEntry::parse(&entry.to_line()), Some(entry));
        }
        assert_eq!(CorpusEntry::parse("# comment"), None);
        assert_eq!(CorpusEntry::parse(""), None);
    }

    #[test]
    fn every_runner_refuses_invalid_options_before_any_seed() {
        let journal =
            std::env::temp_dir().join(format!("sgxs-fuzz-invalid-{}.jsonl", std::process::id()));
        let sup = SuperOpts {
            journal: Some(journal.to_string_lossy().into_owned()),
            ..SuperOpts::default()
        };
        let ok = FuzzOpts {
            seeds: 1,
            ..FuzzOpts::default()
        };
        assert_eq!(ok.validate(), Ok(()));
        let none = FuzzOpts {
            seeds: 0,
            ..ok.clone()
        };
        assert_eq!(none.validate(), Ok(()), "zero seeds runs nothing");
        for bad in [
            FuzzOpts {
                max_ops: MAX_OPS + 1,
                ..ok.clone()
            },
            FuzzOpts {
                budget: 0,
                ..ok.clone()
            },
            FuzzOpts {
                trace_window: 0,
                ..ok.clone()
            },
            FuzzOpts {
                seed0: u64::MAX,
                ..ok.clone()
            },
        ] {
            let e = bad.validate().expect_err("invalid options validate");
            assert_eq!(run_campaign(&bad).err(), Some(e.clone()));
            assert_eq!(run_chaos_fuzz(&bad).err(), Some(e.clone()));
            let stop = StopFlag::new();
            let fuzz = run_campaign_supervised(&bad, &sup, &stop);
            assert_eq!(fuzz.err(), Some(e.clone()));
            let chaos = run_chaos_fuzz_supervised(&bad, &sup, &stop);
            assert_eq!(chaos.err(), Some(e));
        }
        assert!(!journal.exists(), "a refused campaign opened its journal");
    }

    #[test]
    fn corpus_replay_over_budget_is_no_verdict() {
        let entry = CorpusEntry {
            seed: 3,
            max_ops: 20,
            kind: None,
        };
        assert_eq!(
            entry.replay(ExecTier::Reference, DEFAULT_BUDGET),
            Ok(vec![])
        );
        let over = entry.replay(ExecTier::Reference, DEMO_BUDGET);
        let want = SeedFailure::Budget {
            spent: DEMO_BUDGET,
            budget: DEMO_BUDGET,
        };
        assert_eq!(over, Err(want));
    }

    #[test]
    fn corpus_max_ops_beyond_the_cap_is_a_line_error() {
        let at_cap = format!("1 {MAX_OPS} safe\n");
        assert_eq!(parse_corpus(&at_cap).map(|e| e[0].max_ops), Ok(MAX_OPS));
        let text = "# header\n1 20 safe\n1 18446744073709551615 safe\n";
        let e = parse_corpus(text).unwrap_err();
        assert!(
            e.contains("corpus line 3") && e.contains("exceeds the cap"),
            "{e}"
        );
    }

    #[test]
    fn forensic_rerun_is_zero_perturbation_and_incidents_are_deterministic() {
        // exec_forensic carries a full ledger recorder and span mode, yet
        // must reproduce the plain run's observables exactly — otherwise the
        // incident describes a different execution than the one that failed.
        let prog = gen::generate(42, 12);
        let (fprog, fault) = inject::inject(&prog, FaultKind::HeapOverflow, 42);
        let tier = ExecTier::Reference;
        for scheme in [FScheme::SgxBounds, FScheme::Asan, FScheme::Mpx] {
            let plain = exec(&fprog, scheme, tier, DEFAULT_BUDGET);
            let (forensic, rec) = exec_forensic(&fprog, scheme, tier, DEFAULT_BUDGET, 32);
            assert_eq!(
                format!("{:?}", plain.result),
                format!("{:?}", forensic.result),
                "{}",
                scheme.label()
            );
            assert_eq!(plain.beacon, forensic.beacon, "{}", scheme.label());
            assert_eq!(plain.violations, forensic.violations, "{}", scheme.label());
            assert!(!rec.ledger().objects().is_empty(), "{}", scheme.label());
            let events = rec.trace().last_events(32);
            assert!(!events.is_empty(), "{}: no events traced", scheme.label());
            let (_, again) = exec_forensic(&fprog, scheme, tier, DEFAULT_BUDGET, 32);
            assert_eq!(
                events,
                again.trace().last_events(32),
                "{}: trace not deterministic",
                scheme.label()
            );
        }
        // Incidents assembled from the same seed are byte-identical across
        // reruns and tiers.
        let opts = FuzzOpts::default();
        let v = Verdict::Detected;
        let a = forensic_incident(
            &fprog,
            Some(&fault),
            42,
            FScheme::SgxBounds,
            &v,
            None,
            &opts,
        );
        let b = forensic_incident(
            &fprog,
            Some(&fault),
            42,
            FScheme::SgxBounds,
            &v,
            None,
            &opts,
        );
        assert_eq!(a.put().to_compact(), b.put().to_compact());
        let compiled = FuzzOpts {
            tier: ExecTier::Compiled,
            ..FuzzOpts::default()
        };
        let c = forensic_incident(
            &fprog,
            Some(&fault),
            42,
            FScheme::SgxBounds,
            &v,
            None,
            &compiled,
        );
        // The artifact is byte-identical across execution tiers — the
        // `tier: pinned` claim every incident carries. The production boot
        // never lowers a program this short, so the forensic run is also
        // repeated with the compiled tier forced to lower after k quanta.
        assert_eq!(a.put().to_compact(), c.put().to_compact());
        let window = opts.trace_window;
        let incident = |rec: &LedgerRecorder| {
            let doc = sgxs_audit::assemble(IncidentMeta::default(), rec, window);
            doc.put().to_compact()
        };
        let (_, rec) = exec_forensic(&fprog, FScheme::SgxBounds, tier, opts.budget, window);
        let reference = incident(&rec);
        let hardening = FScheme::SgxBounds.hardening();
        let mut module = gen::build(&fprog);
        hardening.instrument(&mut module, true).unwrap();
        for k in [0, 1, 7] {
            let rec = Rc::new(RefCell::new(LedgerRecorder::new(window)));
            let traced = Some(rec.clone() as Rc<RefCell<dyn Recorder>>);
            let (mut vm, rt) = runner::boot(&hardening, &module, traced, tier, opts.budget);
            sgxs_exec::attach_after(&mut vm, k);
            runner::run_booted(&mut vm, &rt, None);
            drop((vm, rt));
            let rec = Rc::try_unwrap(rec).expect("recorder released").into_inner();
            assert_eq!(incident(&rec), reference, "lowered after {k} quanta");
        }
        assert_eq!(a.tier, "pinned");
        assert!(
            a.truth.is_some(),
            "ground truth missing from fault incident"
        );
        assert!(!a.derivation.is_empty(), "derivation chain empty");
    }

    #[test]
    fn chaos_fuzz_rides_out_injected_oom_with_identical_digests() {
        let report = run_chaos_fuzz(&FuzzOpts {
            seeds: 6,
            seed0: 300,
            max_ops: 12,
            shrink: false,
            ..FuzzOpts::default()
        })
        .expect("valid options");
        assert_eq!(report.programs, 6);
        assert!(report.passed(), "chaos failures:\n{}", report.render());
        assert!(
            report.rode_out > 0 && report.retries > 0,
            "fault plan never fired — chaos mode is not exercising recovery:\n{}",
            report.render()
        );
    }

    #[test]
    fn tiny_campaign_is_clean_and_covers_the_matrix() {
        let report = run_campaign(&FuzzOpts {
            seeds: 18,
            seed0: 100,
            max_ops: 10,
            shrink: true,
            ..FuzzOpts::default()
        })
        .expect("valid options");
        assert_eq!(report.programs, 18);
        assert!(
            report.disagreements.is_empty(),
            "unexpected disagreements:\n{}",
            report.render()
        );
        // 18 seeds round-robin over 9 kinds: every kind hit twice.
        for kind in ALL_KINDS {
            let c = report.cells[&(kind, FScheme::SgxBounds)];
            assert_eq!(c.total, 2, "{kind:?}");
        }
        assert!(report.quarantine.is_empty());
        assert_eq!(report.skipped, 0);
        let cov = report.coverage();
        assert_eq!((cov.seeds, cov.completed), (18, 18));
        let rendered = report.render();
        assert!(rendered.contains("heap-overflow"));
        assert!(rendered.contains("sb-narrow"));
    }

    #[test]
    fn supervised_campaign_matches_serial_and_quarantines_demo_seeds() {
        let opts = FuzzOpts {
            seeds: 6,
            seed0: 100,
            max_ops: 8,
            shrink: false,
            ..FuzzOpts::default()
        };
        let serial = run_campaign(&opts).expect("valid options");
        let sup = SuperOpts {
            workers: 3,
            quiet_panics: true,
            ..SuperOpts::default()
        };
        let s = run_campaign_supervised(&opts, &sup, &StopFlag::new()).expect("supervised");
        assert_eq!(
            serial.to_json().to_compact(),
            s.report.to_json().to_compact(),
            "supervised pool must not change a single output byte"
        );
        assert_eq!(s.resumed, 0);
        assert!(!s.stopped);

        // Demo hooks: one panicking and one over-budget seed quarantine,
        // the other four complete, and the campaign survives both.
        let demo = FuzzOpts {
            demo_panic: Some(101),
            demo_budget: Some(103),
            ..opts.clone()
        };
        let d = run_campaign_supervised(&demo, &sup, &StopFlag::new()).expect("supervised");
        let cov = d.report.coverage();
        assert_eq!(
            (cov.seeds, cov.completed, cov.quarantined, cov.skipped),
            (6, 4, 2, 0)
        );
        let classes: Vec<(u64, &str)> = d
            .report
            .quarantine
            .iter()
            .map(|q| (q.seed, q.class.as_str()))
            .collect();
        assert_eq!(classes, vec![(101, "panic"), (103, "budget")]);
        assert!(
            d.report.quarantine[0]
                .detail
                .contains("injected panicking seed 101"),
            "panic payload must surface in the quarantine detail: {}",
            d.report.quarantine[0].detail
        );
        assert!(d.report.disagreements.is_empty());
        let rendered = d.report.render();
        assert!(rendered.contains("quarantined seeds:"), "{rendered}");
        assert!(rendered.contains("budget"), "{rendered}");
    }

    #[test]
    fn supervised_chaos_fuzz_matches_serial() {
        let opts = FuzzOpts {
            seeds: 6,
            seed0: 300,
            max_ops: 12,
            shrink: false,
            ..FuzzOpts::default()
        };
        let serial = run_chaos_fuzz(&opts).expect("valid options");
        assert!(serial.passed(), "{}", serial.render());
        for workers in [1, 4] {
            let sup = SuperOpts {
                workers,
                quiet_panics: true,
                ..SuperOpts::default()
            };
            let s = run_chaos_fuzz_supervised(&opts, &sup, &StopFlag::new()).expect("supervised");
            assert_eq!(
                serial.render(),
                s.report.render(),
                "workers={workers} must reproduce the sequential campaign"
            );
        }
    }

    /// Restore rebuilds exactly what a seed's run gives, and refuses a
    /// checkpoint that run could not have written.
    #[test]
    fn restore_takes_only_checkpoints_the_seed_can_produce() {
        let fuzz = FuzzCampaign {
            opts: FuzzOpts::default(),
        };
        let seed = 1;
        let run = fuzz.run_seed(seed, 1).expect("seed runs");
        let payload = fuzz.checkpoint(&run);
        let Ok(Restored::Value(back)) = fuzz.restore(seed, &payload) else {
            panic!("a clean checkpoint restores");
        };
        assert_eq!(back.to_json(), run.to_json());
        assert!(
            fuzz.restore(seed + 1, &payload).is_err(),
            "another seed's kind"
        );
        let text = payload.to_compact();
        for (from, to) in [
            (r#"["missed","detected""#, r#"["missed","missed""#),
            ("missed", "pass"),
        ] {
            let forged = Json::parse(&text.replacen(from, to, 1)).unwrap();
            assert!(fuzz.restore(seed, &forged).is_err(), "{from} -> {to}");
        }
        let not_dirty = Json::parse(r#"{"dirty":false}"#).unwrap();
        assert!(fuzz.restore(seed, &not_dirty).is_err());

        let chaos = ChaosFuzzCampaign {
            opts: FuzzOpts::default(),
        };
        // Seed 0 rides out injected OOM on every scheme.
        let run = chaos.run_seed(0, 1).expect("seed runs");
        assert!(run.rode_out > 0, "seed 0 needs a ridden-out run");
        let payload = chaos.checkpoint(&run);
        let Ok(Restored::Value(back)) = chaos.restore(0, &payload) else {
            panic!("a clean checkpoint restores");
        };
        assert_eq!(back.render(), run.render());
        let retries = format!("\"retries\":{}", run.retries);
        let cap = run.rode_out * u64::from(OOM_RETRY_ATTEMPTS);
        for bad in [cap + 1, run.rode_out - 1] {
            let text = payload
                .to_compact()
                .replace(&retries, &format!("\"retries\":{bad}"));
            let forged = Json::parse(&text).unwrap();
            assert!(chaos.restore(0, &forged).is_err(), "retries {bad}");
        }
    }
}
