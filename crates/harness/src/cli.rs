//! The `repro` command line, as a library.
//!
//! Every subcommand is a function returning `Result<i32, String>`: the
//! `Ok` value is the process exit code (0 = success, 1 = a gate or run
//! failure the caller asked us to detect), an `Err` is a usage or I/O
//! problem the binary prints to stderr before exiting 2. Nothing in this
//! module calls `std::process::exit`, so the subcommands are testable
//! in-process.
//!
//! Subcommands:
//!
//! * experiments (`repro fig7 --quick`, `repro all --json out.json`) —
//!   regenerate the paper's tables/figures, optionally writing the
//!   `sgxs-bench-v1` document;
//! * `repro profile <workload>` — run one workload with the
//!   observability layer on and print its per-check-site profile;
//! * `repro fuzz` — the differential fuzzing campaign (`--chaos` adds the
//!   environmental-chaos mode: allocator fault injection + OOM retry);
//! * `repro chaos` — the availability-under-attack campaign: seeded chaos
//!   schedules against the per-request server modules under every
//!   scheme/recovery-policy combo, with a corruption + availability gate;
//! * `repro lint` — the static OOB + temporal lint over workload modules
//!   (exits 1 on any proved-OOB/UAF/double-free access; `--ipa` runs the
//!   interprocedural tier and emits `sgxs-lint-v2`; `--incident` writes
//!   the demo detection as a `sgxs-incident-v1` artifact);
//! * `repro audit` — incident forensics: run the demo OOB under SGXBounds
//!   with the object-provenance ledger attached on *both* execution tiers,
//!   byte-compare the forensics, and emit the cross-tier-pinned
//!   `sgxs-incident-v1` artifact (plus ASCII / SVG heap-neighborhood
//!   renderings);
//! * `repro bench record` — run the full suite and append one
//!   `sgxs-history-v1` line per replicate to `results/history.jsonl`;
//! * `repro compare A B [--gate]` — statistical regression comparison of
//!   two bench documents / history replicate sets (also accepts
//!   `sgxs-metrics-v1` documents on either side);
//! * `repro render profile.json` — folded stacks, SVG treemap, and an
//!   ASCII table from a `sgxs-profile-v1` document;
//! * `repro metrics` — run a chaos campaign and emit its standalone
//!   `sgxs-metrics-v1` registry (latency histograms per scheme × policy,
//!   request-outcome counters) with a percentile table on stdout;
//! * `repro trace export` — run one traced server under a chaos schedule
//!   and export the span tree as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`), optionally as ASCII or SVG timeline;
//! * `repro selfcheck` — check every determinism law of every artifact,
//!   from the registry in `selfcheck.rs`.

use crate::exp::{self, Effort, DEFAULT_SEED};
use crate::profile::{profile_one, DEFAULT_RING, DEFAULT_TOP};
use crate::scheme::{RunConfig, Scheme};
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{metrics_from_json, parse_bench, parse_profile, BenchDoc, METRICS_SCHEMA};
use sgxs_perf::{
    compare, flatten, flatten_metrics, parse_history, render, CompareOpts, HistoryRecord, Metric,
};
use sgxs_sim::{ExecTier, Preset};
use sgxs_workloads::SizeClass;

/// Experiment names the suite accepts (besides `all`).
pub const EXPERIMENTS: [&str; 11] = [
    "fig1", "fig7", "fig8", "table3", "fig9", "fig10", "table4", "fig11", "fig12", "fig13", "cases",
];

/// Top-level usage text.
pub const USAGE: &str =
    "usage: repro <fig1|fig7|fig8|table3|fig9|fig10|table4|fig11|fig12|fig13|cases|all> \
     [--quick] [--tiny|--mini|--paper] [--seed N] [--tier T] [--timed] [--json FILE]\n       \
     repro profile <workload> [--scheme S] [--trace FILE] [--json FILE]\n       \
     repro fuzz [--seeds N] [--seed0 N] [--max-ops N] [--no-shrink] [--corpus FILE] [--chaos] \
     [--trace-window N] [--tier T] [--budget N] [--workers N] [--journal FILE] [--resume FILE] \
     [--stop-after N] [--quarantine] [--demo-panic SEED] [--demo-budget SEED] [--json FILE]\n       \
     repro chaos [--seeds N] [--seed0 N] [--requests N] [--threshold F] [--demo-corruption] \
     [--tier T] [--workers N] [--journal FILE] [--resume FILE] [--stop-after N] [--quarantine] \
     [--demo-panic SEED] [--json FILE]\n       \
     repro lint [NAMES...] [--ipa] [--demo-oob] [--demo-uaf] [--ascii] [--seed N] \
     [--json FILE] [--incident FILE]\n       \
     repro audit --demo-oob [--window N] [--json FILE] [--ascii FILE] [--svg FILE]\n       \
     repro bench record [--quick] [--tiny|--mini|--paper] [--replicates N] [--seed0 N] \
     [--rev REV] [--tier T] [--out FILE]\n       \
     repro compare <BASE> <NEW> [--gate] [--top N] [--threshold F] [--noise-mult F] \
     [--rev R] [--base-rev R] [--preset P] [--json FILE]\n       \
     repro render <profile.json> [--top N] [--folded FILE] [--svg FILE]\n       \
     repro metrics [--seeds N] [--seed0 N] [--requests N] [--tier T] [--workers N] \
     [--journal FILE] [--resume FILE] [--stop-after N] [--quarantine] [--demo-panic SEED] \
     [--json FILE]\n       \
     repro trace export [--app A] [--scheme S] [--policy P] [--seed N] [--requests N] \
     [--tier T] [--out FILE] [--ascii FILE] [--svg FILE]\n       \
     repro selfcheck\n\
     (--tier: reference|compiled — the compiled tier is pinned bit-identical \
     and only changes host wall time)";

/// Minimal argument cursor shared by every subcommand: uniform
/// "`<cmd>: <flag> needs ...`" errors instead of per-site `unwrap_or_else`
/// + `exit` blocks.
pub struct Args<'a> {
    cmd: &'static str,
    it: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// Wraps `args` for the subcommand named `cmd`.
    pub fn new(cmd: &'static str, args: &'a [String]) -> Args<'a> {
        Args {
            cmd,
            it: args.iter(),
        }
    }

    /// The next raw argument, if any.
    pub fn next_arg(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }

    /// The value following `flag`, or a uniform error.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.it
            .next()
            .cloned()
            .ok_or_else(|| format!("{}: {flag} needs an argument", self.cmd))
    }

    /// The parsed value following `flag`, or a uniform error.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{}: {flag} needs a valid value, got '{v}'", self.cmd))
    }

    /// An error message prefixed with this subcommand's name.
    pub fn fail(&self, msg: impl std::fmt::Display) -> String {
        format!("{}: {msg}", self.cmd)
    }
}

/// The value of `flag`, at most `cap`. Caps `--max-ops` at
/// [`sgxs_fuzz::MAX_OPS`] (the generator allocates every op up front, so
/// a larger value would abort the process).
fn capped(it: &mut Args<'_>, flag: &str, cap: usize) -> Result<usize, String> {
    let n: u64 = it.parse(flag)?;
    match usize::try_from(n) {
        Ok(n) if n <= cap => Ok(n),
        _ => Err(it.fail(format!("{flag} {n} exceeds the cap {cap}"))),
    }
}

/// Exit code for a campaign ended early by a graceful stop: distinct
/// from both success (0) and a gate failure (1) so wrappers can tell a
/// truncated run from a failed one.
pub const EXIT_STOPPED: i32 = 3;

/// Supervisor flags shared by the campaign subcommands (`fuzz`, `chaos`,
/// `metrics`): worker count, journal/resume, graceful-stop demo hook, and
/// the quarantine-tolerance policy.
struct SupFlags {
    sup: sgxs_super::SuperOpts,
    /// `--quarantine`: tolerate quarantined seeds (report them, exit 0).
    /// Without it, any quarantined seed fails the run.
    quarantine_ok: bool,
}

impl SupFlags {
    fn new() -> SupFlags {
        SupFlags {
            sup: sgxs_super::SuperOpts {
                // The CLI renders quarantined seeds in the report; a raw
                // backtrace per isolated panic would only drown it.
                quiet_panics: true,
                ..sgxs_super::SuperOpts::default()
            },
            quarantine_ok: false,
        }
    }

    /// Consumes one supervisor flag; `Ok(false)` means `a` is not ours.
    fn flag(&mut self, a: &str, it: &mut Args<'_>) -> Result<bool, String> {
        match a {
            "--workers" => self.sup.workers = it.parse("--workers")?,
            "--journal" => self.sup.journal = Some(it.value("--journal")?),
            "--resume" => {
                self.sup.journal = Some(it.value("--resume")?);
                self.sup.resume = true;
            }
            "--stop-after" => self.sup.stop_after = Some(it.parse("--stop-after")?),
            "--quarantine" => self.quarantine_ok = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Folds campaign provenance into an exit code: quarantined seeds
    /// fail the run unless `--quarantine` tolerates them, and a graceful
    /// stop exits [`EXIT_STOPPED`] so it is never mistaken for a pass.
    fn exit(&self, cmd: &str, quarantined: usize, stopped: bool, failed: bool) -> i32 {
        let mut failed = failed;
        if quarantined > 0 && !self.quarantine_ok {
            eprintln!("{cmd}: {quarantined} seed(s) quarantined (pass --quarantine to tolerate)");
            failed = true;
        }
        if failed {
            1
        } else if stopped {
            EXIT_STOPPED
        } else {
            0
        }
    }
}

/// Parses the value of a `--tier` flag.
pub(crate) fn tier_value(it: &mut Args<'_>) -> Result<ExecTier, String> {
    let v = it.value("--tier")?;
    ExecTier::parse(&v).ok_or_else(|| it.fail(format!("unknown tier '{v}' (reference|compiled)")))
}

/// Rejects a seed range `[seed0, seed0 + count)` whose end overflows
/// `u64`: the supervisor would saturate it to fewer seeds than asked for
/// (none at all at `u64::MAX`), and a plain loop would wrap or panic.
fn check_seed_range(it: &Args<'_>, seed0: u64, count: u64, flag: &str) -> Result<(), String> {
    match seed0.checked_add(count) {
        Some(_) => Ok(()),
        None => Err(it.fail(format!("--seed0 {seed0} + {flag} {count} overflows u64"))),
    }
}

/// Maps a `--tiny|--mini|--paper` flag to its preset.
fn preset_flag(arg: &str) -> Option<Preset> {
    match arg {
        "--tiny" => Some(Preset::Tiny),
        "--mini" => Some(Preset::Mini),
        "--paper" => Some(Preset::Paper),
        _ => None,
    }
}

/// Writes `text` to `path`, creating parent directories.
pub(crate) fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Top-level dispatch: the whole `repro` command line minus process exit.
pub fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("chaos") => run_chaos(&args[1..]),
        Some("lint") => crate::lint::run_lint(&args[1..]),
        Some("audit") => crate::audit::run_audit(&args[1..]),
        Some("profile") => run_profile(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("render") => run_render(&args[1..]),
        Some("metrics") => run_metrics(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("selfcheck") => crate::selfcheck::run_selfcheck(&args[1..]),
        _ => run_experiments(args),
    }
}

/// Runs the selected experiments and returns the full `sgxs-bench-v1`
/// document. Every experiment derives its runs from `base`, which carries
/// the preset, the execution tier and the input seed. `print` controls the
/// human tables; the JSON is always built.
pub fn run_suite(
    base: &RunConfig,
    effort: Effort,
    wanted: &[String],
    print: bool,
) -> Result<Json, String> {
    let preset = base.preset;
    for w in wanted {
        if w != "all" && !EXPERIMENTS.contains(&w.as_str()) {
            return Err(format!("unknown experiment '{w}'\n{USAGE}"));
        }
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);
    let quick = effort == Effort::Quick;
    if print {
        println!(
            "SGXBounds reproduction — preset {:?}, effort {:?}\n",
            preset, effort
        );
    }
    // Runs experiment `$id` when wanted, printing its view when asked to.
    macro_rules! experiment {
        ($id:literal, $run:expr) => {
            want($id).then(|| {
                let payload = $run;
                if print {
                    println!("{payload}\n");
                }
                payload
            })
        };
    }
    let sizes: &[SizeClass] = if quick {
        &[SizeClass::XS, SizeClass::M, SizeClass::XL]
    } else {
        &SizeClass::ALL
    };
    let clients: &[u32] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let (steps, rpc) = if quick { (3, 24) } else { (5, 64) };
    // Fields run in the order written, which is the suite's order.
    let exps = exp::Experiments {
        fig1: experiment!("fig1", exp::fig01::run(base, steps)),
        fig7: experiment!("fig7", exp::fig07::run(base, effort)),
        // Table 3 is a second view of the Fig. 8 runs.
        fig8: (want("fig8") || want("table3")).then(|| {
            let f8 = exp::fig08::run(base, sizes);
            if print && want("fig8") {
                println!("{f8}\n");
            }
            if print && want("table3") {
                println!("{}\n", f8.table3());
            }
            f8
        }),
        fig9: experiment!("fig9", exp::fig09::run(base, effort)),
        fig10: experiment!("fig10", exp::fig10::run(base, effort)),
        table4: experiment!("table4", exp::tab04::run(base)),
        fig11: experiment!("fig11", exp::fig11::run(base, effort)),
        fig12: experiment!("fig12", exp::fig12::run(base, effort)),
        fig13: experiment!("fig13", exp::fig13::run(base, clients, rpc)),
        cases: experiment!("cases", exp::cases::run(base)),
    };
    Ok(BenchDoc {
        preset: format!("{preset:?}"),
        effort: format!("{effort:?}"),
        experiments: exps.entries(),
        host: None,
    }
    .put())
}

/// The base configuration of a suite run: `preset`'s defaults on `tier`,
/// with inputs generated from `seed`.
fn suite_base(preset: Preset, tier: ExecTier, seed: u64) -> RunConfig {
    let mut base = RunConfig::new(preset);
    base.tier = tier;
    base.params.seed = seed;
    base
}

/// The experiment suite (`repro fig7 --quick`, `repro all --json f`).
pub fn run_experiments(args: &[String]) -> Result<i32, String> {
    let mut preset = Preset::Mini;
    let mut effort = Effort::Full;
    let mut seed = DEFAULT_SEED;
    let mut tier = ExecTier::default();
    let mut timed = false;
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = Args::new("repro", args);
    while let Some(a) = it.next_arg() {
        if let Some(p) = preset_flag(a) {
            preset = p;
            continue;
        }
        match a {
            "--quick" => effort = Effort::Quick,
            "--seed" => seed = it.parse("--seed")?,
            "--tier" => tier = tier_value(&mut it)?,
            "--timed" => timed = true,
            "--json" => json_path = Some(it.value("--json")?),
            other => wanted.push(other.trim_start_matches('-').to_lowercase()),
        }
    }
    if wanted.is_empty() {
        return Err(USAGE.to_owned());
    }
    let t0 = std::time::Instant::now();
    let mut doc = run_suite(&suite_base(preset, tier, seed), effort, &wanted, true)?;
    let wall_ms = t0.elapsed().as_millis() as u64;
    if timed {
        // Host-side observation only: it lives outside `experiments`, so
        // the flattened metric set (and with it `repro compare`) never
        // sees it, and the default (untimed) document stays byte-identical
        // across tiers.
        attach_host_block(&mut doc, tier, wall_ms);
        println!("host wall time: {wall_ms} ms on the {} tier", tier.label());
    }
    if let Some(path) = &json_path {
        write_file(path, &doc.to_pretty()).map_err(|e| format!("repro: {e}"))?;
        println!("bench json written to {path}");
    }
    Ok(0)
}

/// Appends the optional `sgxs-bench-v1` host block (`{"host": {"tier",
/// "wall_ms"}}`) to a bench document. The block records host-machine
/// facts, not simulated results; `flatten` walks only `experiments`, so
/// it can never gate a comparison.
fn attach_host_block(doc: &mut Json, tier: ExecTier, wall_ms: u64) {
    let host = Json::obj(vec![
        ("tier", tier.label().into()),
        ("wall_ms", wall_ms.into()),
    ]);
    if let Json::Obj(fields) = doc {
        fields.push(("host".to_owned(), host));
    }
}

/// `repro profile <workload>`: one observed run, rendered.
pub fn run_profile(args: &[String]) -> Result<i32, String> {
    let mut workload: Option<String> = None;
    let mut scheme = Scheme::SgxBounds;
    let mut preset = Preset::Tiny;
    let mut size = SizeClass::XS;
    let mut seed = DEFAULT_SEED;
    let mut trace: Option<String> = None;
    let mut json: Option<String> = None;
    let mut top = DEFAULT_TOP;
    let mut ring = DEFAULT_RING;
    let mut it = Args::new("profile", args);
    while let Some(a) = it.next_arg() {
        if let Some(p) = preset_flag(a) {
            preset = p;
            continue;
        }
        match a {
            "--scheme" => {
                let v = it.value("--scheme")?;
                let label = if v == "baseline" { "sgx" } else { v.as_str() };
                scheme = std::iter::once(Scheme::Baseline)
                    .chain(Scheme::all_hardened())
                    .find(|s| s.label() == label)
                    .ok_or_else(|| {
                        it.fail(format!("unknown scheme '{v}' (sgx|sgxbounds|asan|mpx)"))
                    })?;
            }
            "--trace" => trace = Some(it.value("--trace")?),
            "--json" => json = Some(it.value("--json")?),
            "--top" => top = it.parse("--top")?,
            "--ring" => ring = it.parse("--ring")?,
            "--seed" => seed = it.parse("--seed")?,
            "--quick" => size = SizeClass::XS,
            "--full" => size = SizeClass::L,
            other if !other.starts_with('-') && workload.is_none() => {
                workload = Some(other.to_owned())
            }
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    let Some(name) = workload else {
        return Err(it.fail(format!("a workload name is required\n{USAGE}")));
    };
    let Some(w) = sgxs_workloads::by_name(&name) else {
        return Err(it.fail(format!("unknown workload '{name}'")));
    };
    let mut rc = RunConfig::new(preset);
    rc.params.size = size;
    rc.params.seed = seed;
    let pr = profile_one(w.as_ref(), scheme, &rc, ring, top);
    print!("{}", pr.profile.render(top));
    if let Some(path) = &trace {
        write_file(path, &pr.recorder.to_jsonl()).map_err(|e| it.fail(e))?;
        println!(
            "trace: {} events written to {path} ({} dropped from the ring)",
            pr.recorder.ring_len(),
            pr.recorder.dropped()
        );
    }
    if let Some(path) = &json {
        write_file(path, &pr.profile.put().to_pretty()).map_err(|e| it.fail(e))?;
        println!("profile json written to {path}");
    }
    // A hardened run that never executed a check means the site plumbing is
    // broken — fail loudly. `--top 0` only trims the table, so the test is
    // on the sites that fired, not on the sites listed.
    let hardened = !matches!(scheme, Scheme::Baseline);
    if hardened && pr.profile.sites_active == 0 {
        eprintln!("profile: no check site fired under {}", scheme.label());
        return Ok(1);
    }
    Ok(if pr.measured.ok() { 0 } else { 1 })
}

/// `repro fuzz`: differential fuzzing campaign and/or corpus replay.
pub fn run_fuzz(args: &[String]) -> Result<i32, String> {
    let mut opts = sgxs_fuzz::FuzzOpts::default();
    let mut corpus: Option<String> = None;
    let mut ran_seeds = false;
    let mut chaos = false;
    let mut json: Option<String> = None;
    let mut sup = SupFlags::new();
    let mut it = Args::new("fuzz", args);
    while let Some(a) = it.next_arg() {
        if sup.flag(a, &mut it)? {
            continue;
        }
        match a {
            "--seeds" => {
                opts.seeds = it.parse("--seeds")?;
                ran_seeds = true;
            }
            "--seed0" => opts.seed0 = it.parse("--seed0")?,
            "--max-ops" => opts.max_ops = capped(&mut it, "--max-ops", sgxs_fuzz::MAX_OPS)?,
            "--no-shrink" => opts.shrink = false,
            "--corpus" => corpus = Some(it.value("--corpus")?),
            "--chaos" => chaos = true,
            "--trace-window" => opts.trace_window = it.parse("--trace-window")?,
            "--tier" => opts.tier = tier_value(&mut it)?,
            "--budget" => opts.budget = it.parse("--budget")?,
            "--demo-panic" => opts.demo_panic = Some(it.parse("--demo-panic")?),
            "--demo-budget" => opts.demo_budget = Some(it.parse("--demo-budget")?),
            "--json" => json = Some(it.value("--json")?),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    opts.validate().map_err(|e| it.fail(e))?;
    sup.sup.validate().map_err(|e| it.fail(e))?;
    let mut failed = false;
    if let Some(path) = &corpus {
        let text = std::fs::read_to_string(path)
            .map_err(|e| it.fail(format!("cannot read corpus {path}: {e}")))?;
        let entries = sgxs_fuzz::parse_corpus(&text).map_err(|e| it.fail(e))?;
        println!("replaying {} corpus entries from {path}", entries.len());
        for entry in &entries {
            let bad = match entry.replay(opts.tier, opts.budget) {
                Ok(bad) if bad.is_empty() => continue,
                Ok(bad) => bad,
                Err(f) => {
                    failed = true;
                    let line = entry.to_line();
                    println!("  corpus entry '{line}': {}: {}", f.class(), f.detail());
                    continue;
                }
            };
            failed = true;
            for (scheme, v) in bad {
                println!(
                    "  corpus entry '{}': {} produced {:?}",
                    entry.to_line(),
                    scheme.label(),
                    v
                );
            }
        }
        if !failed {
            println!("corpus clean: every entry matches the detection model\n");
        }
    }
    let mut quarantined = 0;
    let mut stopped = false;
    if chaos {
        let out =
            sgxs_fuzz::run_chaos_fuzz_supervised(&opts, &sup.sup, &sgxs_super::StopFlag::new())
                .map_err(|e| it.fail(e))?;
        println!("{}", out.report.render());
        quarantined = out.report.quarantine.len();
        stopped = out.stopped;
        failed |= !out.report.passed();
    } else if corpus.is_none() || ran_seeds {
        let out = sgxs_fuzz::run_campaign_supervised(&opts, &sup.sup, &sgxs_super::StopFlag::new())
            .map_err(|e| it.fail(e))?;
        println!("{}", out.report.render());
        if let Some(path) = &json {
            // The sgxs-fuzz-v1 document embeds one sgxs-incident-v1 record
            // per disagreement (empty array on a clean campaign).
            write_file(path, &out.report.to_json().to_pretty()).map_err(|e| it.fail(e))?;
            println!("fuzz json written to {path}");
        }
        quarantined = out.report.quarantine.len();
        stopped = out.stopped;
        failed |= !out.report.disagreements.is_empty();
    }
    Ok(sup.exit("fuzz", quarantined, stopped, failed))
}

/// `repro chaos`: the availability-under-attack campaign. Exits 1 when
/// any gated (protected) scheme shows cross-object corruption or the
/// boundless combo's availability drops below the threshold.
pub fn run_chaos(args: &[String]) -> Result<i32, String> {
    let mut opts = sgxs_resil::CampaignOpts::default();
    let mut json: Option<String> = None;
    let mut sup = SupFlags::new();
    let mut it = Args::new("chaos", args);
    while let Some(a) = it.next_arg() {
        if sup.flag(a, &mut it)? {
            continue;
        }
        match a {
            "--seeds" => opts.seeds = it.parse("--seeds")?,
            "--seed0" => opts.seed0 = it.parse("--seed0")?,
            "--requests" => opts.requests = it.parse("--requests")?,
            "--threshold" => opts.threshold = it.parse("--threshold")?,
            "--demo-corruption" => opts.demo_corruption = true,
            "--demo-panic" => opts.demo_panic = Some(it.parse("--demo-panic")?),
            "--tier" => opts.tier = tier_value(&mut it)?,
            "--json" => json = Some(it.value("--json")?),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    let out =
        sgxs_resil::run_chaos_campaign_supervised(&opts, &sup.sup, &sgxs_super::StopFlag::new())
            .map_err(|e| it.fail(e))?;
    let report = &out.report;
    print!("{}", report.render());
    if let Some(path) = &json {
        write_file(path, &report.to_json().to_pretty()).map_err(|e| it.fail(e))?;
        println!("chaos json written to {path}");
    }
    Ok(sup.exit(
        "chaos",
        report.quarantine.len(),
        out.stopped,
        report.gate_failed(),
    ))
}

/// The short git revision of the working tree, or "unknown" outside a
/// repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=7", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `repro bench record`: run the full suite and append one
/// `sgxs-history-v1` line per replicate. Replicate `i` runs with seed
/// `seed0 + i`, so same-rev replicates expose the input-noise floor.
pub fn run_bench(args: &[String]) -> Result<i32, String> {
    let mut it = Args::new("bench", args);
    match it.next_arg() {
        Some("record") => {}
        _ => return Err(it.fail(format!("expected 'bench record ...'\n{USAGE}"))),
    }
    let mut preset = Preset::Mini;
    let mut effort = Effort::Full;
    let mut out = "results/history.jsonl".to_owned();
    let mut replicates: u64 = 1;
    let mut seed0 = DEFAULT_SEED;
    let mut rev: Option<String> = None;
    let mut tier = ExecTier::default();
    while let Some(a) = it.next_arg() {
        if let Some(p) = preset_flag(a) {
            preset = p;
            continue;
        }
        match a {
            "--quick" => effort = Effort::Quick,
            "--out" => out = it.value("--out")?,
            "--replicates" => replicates = it.parse("--replicates")?,
            "--seed0" => seed0 = it.parse("--seed0")?,
            "--rev" => rev = Some(it.value("--rev")?),
            "--tier" => tier = tier_value(&mut it)?,
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    if replicates == 0 {
        return Err(it.fail("--replicates must be at least 1"));
    }
    check_seed_range(&it, seed0, replicates, "--replicates")?;
    let rev = rev.unwrap_or_else(git_rev);
    let mut lines = String::new();
    for i in 0..replicates {
        let seed = seed0 + i;
        println!(
            "recording replicate {}/{replicates}: rev {rev}, preset {preset:?}, \
             effort {effort:?}, seed {seed}, tier {}",
            i + 1,
            tier.label()
        );
        let t0 = std::time::Instant::now();
        let base = suite_base(preset, tier, seed);
        let mut doc =
            run_suite(&base, effort, &["all".to_owned()], false).map_err(|e| it.fail(e))?;
        let wall_ms = t0.elapsed().as_millis() as u64;
        // Recorded replicates always carry the host block: the wall-clock
        // win of the compiled tier becomes a committed artifact in
        // results/history.jsonl. Simulated metrics (everything under
        // `experiments`) stay tier-invariant, so `repro compare` gating is
        // unaffected (see results/README.md).
        attach_host_block(&mut doc, tier, wall_ms);
        println!(
            "  suite wall time: {wall_ms} ms on the {} tier",
            tier.label()
        );
        let record = HistoryRecord::new(&rev, seed, doc).map_err(|e| it.fail(e))?;
        lines.push_str(&record.to_line());
        lines.push('\n');
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .map_err(|e| it.fail(format!("cannot open {out}: {e}")))?;
    f.write_all(lines.as_bytes())
        .map_err(|e| it.fail(format!("cannot append to {out}: {e}")))?;
    println!(
        "appended {replicates} record(s) to {out} (rev {rev}, seeds {seed0}..={})",
        seed0 + replicates - 1
    );
    Ok(0)
}

/// Loads one comparison side: a `sgxs-bench-v1` or `sgxs-metrics-v1`
/// file is a single replicate; a `sgxs-history-v1` JSONL file
/// contributes every record of the chosen (rev, preset, effort) — by
/// default the newest record's, i.e. the last matching line.
fn load_side(
    cmd: &Args<'_>,
    path: &str,
    rev: Option<&str>,
    preset: Option<&str>,
) -> Result<(String, Vec<Vec<Metric>>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| cmd.fail(format!("cannot read {path}: {e}")))?;
    // A history file is JSONL: its first line is a complete
    // `sgxs-history-v1` object. A bench document is pretty-printed, so
    // its first line alone never parses.
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let is_history = Json::parse(first)
        .ok()
        .and_then(|v| {
            v.get("schema")
                .and_then(Json::as_str)
                .map(|s| s == sgxs_perf::HISTORY_SCHEMA)
        })
        .unwrap_or(false);
    if !is_history {
        let v = Json::parse(&text).map_err(|e| cmd.fail(format!("{path}: {e}")))?;
        if v.get("schema").and_then(Json::as_str) == Some(METRICS_SCHEMA) {
            let doc = metrics_from_json(&v).map_err(|e| cmd.fail(format!("{path}: {e}")))?;
            let label = format!("{path} (metrics, n=1)");
            return Ok((label, vec![flatten_metrics(&doc)]));
        }
        let doc = parse_bench(&text).map_err(|e| cmd.fail(format!("{path}: {e}")))?;
        if let Some(p) = preset {
            if doc.preset != p {
                return Err(cmd.fail(format!("{path} is preset {}, wanted {p}", doc.preset)));
            }
        }
        let label = format!("{path} ({}/{}, n=1)", doc.preset, doc.effort);
        return Ok((label, vec![flatten(&doc)]));
    }
    let recs = parse_history(&text).map_err(|e| cmd.fail(format!("{path}: {e}")))?;
    let pick = recs
        .iter()
        .rev()
        .find(|r| rev.is_none_or(|v| r.rev == v) && preset.is_none_or(|p| r.preset == p))
        .ok_or_else(|| cmd.fail(format!("{path}: no record matches the rev/preset filter")))?;
    let (rev, preset, effort) = (pick.rev.clone(), pick.preset.clone(), pick.effort.clone());
    let sel: Vec<Vec<Metric>> = recs
        .iter()
        .filter(|r| r.rev == rev && r.preset == preset && r.effort == effort)
        .map(HistoryRecord::metrics)
        .collect();
    let label = format!("{path}@{rev} ({preset}/{effort}, n={})", sel.len());
    Ok((label, sel))
}

/// `repro compare BASE NEW`: statistical comparison with an optional CI
/// gate (`--gate` turns confirmed regressions into exit code 1).
pub fn run_compare(args: &[String]) -> Result<i32, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut gate = false;
    let mut top = 20usize;
    let mut opts = CompareOpts::default();
    let mut json: Option<String> = None;
    let mut base_rev: Option<String> = None;
    let mut new_rev: Option<String> = None;
    let mut preset: Option<String> = None;
    let mut it = Args::new("compare", args);
    while let Some(a) = it.next_arg() {
        match a {
            "--gate" => gate = true,
            "--top" => top = it.parse("--top")?,
            "--threshold" => opts.rel_threshold = it.parse("--threshold")?,
            "--noise-mult" => opts.noise_mult = it.parse("--noise-mult")?,
            "--base-rev" => base_rev = Some(it.value("--base-rev")?),
            "--rev" | "--new-rev" => new_rev = Some(it.value(a)?),
            "--preset" => preset = Some(it.value("--preset")?),
            "--json" => json = Some(it.value("--json")?),
            other if !other.starts_with('-') => paths.push(other.to_owned()),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        return Err(it.fail(format!(
            "expected exactly two inputs (got {})\n{USAGE}",
            paths.len()
        )));
    };
    let (base_label, base) = load_side(&it, base_path, base_rev.as_deref(), preset.as_deref())?;
    let (new_label, new) = load_side(&it, new_path, new_rev.as_deref(), preset.as_deref())?;
    let report = compare(&base_label, &base, &new_label, &new, opts).map_err(|e| it.fail(e))?;
    print!("{}", report.render(top));
    if let Some(path) = &json {
        write_file(path, &report.to_json().to_pretty()).map_err(|e| it.fail(e))?;
        println!("compare json written to {path}");
    }
    Ok(if gate && report.gate_failed() { 1 } else { 0 })
}

/// `repro render <profile.json>`: the profile's text view (the one `repro
/// profile` prints) to stdout, plus optional folded-stack and SVG files.
pub fn run_render(args: &[String]) -> Result<i32, String> {
    let mut input: Option<String> = None;
    let mut top = DEFAULT_TOP;
    let mut folded: Option<String> = None;
    let mut svg: Option<String> = None;
    let mut it = Args::new("render", args);
    while let Some(a) = it.next_arg() {
        match a {
            "--top" => top = it.parse("--top")?,
            "--folded" => folded = Some(it.value("--folded")?),
            "--svg" => svg = Some(it.value("--svg")?),
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_owned()),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    let Some(path) = input else {
        return Err(it.fail(format!("a profile.json input is required\n{USAGE}")));
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| it.fail(format!("cannot read {path}: {e}")))?;
    let doc = parse_profile(&text).map_err(|e| it.fail(format!("{path}: {e}")))?;
    print!("{}", doc.render(top));
    if let Some(out) = &folded {
        write_file(out, &render::folded(&doc)).map_err(|e| it.fail(e))?;
        println!("folded stacks written to {out}");
    }
    if let Some(out) = &svg {
        write_file(out, &render::svg(&doc)).map_err(|e| it.fail(e))?;
        println!("svg written to {out}");
    }
    Ok(0)
}

/// `repro metrics`: run a chaos campaign and emit its standalone
/// `sgxs-metrics-v1` registry — the same document `repro chaos --json`
/// embeds as its `latency` block, suitable for `repro compare` gating.
/// The printed table comes from a round trip through the validating
/// reader, so the command fails loudly if the writer ever drifts from the
/// schema.
pub fn run_metrics(args: &[String]) -> Result<i32, String> {
    let mut opts = sgxs_resil::CampaignOpts::default();
    let mut json: Option<String> = None;
    let mut sup = SupFlags::new();
    let mut it = Args::new("metrics", args);
    while let Some(a) = it.next_arg() {
        if sup.flag(a, &mut it)? {
            continue;
        }
        match a {
            "--seeds" => opts.seeds = it.parse("--seeds")?,
            "--seed0" => opts.seed0 = it.parse("--seed0")?,
            "--requests" => opts.requests = it.parse("--requests")?,
            "--demo-panic" => opts.demo_panic = Some(it.parse("--demo-panic")?),
            "--tier" => opts.tier = tier_value(&mut it)?,
            "--json" => json = Some(it.value("--json")?),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    let out =
        sgxs_resil::run_chaos_campaign_supervised(&opts, &sup.sup, &sgxs_super::StopFlag::new())
            .map_err(|e| it.fail(e))?;
    let report = &out.report;
    let text = report.metrics().to_json().to_pretty();
    let doc = sgxs_obs::read::parse_metrics(&text)
        .map_err(|e| it.fail(format!("emitted document fails its own reader: {e}")))?;
    print!("{}", doc.render());
    if let Some(path) = &json {
        write_file(path, &text).map_err(|e| it.fail(e))?;
        println!("metrics json written to {path}");
    }
    Ok(sup.exit("metrics", report.quarantine.len(), out.stopped, false))
}

/// `repro trace export`: run one traced server under its chaos schedule
/// and export the span tree (`serve` → `request` → `check`) as Chrome
/// trace-event JSON. Timestamps are simulated instruction counts, so the
/// export is byte-identical across hosts, tiers, and runs.
pub fn run_trace(args: &[String]) -> Result<i32, String> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut it = Args::new("trace", args);
    match it.next_arg() {
        Some("export") => {}
        _ => return Err(it.fail(format!("expected 'trace export ...'\n{USAGE}"))),
    }
    let mut app = sgxs_resil::ServerApp::Memcached;
    let mut scheme = sgxs_resil::RScheme::SgxBounds;
    let mut policy = "graceful".to_owned();
    let mut seed = 1u64;
    let mut requests = 16u32;
    let mut tier = ExecTier::default();
    let mut out = "results/trace.json".to_owned();
    let mut ascii: Option<String> = None;
    let mut svg: Option<String> = None;
    while let Some(a) = it.next_arg() {
        match a {
            "--app" => {
                let v = it.value("--app")?;
                app = sgxs_resil::ServerApp::ALL
                    .into_iter()
                    .find(|s| s.label() == v)
                    .ok_or_else(|| {
                        it.fail(format!("unknown app '{v}' (nginx|apache|memcached)"))
                    })?;
            }
            "--scheme" => {
                let v = it.value("--scheme")?;
                scheme = sgxs_resil::RScheme::ALL
                    .into_iter()
                    .find(|s| s.label() == v)
                    .ok_or_else(|| {
                        it.fail(format!(
                            "unknown scheme '{v}' (native|sgxbounds|sb-boundless)"
                        ))
                    })?;
            }
            "--policy" => policy = it.value("--policy")?,
            "--seed" => seed = it.parse("--seed")?,
            "--requests" => requests = it.parse("--requests")?,
            "--tier" => tier = tier_value(&mut it)?,
            "--out" => out = it.value("--out")?,
            "--ascii" => ascii = Some(it.value("--ascii")?),
            "--svg" => svg = Some(it.value("--svg")?),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    sgxs_resil::check_requests(requests).map_err(|e| it.fail(e))?;
    let policies = match policy.as_str() {
        "abort" => sgxs_resil::abort_policy(),
        "graceful" => sgxs_resil::graceful_policy(),
        "retry" => sgxs_resil::retry_policy(),
        "boundless" => sgxs_resil::boundless_policy(),
        _ => {
            return Err(it.fail(format!(
                "unknown policy '{policy}' (abort|graceful|retry|boundless)"
            )))
        }
    };
    let schedule = sgxs_resil::ChaosSchedule::generate(seed, requests);
    let collector = Rc::new(RefCell::new(sgxs_metrics::SpanCollector::default()));
    let (rep, _) =
        sgxs_resil::serve_traced(app, scheme, &policies, &schedule, tier, collector.clone());
    let c = collector.borrow();
    println!(
        "{} / {} / {policy} seed {seed}: {} spans ({} dropped), \
         served {} of {} requests",
        app.label(),
        scheme.label(),
        c.nodes().len(),
        c.dropped(),
        rep.served,
        rep.total
    );
    write_file(&out, &sgxs_metrics::chrome_trace(&c).to_pretty()).map_err(|e| it.fail(e))?;
    println!("chrome trace written to {out} (open in Perfetto or chrome://tracing)");
    if let Some(path) = &ascii {
        write_file(path, &sgxs_perf::span_ascii(&c)).map_err(|e| it.fail(e))?;
        println!("ascii span tree written to {path}");
    }
    if let Some(path) = &svg {
        write_file(path, &sgxs_perf::span_svg(&c)).map_err(|e| it.fail(e))?;
        println!("span timeline svg written to {path}");
    }
    Ok(0)
}
