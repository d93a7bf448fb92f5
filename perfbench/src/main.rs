//! `perfbench`: the repository's host benchmark.
//!
//! ```text
//! perfbench --workload suite|epc|fuzz|chaos --seed N --seconds S --trace 0|1 [--spans-out FILE]
//! ```
//!
//! Every workload runs on the compiled execution tier as a closed loop
//! from one process. One *round* is a fixed set of ops derived from the
//! seed; the run repeats rounds until `--seconds` have passed, and a round
//! whose inputs were seen before must reproduce its first run exactly. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` spends half the time untraced and half
//! replaying rounds with a span around every call into a layer, and prints
//! the per-layer metrics. The last line of stdout is one JSON object; the
//! exit code is 0 only when every correctness check passed.

mod calib;
mod chaos;
mod fuzz;
mod matrix;
mod stats;
mod trace;

use stats::median;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("sim_overhead_gmean", "x"),
    ("sim_mem_overhead_gmean", "x"),
    ("availability", "fraction"),
    ("sim_req_p99_kcycles", "kcycles"),
];

/// Value an end-to-end metric reads on a workload it does not apply to.
/// A constant, so it never moves; never 0, so ratios against it stay
/// defined.
const NOT_APPLICABLE: f64 = 1.0;

/// Per-layer metrics, printed by every traced run, with their units. A
/// `_ms` metric whose stem names a span is that layer's summed self time.
const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.build_ms", "ms"),
    ("sgxbounds.instrument_ms", "ms"),
    ("analyze.flow_instrument_ms", "ms"),
    ("baselines.instrument_ms", "ms"),
    ("mir.verify_ms", "ms"),
    ("mir.vm_new_ms", "ms"),
    ("rt.install_ms", "ms"),
    ("rt.stage_ms", "ms"),
    ("exec.lower_ms", "ms"),
    ("execute_ms", "ms"),
    ("execute.ns_per_sim_instr", "ns"),
    ("fuzz.gen_ms", "ms"),
    ("fuzz.inject_ms", "ms"),
    ("fuzz.oracle_ms", "ms"),
    ("fuzz.seed_p50_ms", "ms"),
    ("fuzz.seed_tail_ms", "ms"),
    ("fuzz.seed_tail_pct", "%"),
    ("fuzz.seed_samples", "count"),
    ("resil.serve_ms", "ms"),
    ("resil.us_per_request", "us"),
    ("resil.run_p50_ms", "ms"),
    ("resil.run_tail_ms", "ms"),
    ("resil.run_tail_pct", "%"),
    ("resil.run_samples", "count"),
    ("super.efficiency", "fraction"),
    ("sim.instructions", "count"),
    ("sim.mem_accesses", "count"),
    ("sim.l1_misses", "count"),
    ("sim.llc_misses", "count"),
    ("sim.epc_faults", "count"),
    ("sim.epc_evictions", "count"),
    ("sim.mem_cycle_frac", "fraction"),
    ("sim.check_instr_frac", "fraction"),
    ("sgxbounds.static_checks", "count"),
    ("sgxbounds.safe_elided", "count"),
    ("analyze.flow_elided", "count"),
    ("resil.recovery_attempts", "count"),
    ("resil.aborted", "count"),
    ("resil.lost", "count"),
    ("resil.tolerated", "count"),
    ("residual_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("traced.rounds", "count"),
];

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Largest accepted `--seed`: every workload maps the seed to a window of
/// campaign seeds, which must not overflow.
const MAX_SEED: u64 = 1 << 40;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Ops attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Checks {
    /// Ops attempted (every op of every round).
    pub attempted: u64,
    /// Ops or checks that failed.
    pub failed: u64,
    errors: Vec<String>,
}

impl Checks {
    /// Counts one attempted op, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }
}

/// What one untraced round reports back.
#[derive(Default)]
pub struct Round {
    /// Simulated instructions retired, when the layer exposes them.
    pub instructions: Option<u64>,
    /// Host seconds of each op in a fixed order, when the workload times
    /// its ops one by one; empty otherwise.
    pub op_secs: Vec<f64>,
}

/// One benchmark workload after set-up.
pub trait Workload {
    /// Ops in one round.
    fn ops(&self) -> u64;

    /// Runs untraced round `k`, checking its outputs.
    fn round(&mut self, k: usize, ck: &mut Checks) -> Round;

    /// Replays round `k` call by call with spans around every layer,
    /// checking it reproduces the same inputs' untraced round.
    fn traced_round(&mut self, k: usize, tr: &mut Tracer, ck: &mut Checks);

    /// The deterministic end-to-end metrics, from the first round.
    fn exact(&self, m: &mut Metrics);

    /// Per-layer metrics beyond span self times. `round_s` is a typical
    /// untraced round's host seconds.
    fn layers(&self, tr: &Tracer, round_s: f64, m: &mut Metrics);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload suite|epc|fuzz|chaos --seed N \
                     --seconds S --trace 0|1 [--spans-out FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !["suite", "epc", "fuzz", "chaos"].contains(&val) {
                    return Err(format!("unknown workload '{val}'"));
                }
                workload = Some(val.to_owned());
            }
            "--seed" => {
                let s: u64 = val.parse().map_err(|_| format!("bad --seed '{val}'"))?;
                if s > MAX_SEED {
                    return Err(format!("--seed must be at most {MAX_SEED}"));
                }
                seed = Some(s);
            }
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad --seconds '{val}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not '{val}'")),
                });
            }
            "--spans-out" => spans_out = Some(val.to_owned()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        spans_out,
    })
}

/// Builds registries and inputs for `name` and runs one untimed warm-up op.
fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "suite" => Box::new(matrix::Matrix::suite(seed)),
        "epc" => Box::new(matrix::Matrix::epc(seed)),
        "fuzz" => Box::new(fuzz::Fuzz::new(seed)),
        "chaos" => Box::new(chaos::Chaos::new(seed)),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// One timed untraced round.
struct RoundTime {
    secs: f64,
    /// Host seconds the reference kernel took just before the round.
    ref_secs: f64,
    round: Round,
}

/// Runs untraced rounds until `budget` seconds have passed (at least one),
/// timing the reference kernel before each.
fn timed_rounds(
    w: &mut dyn Workload,
    budget: f64,
    reference: &mut calib::Reference,
    ck: &mut Checks,
) -> Vec<RoundTime> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let ref_secs = reference.secs();
        let t = Instant::now();
        let round = w.round(rounds.len(), ck);
        rounds.push(RoundTime {
            secs: t.elapsed().as_secs_f64(),
            ref_secs,
            round,
        });
        if start.elapsed().as_secs_f64() >= budget {
            return rounds;
        }
    }
}

/// Host seconds a typical round takes. When ops are timed one by one it is
/// the sum over ops of each op's median time, so a slow moment on the
/// shared host spoils one sample of one op rather than a whole round;
/// otherwise it is the median round time.
///
/// With `normalise`, every time is first scaled to the reference kernel's
/// nominal speed, using the kernel time measured just before its round.
fn typical_round_secs(rounds: &[RoundTime], normalise: bool) -> f64 {
    let scale = |r: &RoundTime| {
        if normalise {
            calib::NOMINAL_SECS / r.ref_secs
        } else {
            1.0
        }
    };
    let n = rounds[0].round.op_secs.len();
    if n > 0 && rounds.iter().all(|r| r.round.op_secs.len() == n) {
        (0..n)
            .map(|i| {
                median(
                    &rounds
                        .iter()
                        .map(|r| r.round.op_secs[i] * scale(r))
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    } else {
        median(&rounds.iter().map(|r| r.secs * scale(r)).collect::<Vec<_>>())
    }
}

/// Host memory high-water mark of this process, in MB, less the reference
/// kernel's table.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| {
            (kb * 1024.0 - calib::TABLE_BYTES as f64) / (1 << 20) as f64
        })
}

fn run_untraced(args: &Args, ck: &mut Checks, m: &mut Metrics) {
    let mut reference = calib::Reference::new();
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let scale = calib::NOMINAL_SECS / reference.secs();
        let t = Instant::now();
        w = Some(setup(&args.workload, args.seed));
        setups.push(t.elapsed().as_secs_f64() * scale);
    }
    let mut w = w.expect("SETUP_REPS > 0");
    m.insert("setup_s", median(&setups));
    let rounds = timed_rounds(w.as_mut(), args.seconds, &mut reference, ck);
    let round_s = typical_round_secs(&rounds, true);
    let ref_ms = median(&rounds.iter().map(|r| r.ref_secs * 1e3).collect::<Vec<_>>());
    println!(
        "  raw ops_per_s {} ops/s (host seconds, not normalised); reference kernel {ref_ms} ms",
        w.ops() as f64 / typical_round_secs(&rounds, false)
    );
    m.insert("ops_per_s", w.ops() as f64 / round_s);
    // Every round retires the same instructions (repeats are checked to
    // be bit-identical), so the first round's count stands for all.
    if let Some(instr) = rounds[0].round.instructions {
        m.insert("sim_minstr_per_s", instr as f64 / round_s / 1e6);
    }
    m.insert("peak_rss_mb", peak_rss_mb());
    w.exact(m);
}

fn run_traced(args: &Args, ck: &mut Checks, m: &mut Metrics) -> Result<(), String> {
    let mut w = setup(&args.workload, args.seed);
    let half = args.seconds / 2.0;
    let untraced = timed_rounds(w.as_mut(), half, &mut calib::Reference::new(), ck);
    let round_s = typical_round_secs(&untraced, false);
    let untraced_rate = w.ops() as f64 / round_s;

    let mut tr = Tracer::new();
    let t0 = tr.now();
    let mut traced_secs = Vec::new();
    loop {
        let t = tr.now();
        w.traced_round(traced_secs.len(), &mut tr, ck);
        traced_secs.push((tr.now() - t) as f64 / 1e9);
        if (tr.now() - t0) as f64 / 1e9 >= half {
            break;
        }
    }
    let wall_ns = tr.now() - t0;
    let traced_rate = w.ops() as f64 / median(&traced_secs);

    let layers = tr.layer_self_ns();
    for (name, _) in PER_LAYER {
        if let Some(ns) = name.strip_suffix("_ms").and_then(|stem| layers.get(stem)) {
            m.insert(name, *ns as f64 / 1e6);
        }
    }
    let instr = tr.counted(trace::EXECUTED_INSTRUCTIONS);
    if instr > 0 {
        let exec_ns = layers.get("execute").copied().unwrap_or(0);
        m.insert("execute.ns_per_sim_instr", exec_ns as f64 / instr as f64);
    }
    m.insert("residual_ms", trace::residual_ns(wall_ns, &tr) as f64 / 1e6);
    m.insert(
        "trace.overhead_frac",
        (untraced_rate - traced_rate) / untraced_rate,
    );
    m.insert("traced.rounds", traced_secs.len() as f64);
    w.layers(&tr, round_s, m);

    if let Some(path) = &args.spans_out {
        std::fs::write(path, tr.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// Formats a metric value with all its digits (integers without a point).
/// A non-finite value, which JSON cannot hold, prints as 0.
fn num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ck = Checks::default();
    let mut m = Metrics::new();
    let table: &[(&str, &str)] = if args.trace {
        if let Err(e) = run_traced(&args, &mut ck, &mut m) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        &PER_LAYER
    } else {
        run_untraced(&args, &mut ck, &mut m);
        &END_TO_END
    };

    println!(
        "perfbench {} seed {} ({}traced, {} s)",
        args.workload,
        args.seed,
        if args.trace { "" } else { "un" },
        args.seconds
    );
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let (v, note) = match m.get(name) {
            Some(v) => (*v, ""),
            None if args.trace => (0.0, "  (layer not used)"),
            None => (NOT_APPLICABLE, "  (n/a: constant)"),
        };
        println!("  {name:<28} {:>18} {unit}{note}", num(v));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        ));
    }
    let error_rate = ck.failed as f64 / ck.attempted.max(1) as f64;
    println!("  {:<28} {:>18} fraction", "error_rate", num(error_rate));
    for e in &ck.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = ck.failed == 0 && ck.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ck.attempted.max(1),
        ck.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
