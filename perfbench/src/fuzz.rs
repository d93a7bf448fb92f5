//! `fuzz`: the differential campaign under the `sgxs-super` supervisor.
//!
//! One op is one seed: generate a program, run it under all 8 schemes,
//! inject one fault, and run that under all 8 again (16 executions of tiny
//! modules). Host time sits in instrumentation, analysis and lowering
//! rather than execution, so a change that trades per-module set-up for
//! execution speed shows here.

use crate::matrix::SimTotals;
use crate::stats::{median, tail};
use crate::trace::{Tracer, EXECUTED_INSTRUCTIONS, OP};
use crate::{Checks, Metrics, Round, Workload};
use sgxbounds::{InstrumentReport, SbConfig};
use sgxs_baselines::asan::runtime::asan_alloc_opts;
use sgxs_baselines::{
    install_asan, install_mpx, instrument_asan_with, instrument_mpx_with, AsanConfig, MpxConfig,
};
use sgxs_fuzz::gen::{self, Prog};
use sgxs_fuzz::inject::{self, ALL_KINDS};
use sgxs_fuzz::oracle;
use sgxs_fuzz::runner::{classify, verdict_ok, Exec, FScheme, ALL_SCHEMES, DEFAULT_BUDGET};
use sgxs_fuzz::{run_campaign_supervised, run_seed_report, FuzzOpts, Report};
use sgxs_mir::{verify, GlobalId, Vm, VmConfig};
use sgxs_rt::{install_base, AllocOpts};
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use sgxs_super::{StopFlag, SuperOpts};

/// Seeds per round.
const SEEDS: u64 = 64;

/// Distinct seed windows a run cycles through. Round `k` of `--seed n`
/// runs window `k % WINDOWS`, campaign seeds starting at
/// `(n * WINDOWS + k % WINDOWS) * SEEDS`. Per-seed cost varies with the
/// generated program, so averaging over many windows keeps the rate
/// steady across seeds; a window seen again must reproduce its document.
pub const WINDOWS: u64 = 64;

/// Supervisor workers: the host's two cores.
pub const WORKERS: usize = 2;

/// The scale the fuzz runner's machine uses (the Tiny preset).
const TINY_SCALE: u64 = 128;

/// The supervised differential campaign over one seed window.
pub struct Fuzz {
    opts: FuzzOpts,
    sup: SuperOpts,
    base: u64,
    /// Each window's `sgxs-fuzz-v1` document, from its first run.
    docs: Vec<String>,
    /// Completed fraction of the first window's seeds.
    availability: f64,
    /// Counters of the first traced round.
    traced: Option<SimTotals>,
}

impl Fuzz {
    /// Sets up the campaign for `seed` and runs one warm-up seed through
    /// the supervisor.
    pub fn new(seed: u64) -> Fuzz {
        let base = seed * WINDOWS * SEEDS;
        let opts = FuzzOpts {
            seeds: SEEDS,
            seed0: base,
            tier: ExecTier::Compiled,
            ..FuzzOpts::default()
        };
        let sup = SuperOpts {
            workers: WORKERS,
            quiet_panics: true,
            ..SuperOpts::default()
        };
        // The warm-up seed is fixed, so set-up cost does not depend on
        // which program `--seed` happens to generate first.
        let warm = FuzzOpts {
            seeds: 1,
            seed0: 0,
            ..opts.clone()
        };
        std::hint::black_box(
            run_campaign_supervised(&warm, &sup, &StopFlag::new()).expect("warm-up campaign"),
        );
        Fuzz {
            opts,
            sup,
            base,
            docs: Vec::new(),
            availability: 0.0,
            traced: None,
        }
    }
}

/// Failures a finished campaign report records.
fn report_failures(r: &Report) -> Vec<String> {
    let mut out: Vec<String> = r
        .disagreements
        .iter()
        .map(|d| {
            format!(
                "seed {} under {}: {}",
                d.seed,
                d.scheme.label(),
                d.verdict.label()
            )
        })
        .collect();
    out.extend(
        r.quarantine
            .iter()
            .map(|q| format!("seed {} quarantined: {}", q.seed, q.detail)),
    );
    out
}

impl Workload for Fuzz {
    fn ops(&self) -> u64 {
        SEEDS
    }

    fn round(&mut self, k: usize, ck: &mut Checks) -> Round {
        ck.attempted += SEEDS;
        let window = k as u64 % WINDOWS;
        self.opts.seed0 = self.base + window * SEEDS;
        let run = match run_campaign_supervised(&self.opts, &self.sup, &StopFlag::new()) {
            Ok(run) => run,
            Err(e) => {
                ck.fail(format!("campaign: {e}"));
                return Round::default();
            }
        };
        for f in report_failures(&run.report) {
            ck.fail(f);
        }
        if run.report.programs != SEEDS || run.stopped {
            ck.fail(format!(
                "campaign completed {} of {SEEDS} seeds",
                run.report.programs
            ));
        }
        let doc = run.report.to_json().to_compact();
        match self.docs.get(window as usize) {
            None => {
                if window == 0 {
                    self.availability = run.report.programs as f64 / SEEDS as f64;
                }
                self.docs.push(doc);
            }
            Some(want) if *want != doc => ck.fail(format!(
                "window {window}: campaign document differs from its first run"
            )),
            Some(_) => {}
        }
        Round::default()
    }

    fn traced_round(&mut self, k: usize, tr: &mut Tracer, ck: &mut Checks) {
        let window = k % self.docs.len().max(1);
        self.opts.seed0 = self.base + window as u64 * SEEDS;
        let mut merged = Report::seeded();
        let mut counts = SimTotals::default();
        for seed in self.opts.seed0..self.opts.seed0 + SEEDS {
            let op = tr.begin(OP, seed);
            match tr.time("fuzz.seed", seed, || run_seed_report(&self.opts, seed)) {
                Ok(r) => merged.merge(&r),
                Err(e) => ck.fail(format!("seed {seed}: {e:?}")),
            }
            ck.attempted += 1;
            replay_seed(seed, self.opts.max_ops, tr, ck, &mut counts);
            tr.end(op);
        }
        if self.docs.get(window).map(String::as_str) != Some(merged.to_json().to_compact().as_str())
        {
            ck.fail("serial per-seed reports do not merge to the supervised document".into());
        }
        self.traced.get_or_insert(counts);
    }

    fn exact(&self, m: &mut Metrics) {
        m.insert("availability", self.availability);
    }

    fn layers(&self, tr: &Tracer, round_s: f64, m: &mut Metrics) {
        let seeds_ms: Vec<f64> = tr
            .durations("fuzz.seed")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        let t = tail(&seeds_ms);
        m.insert("fuzz.seed_p50_ms", median(&seeds_ms));
        m.insert("fuzz.seed_tail_ms", t.value);
        m.insert("fuzz.seed_tail_pct", t.pct);
        m.insert("fuzz.seed_samples", t.samples as f64);
        let mean_ms = seeds_ms.iter().sum::<f64>() / seeds_ms.len().max(1) as f64;
        m.insert(
            "super.efficiency",
            mean_ms / 1e3 * SEEDS as f64 / (WORKERS as f64 * round_s),
        );
        if let Some(t) = &self.traced {
            t.report(m);
        }
    }
}

/// Replays one seed's executions through the public pipeline calls and
/// checks every verdict against the detection model.
fn replay_seed(seed: u64, max_ops: usize, tr: &mut Tracer, ck: &mut Checks, c: &mut SimTotals) {
    let prog = tr.time("fuzz.gen", seed, || gen::generate(seed, max_ops));
    if tr
        .time("fuzz.oracle", seed, || oracle::analyze(&prog))
        .is_some()
    {
        ck.fail(format!("seed {seed}: generated program is not in bounds"));
        return;
    }
    let native = exec(&prog, FScheme::Native, tr, seed, c);
    let digest = match native.result {
        Ok(d) => d,
        Err(t) => {
            ck.fail(format!("seed {seed}: native run trapped: {t}"));
            return;
        }
    };
    for scheme in ALL_SCHEMES.into_iter().skip(1) {
        let v = classify(None, digest, &exec(&prog, scheme, tr, seed, c));
        if !verdict_ok(scheme, None, &v) {
            ck.fail(format!(
                "seed {seed} safe program under {}: {}",
                scheme.label(),
                v.label()
            ));
        }
    }
    let kind = ALL_KINDS[(seed % ALL_KINDS.len() as u64) as usize];
    let (fprog, fault) = tr.time("fuzz.inject", seed, || inject::inject(&prog, kind, seed));
    let found = tr.time("fuzz.oracle", seed, || oracle::analyze(&fprog));
    if found.map(|v| v.op_index) != Some(fault.victim_index()) {
        ck.fail(format!("seed {seed}: oracle disagrees with the injector"));
        return;
    }
    for scheme in ALL_SCHEMES {
        let v = classify(Some(&fault), digest, &exec(&fprog, scheme, tr, seed, c));
        if !verdict_ok(scheme, Some(kind), &v) {
            ck.fail(format!(
                "seed {seed} {kind:?} under {}: {}",
                scheme.label(),
                v.label()
            ));
        }
    }
}

/// The SGXBounds configuration behind each fuzz scheme.
fn sb_config(scheme: FScheme) -> Option<SbConfig> {
    let d = SbConfig::default();
    Some(match scheme {
        FScheme::SgxBounds => d,
        FScheme::SgxBoundsNoOpt => SbConfig {
            safe_access_opt: false,
            hoist_opt: false,
            ..d
        },
        FScheme::SgxBoundsFlow => SbConfig {
            flow_elide: true,
            ..d
        },
        FScheme::SgxBoundsNarrow => SbConfig {
            narrow_bounds: true,
            ..d
        },
        FScheme::SgxBoundsBoundless => SbConfig {
            boundless: true,
            ..d
        },
        FScheme::Native | FScheme::Asan | FScheme::Mpx => return None,
    })
}

/// The fuzz runner's pipeline for one execution, one span per layer call.
fn exec(prog: &Prog, scheme: FScheme, tr: &mut Tracer, op: u64, c: &mut SimTotals) -> Exec {
    let mut module = tr.time("workloads.build", op, || gen::build(prog));
    let sb = sb_config(scheme);
    let report: Option<InstrumentReport> = match (scheme, &sb) {
        (FScheme::Native, _) => None,
        (FScheme::Asan, _) => {
            tr.time("baselines.instrument", op, || {
                instrument_asan_with(&mut module, false).expect("asan instrumentation")
            });
            None
        }
        (FScheme::Mpx, _) => {
            tr.time("baselines.instrument", op, || {
                instrument_mpx_with(&mut module, false).expect("mpx instrumentation")
            });
            None
        }
        (_, Some(cfg)) => {
            let layer = if cfg.flow_elide {
                "analyze.flow_instrument"
            } else {
                "sgxbounds.instrument"
            };
            Some(tr.time(layer, op, || {
                sgxbounds::instrument(&mut module, cfg).expect("sgxbounds instrumentation")
            }))
        }
        (_, None) => unreachable!("every other scheme has an SGXBounds config"),
    };
    if let Some(r) = &report {
        c.add_report(r);
    }
    tr.time("mir.verify", op, || verify(&module))
        .expect("instrumented fuzz module verifies");
    let mut vm = tr.time("mir.vm_new", op, || {
        let mut machine_cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
        machine_cfg.tier = ExecTier::Compiled;
        let mut cfg = VmConfig::new(machine_cfg);
        cfg.max_instructions = DEFAULT_BUDGET;
        Vm::new(&module, cfg)
    });
    let sb_rt = tr.time("rt.install", op, || {
        let asan_cfg = AsanConfig::for_scale(TINY_SCALE);
        let heap = match scheme {
            FScheme::Asan => install_base(&mut vm, asan_alloc_opts(&asan_cfg, u32::MAX as u64)),
            _ => install_base(&mut vm, AllocOpts::default()),
        };
        match (scheme, &sb) {
            (FScheme::Asan, _) => {
                install_asan(&mut vm, heap, &asan_cfg);
                None
            }
            (FScheme::Mpx, _) => {
                install_mpx(&mut vm, heap, MpxConfig::for_scale(TINY_SCALE));
                None
            }
            (_, Some(cfg)) => Some(sgxbounds::install_sgxbounds(&mut vm, heap, cfg, None)),
            (_, None) => None,
        }
    });
    tr.time("exec.lower", op, || sgxs_exec::attach(&mut vm));
    let out = tr.time("execute", op, || vm.run("main", &[]));
    tr.count(EXECUTED_INSTRUCTIONS, out.stats.instructions);
    c.add_run(&out);
    // The progress beacon is always the module's first global.
    let mut buf = [0u8; 8];
    vm.machine
        .mem
        .read_bytes(vm.global_addr(GlobalId(0)), &mut buf);
    Exec {
        result: out.result,
        beacon: u64::from_le_bytes(buf),
        violations: sb_rt.map(|rt| *rt.violations.borrow()).unwrap_or(0),
        retries: vm.recovery_stats().attempts,
    }
}
