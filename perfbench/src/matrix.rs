//! `suite` and `epc`: the paper's scheme matrix through
//! `sgxs_harness::run_one`, and its call-by-call traced replay.
//!
//! `suite` is the Fig. 7 set (7 Phoenix + 9 PARSEC) at size S, whose
//! working sets mostly fit the 736 KB Tiny EPC, so dispatch dominates host
//! time. `epc` is kmeans and matrix_multiply at size XL, several times the
//! EPC, so the same execute layer is dominated by the cache and EPC model
//! (the Fig. 8 / Table 3 regime).

use crate::stats::gmean_completed;
use crate::trace::{Tracer, EXECUTED_INSTRUCTIONS, OP};
use crate::{Checks, Metrics, Round, Workload};
use sgxbounds::{InstrumentReport, SbConfig};
use sgxs_baselines::asan::runtime::asan_alloc_opts;
use sgxs_baselines::{
    install_asan, install_mpx, instrument_asan_with, instrument_mpx_with, AsanConfig, MpxConfig,
};
use sgxs_harness::{run_one, Measured, RunConfig, Scheme};
use sgxs_mir::{verify, RunOutcome, Trap, Vm, VmConfig};
use sgxs_rt::{install_base, AllocOpts, Stager};
use sgxs_sim::{ExecTier, MachineConfig, Preset, Stats};
use sgxs_workloads::{Params, SizeClass, Workload as Program};
use std::time::Instant;

/// The schemes of the paper's headline comparison; `sgx` first, as the
/// normalisation baseline.
const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::SgxBounds,
    Scheme::Asan,
    Scheme::Mpx,
];

/// Simulated counters summed over one traced round.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    instructions: u64,
    mem_accesses: u64,
    l1_misses: u64,
    llc_misses: u64,
    epc_faults: u64,
    epc_evictions: u64,
    mem_cycles: u64,
    cpu_cycles: u64,
    sgx_instructions: u64,
    sgxbounds_instructions: u64,
    static_checks: u64,
    safe_elided: u64,
    flow_elided: u64,
}

impl SimTotals {
    pub fn add_run(&mut self, out: &RunOutcome) {
        self.instructions += out.stats.instructions;
        self.mem_accesses += out.stats.l1_accesses;
        self.l1_misses += out.stats.l1_misses;
        self.llc_misses += out.stats.llc_misses;
        self.epc_faults += out.stats.epc_faults;
        self.epc_evictions += out.stats.epc_evictions;
        self.mem_cycles += out.stats.mem_cycles;
        self.cpu_cycles += out.cpu_cycles;
    }

    pub fn add_report(&mut self, r: &InstrumentReport) {
        self.static_checks += (r.full_checks + r.ub_only_checks) as u64;
        self.safe_elided += r.safe_elided as u64;
        self.flow_elided += r.flow_elided as u64;
    }

    /// Writes the `sim.*` and instrumentation-count layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.insert("sim.instructions", self.instructions as f64);
        m.insert("sim.mem_accesses", self.mem_accesses as f64);
        m.insert("sim.l1_misses", self.l1_misses as f64);
        m.insert("sim.llc_misses", self.llc_misses as f64);
        m.insert("sim.epc_faults", self.epc_faults as f64);
        m.insert("sim.epc_evictions", self.epc_evictions as f64);
        if self.cpu_cycles > 0 {
            m.insert(
                "sim.mem_cycle_frac",
                self.mem_cycles as f64 / self.cpu_cycles as f64,
            );
        }
        if self.sgxbounds_instructions > 0 {
            m.insert(
                "sim.check_instr_frac",
                (self.sgxbounds_instructions as f64 - self.sgx_instructions as f64)
                    / self.sgxbounds_instructions as f64,
            );
        }
        m.insert("sgxbounds.static_checks", self.static_checks as f64);
        m.insert("sgxbounds.safe_elided", self.safe_elided as f64);
        m.insert("analyze.flow_elided", self.flow_elided as f64);
    }
}

/// The scheme matrix over a fixed workload list.
pub struct Matrix {
    programs: Vec<Box<dyn Program>>,
    rc: RunConfig,
    /// The first untraced round, program-major in [`SCHEMES`] order.
    reference: Vec<Measured>,
    /// Counters of the first traced round.
    traced: Option<SimTotals>,
}

impl Matrix {
    /// The `suite` workload: the Fig. 7 set at size S.
    pub fn suite(seed: u64) -> Matrix {
        Matrix::new(sgxs_workloads::phoenix_parsec(), SizeClass::S, seed)
    }

    /// The `epc` workload: kmeans and matrix_multiply at size XL.
    pub fn epc(seed: u64) -> Matrix {
        let programs = ["kmeans", "matrix_multiply"]
            .iter()
            .map(|n| sgxs_workloads::by_name(n).expect("registered workload"))
            .collect();
        Matrix::new(programs, SizeClass::XL, seed)
    }

    fn new(programs: Vec<Box<dyn Program>>, size: SizeClass, seed: u64) -> Matrix {
        let mut rc = RunConfig::new(Preset::Tiny);
        rc.params = Params {
            size,
            threads: 8,
            seed,
            ..rc.params
        };
        rc.tier = ExecTier::Compiled;
        // The warm-up op: the first program under the baseline.
        std::hint::black_box(run_one(programs[0].as_ref(), Scheme::Baseline, &rc));
        Matrix {
            programs,
            rc,
            reference: Vec::new(),
            traced: None,
        }
    }

    fn cells(&self) -> impl Iterator<Item = (&dyn Program, Scheme)> {
        self.programs
            .iter()
            .flat_map(|p| SCHEMES.map(|s| (p.as_ref(), s)))
    }
}

/// What `run_one` measures, which a repeat or a replay must reproduce.
type RunKey<'a> = (&'a Result<u64, Trap>, u64, u64, &'a Stats);

fn measured_key(m: &Measured) -> RunKey<'_> {
    (&m.result, m.wall_cycles, m.peak_reserved, &m.stats)
}

fn outcome_key(o: &RunOutcome) -> RunKey<'_> {
    (&o.result, o.wall_cycles, o.peak_reserved, &o.stats)
}

impl Workload for Matrix {
    fn ops(&self) -> u64 {
        (self.programs.len() * SCHEMES.len()) as u64
    }

    fn round(&mut self, _k: usize, ck: &mut Checks) -> Round {
        let mut op_secs = Vec::new();
        let runs: Vec<Measured> = self
            .cells()
            .map(|(p, s)| {
                let t = Instant::now();
                let m = run_one(p, s, &self.rc);
                op_secs.push(t.elapsed().as_secs_f64());
                m
            })
            .collect();
        let instructions = runs.iter().map(|r| r.stats.instructions).sum();
        if self.reference.is_empty() {
            // Every hardened scheme must return the baseline's exit value.
            for row in runs.chunks(SCHEMES.len()) {
                let base = &row[0];
                for r in row {
                    ck.op(base.ok() && r.result == base.result, || {
                        format!(
                            "{} under {}: {:?}, sgx returned {:?}",
                            r.workload, r.scheme, r.result, base.result
                        )
                    });
                }
            }
            self.reference = runs;
        } else {
            for (r, want) in runs.iter().zip(&self.reference) {
                ck.op(measured_key(r) == measured_key(want), || {
                    format!(
                        "{} under {}: repeat differs from the first round",
                        r.workload, r.scheme
                    )
                });
            }
        }
        Round {
            instructions: Some(instructions),
            op_secs,
        }
    }

    fn traced_round(&mut self, _k: usize, tr: &mut Tracer, ck: &mut Checks) {
        let mut totals = SimTotals::default();
        let cells: Vec<(&dyn Program, Scheme)> = self.cells().collect();
        for (i, ((p, scheme), want)) in cells.into_iter().zip(&self.reference).enumerate() {
            let op_id = i as u64;
            let op = tr.begin(OP, op_id);
            let (out, report) = replay(p, scheme, &self.rc, tr, op_id);
            tr.end(op);
            ck.op(outcome_key(&out) == measured_key(want), || {
                format!(
                    "{} under {}: traced replay differs from run_one",
                    want.workload, want.scheme
                )
            });
            totals.add_run(&out);
            match scheme {
                Scheme::Baseline => totals.sgx_instructions += out.stats.instructions,
                Scheme::SgxBounds => totals.sgxbounds_instructions += out.stats.instructions,
                _ => {}
            }
            if let Some(r) = report {
                totals.add_report(&r);
            }
        }
        self.traced.get_or_insert(totals);
    }

    fn exact(&self, m: &mut Metrics) {
        let rows: Vec<&[Measured]> = self.reference.chunks(SCHEMES.len()).collect();
        let ratio = |f: fn(&Measured) -> u64| -> Vec<Option<f64>> {
            rows.iter()
                .map(|row| {
                    let (sgx, sb) = (&row[0], &row[1]);
                    (sgx.ok() && sb.ok()).then(|| f(sb) as f64 / f(sgx) as f64)
                })
                .collect()
        };
        if let Some(g) = gmean_completed(&ratio(|r| r.wall_cycles)) {
            m.insert("sim_overhead_gmean", g);
        }
        if let Some(g) = gmean_completed(&ratio(|r| r.peak_reserved)) {
            m.insert("sim_mem_overhead_gmean", g);
        }
        let done = self.reference.iter().filter(|r| r.ok()).count();
        m.insert(
            "availability",
            done as f64 / self.reference.len().max(1) as f64,
        );
    }

    fn layers(&self, _tr: &Tracer, _round_s: f64, m: &mut Metrics) {
        if let Some(t) = &self.traced {
            t.report(m);
        }
    }
}

/// The pipeline `run_one` performs, one span per layer call.
fn replay(
    p: &dyn Program,
    scheme: Scheme,
    rc: &RunConfig,
    tr: &mut Tracer,
    op: u64,
) -> (RunOutcome, Option<InstrumentReport>) {
    let mut module = tr.time("workloads.build", op, || p.build(&rc.params));
    let mut report = None;
    match scheme {
        Scheme::Baseline => {}
        Scheme::SgxBounds => {
            report = Some(tr.time("sgxbounds.instrument", op, || {
                sgxbounds::instrument(&mut module, &SbConfig::default())
                    .expect("sgxbounds instrumentation")
            }));
        }
        Scheme::Asan => {
            tr.time("baselines.instrument", op, || {
                instrument_asan_with(&mut module, false).expect("asan instrumentation")
            });
        }
        Scheme::Mpx => {
            tr.time("baselines.instrument", op, || {
                instrument_mpx_with(&mut module, false).expect("mpx instrumentation")
            });
        }
        Scheme::SgxBoundsCustom(_) => unreachable!("not in SCHEMES"),
    }
    tr.time("mir.verify", op, || verify(&module))
        .expect("instrumented module verifies");
    let mut vm = tr.time("mir.vm_new", op, || {
        let mut machine_cfg = MachineConfig::preset(rc.preset, rc.mode);
        machine_cfg.tier = rc.tier;
        let mut cfg = VmConfig::new(machine_cfg);
        cfg.max_instructions = rc.max_instructions;
        cfg.stack_size = ((2u64 << 20) / rc.scale()).max(32 << 10) as u32;
        Vm::new(&module, cfg)
    });
    let cap = rc.enclave_cap();
    let asan_cfg = AsanConfig::for_scale(rc.scale());
    tr.time("rt.install", op, || {
        let heap = match scheme {
            Scheme::Asan => install_base(&mut vm, asan_alloc_opts(&asan_cfg, cap)),
            _ => install_base(
                &mut vm,
                AllocOpts {
                    reserve_cap: cap,
                    ..AllocOpts::default()
                },
            ),
        };
        match scheme {
            Scheme::SgxBounds => {
                sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
            }
            Scheme::Asan => {
                install_asan(&mut vm, heap, &asan_cfg);
            }
            Scheme::Mpx => {
                install_mpx(&mut vm, heap, MpxConfig::for_scale(rc.scale()));
            }
            _ => {}
        }
    });
    let args = tr.time("rt.stage", op, || {
        p.stage(&mut vm, &mut Stager::new(), &rc.params)
    });
    tr.time("exec.lower", op, || sgxs_exec::attach(&mut vm));
    let out = tr.time("execute", op, || vm.run("main", &args));
    tr.count(EXECUTED_INSTRUCTIONS, out.stats.instructions);
    (out, report)
}
