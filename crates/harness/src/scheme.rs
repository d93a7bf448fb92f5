//! Scheme-aware workload runner: build, harden, boot, stage, run,
//! measure.

use sgxbounds::SbConfig;
use sgxs_baselines::Hardening;
use sgxs_mir::{CheckSite, Trap, VmConfig};
use sgxs_rt::Stager;
use sgxs_sim::obs::Recorder;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset, Stats};
use sgxs_workloads::{Params, Workload};
use std::cell::RefCell;
use std::rc::Rc;

/// Enclave virtual-memory budget at paper scale (the 4 GB 32-bit space the
/// paper's §8 discussion assumes). Scaled presets divide it by the machine
/// scale so reservation pressure is comparable.
pub const ENCLAVE_BYTES_PAPER: u64 = 4 << 30;

/// A protection scheme to run a workload under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Uninstrumented ("native SGX" when run in enclave mode — the paper's
    /// normalization baseline).
    Baseline,
    /// SGXBounds with both optimizations, fail-stop.
    SgxBounds,
    /// SGXBounds variants for the Fig. 10 ablation and §4.2.
    SgxBoundsCustom(SbConfig),
    /// AddressSanitizer-style baseline.
    Asan,
    /// Intel MPX-style baseline.
    Mpx,
}

impl Scheme {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Baseline => "sgx",
            Scheme::SgxBounds => "sgxbounds",
            Scheme::SgxBoundsCustom(_) => "sgxbounds*",
            Scheme::Asan => "asan",
            Scheme::Mpx => "mpx",
        }
    }

    /// The three hardening schemes the paper compares (Fig. 7 order).
    pub fn all_hardened() -> [Scheme; 3] {
        [Scheme::Mpx, Scheme::Asan, Scheme::SgxBounds]
    }

    /// What this scheme does to a module and a VM.
    pub fn hardening(&self) -> Hardening {
        match self {
            Scheme::Baseline => Hardening::None,
            Scheme::SgxBounds => Hardening::SgxBounds(SbConfig::default()),
            Scheme::SgxBoundsCustom(c) => Hardening::SgxBounds(*c),
            Scheme::Asan => Hardening::Asan,
            Scheme::Mpx => Hardening::Mpx,
        }
    }
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: &'static str,
    /// Exit value or trap.
    pub result: Result<u64, Trap>,
    /// Simulated wall-clock cycles.
    pub wall_cycles: u64,
    /// Peak reserved virtual memory (the paper's memory metric).
    pub peak_reserved: u64,
    /// Peak committed (touched) bytes.
    pub peak_committed: u64,
    /// Hardware counters.
    pub stats: Stats,
    /// MPX bounds tables allocated (MPX runs only).
    pub mpx_bts: usize,
}

impl Measured {
    /// True when the run completed (OOM crashes and detections are not
    /// completions).
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Machine/VM configuration for an experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Scale preset.
    pub preset: Preset,
    /// Enclave or native execution.
    pub mode: Mode,
    /// Workload parameters.
    pub params: Params,
    /// Instruction budget.
    pub max_instructions: u64,
    /// Optional EPC-size override in bytes (ablations).
    pub epc_override: Option<u64>,
    /// Execution tier (the reference interpreter stays the default oracle;
    /// the compiled tier is bit-identical and only changes host wall time).
    /// `repro --tier` sets it on the suite's base configuration, and every
    /// experiment derives its runs from that base.
    pub tier: ExecTier,
}

impl RunConfig {
    /// Default experiment configuration for a preset (enclave mode, L size,
    /// 8 threads, reference tier).
    pub fn new(preset: Preset) -> Self {
        let scale = MachineConfig::scale_of(preset);
        RunConfig {
            preset,
            mode: Mode::Enclave,
            params: Params::new(scale),
            max_instructions: 4_000_000_000,
            epc_override: None,
            tier: ExecTier::Reference,
        }
    }

    /// The machine-scale divisor.
    pub fn scale(&self) -> u64 {
        MachineConfig::scale_of(self.preset)
    }

    /// The scaled enclave reservation cap.
    pub fn enclave_cap(&self) -> u64 {
        match self.mode {
            Mode::Enclave => ENCLAVE_BYTES_PAPER / self.scale(),
            // Outside the enclave memory is effectively unconstrained.
            Mode::Native => u64::MAX,
        }
    }
}

/// An observed execution: the measurement plus everything needed to build a
/// per-check-site profile from the recorder's event stream.
#[derive(Debug)]
pub struct ObsRun {
    /// The measurement (same fields [`run_one`] reports).
    pub measured: Measured,
    /// Check-site table of the instrumented module (index = site ID).
    pub sites: Vec<CheckSite>,
    /// Summed per-thread cycles (total CPU time; the denominator for
    /// app-vs-instrumentation attribution).
    pub cpu_cycles: u64,
}

/// Builds, hardens, and runs `workload` under `scheme`.
pub fn run_one(workload: &dyn Workload, scheme: Scheme, rc: &RunConfig) -> Measured {
    run_one_inner(workload, scheme, rc, None).measured
}

/// Like [`run_one`] but with the observability layer on: the instrumentation
/// passes register site markers for every inserted check and the machine
/// routes events through `rec`. Passing a
/// [`NoopRecorder`](sgxs_sim::obs::NoopRecorder) must not change any
/// simulated counter (markers are transparent and the emit path is gated on
/// an inlined `enabled()`).
pub fn run_one_obs(
    workload: &dyn Workload,
    scheme: Scheme,
    rc: &RunConfig,
    rec: Rc<RefCell<dyn Recorder>>,
) -> ObsRun {
    run_one_inner(workload, scheme, rc, Some(rec))
}

fn run_one_inner(
    workload: &dyn Workload,
    scheme: Scheme,
    rc: &RunConfig,
    rec: Option<Rc<RefCell<dyn Recorder>>>,
) -> ObsRun {
    let hardening = scheme.hardening();
    let mut module = workload.build(&rc.params);
    if let Err(e) = hardening.instrument(&mut module, rec.is_some()) {
        panic!("{} under {}: {e}", workload.name(), scheme.label());
    }

    let mut machine_cfg = MachineConfig::preset(rc.preset, rc.mode);
    if let Some(epc) = rc.epc_override {
        machine_cfg.epc_bytes = epc;
    }
    machine_cfg.tier = rc.tier;
    let mut cfg = VmConfig::new(machine_cfg);
    cfg.max_instructions = rc.max_instructions;
    // Thread stacks scale with the machine (2 MB pthread default at paper
    // scale) so reserved-memory ratios stay comparable across presets.
    cfg.stack_size = ((2u64 << 20) / rc.scale()).max(32 << 10) as u32;
    let (mut vm, rt) = hardening.boot(&module, cfg, rec, rc.scale(), rc.enclave_cap());

    let mut st = Stager::new();
    let args = workload.stage(&mut vm, &mut st, &rc.params);
    let out = vm.run("main", &args);
    let measured = Measured {
        workload: workload.name().to_owned(),
        scheme: scheme.label(),
        result: out.result,
        wall_cycles: out.wall_cycles,
        peak_reserved: out.peak_reserved,
        peak_committed: out.peak_committed,
        stats: out.stats,
        mpx_bts: rt
            .mpx
            .as_ref()
            .map(|r| r.tables.borrow().bt_count())
            .unwrap_or(0),
    };
    drop(vm);
    ObsRun {
        measured,
        sites: std::mem::take(&mut module.check_sites),
        cpu_cycles: out.cpu_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_workloads::SizeClass;

    fn quick_rc() -> RunConfig {
        let mut rc = RunConfig::new(Preset::Tiny);
        rc.params.size = SizeClass::XS;
        rc.params.threads = 2;
        rc
    }

    #[test]
    fn baseline_run_produces_counters_and_cycles() {
        let w = sgxs_workloads::by_name("histogram").unwrap();
        let m = run_one(w.as_ref(), Scheme::Baseline, &quick_rc());
        assert!(m.ok());
        assert!(m.wall_cycles > 0);
        assert!(m.stats.instructions > 0);
        assert!(m.peak_reserved > 0);
        assert_eq!(m.scheme, "sgx");
        assert_eq!(m.mpx_bts, 0);
    }

    #[test]
    fn mpx_run_reports_bounds_tables() {
        let w = sgxs_workloads::by_name("word_count").unwrap();
        let m = run_one(w.as_ref(), Scheme::Mpx, &quick_rc());
        assert!(m.ok());
        assert!(m.mpx_bts > 0, "pointer-heavy workload must allocate BTs");
    }

    #[test]
    fn enclave_cap_scales_with_preset() {
        let tiny = RunConfig::new(Preset::Tiny);
        let mini = RunConfig::new(Preset::Mini);
        assert_eq!(tiny.enclave_cap() * 4, mini.enclave_cap());
        let mut native = RunConfig::new(Preset::Tiny);
        native.mode = Mode::Native;
        assert_eq!(native.enclave_cap(), u64::MAX);
    }

    #[test]
    fn keys_that_share_a_label_share_a_hardening() {
        use sgxs_fuzz::runner::ALL_SCHEMES;
        use sgxs_resil::RScheme;
        let harness = std::iter::once(Scheme::Baseline).chain(Scheme::all_hardened());
        let keys = harness
            .map(|s| (s.label(), s.hardening()))
            .chain(ALL_SCHEMES.iter().map(|s| (s.label(), s.hardening())))
            .chain(RScheme::ALL.iter().map(|s| (s.label(), s.hardening())));
        let mut by_label = std::collections::BTreeMap::<&str, Vec<Hardening>>::new();
        for (label, h) in keys {
            by_label.entry(label).or_default().push(h);
        }
        for (label, hs) in &by_label {
            assert!(hs.iter().all(|h| *h == hs[0]), "{label} maps to {hs:?}");
        }
        for (label, count) in [
            ("sgxbounds", 3),
            ("asan", 2),
            ("mpx", 2),
            ("native", 2),
            ("sb-boundless", 2),
        ] {
            assert_eq!(by_label[label].len(), count, "keys labelled {label}");
        }
        // The harness labels its uninstrumented baseline `sgx`; it is the
        // same run as the two `native` keys.
        assert_eq!(Scheme::Baseline.hardening(), Hardening::None);
        assert_eq!(by_label["native"][0], Hardening::None);
    }

    #[test]
    fn schemes_are_deterministic_across_repeat_runs() {
        let w = sgxs_workloads::by_name("string_match").unwrap();
        let a = run_one(w.as_ref(), Scheme::SgxBounds, &quick_rc());
        let b = run_one(w.as_ref(), Scheme::SgxBounds, &quick_rc());
        assert_eq!(
            a.wall_cycles, b.wall_cycles,
            "simulation must be deterministic"
        );
        assert_eq!(a.result.clone().unwrap(), b.result.clone().unwrap());
        assert_eq!(a.peak_reserved, b.peak_reserved);
    }
}
