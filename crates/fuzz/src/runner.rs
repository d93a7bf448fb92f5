//! Differential runner: executes one (program, fault) under every scheme,
//! classifies the outcome against the injector ground truth, and checks it
//! against the per-scheme detection model.

use crate::gen::{self, Prog};
use crate::inject::{Fault, FaultKind};
use sgxbounds::SbConfig;
use sgxs_audit::LedgerRecorder;
use sgxs_baselines::{Hardening, Installed, ADDRESS_SPACE_CAP};
use sgxs_mir::{
    GlobalId, Module, PolicySet, RecoveryPolicy, RunOutcome, Trap, TrapClass, Vm, VmConfig,
};
use sgxs_rt::AllocFaultPlan;
use sgxs_sim::obs::Recorder;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use std::cell::RefCell;
use std::rc::Rc;

/// A protection scheme under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FScheme {
    /// No instrumentation.
    Native,
    /// SGXBounds, default configuration (both optimizations, fail-stop).
    SgxBounds,
    /// SGXBounds with every optimization disabled.
    SgxBoundsNoOpt,
    /// SGXBounds with the flow-sensitive dataflow tier on top of the
    /// default optimizations (cross-block safe proofs + check elision).
    SgxBoundsFlow,
    /// SGXBounds with bounds narrowing (detects intra-object overflows).
    SgxBoundsNarrow,
    /// SGXBounds in boundless-memory mode (tolerates instead of stopping).
    SgxBoundsBoundless,
    /// AddressSanitizer baseline.
    Asan,
    /// Intel MPX baseline.
    Mpx,
}

/// Every scheme, report-column order.
pub const ALL_SCHEMES: [FScheme; 8] = [
    FScheme::Native,
    FScheme::SgxBounds,
    FScheme::SgxBoundsNoOpt,
    FScheme::SgxBoundsFlow,
    FScheme::SgxBoundsNarrow,
    FScheme::SgxBoundsBoundless,
    FScheme::Asan,
    FScheme::Mpx,
];

impl FScheme {
    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            FScheme::Native => "native",
            FScheme::SgxBounds => "sgxbounds",
            FScheme::SgxBoundsNoOpt => "sb-noopt",
            FScheme::SgxBoundsFlow => "sb-flow",
            FScheme::SgxBoundsNarrow => "sb-narrow",
            FScheme::SgxBoundsBoundless => "sb-boundless",
            FScheme::Asan => "asan",
            FScheme::Mpx => "mpx",
        }
    }

    /// What this scheme does to a module and a VM.
    pub fn hardening(&self) -> Hardening {
        let d = SbConfig::default();
        match self {
            FScheme::Native => Hardening::None,
            FScheme::SgxBounds => Hardening::SgxBounds(d),
            FScheme::SgxBoundsNoOpt => Hardening::SgxBounds(SbConfig {
                safe_access_opt: false,
                hoist_opt: false,
                ..d
            }),
            FScheme::SgxBoundsFlow => Hardening::SgxBounds(SbConfig {
                flow_elide: true,
                ..d
            }),
            FScheme::SgxBoundsNarrow => Hardening::SgxBounds(SbConfig {
                narrow_bounds: true,
                ..d
            }),
            FScheme::SgxBoundsBoundless => Hardening::SgxBounds(SbConfig {
                boundless: true,
                ..d
            }),
            FScheme::Asan => Hardening::Asan,
            FScheme::Mpx => Hardening::Mpx,
        }
    }
}

/// Raw outcome of one execution.
#[derive(Debug, Clone)]
pub struct Exec {
    /// Digest (or trap) the program finished with.
    pub result: Result<u64, Trap>,
    /// Progress beacon after the run: `k + 1` when op `k` was the last to
    /// complete.
    pub beacon: u64,
    /// SGXBounds violation counter (boundless mode records tolerated
    /// violations here; other schemes leave it 0).
    pub violations: u64,
    /// Interpreter retry attempts (chaos mode only; 0 otherwise).
    pub retries: u64,
}

/// Default per-execution instruction budget — the deterministic watchdog
/// cap every campaign run enforces. Generated programs finish far below
/// it; a run that hits it is a runaway, and the supervisor quarantines the
/// seed as a `budget` failure.
pub const DEFAULT_BUDGET: u64 = 4_000_000;

/// Retries the chaos mode grants one run for injected OOMs; a run that
/// needs more traps, so a completed run never reports more.
pub const OOM_RETRY_ATTEMPTS: u32 = 16;

/// Builds, instruments, and runs `prog` under `scheme` on `tier`, stopping
/// it after `budget` interpreter instructions — the campaign watchdog
/// (`repro fuzz --budget N`). The budget counts instructions, never
/// wall-clock time, so the resulting trap (and every artifact derived from
/// it) is bit-reproducible on any host. The compiled tier must reproduce
/// the reference digest, beacon, and violation count bit-for-bit;
/// `tests/tier_equivalence.rs` enforces this corpus-wide.
pub fn exec(prog: &Prog, scheme: FScheme, tier: ExecTier, budget: u64) -> Exec {
    catch_exec(|| exec_uncaught(prog, scheme, None, None, tier, budget))
}

/// Like [`exec`] but under environmental chaos: a fault plan seeded with
/// `chaos_seed` makes the allocator fail intermittently, and the
/// interpreter retries the injected OOMs with backoff. A correct scheme
/// must still reproduce the clean native digest bit-for-bit — any
/// divergence means a transient allocation failure corrupted results — and
/// the recovery machinery, retry accounting included, must be
/// tier-invariant.
pub fn exec_chaos(
    prog: &Prog,
    scheme: FScheme,
    chaos_seed: u64,
    tier: ExecTier,
    budget: u64,
) -> Exec {
    catch_exec(|| exec_uncaught(prog, scheme, None, Some(chaos_seed), tier, budget))
}

/// True when the run was stopped by the instruction-budget watchdog (the
/// supervisor turns this into a `budget` quarantine rather than a verdict).
pub fn is_budget_trap(e: &Exec) -> bool {
    matches!(e.result, Err(Trap::InstructionLimit))
}

/// True when the run died on allocator exhaustion — in chaos mode, an
/// injected fault plan that outlasted the VM's own OOM-retry ladder. The
/// supervisor treats these as transient and retries with a fresh chaos
/// salt instead of recording a recovery bug.
pub fn is_oom_trap(e: &Exec) -> bool {
    matches!(e.result, Err(Trap::OutOfMemory { .. }))
}

/// Forensic re-run of a (dis)agreeing execution: attaches a
/// [`LedgerRecorder`] (object provenance ledger + fault capture + trace
/// ring of `ring_cap` events) with span mode on. Observability is
/// zero-perturbation, so the returned [`Exec`] is bit-identical to the
/// plain [`exec`] — `tests/incident_forensics.rs` pins it.
pub fn exec_forensic(
    prog: &Prog,
    scheme: FScheme,
    tier: ExecTier,
    budget: u64,
    ring_cap: usize,
) -> (Exec, LedgerRecorder) {
    let rec = Rc::new(RefCell::new(LedgerRecorder::new(ring_cap)));
    let e = catch_exec(|| exec_uncaught(prog, scheme, Some(rec.clone()), None, tier, budget));
    let r = Rc::try_unwrap(rec)
        .expect("machine dropped its recorder handle")
        .into_inner();
    (e, r)
}

/// Runs `f`, converting a panic anywhere in the scheme pipeline
/// (instrumentation, install, interpretation) into a `Trap::Abort` so one
/// buggy scheme surfaces as a [`Verdict::Crash`] for that input instead of
/// tearing down the whole campaign.
fn catch_exec(f: impl FnOnce() -> Exec) -> Exec {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(e) => e,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Exec {
                result: Err(Trap::Abort(format!("scheme panicked: {msg}"))),
                beacon: 0,
                violations: 0,
                retries: 0,
            }
        }
    }
}

fn exec_uncaught(
    prog: &Prog,
    scheme: FScheme,
    rec: Option<Rc<RefCell<dyn Recorder>>>,
    chaos_seed: Option<u64>,
    tier: ExecTier,
    budget: u64,
) -> Exec {
    let hardening = scheme.hardening();
    let mut module = gen::build(prog);
    hardening
        .instrument(&mut module, rec.is_some())
        .expect("fuzz module instruments");
    let (mut vm, rt) = boot(&hardening, &module, rec, tier, budget);
    run_booted(&mut vm, &rt, chaos_seed).1
}

/// Boots `module` (a generated program, hardened by `hardening`) on the
/// campaign's machine: the Tiny preset in enclave mode on `tier`, stopped
/// after `budget` instructions, with `rec` recording and span mode on
/// when it does.
pub fn boot<'m>(
    hardening: &Hardening,
    module: &'m Module,
    rec: Option<Rc<RefCell<dyn Recorder>>>,
    tier: ExecTier,
    budget: u64,
) -> (Vm<'m>, Installed) {
    let traced = rec.is_some();
    let mut machine_cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
    machine_cfg.tier = tier;
    let mut cfg = VmConfig::new(machine_cfg);
    cfg.max_instructions = budget;
    let scale = MachineConfig::scale_of(Preset::Tiny);
    let (mut vm, rt) = hardening.boot(module, cfg, rec, scale, ADDRESS_SPACE_CAP);
    vm.machine.set_span_mode(traced);
    (vm, rt)
}

/// Runs `main` on a VM from [`boot`] and returns its full outcome and what
/// the campaign compares of it. With `chaos_seed` the run is in chaos
/// mode: the allocator fails intermittently and the VM rides the injected
/// OOMs out with bounded retries.
pub fn run_booted(vm: &mut Vm<'_>, rt: &Installed, chaos_seed: Option<u64>) -> (RunOutcome, Exec) {
    if let Some(seed) = chaos_seed {
        rt.heap
            .borrow_mut()
            .set_fault_plan(Some(AllocFaultPlan::new(seed, 96).with_budget(6)));
        vm.set_recovery(PolicySet::uniform(RecoveryPolicy::Abort).with_override(
            TrapClass::Oom,
            RecoveryPolicy::RetryWithBackoff {
                max_attempts: OOM_RETRY_ATTEMPTS,
                backoff: 1_000,
            },
        ));
    }
    let out = vm.run("main", &[]);
    // The beacon is always GlobalId(0) — gen::build creates it first.
    let baddr = vm.global_addr(GlobalId(0));
    let mut buf = [0u8; 8];
    vm.machine.mem.read_bytes(baddr, &mut buf);
    let exec = Exec {
        result: out.result.clone(),
        beacon: u64::from_le_bytes(buf),
        violations: (rt.sgxbounds.as_ref()).map_or(0, |sb| *sb.violations.borrow()),
        retries: vm.recovery_stats().attempts,
    };
    (out, exec)
}

/// Classification of one run against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Safe program completed with the native digest.
    Pass,
    /// Fault detected, trap attributed to the injected op.
    Detected,
    /// Fault detected, but the scheme stopped in a different op.
    DetectedWrongSite {
        /// Beacon value at the trap (`victim + 1` would mean the fault op
        /// completed).
        beacon: u64,
    },
    /// Faulty program ran to completion, no violation observed.
    Missed,
    /// Boundless mode: program completed but the violation was logged.
    Tolerated,
    /// Safe program stopped with a safety violation.
    FalsePositive(String),
    /// Safe program completed with a digest different from native.
    DigestMismatch {
        /// Native digest.
        want: u64,
        /// This scheme's digest.
        got: u64,
    },
    /// Any other trap (OOM, memory fault, instruction budget, ...).
    Crash(String),
}

impl Verdict {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Detected => "detected",
            Verdict::DetectedWrongSite { .. } => "wrong-site",
            Verdict::Missed => "missed",
            Verdict::Tolerated => "tolerated",
            Verdict::FalsePositive(_) => "false-positive",
            Verdict::DigestMismatch { .. } => "digest-mismatch",
            Verdict::Crash(_) => "crash",
        }
    }

    /// True when the scheme flagged the violation at all (detected at
    /// either site, or tolerated it in boundless mode).
    pub fn flagged(&self) -> bool {
        matches!(
            self,
            Verdict::Detected | Verdict::DetectedWrongSite { .. } | Verdict::Tolerated
        )
    }

    /// The verdict's payload detail, when it carries one: the trap text of
    /// a crash or false positive (including the panic message `catch_exec`
    /// preserves from a panicking scheme pipeline), the digest pair of a
    /// mismatch, or the beacon of a wrong-site detection. `None` for the
    /// payload-free verdicts.
    pub fn detail(&self) -> Option<String> {
        match self {
            Verdict::Crash(m) | Verdict::FalsePositive(m) => Some(m.clone()),
            Verdict::DigestMismatch { want, got } => Some(format!("want {want:#x}, got {got:#x}")),
            Verdict::DetectedWrongSite { beacon } => Some(format!("beacon {beacon}")),
            _ => None,
        }
    }
}

/// Classifies one execution. `fault` is `None` for safe programs;
/// `native_digest` is the uninstrumented result of the same program.
pub fn classify(fault: Option<&Fault>, native_digest: u64, e: &Exec) -> Verdict {
    match fault {
        None => match &e.result {
            Ok(d) if *d == native_digest => Verdict::Pass,
            Ok(d) => Verdict::DigestMismatch {
                want: native_digest,
                got: *d,
            },
            Err(t) if t.is_detection() => Verdict::FalsePositive(t.to_string()),
            Err(t) => Verdict::Crash(t.to_string()),
        },
        Some(f) => match &e.result {
            Err(t) if t.is_detection() => {
                // Trap during op k leaves the beacon at k (only completed
                // ops advance it).
                if e.beacon == f.victim_index() as u64 {
                    Verdict::Detected
                } else {
                    Verdict::DetectedWrongSite { beacon: e.beacon }
                }
            }
            Ok(_) if e.violations > 0 => Verdict::Tolerated,
            Ok(_) => Verdict::Missed,
            Err(t) => Verdict::Crash(t.to_string()),
        },
    }
}

/// The detection model: which verdicts each scheme is *allowed* to produce
/// for each fault kind. Anything outside this set is a disagreement worth
/// shrinking. `None` kind means the safe (uninjected) program, where every
/// scheme must `Pass`.
pub fn allowed(scheme: FScheme, kind: Option<FaultKind>) -> &'static [&'static str] {
    use FaultKind::*;
    let Some(kind) = kind else {
        return &["pass"];
    };
    match scheme {
        // Native has no checks: it misses, or stumbles into a hardware
        // fault by luck.
        FScheme::Native => &["missed", "crash"],
        // SGXBounds (any fail-stop variant without narrowing) detects every
        // whole-object violation and by design misses intra-object ones
        // (paper §8).
        FScheme::SgxBounds | FScheme::SgxBoundsNoOpt | FScheme::SgxBoundsFlow => match kind {
            IntraObject => &["missed"],
            _ => &["detected"],
        },
        // Narrowing additionally catches intra-object overflows.
        FScheme::SgxBoundsNarrow => &["detected"],
        // Boundless mode never stops: violations are logged and tolerated.
        // Wrapper violations fail hard even in boundless mode (§4.2), so
        // "detected" stays allowed.
        FScheme::SgxBoundsBoundless => match kind {
            IntraObject => &["missed"],
            _ => &["tolerated", "detected"],
        },
        // ASan catches redzone-adjacent violations and (with interceptors)
        // wrapper overflows; far overflows may jump the redzone and
        // intra-object accesses never leave the allocation. A missed wild
        // write can corrupt an adjacent object and crash the program
        // downstream, so "crash" rides along wherever "missed" writes are
        // possible.
        FScheme::Asan => match kind {
            HeapOverflowFar => &["detected", "missed", "crash"],
            IntraObject => &["missed"],
            _ => &["detected"],
        },
        // MPX tracks pointer bounds but loses them through int laundering
        // (CastRoundtrip) and does not intercept libc wrappers; Table 4
        // scores it 2/16 for good reason. As with ASan, a missed write may
        // corrupt neighbors (including MPX's own in-memory bounds tables)
        // and crash later.
        FScheme::Mpx => match kind {
            IntraObject => &["missed"],
            MemcpyOverflow | StrcpyOverflow => &["missed", "crash"],
            _ => &["detected", "missed", "crash"],
        },
    }
}

/// True when `v` is within the detection model for `(scheme, kind)`.
pub fn verdict_ok(scheme: FScheme, kind: Option<FaultKind>, v: &Verdict) -> bool {
    allowed(scheme, kind).contains(&v.label())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::inject::{inject, ALL_KINDS};

    fn run(prog: &Prog, scheme: FScheme) -> Exec {
        exec(prog, scheme, ExecTier::Reference, DEFAULT_BUDGET)
    }

    #[test]
    fn native_execution_is_deterministic() {
        let prog = generate(17, 20);
        let a = run(&prog, FScheme::Native);
        let b = run(&prog, FScheme::Native);
        assert_eq!(a.result, b.result);
        assert_eq!(a.beacon, b.beacon);
    }

    #[test]
    fn safe_program_passes_under_every_scheme() {
        let prog = generate(23, 20);
        let native = run(&prog, FScheme::Native).result.expect("native ok");
        for s in ALL_SCHEMES {
            let e = run(&prog, s);
            let v = classify(None, native, &e);
            assert_eq!(v, Verdict::Pass, "{}: {:?}", s.label(), e.result);
        }
    }

    #[test]
    fn sgxbounds_detects_heap_overflow_at_the_right_site() {
        let prog = generate(29, 12);
        let (fprog, fault) = inject(&prog, FaultKind::HeapOverflow, 1);
        let e = run(&fprog, FScheme::SgxBounds);
        let v = classify(Some(&fault), 0, &e);
        assert_eq!(v, Verdict::Detected, "exec: {:?}", e);
    }

    #[test]
    fn intra_object_needs_narrowing() {
        let prog = generate(31, 12);
        let (fprog, fault) = inject(&prog, FaultKind::IntraObject, 2);
        let plain = classify(Some(&fault), 0, &run(&fprog, FScheme::SgxBounds));
        assert_eq!(plain, Verdict::Missed);
        let narrow = classify(Some(&fault), 0, &run(&fprog, FScheme::SgxBoundsNarrow));
        assert_eq!(narrow, Verdict::Detected);
    }

    #[test]
    fn boundless_tolerates_heap_overflow() {
        let prog = generate(37, 12);
        let (fprog, fault) = inject(&prog, FaultKind::HeapOverflow, 3);
        let e = run(&fprog, FScheme::SgxBoundsBoundless);
        let v = classify(Some(&fault), 0, &e);
        assert!(
            verdict_ok(
                FScheme::SgxBoundsBoundless,
                Some(FaultKind::HeapOverflow),
                &v
            ),
            "boundless verdict {v:?}"
        );
    }

    #[test]
    fn panicking_scheme_yields_a_crash_verdict() {
        // A scheme whose pipeline panics must degrade to Verdict::Crash for
        // that one input, not abort the campaign process.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let e = catch_exec(|| panic!("deliberate mock-scheme failure"));
        std::panic::set_hook(hook);
        let trap = e.result.as_ref().expect_err("panic must become a trap");
        assert!(
            trap.to_string().contains("deliberate mock-scheme failure"),
            "payload carried through: {trap}"
        );
        let v = classify(None, 0, &e);
        assert!(matches!(v, Verdict::Crash(_)), "got {v:?}");
        // Faulty-program classification also lands on Crash, never on a
        // detection verdict.
        let prog = generate(53, 8);
        let (_, fault) = inject(&prog, FaultKind::HeapOverflow, 5);
        let v = classify(Some(&fault), 0, &e);
        assert!(matches!(v, Verdict::Crash(_)), "got {v:?}");
    }

    #[test]
    fn every_kind_matches_the_detection_model_on_a_few_seeds() {
        for seed in [41u64, 43, 47] {
            let prog = generate(seed, 12);
            for kind in ALL_KINDS {
                let (fprog, fault) = inject(&prog, kind, seed);
                for s in ALL_SCHEMES {
                    let e = run(&fprog, s);
                    let v = classify(Some(&fault), 0, &e);
                    assert!(
                        verdict_ok(s, Some(kind), &v),
                        "seed {seed} {kind:?} under {}: verdict {v:?} (exec {:?})",
                        s.label(),
                        e.result
                    );
                }
            }
        }
    }
}
