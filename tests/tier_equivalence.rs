//! Corpus-wide tier-equivalence oracle: the compiled tier (`sgxs-exec`)
//! must be bit-identical to the reference interpreter over the fixed
//! fuzz-regression corpus and a generated seed window, the
//! environmental-chaos mode, a full chaos campaign, and a workload sample
//! under four schemes — the same way sb-flow was pinned to sb-noopt. The
//! fast in-crate pins live in `crates/exec/tests/equivalence.rs`; these
//! are the repository-level acceptance gates.

use sgxbounds::SbConfig;
use sgxs_exec::CompiledEngine;
use sgxs_fuzz::inject::FaultKind;
use sgxs_fuzz::runner::{exec, exec_chaos, ALL_SCHEMES, DEFAULT_BUDGET};
use sgxs_fuzz::{gen, inject, parse_corpus, CorpusEntry};
use sgxs_harness::{run_one, RunConfig, Scheme};
use sgxs_mir::{verify, QuantumEngine, Trap, Vm, VmConfig};
use sgxs_resil::{run_chaos_campaign, CampaignOpts};
use sgxs_rt::{install_base, AllocOpts};
use sgxs_sim::obs::TraceRecorder;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use sgxs_workloads::SizeClass;
use std::cell::RefCell;
use std::rc::Rc;

fn corpus() -> Vec<CorpusEntry> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fuzz_seeds.txt");
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    parse_corpus(&text).expect("corpus parses")
}

/// Seeds 0..40 at 16 ops, each safe and with the fault `FaultKind::for_seed`
/// plants: a generated window beside the committed corpus.
fn seed_window() -> impl Iterator<Item = CorpusEntry> {
    (0..40u64).flat_map(|seed| {
        [None, Some(FaultKind::for_seed(seed))].map(|kind| CorpusEntry {
            seed,
            max_ops: 16,
            kind,
        })
    })
}

/// Every corpus entry and every entry of the seed window — safe and
/// injected, all eight schemes — produces the same digest/trap, progress
/// beacon, violation count, and retry count on both tiers.
#[test]
fn corpus_is_bit_identical_across_tiers() {
    for entry in corpus().into_iter().chain(seed_window()) {
        let prog = gen::generate(entry.seed, entry.max_ops);
        let prog = match entry.kind {
            None => prog,
            Some(kind) => inject::inject(&prog, kind, entry.seed).0,
        };
        for scheme in ALL_SCHEMES {
            let r = exec(&prog, scheme, ExecTier::Reference, DEFAULT_BUDGET);
            let c = exec(&prog, scheme, ExecTier::Compiled, DEFAULT_BUDGET);
            assert_eq!(
                format!("{r:?}"),
                format!("{c:?}"),
                "corpus entry '{}' under {} diverged across tiers",
                entry.to_line(),
                scheme.label()
            );
        }
    }
}

/// Full-observable spot check on corpus programs: cycles, every named
/// stats counter, memory peaks, and the obs event stream (digest + count)
/// agree — not just the fields the fuzz runner reports.
#[test]
fn corpus_stats_cycles_and_obs_events_are_identical() {
    for entry in corpus().into_iter().step_by(5) {
        let prog = gen::generate(entry.seed, entry.max_ops);
        let prog = match entry.kind {
            None => prog,
            Some(kind) => inject::inject(&prog, kind, entry.seed).0,
        };
        let mut module = gen::build(&prog);
        sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
        verify(&module).expect("module verifies");
        let run = |compiled: bool| {
            let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
            cfg.max_instructions = 4_000_000;
            let mut vm = Vm::new(&module, cfg);
            let rec = Rc::new(RefCell::new(TraceRecorder::new(128)));
            vm.machine.set_recorder(Some(rec.clone()));
            let heap = install_base(&mut vm, AllocOpts::default());
            sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
            if compiled {
                sgxs_exec::attach(&mut vm);
            }
            let out = vm.run("main", &[]);
            let (digest, events) = (rec.borrow().digest(), rec.borrow().events());
            (
                out.result.map_err(|t| t.to_string()),
                out.wall_cycles,
                out.cpu_cycles,
                out.stats,
                out.peak_reserved,
                out.peak_committed,
                digest,
                events,
            )
        };
        assert_eq!(
            run(false),
            run(true),
            "corpus entry '{}' full observables diverged",
            entry.to_line()
        );
    }
}

/// Chaos mode (allocator fault injection + OOM retry with backoff) is
/// tier-invariant, including the retry accounting: seeds 300..312 at 12
/// ops and 0..8 at 16.
#[test]
fn chaos_mode_is_bit_identical_across_tiers() {
    let seeds = (300..312u64)
        .map(|s| (s, 12))
        .chain((0..8).map(|s| (s, 16)));
    for (seed, max_ops) in seeds {
        let prog = gen::generate(seed, max_ops);
        let chaos_seed = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(1);
        for scheme in ALL_SCHEMES {
            let r = exec_chaos(
                &prog,
                scheme,
                chaos_seed,
                ExecTier::Reference,
                DEFAULT_BUDGET,
            );
            let c = exec_chaos(
                &prog,
                scheme,
                chaos_seed,
                ExecTier::Compiled,
                DEFAULT_BUDGET,
            );
            assert_eq!(
                format!("{r:?}"),
                format!("{c:?}"),
                "chaos seed {seed} under {} diverged across tiers",
                scheme.label()
            );
        }
    }
}

/// A chaos *campaign* — every scheme/policy combo over seeded attack
/// schedules — renders and serializes byte-identically on both tiers. The
/// emitted `sgxs-chaos-v1` document deliberately carries no tier field, so
/// equality here is equality of every availability, recovery, corruption,
/// and AEX number in the report. CI runs the same diff at 100 seeds.
#[test]
fn chaos_campaign_document_is_byte_identical_across_tiers() {
    let campaign = |tier: ExecTier| {
        let opts = CampaignOpts {
            seeds: 10,
            seed0: 1,
            requests: 16,
            tier,
            ..CampaignOpts::default()
        };
        let rep = run_chaos_campaign(&opts).expect("valid campaign options");
        (rep.render(), rep.to_json().to_pretty())
    };
    let (ref_text, ref_json) = campaign(ExecTier::Reference);
    let (cmp_text, cmp_json) = campaign(ExecTier::Compiled);
    assert_eq!(ref_text, cmp_text, "campaign render diverged across tiers");
    assert_eq!(ref_json, cmp_json, "campaign JSON diverged across tiers");
}

/// A workload sample — histogram, kmeans and string_match (Tiny, XS, two
/// threads) under sgx, sgxbounds, asan and mpx — gives the same full
/// `Measured` on both tiers: result, cycles, memory peaks, every named
/// stats counter and the MPX bounds-table count.
#[test]
fn workload_sample_is_bit_identical_across_tiers() {
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    rc.params.threads = 2;
    for name in ["histogram", "kmeans", "string_match"] {
        let w = sgxs_workloads::by_name(name).expect("workload exists");
        for scheme in [
            Scheme::Baseline,
            Scheme::SgxBounds,
            Scheme::Asan,
            Scheme::Mpx,
        ] {
            let [r, c] = [ExecTier::Reference, ExecTier::Compiled]
                .map(|tier| run_one(w.as_ref(), scheme, &RunConfig { tier, ..rc }));
            assert_eq!(
                format!("{r:?}"),
                format!("{c:?}"),
                "workload {name} under {} diverged across tiers",
                scheme.label()
            );
        }
    }
}

/// The compiled engine with a one-cycle accounting fault: it charges one
/// extra cycle before its first quantum.
struct OffByOne {
    engine: CompiledEngine,
    charged: bool,
}

impl QuantumEngine for OffByOne {
    fn run_quantum(&mut self, vm: &mut Vm<'_>, tid: usize) -> Result<(), Trap> {
        if !self.charged {
            self.charged = true;
            *vm.engine_hot(tid).cycles += 1;
        }
        self.engine.run_quantum(vm, tid)
    }
}

/// Negative control: the compiled engine with a one-cycle accounting fault
/// must be caught by the oracle, on a corpus program, not just on
/// workloads. An oracle that cannot fail proves nothing.
#[test]
fn perturbed_engine_diverges_on_corpus_programs() {
    let prog = gen::generate(11, 20);
    let mut module = gen::build(&prog);
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    let run = |mode: u8| {
        let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        cfg.max_instructions = 4_000_000;
        let mut vm = Vm::new(&module, cfg);
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        match mode {
            1 => sgxs_exec::attach(&mut vm),
            2 => {
                let engine = sgxs_exec::compile(&vm);
                vm.set_frame_consts(engine.const_pools());
                vm.set_engine(Box::new(OffByOne {
                    engine,
                    charged: false,
                }));
            }
            _ => {}
        }
        vm.run("main", &[]).wall_cycles
    };
    assert_eq!(run(0), run(1), "clean compiled tier must agree");
    assert_ne!(run(0), run(2), "perturbed tier must trip the oracle");
}
