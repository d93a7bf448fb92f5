//! In-crate equivalence pins: the compiled tier must be bit-identical to
//! the reference interpreter on real workloads — results, cycles,
//! instruction/branch counters, memory peaks, output, and the complete
//! observability event stream (digest + count). The corpus-wide and
//! chaos-campaign oracles live in the repository-level test suite; these
//! are the fast, always-on versions.

use sgxbounds::SbConfig;
use sgxs_mir::{verify, RunOutcome, Vm, VmConfig};
use sgxs_rt::{install_base, AllocOpts, Stager};
use sgxs_sim::obs::TraceRecorder;
use sgxs_sim::{MachineConfig, Mode, Preset, Stats};
use sgxs_workloads::apps::nginx;
use sgxs_workloads::apps::server::INPUT_BYTES;
use sgxs_workloads::{by_name, Params};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a run exposes, in one comparable value.
type Key = (
    Result<u64, String>,
    u64,         // wall_cycles
    u64,         // cpu_cycles
    Stats,       // instructions, branches, cache/EPC counters
    u64,         // peak_reserved
    u64,         // peak_committed
    Vec<String>, // output
    u64,         // event digest
    u64,         // event count
);

fn key(o: &RunOutcome, rec: &Rc<RefCell<TraceRecorder>>) -> Key {
    (
        o.result.clone().map_err(|t| t.to_string()),
        o.wall_cycles,
        o.cpu_cycles,
        o.stats,
        o.peak_reserved,
        o.peak_committed,
        o.output.clone(),
        rec.borrow().digest(),
        rec.borrow().events(),
    )
}

/// Benchmarks with threads, atomics, floats, and indirect calls all agree.
#[test]
fn workloads_are_bit_identical_across_tiers() {
    for name in ["kmeans", "histogram", "swaptions"] {
        let p = Params::new(MachineConfig::scale_of(Preset::Tiny));
        let w = by_name(name).expect("workload exists");
        let mut module = w.build(&p);
        sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
        verify(&module).expect("module verifies");
        let run = |compiled: bool| -> Key {
            let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
            cfg.max_instructions = 400_000_000;
            let mut vm = Vm::new(&module, cfg);
            let rec = Rc::new(RefCell::new(TraceRecorder::new(256)));
            vm.machine.set_recorder(Some(rec.clone()));
            let heap = install_base(&mut vm, AllocOpts::default());
            sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
            let mut st = Stager::new();
            let args = w.stage(&mut vm, &mut st, &p);
            if compiled {
                sgxs_exec::attach(&mut vm);
            }
            let out = vm.run("main", &args);
            key(&out, &rec)
        };
        let reference = run(false);
        let compiled = run(true);
        assert_eq!(reference, compiled, "tier divergence on {name}");
        assert!(reference.0.is_ok(), "{name} failed: {:?}", reference.0);
    }
}

/// The nginx server app (setup + per-request entry points, re-running the
/// same VM) agrees request-for-request.
#[test]
fn server_requests_are_bit_identical_across_tiers() {
    let mut module = nginx::server_module();
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    let run = |compiled: bool| -> Vec<(u64, u64, u64)> {
        let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        cfg.max_instructions = 500_000_000;
        let mut vm = Vm::new(&module, cfg);
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        if compiled {
            sgxs_exec::attach(&mut vm);
        }
        let input: Vec<u8> = (0..INPUT_BYTES).map(|i| (i % 251 + 1) as u8).collect();
        let mut st = Stager::new();
        let addr = st.stage(&mut vm, &input);
        vm.run("setup", &[addr as u64, INPUT_BYTES as u64])
            .result
            .expect("setup");
        (0..12u32)
            .map(|r| {
                let out = vm.run("handle", &[r as u64, 16 + (r as u64 * 37) % 180, 64]);
                (
                    out.result.expect("benign request"),
                    out.wall_cycles,
                    out.stats.instructions,
                )
            })
            .collect()
    };
    assert_eq!(run(false), run(true));
}

/// A trapping program traps identically: same trap, same counters.
#[test]
fn traps_are_bit_identical_across_tiers() {
    let p = Params::new(MachineConfig::scale_of(Preset::Tiny));
    let w = by_name("kmeans").expect("workload exists");
    let mut module = w.build(&p);
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    // Run with a tiny instruction budget: both tiers must hit the limit at
    // the same quantum with identical partial counters.
    let run = |compiled: bool| -> Key {
        let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        cfg.max_instructions = 10_000;
        let mut vm = Vm::new(&module, cfg);
        let rec = Rc::new(RefCell::new(TraceRecorder::new(64)));
        vm.machine.set_recorder(Some(rec.clone()));
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        let mut st = Stager::new();
        let args = w.stage(&mut vm, &mut st, &p);
        if compiled {
            sgxs_exec::attach(&mut vm);
        }
        let out = vm.run("main", &args);
        key(&out, &rec)
    };
    let reference = run(false);
    assert!(
        reference.0.is_err(),
        "expected the instruction limit to hit"
    );
    assert_eq!(reference, run(true));
}

/// The deliberate perturbation hook diverges — the oracle can fail.
#[test]
fn perturbed_engine_is_caught() {
    let p = Params::new(MachineConfig::scale_of(Preset::Tiny));
    let w = by_name("histogram").expect("workload exists");
    let mut module = w.build(&p);
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    let run = |mode: u8| -> u64 {
        let cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
        let mut vm = Vm::new(&module, cfg);
        let heap = install_base(&mut vm, AllocOpts::default());
        sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
        let mut st = Stager::new();
        let args = w.stage(&mut vm, &mut st, &p);
        match mode {
            1 => sgxs_exec::attach(&mut vm),
            2 => sgxs_exec::attach_perturbed(&mut vm),
            _ => {}
        }
        vm.run("main", &args).wall_cycles
    };
    assert_eq!(run(0), run(1), "clean compiled tier must agree");
    assert_ne!(run(0), run(2), "perturbed tier must diverge");
}
