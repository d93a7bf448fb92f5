//! Cross-scheme correctness: every benchmark must produce the *same
//! checksum* under native, SGXBounds, ASan, and MPX — hardening must never
//! change program semantics — and the expected pathologies (MPX OOM on
//! pointer-spread programs) must appear where the paper reports them.

use sgxs_baselines::ADDRESS_SPACE_CAP;
use sgxs_harness::Scheme;
use sgxs_mir::{verify, Trap, Vm, VmConfig};
use sgxs_rt::Stager;
use sgxs_sim::{MachineConfig, Mode, Preset};
use sgxs_workloads::{Params, SizeClass, Workload};

const SCALE: u64 = 128;

fn params() -> Params {
    Params {
        size: SizeClass::XS,
        threads: 2,
        scale: SCALE,
        seed: 7,
    }
}

fn run_scheme(w: &dyn Workload, scheme: Scheme) -> Result<u64, Trap> {
    let p = params();
    let hardening = scheme.hardening();
    let mut module = w.build(&p);
    hardening.instrument(&mut module, false).unwrap();
    verify(&module).unwrap_or_else(|e| panic!("{} under {}: {e}", w.name(), scheme.label()));
    let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
    cfg.max_instructions = 400_000_000;
    let mut vm = Vm::new(&module, cfg);
    hardening.install(&mut vm, SCALE, ADDRESS_SPACE_CAP);
    let mut st = Stager::new();
    let args = w.stage(&mut vm, &mut st, &p);
    vm.run("main", &args).result
}

fn check_workload(w: &dyn Workload) {
    let native =
        run_scheme(w, Scheme::Baseline).unwrap_or_else(|t| panic!("{} native: {t}", w.name()));
    for scheme in Scheme::all_hardened() {
        let label = scheme.label();
        match run_scheme(w, scheme) {
            Ok(v) => assert_eq!(v, native, "{} checksum diverged under {label}", w.name()),
            // MPX may legitimately die of bounds-table OOM on
            // pointer-spread programs — the paper's result.
            Err(Trap::OutOfMemory { .. }) if scheme == Scheme::Mpx => {}
            Err(t) => panic!("{} under {label}: {t}", w.name()),
        }
    }
}

macro_rules! cross_scheme_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            let w = sgxs_workloads::by_name(stringify!($name)).expect("workload registered");
            check_workload(w.as_ref());
        }
    };
}

// Phoenix.
cross_scheme_test!(histogram);
cross_scheme_test!(kmeans);
cross_scheme_test!(linear_regression);
cross_scheme_test!(matrix_multiply);
cross_scheme_test!(pca);
cross_scheme_test!(string_match);
cross_scheme_test!(word_count);
// PARSEC.
cross_scheme_test!(blackscholes);
cross_scheme_test!(bodytrack);
cross_scheme_test!(dedup);
cross_scheme_test!(ferret);
cross_scheme_test!(fluidanimate);
cross_scheme_test!(streamcluster);
cross_scheme_test!(swaptions);
cross_scheme_test!(vips);
cross_scheme_test!(x264);
// SPEC.
cross_scheme_test!(astar);
cross_scheme_test!(bzip2);
cross_scheme_test!(gobmk);
cross_scheme_test!(h264ref);
cross_scheme_test!(hmmer);
cross_scheme_test!(lbm);
cross_scheme_test!(libquantum);
cross_scheme_test!(mcf);
cross_scheme_test!(milc);
cross_scheme_test!(namd);
cross_scheme_test!(sjeng);
cross_scheme_test!(sphinx3);
cross_scheme_test!(xalancbmk);
// Apps.
cross_scheme_test!(sqlite);
cross_scheme_test!(memcached);
cross_scheme_test!(apache);
cross_scheme_test!(nginx);
