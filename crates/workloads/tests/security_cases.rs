//! Security case studies (paper §7 and Table 4): Heartbleed, the Nginx
//! stack overflow, and the 16-configuration RIPE matrix.

use sgxbounds::SbConfig;
use sgxs_baselines::{Hardening, ADDRESS_SPACE_CAP};
use sgxs_harness::Scheme;
use sgxs_mir::{verify, Module, Trap, Vm, VmConfig};
use sgxs_rt::Stager;
use sgxs_sim::{MachineConfig, Mode, Preset};
use sgxs_workloads::apps::apache::Heartbleed;
use sgxs_workloads::apps::nginx::NginxCve2013_2028;
use sgxs_workloads::apps::ripe;
use sgxs_workloads::{Params, SizeClass, Workload};

const SCALE: u64 = 128;

fn params() -> Params {
    Params {
        size: SizeClass::XS,
        threads: 1,
        scale: SCALE,
        seed: 3,
    }
}

/// SGXBounds in the §4.2 boundless-memory mode.
fn boundless() -> Hardening {
    Hardening::SgxBounds(SbConfig {
        boundless: true,
        ..SbConfig::default()
    })
}

/// Runs `module` hardened by `h`. `w`, when given, stages the inputs its
/// `main` takes; the RIPE attack modules take none.
fn run(mut module: Module, h: Hardening, w: Option<&dyn Workload>) -> Result<u64, Trap> {
    h.instrument(&mut module, false).unwrap();
    verify(&module).unwrap();
    let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
    cfg.max_instructions = 100_000_000;
    let mut vm = Vm::new(&module, cfg);
    h.install(&mut vm, SCALE, ADDRESS_SPACE_CAP);
    let args = match w {
        Some(w) => w.stage(&mut vm, &mut Stager::new(), &params()),
        None => Vec::new(),
    };
    vm.run("main", &args).result
}

fn run_workload(w: &dyn Workload, h: Hardening) -> Result<u64, Trap> {
    run(w.build(&params()), h, Some(w))
}

// ---- Heartbleed (§7 Apache) ------------------------------------------

#[test]
fn heartbleed_leaks_natively() {
    let r = run_workload(&Heartbleed, Hardening::None).unwrap();
    assert_eq!(r, 1, "unprotected server must leak the secret");
}

#[test]
fn heartbleed_detected_by_all_schemes() {
    for s in Scheme::all_hardened() {
        let r = run_workload(&Heartbleed, s.hardening());
        assert!(
            matches!(r, Err(Trap::SafetyViolation { .. })),
            "{} must detect Heartbleed, got {r:?}",
            s.label()
        );
    }
}

#[test]
fn heartbleed_boundless_prevents_leak_and_continues() {
    // Paper §7: SGXBounds with boundless memory copies zeroes into the
    // reply and Apache keeps running.
    let r = run_workload(&Heartbleed, boundless()).unwrap();
    assert_eq!(r, 0, "no secret bytes may leak under boundless memory");
}

// ---- CVE-2013-2028 (§7 Nginx) ----------------------------------------

#[test]
fn nginx_cve_detected_by_all_schemes() {
    for s in Scheme::all_hardened() {
        let r = run_workload(&NginxCve2013_2028, s.hardening());
        assert!(
            matches!(r, Err(Trap::SafetyViolation { .. })),
            "{} must detect the stack overflow, got {r:?}",
            s.label()
        );
    }
}

#[test]
fn nginx_cve_boundless_drops_request_and_serves_rest() {
    let r = run_workload(&NginxCve2013_2028, boundless()).unwrap();
    assert_eq!(r, 8, "all requests served after dropping the attack");
}

// ---- RIPE (Table 4) ----------------------------------------------------

fn ripe_prevented(scheme: Scheme) -> usize {
    let label = scheme.label();
    let mut prevented = 0;
    for cfg in ripe::all_attacks() {
        let m = ripe::build_attack(&cfg);
        match run(m, scheme.hardening(), None) {
            Err(Trap::SafetyViolation { .. }) => prevented += 1,
            Ok(v) => assert_eq!(
                v,
                ripe::SHELL_MAGIC,
                "undetected attack must succeed ({}, {label})",
                cfg.label()
            ),
            Err(t) => panic!("unexpected trap for {} under {label}: {t}", cfg.label()),
        }
    }
    prevented
}

#[test]
fn ripe_all_attacks_succeed_natively() {
    for cfg in ripe::all_attacks() {
        let m = ripe::build_attack(&cfg);
        let r = run(m, Hardening::None, None).unwrap();
        assert_eq!(
            r,
            ripe::SHELL_MAGIC,
            "native {} must be hijacked",
            cfg.label()
        );
    }
}

#[test]
fn ripe_sgxbounds_prevents_8_of_16() {
    assert_eq!(ripe_prevented(Scheme::SgxBounds), 8);
}

#[test]
fn ripe_asan_prevents_8_of_16() {
    assert_eq!(ripe_prevented(Scheme::Asan), 8);
}

#[test]
fn ripe_mpx_prevents_2_of_16() {
    assert_eq!(ripe_prevented(Scheme::Mpx), 2);
}

#[test]
fn ripe_in_struct_overflows_evade_everyone() {
    // Table 4's discussion: whole-object granularity cannot see in-struct
    // overflows.
    for cfg in ripe::all_attacks() {
        if cfg.target != ripe::Target::InStructFuncPtr {
            continue;
        }
        for s in Scheme::all_hardened() {
            let m = ripe::build_attack(&cfg);
            let r = run(m, s.hardening(), None);
            assert_eq!(
                r.unwrap(),
                ripe::SHELL_MAGIC,
                "{} must evade {}",
                cfg.label(),
                s.label()
            );
        }
    }
}

// ---- CVE-2011-4971 (§7 Memcached) --------------------------------------

#[test]
fn memcached_cve_detected_by_all_schemes() {
    use sgxs_workloads::apps::memcached::MemcachedCve2011_4971;
    for s in Scheme::all_hardened() {
        let r = run_workload(&MemcachedCve2011_4971, s.hardening());
        assert!(
            matches!(r, Err(Trap::SafetyViolation { .. })),
            "{} must detect the CVE overflow, got {r:?}",
            s.label()
        );
    }
}

#[test]
fn memcached_cve_boundless_hangs_like_the_paper() {
    // §7: "SGXBOUNDS with its boundless memory feature discarded the
    // overflowed packet's content but went into an infinite loop due to a
    // subsequent bug in the program's logic" — reproduced as an
    // instruction-budget exhaustion instead of a detection or crash.
    use sgxs_workloads::apps::memcached::MemcachedCve2011_4971;
    let r = run_workload(&MemcachedCve2011_4971, boundless());
    assert!(
        matches!(r, Err(Trap::InstructionLimit)),
        "boundless mode must spin in the retry loop, got {r:?}"
    );
}
