//! Acceptance tests for the recovery-and-chaos tier (`sgxs-resil`).
//!
//! Two claims are pinned here rather than inside the crate:
//!
//! 1. Across a chaos campaign, the boundless deployment answers at least
//!    90% of requests with zero cross-object corruption, while the
//!    fail-stop baseline loses most of its availability *on the same
//!    seeds* — the paper's §4.2 availability argument, measured.
//! 2. The recovery hook is zero-cost when disabled: running a server
//!    under the default `Abort` policy is cycle-for-cycle identical to
//!    running with no recovery configured at all, so every previously
//!    recorded benchmark number stays byte-identical.

use sgxbounds::SbConfig;
use sgxs_mir::{verify, PolicySet, RecoveryPolicy, Vm, VmConfig};
use sgxs_resil::{run_chaos_campaign, CampaignOpts};
use sgxs_rt::{install_base, AllocOpts, Stager};
use sgxs_sim::{MachineConfig, Mode, Preset};
use sgxs_workloads::apps::nginx;
use sgxs_workloads::apps::server::INPUT_BYTES;

#[test]
fn chaos_campaign_separates_fail_stop_from_boundless_availability() {
    let small = CampaignOpts {
        seeds: 25,
        seed0: 1,
        requests: 32,
        ..CampaignOpts::default()
    };
    // The 100 default-option seeds `repro selfcheck` runs, too.
    let selfcheck = CampaignOpts {
        seeds: 100,
        ..CampaignOpts::default()
    };
    for opts in [small, selfcheck] {
        separates_fail_stop_from_boundless(&opts);
    }
}

fn separates_fail_stop_from_boundless(opts: &CampaignOpts) {
    let rep = run_chaos_campaign(opts).expect("valid campaign options");
    assert!(!rep.gate_failed(), "{}", rep.render());

    let row = |scheme: &str, policy: &str| {
        rep.rows
            .iter()
            .find(|r| r.scheme == scheme && r.policy == policy)
            .unwrap_or_else(|| panic!("missing {scheme}/{policy} row"))
    };
    let fail_stop = row("sgxbounds", "abort");
    let boundless = row("sb-boundless", "boundless");
    let native = row("native", "abort");

    // Boundless: high availability, nothing corrupted, every seed run.
    assert_eq!(boundless.runs, opts.seeds);
    assert!(
        boundless.availability() >= 0.90,
        "boundless availability {:.3}\n{}",
        boundless.availability(),
        rep.render()
    );
    assert_eq!(boundless.corrupted_bytes, 0, "{}", rep.render());
    assert_eq!(boundless.lost, 0, "{}", rep.render());

    // The fail-stop baseline dies on the first attack of every schedule
    // (each schedule has at least one), losing the queued remainder.
    assert_eq!(fail_stop.corrupted_bytes, 0, "{}", rep.render());
    assert!(fail_stop.lost > 0, "{}", rep.render());
    assert!(
        fail_stop.availability() + 0.25 < boundless.availability(),
        "fail-stop {:.3} vs boundless {:.3}\n{}",
        fail_stop.availability(),
        boundless.availability(),
        rep.render()
    );

    // Native stays up but the same attacks corrupt its neighbours — the
    // oracle that gates the protected schemes is demonstrably alive.
    assert!(native.corrupted_bytes > 0, "{}", rep.render());
}

/// One full nginx server run (setup + `requests` benign requests) under
/// SGXBounds; returns per-request (digest, wall_cycles, instructions).
fn run_server(requests: u32, recovery: Option<PolicySet>) -> Vec<(u64, u64, u64)> {
    let mut module = nginx::server_module();
    sgxbounds::instrument(&mut module, &SbConfig::default()).expect("instrumentation");
    verify(&module).expect("module verifies");
    let mut cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
    cfg.max_instructions = 500_000_000;
    let mut vm = Vm::new(&module, cfg);
    let heap = install_base(&mut vm, AllocOpts::default());
    sgxbounds::install_sgxbounds(&mut vm, heap, &SbConfig::default(), None);
    if let Some(p) = recovery {
        vm.set_recovery(p);
    }
    let input: Vec<u8> = (0..INPUT_BYTES).map(|i| (i % 251 + 1) as u8).collect();
    let mut st = Stager::new();
    let addr = st.stage(&mut vm, &input);
    vm.run("setup", &[addr as u64, INPUT_BYTES as u64])
        .result
        .expect("setup");
    (0..requests)
        .map(|r| {
            let out = vm.run("handle", &[r as u64, 16 + (r as u64 * 37) % 180, 64]);
            (
                out.result.expect("benign request"),
                out.wall_cycles,
                out.stats.instructions,
            )
        })
        .collect()
}

#[test]
fn abort_recovery_policy_is_cycle_for_cycle_free() {
    // The recovery hook sits on the trap path only: configuring the
    // default fail-stop policy must not change a single digest, cycle, or
    // instruction count on a trap-free run. This pins the "existing bench
    // numbers stay byte-identical" guarantee.
    let plain = run_server(12, None);
    let abort = run_server(12, Some(PolicySet::uniform(RecoveryPolicy::Abort)));
    assert_eq!(plain, abort);
}

/// Tier equivalence under recovery (the satellite pin for the compiled
/// tier): running the same chaos schedules on the reference interpreter
/// and on `sgxs-exec` must produce identical recovery event streams —
/// every `recovery.attempt`, `recovery.degraded`, and `recovery.gave_up`
/// count — along with the full availability ledger, under both the
/// RetryWithBackoff and the Boundless policy lattices.
#[test]
fn recovery_event_streams_are_identical_across_tiers() {
    use sgxs_resil::serve::{boundless_policy, retry_policy};
    use sgxs_resil::{serve_tier, ChaosSchedule, RScheme, ServerApp};
    use sgxs_sim::ExecTier;

    let cases = [
        (RScheme::SgxBounds, "retry", retry_policy()),
        (RScheme::Boundless, "boundless", boundless_policy()),
    ];
    for app in [ServerApp::Nginx, ServerApp::Memcached] {
        for seed in [3u64, 7, 19] {
            let schedule = ChaosSchedule::generate(seed, 24);
            for (scheme, policy_name, policies) in &cases {
                let r = serve_tier(app, *scheme, policies, &schedule, ExecTier::Reference);
                let c = serve_tier(app, *scheme, policies, &schedule, ExecTier::Compiled);
                // RecoveryStats counts exactly the recovery.* events the
                // interpreter emits (one bump per event), so equality of
                // the counters over the whole run is equality of the
                // event streams.
                assert_eq!(
                    r.recovery,
                    c.recovery,
                    "{}/{policy_name} seed {seed}: recovery events diverged across tiers",
                    app.label()
                );
                assert_eq!(
                    format!("{r:?}"),
                    format!("{c:?}"),
                    "{}/{policy_name} seed {seed}: availability ledger diverged across tiers",
                    app.label()
                );
                // The cases must actually exercise recovery, or the pin
                // is vacuous.
                assert!(
                    r.recovery.attempts + r.recovery.degraded + r.tolerated_violations > 0,
                    "{}/{policy_name} seed {seed}: no recovery activity",
                    app.label()
                );
            }
        }
    }
}
