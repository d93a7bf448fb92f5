//! Request-level crash isolation for the server workloads.
//!
//! One [`serve_tier`] call runs one server (nginx / apache / memcached
//! per-request module from `sgxs-workloads`) under one protection scheme
//! and one recovery [`PolicySet`] against one [`ChaosSchedule`]. Each
//! request is a separate `vm.run("handle", ..)` invocation, so a trap is
//! naturally scoped to the request that raised it:
//!
//! * with a fail-stop policy (`Abort` for safety violations) the first
//!   propagated trap kills the whole server — every request still queued is
//!   *lost*, which is exactly the availability cost the paper's §4.2
//!   attributes to fail-stop schemes;
//! * with crash-only policies (`GracefulExit`, `Boundless`, retry
//!   overrides) only the poisoned request is dropped (degraded) and the
//!   server keeps draining the queue.
//!
//! After the run the host checks the two canary objects adjacent to the
//! request buffer against their setup-time fill: any non-pattern byte is
//! cross-object corruption that the scheme failed to contain.

use crate::chaos::{ChaosKind, ChaosSchedule};
use sgxbounds::SbConfig;
use sgxs_baselines::{Hardening, ADDRESS_SPACE_CAP};
use sgxs_metrics::Hist;
use sgxs_mir::{GlobalId, PolicySet, RecoveryPolicy, RecoveryStats, TrapClass, VmConfig};
use sgxs_obs::{Event, Recorder};
use sgxs_rt::Stager;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use sgxs_workloads::apps::server::{
    BENIGN_MAX, CANARY_BYTES, CANARY_PATTERN, EVIL_LEN, INPUT_BYTES, STATE_CANARY_A, STATE_CANARY_B,
};
use sgxs_workloads::apps::{apache, memcached, nginx};
use std::cell::RefCell;
use std::rc::Rc;

/// Which server application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerApp {
    /// Event server, buffers reused across requests.
    Nginx,
    /// Per-request APR-style pools (heaviest allocator pressure).
    Apache,
    /// Slab items; overflow runs into the neighbouring items.
    Memcached,
}

impl ServerApp {
    /// All apps, campaign rotation order.
    pub const ALL: [ServerApp; 3] = [ServerApp::Nginx, ServerApp::Apache, ServerApp::Memcached];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            ServerApp::Nginx => "nginx",
            ServerApp::Apache => "apache",
            ServerApp::Memcached => "memcached",
        }
    }

    fn module(&self) -> sgxs_mir::Module {
        match self {
            ServerApp::Nginx => nginx::server_module(),
            ServerApp::Apache => apache::server_module(),
            ServerApp::Memcached => memcached::server_module(),
        }
    }
}

/// Protection scheme for a server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RScheme {
    /// Uninstrumented: overflows silently corrupt neighbours.
    Native,
    /// SGXBounds, fail-stop.
    SgxBounds,
    /// SGXBounds with boundless memory: overflows are redirected into the
    /// overlay, the request completes, neighbours stay intact.
    Boundless,
}

impl RScheme {
    /// Every scheme, label-lookup order.
    pub const ALL: [RScheme; 3] = [RScheme::Native, RScheme::SgxBounds, RScheme::Boundless];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            RScheme::Native => "native",
            RScheme::SgxBounds => "sgxbounds",
            RScheme::Boundless => "sb-boundless",
        }
    }

    /// What this scheme does to a module and a VM.
    pub fn hardening(&self) -> Hardening {
        match self {
            RScheme::Native => Hardening::None,
            RScheme::SgxBounds => Hardening::SgxBounds(SbConfig::default()),
            RScheme::Boundless => Hardening::SgxBounds(SbConfig {
                boundless: true,
                ..SbConfig::default()
            }),
        }
    }
}

/// Per-request connection scratch passed to every `handle` call.
const SCRATCH_BYTES: u64 = 64;

/// One server run's availability ledger.
#[derive(Debug, Clone)]
pub struct AvailabilityReport {
    /// Application label.
    pub app: &'static str,
    /// Scheme label.
    pub scheme: &'static str,
    /// Schedule seed.
    pub seed: u64,
    /// Requests the schedule contained.
    pub total: u32,
    /// Requests served cleanly.
    pub served: u32,
    /// Requests completed via a degrading recovery (graceful exit /
    /// tolerated violation).
    pub degraded: u32,
    /// Requests aborted by a propagated trap (crash-only isolation: only
    /// that request dies).
    pub aborted: u32,
    /// Requests never attempted because the server died (fail-stop only).
    pub lost: u32,
    /// Interpreter recovery counters accumulated over the run.
    pub recovery: RecoveryStats,
    /// Canary bytes that no longer hold the setup pattern — cross-object
    /// corruption the scheme failed to contain.
    pub corrupted_canary_bytes: u32,
    /// AEX re-entry cycles charged by the chaos schedule.
    pub aex_penalty_cycles: u64,
    /// Boundless overlay violations tolerated (0 for other schemes).
    pub tolerated_violations: u64,
    /// Per-request wall-cycle latency (one sample per *attempted* request:
    /// served, degraded, or aborted — lost requests never ran). Simulated
    /// cycles, so the histogram is byte-identical across execution tiers.
    pub latency: Hist,
}

impl AvailabilityReport {
    /// Fraction of requests that produced a response (served or degraded).
    pub fn availability(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        (self.served + self.degraded) as f64 / self.total as f64
    }

    /// True when no canary byte was corrupted.
    pub fn intact(&self) -> bool {
        self.corrupted_canary_bytes == 0
    }
}

/// Benign request length for request `r`: deterministic, never overflowing
/// (memcached leaves 8 bytes of key slack, hence [`BENIGN_MAX`]).
fn benign_len(r: u32) -> u64 {
    16 + (r as u64 * 37) % (BENIGN_MAX - 16)
}

/// Runs `app` under `scheme` with recovery `policies` against `schedule`,
/// on execution tier `tier`. Every field of the report — availability
/// ledger, recovery counters, canary corruption, AEX penalties — must be
/// identical across tiers; the chaos-campaign equivalence tests enforce
/// this seed-for-seed.
///
/// Panics if the server's `setup` entry fails — the chaos tier only
/// injects faults from the first request onward.
pub fn serve_tier(
    app: ServerApp,
    scheme: RScheme,
    policies: &PolicySet,
    schedule: &ChaosSchedule,
    tier: ExecTier,
) -> AvailabilityReport {
    serve_inner(app, scheme, policies, schedule, tier, None).0
}

/// Like [`serve_tier`] but with an observability recorder attached for the
/// whole run: span events (`serve` → `request` → `check`) and every other
/// obs event flow into `rec`. Returns the report and the plain address of
/// the first corrupted canary byte, when the run corrupted any (the anchor
/// of a corruption incident). Recording never charges a simulated cycle,
/// so the report is identical to the untraced run's — the
/// zero-perturbation pins in `tests/metrics_pin.rs` and
/// `tests/incident_forensics.rs` enforce this.
pub fn serve_traced(
    app: ServerApp,
    scheme: RScheme,
    policies: &PolicySet,
    schedule: &ChaosSchedule,
    tier: ExecTier,
    rec: Rc<RefCell<dyn Recorder>>,
) -> (AvailabilityReport, Option<u32>) {
    serve_inner(app, scheme, policies, schedule, tier, Some(rec))
}

fn serve_inner(
    app: ServerApp,
    scheme: RScheme,
    policies: &PolicySet,
    schedule: &ChaosSchedule,
    tier: ExecTier,
    rec: Option<Rc<RefCell<dyn Recorder>>>,
) -> (AvailabilityReport, Option<u32>) {
    let hardening = scheme.hardening();
    let mut module = app.module();
    // Tracing turns site markers on so check-region spans exist; markers
    // never retire instructions or charge cycles, so the report stays
    // identical either way.
    hardening
        .instrument(&mut module, rec.is_some())
        .expect("server instrumentation");

    let mut machine_cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
    machine_cfg.tier = tier;
    let mut cfg = VmConfig::new(machine_cfg);
    cfg.max_instructions = 500_000_000;
    // The recorder is attached only after setup (below), so boot gets none.
    let scale = MachineConfig::scale_of(Preset::Tiny);
    let (mut vm, rt) = hardening.boot(&module, cfg, None, scale, ADDRESS_SPACE_CAP);
    let (heap, sb_rt) = (rt.heap, rt.sgxbounds);

    // Stage the request input: INPUT_BYTES of seeded bytes, none zero (so
    // boundless zero-reads are distinguishable) and none the canary pattern.
    let mut input = vec![0u8; INPUT_BYTES as usize];
    let mut s = schedule.seed.wrapping_mul(0x6C62_272E_07BB_0142) | 1;
    for b in input.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let mut v = (s >> 32) as u8;
        if v == 0 || v == CANARY_PATTERN {
            v = 1;
        }
        *b = v;
    }
    let mut st = Stager::new();
    let addr = st.stage(&mut vm, &input);

    let out = vm.run("setup", &[addr as u64, INPUT_BYTES as u64]);
    out.result.expect("server setup must succeed");

    // The state global is always GlobalId(0) in the server modules; the
    // low 32 bits of each slot are the plain address under every scheme.
    let state = vm.global_addr(GlobalId(0));
    let canary_a = vm.machine.mem.read(state + STATE_CANARY_A as u32, 8) as u32;
    let canary_b = vm.machine.mem.read(state + STATE_CANARY_B as u32, 8) as u32;

    vm.set_recovery(policies.clone());
    // Fail-stop servers die with their first propagated safety trap;
    // crash-only configurations isolate the failure to the request.
    let fail_stop = policies.policy_for(TrapClass::Safety) == RecoveryPolicy::Abort;

    // Attach the recorder only after setup, so traces start at the first
    // request; span timestamps ride the monotone instruction counter.
    if let Some(rec) = rec {
        vm.machine.set_recorder(Some(rec));
        vm.machine.set_span_mode(true);
        vm.machine.emit(Event::SpanBegin {
            name: "serve",
            arg: schedule.seed,
        });
    }

    let mut report = AvailabilityReport {
        app: app.label(),
        scheme: scheme.label(),
        seed: schedule.seed,
        total: schedule.requests,
        served: 0,
        degraded: 0,
        aborted: 0,
        lost: 0,
        recovery: RecoveryStats::default(),
        corrupted_canary_bytes: 0,
        aex_penalty_cycles: 0,
        tolerated_violations: 0,
        latency: Hist::new(),
    };

    let mut active: Vec<bool> = vec![false; schedule.events.len()];
    for r in 0..schedule.requests {
        // Open and close environmental fault windows.
        for (i, ev) in schedule.events.iter().enumerate() {
            let covers = ev.covers(r);
            if covers && !active[i] {
                match ev.kind {
                    ChaosKind::EpcStorm { clamp_pages } => {
                        vm.machine.set_epc_capacity_pages(clamp_pages);
                    }
                    ChaosKind::AllocFaults { .. } => {
                        heap.borrow_mut().set_fault_plan(schedule.fault_plan(i));
                    }
                    ChaosKind::OverlayClamp { cap_bytes } => {
                        if let Some(rt) = &sb_rt {
                            if let Some(bl) = &rt.boundless {
                                bl.borrow_mut().set_cap_bytes(cap_bytes);
                            }
                        }
                    }
                    ChaosKind::AexStorm { .. } => {}
                }
            } else if !covers && active[i] {
                match ev.kind {
                    ChaosKind::EpcStorm { .. } => {
                        let pages = vm.machine.configured_epc_pages();
                        vm.machine.set_epc_capacity_pages(pages);
                    }
                    ChaosKind::AllocFaults { .. } => {
                        heap.borrow_mut().set_fault_plan(None);
                    }
                    ChaosKind::OverlayClamp { .. } => {
                        if let Some(rt) = &sb_rt {
                            if let Some(bl) = &rt.boundless {
                                bl.borrow_mut()
                                    .set_cap_bytes(sgxbounds::boundless::CACHE_CAP_BYTES);
                            }
                        }
                    }
                    ChaosKind::AexStorm { .. } => {}
                }
            }
            active[i] = covers;
            if covers {
                if let ChaosKind::AexStorm { reentry_cycles } = ev.kind {
                    report.aex_penalty_cycles += reentry_cycles;
                }
            }
        }

        let len = if schedule.is_attack(r) {
            EVIL_LEN
        } else {
            benign_len(r)
        };
        let degraded_before = vm.recovery_stats().degraded;
        let violations_before = sb_rt
            .as_ref()
            .map(|rt| *rt.violations.borrow())
            .unwrap_or(0);
        if vm.machine.spans_enabled() {
            vm.machine.emit(Event::SpanBegin {
                name: "request",
                arg: r as u64,
            });
        }
        let out = vm.run("handle", &[r as u64, len, SCRATCH_BYTES]);
        if vm.machine.spans_enabled() {
            vm.machine.emit(Event::SpanEnd { name: "request" });
        }
        // Every attempted request contributes a latency sample, including
        // the aborted ones (their wall time was still spent).
        report.latency.record(out.wall_cycles);
        match out.result {
            Ok(_) => {
                let tolerated = sb_rt
                    .as_ref()
                    .map(|rt| *rt.violations.borrow())
                    .unwrap_or(0)
                    > violations_before;
                if vm.recovery_stats().degraded > degraded_before || tolerated {
                    report.degraded += 1;
                } else {
                    report.served += 1;
                }
            }
            Err(_) => {
                report.aborted += 1;
                if fail_stop {
                    report.lost = schedule.requests - r - 1;
                    break;
                }
            }
        }
    }

    if vm.machine.spans_enabled() {
        vm.machine.emit(Event::SpanEnd { name: "serve" });
    }
    report.recovery = vm.recovery_stats();
    report.tolerated_violations = sb_rt
        .as_ref()
        .map(|rt| *rt.violations.borrow())
        .unwrap_or(0);
    let mut first_corrupted = None;
    for base in [canary_a, canary_b] {
        for i in 0..CANARY_BYTES {
            if vm.machine.mem.read(base + i, 1) as u8 != CANARY_PATTERN {
                report.corrupted_canary_bytes += 1;
                if first_corrupted.is_none() {
                    first_corrupted = Some(base + i);
                }
            }
        }
    }
    (report, first_corrupted)
}

/// The policy a fail-stop deployment uses: every trap aborts the server.
pub fn abort_policy() -> PolicySet {
    PolicySet::uniform(RecoveryPolicy::Abort)
}

/// Crash-only: every trap degrades to a clean per-request exit.
pub fn graceful_policy() -> PolicySet {
    PolicySet::uniform(RecoveryPolicy::GracefulExit)
}

/// Crash-only with transient-fault retry: traps degrade the request,
/// except allocator OOM, which is retried with linear backoff first.
pub fn retry_policy() -> PolicySet {
    PolicySet::uniform(RecoveryPolicy::GracefulExit).with_override(
        TrapClass::Oom,
        RecoveryPolicy::RetryWithBackoff {
            max_attempts: 12,
            backoff: 2_000,
        },
    )
}

/// The boundless deployment: the runtime absorbs violations before they
/// trap; any safety trap that still escapes ends the request cleanly, and
/// chaos-injected OOM is ridden out with retries.
pub fn boundless_policy() -> PolicySet {
    PolicySet::uniform(RecoveryPolicy::Boundless).with_override(
        TrapClass::Oom,
        RecoveryPolicy::RetryWithBackoff {
            max_attempts: 12,
            backoff: 2_000,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(
        app: ServerApp,
        scheme: RScheme,
        policies: &PolicySet,
        schedule: &ChaosSchedule,
    ) -> AvailabilityReport {
        serve_tier(app, scheme, policies, schedule, ExecTier::Reference)
    }

    fn quiet_schedule(seed: u64, requests: u32) -> ChaosSchedule {
        // Attacks only — no environmental noise — for sharp assertions.
        let mut s = ChaosSchedule::generate(seed, requests);
        s.events.clear();
        s
    }

    #[test]
    fn native_serves_everything_but_corrupts_the_canaries() {
        for app in ServerApp::ALL {
            let sch = quiet_schedule(7, 24);
            let rep = serve(app, RScheme::Native, &abort_policy(), &sch);
            assert_eq!(rep.served, 24, "{}", app.label());
            assert_eq!(rep.lost, 0);
            assert!(
                rep.corrupted_canary_bytes > 0,
                "{}: attack did not reach the canaries — the corruption \
                 oracle is dead",
                app.label()
            );
        }
    }

    #[test]
    fn fail_stop_sgxbounds_dies_on_the_first_attack_with_canaries_intact() {
        for app in ServerApp::ALL {
            let sch = quiet_schedule(7, 24);
            let first_attack = sch.attacks[0];
            let rep = serve(app, RScheme::SgxBounds, &abort_policy(), &sch);
            assert!(rep.intact(), "{}", app.label());
            assert_eq!(rep.aborted, 1, "{}", app.label());
            assert_eq!(rep.lost, 24 - first_attack - 1, "{}", app.label());
            assert_eq!(rep.served, first_attack, "{}", app.label());
            assert!(rep.availability() < 1.0);
        }
    }

    #[test]
    fn crash_only_isolation_keeps_the_server_draining() {
        for app in ServerApp::ALL {
            let sch = quiet_schedule(7, 24);
            let attacks = sch.attacks.len() as u32;
            let rep = serve(app, RScheme::SgxBounds, &graceful_policy(), &sch);
            assert!(rep.intact(), "{}", app.label());
            assert_eq!(rep.lost, 0, "{}", app.label());
            assert_eq!(rep.degraded, attacks, "{}", app.label());
            assert_eq!(rep.served, 24 - attacks, "{}", app.label());
            assert_eq!(rep.availability(), 1.0);
        }
    }

    #[test]
    fn boundless_serves_attacks_as_degraded_with_canaries_intact() {
        for app in ServerApp::ALL {
            let sch = quiet_schedule(7, 24);
            let attacks = sch.attacks.len() as u32;
            let rep = serve(app, RScheme::Boundless, &boundless_policy(), &sch);
            assert!(rep.intact(), "{}", app.label());
            assert_eq!(rep.lost, 0, "{}", app.label());
            assert_eq!(rep.aborted, 0, "{}", app.label());
            assert_eq!(rep.degraded, attacks, "{}", app.label());
            assert!(rep.tolerated_violations > 0, "{}", app.label());
            assert_eq!(rep.availability(), 1.0);
        }
    }

    #[test]
    fn latency_counts_every_attempted_request() {
        let sch = quiet_schedule(7, 24);
        // Crash-only: every request is attempted, so every request samples.
        let rep = serve(
            ServerApp::Memcached,
            RScheme::SgxBounds,
            &graceful_policy(),
            &sch,
        );
        assert_eq!(
            rep.latency.count(),
            (rep.served + rep.degraded + rep.aborted) as u64
        );
        assert_eq!(rep.latency.count(), 24);
        assert!(rep.latency.min() > 0, "a request takes at least one cycle");
        assert!(rep.latency.p50() <= rep.latency.p999());
        // Fail-stop: lost requests never ran, so they don't sample.
        let rep = serve(
            ServerApp::Memcached,
            RScheme::SgxBounds,
            &abort_policy(),
            &sch,
        );
        assert!(rep.lost > 0);
        assert_eq!(
            rep.latency.count(),
            (rep.served + rep.degraded + rep.aborted) as u64
        );
    }

    #[test]
    fn traced_serve_collects_spans_without_perturbing_the_report() {
        use sgxs_metrics::SpanCollector;

        let sch = ChaosSchedule::generate(11, 16);
        let plain = serve(
            ServerApp::Nginx,
            RScheme::Boundless,
            &boundless_policy(),
            &sch,
        );
        let rec = Rc::new(RefCell::new(SpanCollector::default()));
        let (traced, _) = serve_traced(
            ServerApp::Nginx,
            RScheme::Boundless,
            &boundless_policy(),
            &sch,
            ExecTier::Reference,
            rec.clone(),
        );
        // Recording must not change a single number in the report.
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        let spans = Rc::try_unwrap(rec).expect("sole owner").into_inner();
        assert_eq!(spans.open_depth(), 0, "span stream balances");
        let nodes = spans.nodes();
        assert_eq!(nodes[0].name, "serve");
        assert_eq!(nodes[0].arg, sch.seed);
        let requests: Vec<_> = nodes.iter().filter(|n| n.name == "request").collect();
        assert_eq!(requests.len(), 16);
        assert!(requests.iter().all(|n| n.parent == Some(0)));
        // The instrumented scheme executes checks inside requests.
        assert!(nodes.iter().any(|n| n.name == "check" && n.depth == 2));
        assert!(requests.iter().any(|n| n.check_cycles > 0));
    }

    #[test]
    fn full_chaos_schedule_keeps_boundless_available() {
        // With environmental windows on, the boundless + retry combo still
        // answers every request on this seed.
        let sch = ChaosSchedule::generate(11, 32);
        let rep = serve(
            ServerApp::Apache,
            RScheme::Boundless,
            &boundless_policy(),
            &sch,
        );
        assert!(rep.intact());
        assert_eq!(rep.lost, 0);
        assert!(
            rep.availability() >= 0.9,
            "availability {}",
            rep.availability()
        );
    }
}
