//! Zero-perturbation pin for the metrics/span tier — the same discipline
//! as the PR 2 site-marker pin: telemetry may add *events*, never
//! *numbers*. With spans and metrics disabled (the Noop path) every cycle
//! count, stats counter, and digest is byte-identical to a run without
//! the instrumentation, and the committed `results/bench.json` baseline
//! regenerates byte-for-byte. With tracing enabled, the measured numbers
//! still do not move — only the event stream grows.

use sgxbounds::SbConfig;
use sgxs_fuzz::gen;
use sgxs_harness::cli::run_suite;
use sgxs_harness::{Effort, RunConfig};
use sgxs_metrics::SpanCollector;
use sgxs_mir::{verify, Vm, VmConfig};
use sgxs_obs::json::Json;
use sgxs_resil::{
    abort_policy, boundless_policy, graceful_policy, retry_policy, run_chaos_campaign, serve_tier,
    serve_traced, CampaignOpts, ChaosSchedule, PolicySet, RScheme, ServerApp,
};
use sgxs_rt::{install_base, AllocOpts};
use sgxs_sim::obs::TraceRecorder;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use std::cell::RefCell;
use std::rc::Rc;

/// Full observables of one instrumented run: result, cycles, stats,
/// memory peaks — everything that must not move when tracing toggles.
type Observables = (Result<u64, String>, u64, u64, String, u64, u64);

/// Runs a seeded sgxbounds-instrumented program with an optional recorder
/// and optional span mode; returns the measured observables plus the
/// recorded JSONL (empty without a recorder).
fn run_program(seed: u64, trace: bool, spans: bool) -> (Observables, String) {
    let prog = gen::generate(seed, 300);
    let mut module = gen::build(&prog);
    let cfg = SbConfig {
        site_markers: true,
        ..SbConfig::default()
    };
    sgxbounds::instrument(&mut module, &cfg).expect("instrumentation");
    verify(&module).expect("module verifies");
    let mut vm_cfg = VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave));
    vm_cfg.max_instructions = 4_000_000;
    let mut vm = Vm::new(&module, vm_cfg);
    // Large ring so nothing evicts: the span-filtered comparison below
    // needs the complete event stream.
    let rec = Rc::new(RefCell::new(TraceRecorder::new(1 << 20)));
    if trace {
        vm.machine.set_recorder(Some(rec.clone()));
        vm.machine.set_span_mode(spans);
    }
    let heap = install_base(&mut vm, AllocOpts::default());
    sgxbounds::install_sgxbounds(&mut vm, heap, &cfg, None);
    let out = vm.run("main", &[]);
    let obs = (
        out.result.map_err(|t| t.to_string()),
        out.wall_cycles,
        out.cpu_cycles,
        format!("{:?}", out.stats),
        out.peak_reserved,
        out.peak_committed,
    );
    let jsonl = rec.borrow().to_jsonl();
    (obs, jsonl)
}

fn is_span_line(line: &str) -> bool {
    let ev = Json::parse(line)
        .expect("trace line parses")
        .get("ev")
        .and_then(Json::as_str)
        .expect("trace line has ev")
        .to_owned();
    ev == "span_begin" || ev == "span_end"
}

/// Toggling span emission changes the event *stream*, never a measured
/// number: observables are identical across untraced / traced /
/// traced-with-spans, and stripping the span lines from the spans-on
/// stream recovers the spans-off stream exactly.
#[test]
fn span_mode_perturbs_nothing_measured() {
    for seed in [3u64, 17, 91] {
        let (plain, no_events) = run_program(seed, false, false);
        let (traced, base_events) = run_program(seed, true, false);
        let (spanned, span_events) = run_program(seed, true, true);
        assert_eq!(
            plain, traced,
            "seed {seed}: attaching a recorder moved a number"
        );
        assert_eq!(plain, spanned, "seed {seed}: span emission moved a number");
        assert!(no_events.is_empty(), "no recorder, no events");
        assert!(
            !base_events.lines().any(is_span_line),
            "seed {seed}: span events leaked with span mode off"
        );
        let stripped: Vec<&str> = span_events.lines().filter(|l| !is_span_line(l)).collect();
        let base: Vec<&str> = base_events.lines().collect();
        assert_eq!(
            stripped, base,
            "seed {seed}: span mode altered the non-span event stream"
        );
        assert!(
            span_events.lines().any(is_span_line),
            "seed {seed}: span mode on but no check spans recorded"
        );
    }
}

/// `serve_traced` returns the same `AvailabilityReport` — including the
/// per-request latency histogram — as the untraced `serve_tier`, for
/// every scheme × policy combo the chaos campaign runs.
#[test]
fn traced_serve_is_report_identical_for_every_combo() {
    let combos: [(RScheme, PolicySet); 5] = [
        (RScheme::Native, abort_policy()),
        (RScheme::SgxBounds, abort_policy()),
        (RScheme::SgxBounds, graceful_policy()),
        (RScheme::SgxBounds, retry_policy()),
        (RScheme::Boundless, boundless_policy()),
    ];
    let schedule = ChaosSchedule::generate(5, 12);
    for (scheme, policies) in &combos {
        let plain = serve_tier(
            ServerApp::Memcached,
            *scheme,
            policies,
            &schedule,
            ExecTier::default(),
        );
        let collector = Rc::new(RefCell::new(SpanCollector::default()));
        let (traced, _) = serve_traced(
            ServerApp::Memcached,
            *scheme,
            policies,
            &schedule,
            ExecTier::default(),
            collector.clone(),
        );
        assert_eq!(
            format!("{plain:?}"),
            format!("{traced:?}"),
            "{} tracing perturbed the report",
            scheme.label()
        );
        assert_eq!(collector.borrow().open_depth(), 0, "span stream balances");
    }
}

/// The `sgxs-metrics-v1` artifact is stable across repeated runs at the
/// same seed and across execution tiers — the acceptance criterion the
/// CI byte-diff also enforces, pinned here so `cargo test` alone
/// catches a violation.
#[test]
fn metrics_artifact_is_rerun_and_tier_stable() {
    let opts = CampaignOpts {
        seeds: 2,
        seed0: 11,
        requests: 8,
        ..CampaignOpts::default()
    };
    let reference = run_chaos_campaign(&opts)
        .expect("valid campaign options")
        .metrics()
        .to_json()
        .to_pretty();
    let rerun = run_chaos_campaign(&opts)
        .expect("valid campaign options")
        .metrics()
        .to_json()
        .to_pretty();
    assert_eq!(reference, rerun, "metrics artifact drifted between runs");
    let compiled = run_chaos_campaign(&CampaignOpts {
        tier: ExecTier::Compiled,
        ..opts
    })
    .expect("valid campaign options")
    .metrics()
    .to_json()
    .to_pretty();
    assert_eq!(
        reference, compiled,
        "metrics artifact diverged across tiers"
    );
}

/// The committed bench baseline regenerates byte-identically: the span
/// plumbing added to the interpreter, compiled engine, and sgxbounds
/// hoist pass charged no cycle and moved no counter anywhere in the
/// suite. (Same invocation as the committed artifact:
/// `repro all --quick --tiny --json results/bench.json`.)
#[test]
fn committed_bench_baseline_regenerates_byte_identically() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench.json"))
            .expect("committed baseline readable");
    let mut base = RunConfig::new(Preset::Tiny);
    base.params.seed = sgxs_harness::exp::DEFAULT_SEED;
    let doc = run_suite(&base, Effort::Quick, &["all".to_owned()], false).expect("suite runs");
    assert_eq!(
        doc.to_pretty(),
        committed,
        "regenerated bench document differs from committed results/bench.json"
    );
}
