//! Cross-crate integration tests asserting the paper's headline claims at
//! Tiny scale: overhead orderings, memory footprints, crash modes, and
//! security scores. These are the "does the reproduction reproduce?"
//! checks; `repro --mini` regenerates the full-size artifacts.

use sgxbounds_repro::harness::exp::fig10::Variants;
use sgxbounds_repro::harness::exp::overheads::Overheads;
use sgxbounds_repro::harness::exp::{self, Effort, PerScheme, DEFAULT_SEED};
use sgxbounds_repro::harness::{run_one, RunConfig, Scheme};
use sgxs_sim::Preset;
use sgxs_workloads::SizeClass;

const P: Preset = Preset::Tiny;

/// The suite's base configuration at Tiny scale, seeded like the
/// committed baseline.
fn base() -> RunConfig {
    let mut rc = RunConfig::new(P);
    rc.params.seed = DEFAULT_SEED;
    rc
}

#[test]
fn fig7_overhead_ordering_matches_paper() {
    let fig = exp::fig07::run(&base(), Effort::Quick);
    let (asan, sgxb) = (
        fig.gmean_perf.asan.unwrap(),
        fig.gmean_perf.sgxbounds.unwrap(),
    );
    // SGXBounds must be the cheapest hardened scheme (paper: 17% vs 51%/75%).
    assert!(
        sgxb < asan,
        "sgxbounds ({sgxb:.2}) must beat asan ({asan:.2})"
    );
    assert!(sgxb > 1.0, "hardening is not free");
    assert!(
        sgxb < 2.0,
        "sgxbounds overhead should be modest, got {sgxb:.2}"
    );
    // Memory: SGXBounds ~zero, ASan large (paper: 0.1% vs 8.1x).
    let PerScheme {
        mpx: mpx_m,
        asan: asan_m,
        sgxbounds: sgxb_m,
    } = fig.gmean_mem;
    assert!(
        sgxb_m.unwrap() < 1.05,
        "sgxbounds memory must be near-zero overhead"
    );
    assert!(asan_m.unwrap() > 2.0, "asan memory must blow up");
    assert!(
        sgxb_m.unwrap() < asan_m.unwrap() && sgxb_m.unwrap() < mpx_m.unwrap(),
        "sgxbounds must have the smallest memory overhead"
    );
}

#[test]
fn fig7_dedup_crashes_mpx_only_at_full_pressure() {
    // At Mini scale (bounded enclave) dedup's bounds tables exceed the
    // enclave; verify the mechanism directly with a tightened cap here to
    // keep the test fast.
    let w = sgxs_workloads::by_name("dedup").unwrap();
    let mut rc = RunConfig::new(P);
    rc.params.size = SizeClass::L;
    let mpx = run_one(w.as_ref(), Scheme::Mpx, &rc);
    let sgxb = run_one(w.as_ref(), Scheme::SgxBounds, &rc);
    assert!(sgxb.ok(), "sgxbounds must survive dedup");
    assert!(
        matches!(
            mpx.result,
            Err(sgxbounds_repro::mir::Trap::OutOfMemory { .. })
        ),
        "dedup must exhaust MPX bounds tables at L size, got {:?}",
        mpx.result
    );
}

#[test]
fn spec_mpx_fails_exactly_the_paper_benchmarks() {
    // Fig. 11: astar, mcf, xalancbmk crash; everything else completes.
    let mut rc = RunConfig::new(P);
    rc.params.size = SizeClass::L;
    rc.params.threads = 1;
    let mut crashed = Vec::new();
    for w in sgxs_workloads::spec::all() {
        let m = run_one(w.as_ref(), Scheme::Mpx, &rc);
        if !m.ok() {
            crashed.push(w.name().to_owned());
        }
    }
    crashed.sort();
    assert_eq!(
        crashed,
        vec!["astar", "mcf", "xalancbmk"],
        "MPX must OOM on exactly the paper's three SPEC programs"
    );
}

#[test]
fn fig12_sgxbounds_loses_its_advantage_outside_the_enclave() {
    // Paper §6.7: outside the enclave SGXBounds' cache-friendly metadata no
    // longer pays (ASan 38% vs SGXBounds 55% there). Our synthetic kernels
    // carry less pointer arithmetic than real SPEC code, so the reproduced
    // crossover is partial: we assert that SGXBounds' relative lead over
    // ASan shrinks substantially once the EPC is out of the picture
    // (EXPERIMENTS.md discusses the deviation).
    let inside = exp::fig11::run(&base(), Effort::Full);
    let outside = exp::fig12::run(&base(), Effort::Full);
    let lead = |f: &Overheads| {
        let g = f.gmean_perf;
        // Overhead-above-baseline ratio: how much worse ASan is.
        (g.asan.unwrap() - 1.0) / (g.sgxbounds.unwrap() - 1.0)
    };
    let inside_lead = lead(&inside);
    let outside_lead = lead(&outside);
    assert!(
        outside_lead < inside_lead * 0.9,
        "SGXBounds' lead must shrink outside the enclave: inside {inside_lead:.2}, outside {outside_lead:.2}"
    );
}

#[test]
fn fig11_sgxbounds_wins_inside_the_enclave() {
    let fig = exp::fig11::run(&base(), Effort::Quick);
    let (asan, sgxb) = (fig.gmean_perf.asan, fig.gmean_perf.sgxbounds);
    assert!(
        sgxb.unwrap() < asan.unwrap(),
        "inside the enclave SGXBounds must beat ASan"
    );
    let (asan_m, sgxb_m) = (fig.gmean_mem.asan, fig.gmean_mem.sgxbounds);
    assert!(sgxb_m.unwrap() < 1.05);
    assert!(asan_m.unwrap() > sgxb_m.unwrap());
}

#[test]
fn fig9_sgxbounds_overhead_does_not_grow_with_threads() {
    let fig = exp::fig09::run(&base(), Effort::Quick);
    let sb1 = fig.gmean.sgxbounds_1t.unwrap();
    let sb4 = fig.gmean.sgxbounds_4t.unwrap();
    assert!(
        sb4 < sb1 * 1.25,
        "sgxbounds overhead must not grow materially with threads: {sb1:.2} -> {sb4:.2}"
    );
}

#[test]
fn fig10_optimizations_never_hurt_and_sometimes_help() {
    let fig = exp::fig10::run(&base(), Effort::Quick);
    let none = fig.gmean.none.unwrap();
    let both = fig.gmean.both.unwrap();
    assert!(
        both <= none * 1.02,
        "optimizations must not slow things down: none={none:.3} both={both:.3}"
    );
    // At least one benchmark gains noticeably (paper: kmeans/matrixmul/x264
    // gain up to ~20%).
    let best_gain = fig
        .rows
        .iter()
        .filter_map(|r| Some(r.over.none? / r.over.both?))
        .fold(0.0f64, f64::max);
    assert!(
        best_gain > 1.05,
        "some benchmark must gain >5% from optimizations, best was {best_gain:.3}"
    );
}

#[test]
fn fig10_check_counts_are_monotone_across_the_ablation() {
    // Each optimization tier may only remove dynamic checks, never add
    // them: none >= safe >= both >= flow per benchmark, and the flow tier
    // must be a strict improvement over `both` somewhere.
    let fig = exp::fig10::run(&base(), Effort::Quick);
    let mut flow_strictly_better = false;
    for r in &fig.rows {
        let Variants {
            none,
            safe,
            both,
            flow,
            ..
        } = r.checks;
        let (none, safe, both, flow) = (
            none.expect("none checks"),
            safe.expect("safe checks"),
            both.expect("both checks"),
            flow.expect("flow checks"),
        );
        assert!(
            none >= safe && safe >= both && both >= flow,
            "{}: check counts not monotone: none={none} safe={safe} both={both} flow={flow}",
            r.benchmark
        );
        if flow < both {
            flow_strictly_better = true;
        }
    }
    assert!(
        flow_strictly_better,
        "the flow tier must elide checks beyond `both` on at least one benchmark: {:?}",
        fig.rows
            .iter()
            .map(|r| (r.benchmark.clone(), r.checks))
            .collect::<Vec<_>>()
    );
}

#[test]
fn table4_matches_exactly() {
    let t = exp::tab04::run(&base());
    let p = &t.prevented;
    assert_eq!(
        [p.mpx, p.asan, p.sgxbounds],
        [2, 8, 8],
        "Table 4: MPX 2/16, ASan 8/16, SGXBounds 8/16"
    );
}

#[test]
fn fig1_sqlite_shapes() {
    let fig = exp::fig01::run(&base(), 4);
    // MPX must crash somewhere in the sweep; SGXBounds never does and
    // keeps memory at baseline.
    let mpx_crashes = fig.points.iter().any(|p| p.perf_vs_sgx.mpx.is_none());
    assert!(mpx_crashes, "MPX must run out of memory during the sweep");
    for p in &fig.points {
        let sgxb = p
            .perf_vs_sgx
            .sgxbounds
            .expect("sgxbounds completes every point");
        assert!(
            sgxb < 2.0,
            "sgxbounds must stay near native SGX ({sgxb:.2})"
        );
        let mem = &p.peak_reserved_bytes;
        let sgxb_mem = mem.sgxbounds.expect("sgxbounds memory measured") as f64;
        assert!(
            sgxb_mem < mem.sgx as f64 * 1.10,
            "sgxbounds memory must track the baseline"
        );
    }
    // ASan must reserve noticeably more memory than the baseline.
    let last = fig.points.last().unwrap();
    let mem = &last.peak_reserved_bytes;
    assert!(mem.asan.unwrap() > mem.sgx);
}

#[test]
fn fig13_throughput_ordering_at_load() {
    let fig = exp::fig13::run(&base(), &[4], 64);
    for app in &fig.apps {
        let tp = |scheme: &str| {
            app.samples
                .iter()
                .find(|s| s.scheme == scheme)
                .and_then(|s| s.throughput_req_per_mcycle)
        };
        let sgx = tp("sgx").expect("baseline runs");
        if let Some(sb) = tp("sgxbounds") {
            assert!(
                sb > sgx * 0.5,
                "{}: sgxbounds throughput must stay within 2x of SGX",
                app.app
            );
        }
        if let (Some(sb), Some(asan)) = (tp("sgxbounds"), tp("asan")) {
            assert!(
                sb >= asan * 0.75,
                "{}: sgxbounds must not lose badly to asan (sb {sb:.2} vs asan {asan:.2})",
                app.app
            );
        }
    }
}

#[test]
fn memcached_slab_model_keeps_sgxbounds_memory_flat() {
    // Paper Fig. 13a table: 71.6 MB -> 71.8 MB (+0.3%).
    let w = sgxs_workloads::apps::memcached::Memcached::default();
    let mut rc = RunConfig::new(P);
    rc.params.size = SizeClass::M;
    let base = run_one(&w, Scheme::Baseline, &rc);
    let sb = run_one(&w, Scheme::SgxBounds, &rc);
    assert!(base.ok() && sb.ok());
    let ratio = sb.peak_reserved as f64 / base.peak_reserved as f64;
    assert!(
        ratio < 1.05,
        "slab-allocated memcached must add ~nothing under SGXBounds ({ratio:.3})"
    );
}
