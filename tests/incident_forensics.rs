//! End-to-end pins for the `sgxs-incident-v1` forensic pipeline.
//!
//! Four properties, each load-bearing for the audit layer's claims:
//!
//! 1. the `repro audit` demo artifact round-trips through the validating
//!    reader and renders through its text view and its SVG view;
//! 2. corpus-wide, a forensic re-run perturbs nothing measured and the
//!    assembled incident is byte-identical across execution tiers, the
//!    compiled tier lowered at forced switch points included;
//! 3. a chaos campaign with `--demo-corruption` embeds validating
//!    incidents in its `sgxs-chaos-v1` document, byte-stable across
//!    tiers and reruns;
//! 4. attaching the forensic ledger to a chaos server changes no field
//!    of the availability report.

use sgxs_audit::{IncidentMeta, LedgerRecorder, DEFAULT_TRACE_WINDOW};
use sgxs_fuzz::gen::Prog;
use sgxs_fuzz::runner::{self, exec, exec_forensic, Exec, FScheme, DEFAULT_BUDGET};
use sgxs_fuzz::{gen, inject, parse_corpus, CorpusEntry};
use sgxs_harness::audit::pinned_demo_incident;
use sgxs_obs::codec::Field;
use sgxs_obs::read::{parse_chaos, parse_incident};
use sgxs_resil::{
    abort_policy, run_chaos_campaign, serve_tier, serve_traced, CampaignOpts, ChaosSchedule,
    RScheme, ServerApp,
};
use sgxs_sim::obs::Recorder;
use sgxs_sim::ExecTier;
use std::cell::RefCell;
use std::rc::Rc;

fn corpus() -> Vec<CorpusEntry> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fuzz_seeds.txt");
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    parse_corpus(&text).expect("corpus parses")
}

/// The demo incident self-validates through the reader, and its text
/// view and SVG view render the parsed document.
#[test]
fn demo_incident_round_trips_and_renders() {
    let inc = pinned_demo_incident(DEFAULT_TRACE_WINDOW).expect("cross-tier pin holds");
    let text = inc.put().to_pretty();
    let doc = parse_incident(&text).expect("emitted artifact validates");
    assert_eq!(doc.id, inc.id, "reader recomputes the same id");
    assert_eq!(doc.origin, "audit");
    assert_eq!(doc.tier, "pinned");
    assert_eq!(doc.verdict, "detected");
    assert!(doc.fault.is_some(), "detection carries the fault record");
    assert!(
        !doc.heap.neighborhood.is_empty(),
        "heap neighborhood present"
    );
    assert!(
        !doc.derivation.is_empty(),
        "static derivation chain present"
    );

    let view = doc.render();
    assert!(view.contains(&doc.id), "text view names the incident");
    assert!(view.contains("fault:"), "text view reports the fault");
    let svg = sgxs_perf::incident_svg(&doc);
    assert!(svg.starts_with("<svg"), "svg view is self-contained");
    assert!(svg.trim_end().ends_with("</svg>"));
    assert!(svg.contains("fault"), "svg view marks the fault");
}

/// The switch points the forensic pin forces: lowered before the first
/// quantum, after one quantum and after seven.
const SWITCH_POINTS: [u64; 3] = [0, 1, 7];

/// [`exec_forensic`] under SGXBounds with the compiled tier set to lower
/// after `k` quanta: the runner's boot on the reference tier (ledger
/// recorder attached, span mode on), then `sgxs_exec::attach_after`. The
/// production boot lowers a fuzz module only once its rent is paid, which
/// none of the corpus programs reaches.
fn exec_forensic_at(prog: &Prog, k: u64) -> (Exec, LedgerRecorder) {
    let hardening = FScheme::SgxBounds.hardening();
    let mut module = gen::build(prog);
    hardening
        .instrument(&mut module, true)
        .expect("fuzz module instruments");
    let rec = Rc::new(RefCell::new(LedgerRecorder::new(DEFAULT_TRACE_WINDOW)));
    let traced = Some(rec.clone() as Rc<RefCell<dyn Recorder>>);
    let (mut vm, rt) = runner::boot(
        &hardening,
        &module,
        traced,
        ExecTier::Reference,
        DEFAULT_BUDGET,
    );
    sgxs_exec::attach_after(&mut vm, k);
    let (_, exec) = runner::run_booted(&mut vm, &rt, None);
    drop((vm, rt));
    let rec = Rc::try_unwrap(rec).expect("machine dropped its recorder handle");
    (exec, rec.into_inner())
}

/// Corpus-wide: the forensic re-run of every faulted corpus entry is
/// zero-perturbation (the plain and recorded executions are bit-identical)
/// and the assembled incident validates and is byte-identical across the
/// reference and compiled tiers: the production boot on each tier, and
/// the compiled tier lowered at every forced switch point.
#[test]
fn corpus_forensics_are_zero_perturbation_and_tier_pinned() {
    let faulted: Vec<CorpusEntry> = corpus().into_iter().filter(|e| e.kind.is_some()).collect();
    assert!(!faulted.is_empty(), "corpus lost its faulted entries");
    for entry in &faulted {
        let prog = gen::generate(entry.seed, entry.max_ops);
        let (fprog, fault) = inject::inject(&prog, entry.kind.unwrap(), entry.seed);
        let plain = exec(
            &fprog,
            FScheme::SgxBounds,
            ExecTier::Reference,
            DEFAULT_BUDGET,
        );
        let runs = [ExecTier::Reference, ExecTier::Compiled]
            .map(|tier| {
                let run = exec_forensic(
                    &fprog,
                    FScheme::SgxBounds,
                    tier,
                    DEFAULT_BUDGET,
                    DEFAULT_TRACE_WINDOW,
                );
                (tier.label().to_owned(), run)
            })
            .into_iter()
            .chain(SWITCH_POINTS.map(|k| {
                let run = exec_forensic_at(&fprog, k);
                (format!("compiled, lowered after {k} quanta"), run)
            }));
        let mut pinned: Option<String> = None;
        for (tier, (forensic, rec)) in runs {
            assert_eq!(
                format!("{plain:?}"),
                format!("{forensic:?}"),
                "entry '{}' on {tier}: the ledger perturbed the execution",
                entry.to_line(),
            );
            let meta = IncidentMeta {
                origin: "fuzz".into(),
                workload: format!("seed-{}", entry.seed),
                scheme: "sgxbounds".into(),
                tier: "pinned".into(),
                verdict: "replay".into(),
                ..IncidentMeta::default()
            };
            let inc = sgxs_audit::assemble(meta, &rec, DEFAULT_TRACE_WINDOW);
            let compact = inc.put().to_compact();
            parse_incident(&inc.put().to_pretty()).unwrap_or_else(|e| {
                panic!(
                    "entry '{}' ({:?}): incident fails validation: {e}",
                    entry.to_line(),
                    fault.kind
                )
            });
            match &pinned {
                None => pinned = Some(compact),
                Some(reference) => assert_eq!(
                    reference,
                    &compact,
                    "entry '{}': forensics on {tier} diverged from the reference",
                    entry.to_line()
                ),
            }
        }
    }
}

/// A chaos campaign with the demo-corruption gate embeds one validating
/// incident per gate-failing combo, and the whole `sgxs-chaos-v1`
/// document — incidents included — is byte-identical across execution
/// tiers and reruns.
#[test]
fn chaos_demo_corruption_incidents_embed_validate_and_pin() {
    let small = CampaignOpts {
        seeds: 2,
        seed0: 11,
        requests: 8,
        demo_corruption: true,
        ..CampaignOpts::default()
    };
    // `repro chaos --seeds 2 --requests 16 --demo-corruption`, too.
    let cli = CampaignOpts {
        seed0: 0,
        requests: 16,
        ..small.clone()
    };
    for opts in [small, cli] {
        demo_corruption_incidents_embed_validate_and_pin(&opts);
    }
}

fn demo_corruption_incidents_embed_validate_and_pin(opts: &CampaignOpts) {
    let report = run_chaos_campaign(opts).expect("valid campaign options");
    assert!(
        !report.incidents.is_empty(),
        "demo corruption produced no incident"
    );
    for inc in &report.incidents {
        let doc = parse_incident(&inc.put().to_pretty()).expect("chaos incident validates");
        assert_eq!(doc.origin, "chaos");
        assert_eq!(doc.tier, "pinned");
        assert_eq!(doc.verdict, "corrupted");
        assert!(
            doc.fault.is_some(),
            "canary corruption carries the post-run fault address"
        );
    }
    let text = report.to_json().to_pretty();
    let doc = parse_chaos(&text).expect("chaos document parses");
    assert_eq!(
        doc.incidents.len(),
        report.incidents.len(),
        "embedded incidents survive the round trip"
    );
    let rerun = run_chaos_campaign(opts)
        .expect("valid campaign options")
        .to_json()
        .to_pretty();
    assert_eq!(text, rerun, "chaos document drifted between reruns");
    let compiled = run_chaos_campaign(&CampaignOpts {
        tier: ExecTier::Compiled,
        ..opts.clone()
    })
    .expect("valid campaign options")
    .to_json()
    .to_pretty();
    assert_eq!(text, compiled, "chaos document diverged across tiers");
}

/// Attaching the forensic ledger to a chaos server run changes no field
/// of the availability report — the audit layer observes, never steers.
#[test]
fn forensic_serve_is_report_identical() {
    let schedule = ChaosSchedule::generate(7, 12);
    let policies = abort_policy();
    for scheme in [RScheme::Native, RScheme::SgxBounds] {
        let plain = serve_tier(
            ServerApp::Memcached,
            scheme,
            &policies,
            &schedule,
            ExecTier::default(),
        );
        let rec = Rc::new(RefCell::new(LedgerRecorder::new(DEFAULT_TRACE_WINDOW)));
        let (forensic, _first) = serve_traced(
            ServerApp::Memcached,
            scheme,
            &policies,
            &schedule,
            ExecTier::default(),
            rec.clone(),
        );
        Rc::try_unwrap(rec).expect("server dropped its recorder handle");
        assert_eq!(
            format!("{plain:?}"),
            format!("{forensic:?}"),
            "{}: the ledger perturbed the availability report",
            scheme.label()
        );
    }
}
