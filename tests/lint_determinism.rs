//! The lint artifact is deterministic: rerunning `repro lint`
//! byte-for-byte reproduces both the human text and the JSON document.
//! Linting is purely static, so it has no execution tier to vary (`repro
//! lint` takes no `--tier`; `repro selfcheck` reruns it at the command
//! line).

use sgxs_harness::exp::DEFAULT_SEED;
use sgxs_harness::lint::lint_modules;
use sgxs_harness::RunConfig;
use sgxs_mir::Module;
use sgxs_sim::Preset;
use sgxs_workloads::SizeClass;

/// Builds every benchmark module exactly as `repro lint` does.
fn modules() -> Vec<Module> {
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    rc.params.seed = DEFAULT_SEED;
    sgxs_workloads::all_benchmarks()
        .into_iter()
        .map(|w| w.build(&rc.params))
        .collect()
}

/// The text view `repro lint` prints (with the call graph under `ipa`)
/// and the JSON document.
fn artifact(ipa: bool) -> (String, String) {
    let out = lint_modules(modules(), DEFAULT_SEED, ipa);
    let view = sgxs_obs::read::lint_from_json(&out.doc)
        .expect("document validates")
        .render(ipa);
    (view, out.doc.to_pretty())
}

#[test]
fn lint_output_is_byte_identical_across_reruns() {
    for ipa in [false, true] {
        let first = artifact(ipa);
        let rerun = artifact(ipa);
        assert_eq!(
            first, rerun,
            "lint artifact drifted between reruns (ipa={ipa})"
        );
    }
}

/// The corpus-wide document parses through its own validating reader in
/// both schema versions, covers every benchmark, and in v2 carries each
/// module's call graph and summaries.
#[test]
fn benchmark_lint_documents_validate() {
    for ipa in [false, true] {
        let out = lint_modules(modules(), DEFAULT_SEED, ipa);
        let parsed = sgxs_obs::read::lint_from_json(&out.doc).expect("document validates");
        assert_eq!(parsed.ipa, ipa.then_some(true));
        assert_eq!(parsed.proved_oob as usize, out.oob);
        assert_eq!(parsed.modules.len(), sgxs_workloads::all_benchmarks().len());
        for m in parsed.modules.iter().filter(|_| ipa) {
            let non_empty = |v: Option<usize>| v.is_some_and(|n| n > 0);
            assert!(
                non_empty(m.call_graph.as_ref().map(Vec::len)),
                "{}",
                m.module
            );
            assert!(
                non_empty(m.summaries.as_ref().map(Vec::len)),
                "{}",
                m.module
            );
        }
    }
}
