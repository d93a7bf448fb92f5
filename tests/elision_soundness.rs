//! Soundness of the flow tier's check elision, demonstrated end-to-end.
//!
//! For every fixed-seed corpus entry — safe programs and every injected
//! fault kind — `sb-flow` (default optimizations plus flow-sensitive safe
//! marking and must-availability elision) must be observationally
//! identical to the *unoptimized* SGXBounds scheme: same digest or trap,
//! same progress beacon, same tolerated-violation count. Elision may only
//! remove checks that can never fire; if it ever removed a live one, the
//! flow run would miss a trap (or change the beacon) and this diverges.

use sgxs_fuzz::gen::Prog;
use sgxs_fuzz::runner::{exec, Exec, FScheme, DEFAULT_BUDGET};
use sgxs_fuzz::{gen, inject, parse_corpus, CorpusEntry};
use sgxs_sim::ExecTier;

/// One execution on the reference tier under the default budget.
fn run(prog: &Prog, scheme: FScheme) -> Exec {
    exec(prog, scheme, ExecTier::Reference, DEFAULT_BUDGET)
}

fn corpus() -> Vec<CorpusEntry> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fuzz_seeds.txt");
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    parse_corpus(&text).expect("corpus parses")
}

#[test]
fn flow_elision_never_changes_observable_behaviour() {
    for entry in corpus() {
        let prog = gen::generate(entry.seed, entry.max_ops);
        let fprog = match entry.kind {
            None => prog,
            Some(kind) => inject::inject(&prog, kind, entry.seed).0,
        };
        let noopt = run(&fprog, FScheme::SgxBoundsNoOpt);
        let flow = run(&fprog, FScheme::SgxBoundsFlow);
        assert_eq!(
            noopt.result,
            flow.result,
            "'{}': flow elision changed the outcome",
            entry.to_line()
        );
        assert_eq!(
            noopt.beacon,
            flow.beacon,
            "'{}': flow elision changed the progress beacon",
            entry.to_line()
        );
        assert_eq!(
            noopt.violations,
            flow.violations,
            "'{}': flow elision changed the violation count",
            entry.to_line()
        );
    }
}

#[test]
fn flow_scheme_matches_native_digests_on_safe_programs() {
    for entry in corpus().iter().filter(|e| e.kind.is_none()) {
        let prog = gen::generate(entry.seed, entry.max_ops);
        let native = run(&prog, FScheme::Native);
        let flow = run(&prog, FScheme::SgxBoundsFlow);
        assert_eq!(
            native.result, flow.result,
            "seed {}: hardened digest drifted from native",
            entry.seed
        );
        assert_eq!(
            flow.violations, 0,
            "seed {}: spurious violation",
            entry.seed
        );
    }
}
