//! Replays the fixed-seed differential-fuzz regression corpus.
//!
//! Every corpus entry regenerates its program (and injected fault) purely
//! from the seed, runs it under all eight schemes, and must match the
//! per-scheme detection model — deterministically, offline, on every
//! `cargo test` run.

use sgxs_fuzz::gen::Prog;
use sgxs_fuzz::inject::ALL_KINDS;
use sgxs_fuzz::runner::{exec, Exec, FScheme, Verdict, DEFAULT_BUDGET};
use sgxs_fuzz::{gen, inject, oracle, parse_corpus, CorpusEntry};
use sgxs_sim::ExecTier;

/// One execution on the reference tier under the default budget.
fn run(prog: &Prog, scheme: FScheme) -> Exec {
    exec(prog, scheme, ExecTier::Reference, DEFAULT_BUDGET)
}

fn corpus() -> Vec<CorpusEntry> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fuzz_seeds.txt");
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    let entries = parse_corpus(&text).expect("corpus parses");
    assert!(entries.len() >= 20, "corpus shrank to {}", entries.len());
    entries
}

#[test]
fn corpus_covers_every_fault_kind_and_safe_programs() {
    let entries = corpus();
    assert!(entries.iter().any(|e| e.kind.is_none()));
    for kind in ALL_KINDS {
        assert!(
            entries.iter().any(|e| e.kind == Some(kind)),
            "corpus lost coverage of {kind:?}"
        );
    }
}

#[test]
fn every_corpus_entry_matches_the_detection_model() {
    for entry in corpus() {
        let bad = entry
            .replay(ExecTier::Reference, DEFAULT_BUDGET)
            .unwrap_or_else(|f| panic!("corpus entry '{}': {}", entry.to_line(), f.detail()));
        assert!(
            bad.is_empty(),
            "corpus entry '{}' disagrees: {:?}",
            entry.to_line(),
            bad
        );
    }
}

#[test]
fn corpus_oracle_ground_truth_is_stable() {
    for entry in corpus() {
        let prog = gen::generate(entry.seed, entry.max_ops);
        match entry.kind {
            None => assert_eq!(
                oracle::analyze(&prog),
                None,
                "safe entry '{}' has a violation",
                entry.to_line()
            ),
            Some(kind) => {
                let (fprog, fault) = inject::inject(&prog, kind, entry.seed);
                let v = oracle::analyze(&fprog)
                    .unwrap_or_else(|| panic!("entry '{}': no violation", entry.to_line()));
                assert_eq!(v.op_index, fault.victim_index(), "{}", entry.to_line());
                assert_eq!(v.obj, fault.truth.obj, "{}", entry.to_line());
                assert_eq!(v.off, fault.truth.off, "{}", entry.to_line());
            }
        }
    }
}

#[test]
fn corpus_replay_is_deterministic() {
    // Two full executions of the same entry must agree bit-for-bit,
    // including the trap and the progress beacon.
    let entry = CorpusEntry {
        seed: 11,
        max_ops: 20,
        kind: Some(sgxs_fuzz::inject::FaultKind::HeapOverflow),
    };
    let prog = gen::generate(entry.seed, entry.max_ops);
    let (fprog, _) = inject::inject(&prog, entry.kind.unwrap(), entry.seed);
    for scheme in [
        FScheme::Native,
        FScheme::SgxBounds,
        FScheme::Asan,
        FScheme::Mpx,
    ] {
        let a = run(&fprog, scheme);
        let b = run(&fprog, scheme);
        assert_eq!(a.result, b.result, "{}", scheme.label());
        assert_eq!(a.beacon, b.beacon, "{}", scheme.label());
    }
}

#[test]
fn intra_object_entries_separate_narrowing_from_the_rest() {
    // The corpus must keep at least one case demonstrating the paper's §8
    // claim: intra-object overflows are invisible without bounds narrowing.
    for entry in corpus() {
        if entry.kind != Some(sgxs_fuzz::inject::FaultKind::IntraObject) {
            continue;
        }
        let prog = gen::generate(entry.seed, entry.max_ops);
        let (fprog, fault) = inject::inject(&prog, entry.kind.unwrap(), entry.seed);
        let native = run(&fprog, FScheme::Native).result.unwrap_or_default();
        let plain =
            sgxs_fuzz::runner::classify(Some(&fault), native, &run(&fprog, FScheme::SgxBounds));
        let narrow = sgxs_fuzz::runner::classify(
            Some(&fault),
            native,
            &run(&fprog, FScheme::SgxBoundsNarrow),
        );
        assert_eq!(plain, Verdict::Missed, "{}", entry.to_line());
        assert_eq!(narrow, Verdict::Detected, "{}", entry.to_line());
    }
}
