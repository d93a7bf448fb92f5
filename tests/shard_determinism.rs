//! Shard determinism: the supervised campaign runner must be a pure
//! function of the seed range — every worker count, every work-stealing
//! schedule, and every checkpoint/resume cut must emit byte-identical
//! `sgxs-fuzz-v1`, `sgxs-chaos-v1`, and `sgxs-metrics-v1` documents.
//! This is the property that lets CI shard campaigns across cores and
//! resume interrupted runs without ever weakening the artifact pins.

use proptest::prelude::*;
use sgxs_fuzz::{run_campaign, run_campaign_supervised, run_chaos_fuzz, run_chaos_fuzz_supervised};
use sgxs_resil::{run_chaos_campaign, run_chaos_campaign_supervised, CampaignOpts};
use sgxs_super::{StopFlag, SuperOpts};

/// Worker counts every campaign is checked under: serial, even splits,
/// and a count that does not divide the seed range.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn fuzz_opts(seeds: u64) -> sgxs_fuzz::FuzzOpts {
    sgxs_fuzz::FuzzOpts {
        seeds,
        seed0: 1,
        max_ops: 8,
        ..sgxs_fuzz::FuzzOpts::default()
    }
}

fn chaos_opts(seeds: u64) -> CampaignOpts {
    CampaignOpts {
        seeds,
        seed0: 1,
        requests: 16,
        ..CampaignOpts::default()
    }
}

fn sup(workers: usize) -> SuperOpts {
    SuperOpts {
        workers,
        quiet_panics: true,
        ..SuperOpts::default()
    }
}

#[test]
fn fuzz_doc_is_byte_identical_across_worker_counts() {
    let opts = fuzz_opts(8);
    let serial = run_campaign(&opts)
        .expect("valid options")
        .to_json()
        .to_pretty();
    for workers in WORKER_COUNTS {
        let out = run_campaign_supervised(&opts, &sup(workers), &StopFlag::new())
            .expect("supervised fuzz runs");
        assert_eq!(
            out.report.to_json().to_pretty(),
            serial,
            "sgxs-fuzz-v1 diverged at {workers} worker(s)"
        );
    }
}

#[test]
fn chaos_fuzz_report_is_identical_across_worker_counts() {
    let opts = fuzz_opts(6);
    let serial = run_chaos_fuzz(&opts).expect("valid options").render();
    for workers in WORKER_COUNTS {
        let out = run_chaos_fuzz_supervised(&opts, &sup(workers), &StopFlag::new())
            .expect("supervised chaos-fuzz runs");
        assert_eq!(
            out.report.render(),
            serial,
            "chaos-fuzz report diverged at {workers} worker(s)"
        );
    }
}

#[test]
fn chaos_and_metrics_docs_are_byte_identical_across_worker_counts() {
    let opts = chaos_opts(5);
    let serial = run_chaos_campaign(&opts).expect("valid campaign options");
    let chaos_doc = serial.to_json().to_pretty();
    let metrics_doc = serial.metrics().to_json().to_pretty();
    for workers in WORKER_COUNTS {
        let out = run_chaos_campaign_supervised(&opts, &sup(workers), &StopFlag::new())
            .expect("supervised chaos runs");
        assert_eq!(
            out.report.to_json().to_pretty(),
            chaos_doc,
            "sgxs-chaos-v1 diverged at {workers} worker(s)"
        );
        assert_eq!(
            out.report.metrics().to_json().to_pretty(),
            metrics_doc,
            "sgxs-metrics-v1 diverged at {workers} worker(s)"
        );
    }
}

#[test]
fn interrupted_fuzz_campaign_resumes_to_the_uninterrupted_artifact() {
    let dir = std::env::temp_dir().join(format!("sgxs-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let opts = fuzz_opts(8);
    let uninterrupted = run_campaign(&opts)
        .expect("valid options")
        .to_json()
        .to_pretty();
    for stop_after in [1usize, 3, 6] {
        let journal = dir
            .join(format!("fuzz-{stop_after}.jsonl"))
            .to_string_lossy()
            .into_owned();
        let cut = SuperOpts {
            workers: 2,
            journal: Some(journal.clone()),
            stop_after: Some(stop_after),
            ..sup(2)
        };
        let first =
            run_campaign_supervised(&opts, &cut, &StopFlag::new()).expect("interrupted fuzz runs");
        assert!(first.stopped, "stop_after {stop_after} did not stop");
        let resume = SuperOpts {
            workers: 2,
            journal: Some(journal),
            resume: true,
            ..sup(2)
        };
        let second =
            run_campaign_supervised(&opts, &resume, &StopFlag::new()).expect("resumed fuzz runs");
        assert!(!second.stopped);
        assert!(
            second.resumed >= stop_after as u64,
            "resume after {stop_after} replayed only {} seeds from the journal",
            second.resumed
        );
        assert_eq!(
            second.report.to_json().to_pretty(),
            uninterrupted,
            "resume after {stop_after} completions diverged from the uninterrupted doc"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_chaos_campaign_resumes_to_the_uninterrupted_artifact() {
    let dir = std::env::temp_dir().join(format!("sgxs-resume-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let opts = chaos_opts(5);
    let uninterrupted = run_chaos_campaign(&opts)
        .expect("valid campaign options")
        .to_json()
        .to_pretty();
    let journal = dir.join("chaos.jsonl").to_string_lossy().into_owned();
    let cut = SuperOpts {
        journal: Some(journal.clone()),
        stop_after: Some(2),
        ..sup(2)
    };
    let first =
        run_chaos_campaign_supervised(&opts, &cut, &StopFlag::new()).expect("interrupted run");
    assert!(first.stopped);
    let resume = SuperOpts {
        journal: Some(journal),
        resume: true,
        ..sup(2)
    };
    let second =
        run_chaos_campaign_supervised(&opts, &resume, &StopFlag::new()).expect("resumed run");
    assert!(second.resumed >= 2, "journal restored {}", second.resumed);
    assert_eq!(
        second.report.to_json().to_pretty(),
        uninterrupted,
        "resumed chaos doc diverged (restored deltas are not exact)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demo_failures_are_quarantined_with_accurate_coverage_and_resume() {
    let dir = std::env::temp_dir().join(format!("sgxs-resume-quar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // One panicking seed and one over-budget seed inside an 8-seed range,
    // and inside the 50 default-option seeds `repro selfcheck` runs: both
    // must be quarantined — not kill the campaign — and the coverage
    // ledger and the journal must account for every seed exactly once.
    let small = sgxs_fuzz::FuzzOpts {
        demo_panic: Some(3),
        demo_budget: Some(5),
        ..fuzz_opts(8)
    };
    let selfcheck = sgxs_fuzz::FuzzOpts {
        seeds: 50,
        demo_panic: Some(7),
        demo_budget: Some(11),
        ..sgxs_fuzz::FuzzOpts::default()
    };
    for opts in [small, selfcheck] {
        let (seeds, panic, budget) = (opts.seeds, opts.demo_panic, opts.demo_budget);
        let journal = dir.join(format!("quar{seeds}.jsonl"));
        let journal = journal.to_string_lossy().into_owned();
        let jopts = SuperOpts {
            journal: Some(journal.clone()),
            ..sup(4)
        };
        let out = run_campaign_supervised(&opts, &jopts, &StopFlag::new()).expect("campaign runs");
        let rep = &out.report;
        let cov = rep.coverage();
        assert_eq!(
            (cov.seeds, cov.completed, cov.quarantined, cov.skipped),
            (seeds, seeds - 2, 2, 0)
        );
        let classes: Vec<(Option<u64>, &str)> = rep
            .quarantine
            .iter()
            .map(|q| (Some(q.seed), q.class.as_str()))
            .collect();
        assert_eq!(classes, [(panic, "panic"), (budget, "budget")]);
        let want = format!("injected panicking seed {}", panic.unwrap());
        assert!(rep.quarantine[0].detail.contains(&want));
        assert!(rep.quarantine[1].detail.contains("instruction budget"));
        let text = std::fs::read_to_string(&journal).expect("journal written");
        let entries = sgxs_obs::read::parse_journal(&text)
            .expect("journal parses")
            .entries;
        let quarantined = entries.iter().filter(|e| e.status == "quarantined");
        assert_eq!((entries.len() as u64, quarantined.count()), (seeds, 2));
        // The quarantined run resumes from its journal to the byte-identical
        // artifact without re-running the completed seeds.
        let resume = SuperOpts {
            journal: Some(journal),
            resume: true,
            ..sup(2)
        };
        let again = run_campaign_supervised(&opts, &resume, &StopFlag::new()).expect("resume runs");
        // Every seed settles from the journal: the clean verdicts plus both
        // quarantine entries restore without re-running anything.
        assert_eq!(again.resumed, seeds);
        assert_eq!(
            again.report.to_json().to_pretty(),
            rep.to_json().to_pretty(),
            "resumed quarantine campaign diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (seed0, seeds, workers) partition of a fuzz campaign merges to
    /// the same document the serial runner emits — the supervisor never
    /// lets the work-stealing schedule leak into the artifact.
    #[test]
    fn any_partition_matches_the_serial_fuzz_doc(
        seed0 in 0u64..32,
        seeds in 1u64..7,
        workers in 1usize..8,
    ) {
        let opts = sgxs_fuzz::FuzzOpts {
            seed0,
            ..fuzz_opts(seeds)
        };
        let serial = run_campaign(&opts).expect("valid options").to_json().to_pretty();
        let out = run_campaign_supervised(&opts, &sup(workers), &StopFlag::new())
            .expect("supervised fuzz runs");
        prop_assert_eq!(
            out.report.to_json().to_pretty(),
            serial,
            "partition seed0={} seeds={} workers={} diverged",
            seed0, seeds, workers
        );
    }
}
