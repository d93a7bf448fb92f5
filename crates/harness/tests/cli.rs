//! In-process tests of the `repro` command line. Every subcommand
//! returns `Result<i32, String>` instead of exiting, so the acceptance
//! criteria of the analysis tier are pinned here without spawning
//! processes:
//!
//! * same-rev replicates must pass the `--gate`;
//! * a synthetic +30 % `perf_vs_sgx` shift must fail it with exit 1;
//! * the committed `results/history.jsonl` must gate cleanly against the
//!   committed `results/bench.json` (what the CI perf-gate job runs);
//! * `profile` → `render` round-trips through `sgxs-profile-v1`.

use sgxs_harness::cli;
use sgxs_perf::HistoryRecord;

/// Repo-relative path into `results/`.
fn results(name: &str) -> String {
    format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory per test.
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sgxs-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

/// A minimal valid bench document with one directional metric.
fn bench_doc(perf: f64) -> String {
    format!(
        r#"{{
  "schema": "sgxs-bench-v1",
  "preset": "Tiny",
  "effort": "Quick",
  "experiments": {{
    "fig1": {{
      "points": [
        {{"rows": 256, "perf_vs_sgx": {{"mpx": 18.8, "asan": 4.5, "sgxbounds": {perf}}}}}
      ]
    }}
  }}
}}"#
    )
}

#[test]
fn same_rev_replicates_pass_the_gate() {
    let dir = scratch("samerev");
    // Three replicates of the same rev, seed-level jitter only.
    let mut lines = String::new();
    for (seed, perf) in [(42u64, 1.170), (43, 1.173), (44, 1.168)] {
        let bench = sgxs_obs::json::Json::parse(&bench_doc(perf)).unwrap();
        lines.push_str(&HistoryRecord::new("r1", seed, bench).unwrap().to_line());
        lines.push('\n');
    }
    let hist = dir.join("history.jsonl");
    std::fs::write(&hist, lines).unwrap();
    let base = dir.join("base.json");
    std::fs::write(&base, bench_doc(1.171)).unwrap();

    let code = cli::run_compare(&args(&[
        base.to_str().unwrap(),
        hist.to_str().unwrap(),
        "--gate",
    ]))
    .unwrap();
    assert_eq!(code, 0, "same-rev replicates must not trip the gate");
}

#[test]
fn synthetic_thirty_percent_shift_fails_the_gate() {
    let dir = scratch("shift");
    let base = dir.join("base.json");
    let new = dir.join("new.json");
    std::fs::write(&base, bench_doc(1.17)).unwrap();
    std::fs::write(&new, bench_doc(1.521)).unwrap(); // +30 %

    let gated = cli::run_compare(&args(&[
        base.to_str().unwrap(),
        new.to_str().unwrap(),
        "--gate",
    ]))
    .unwrap();
    assert_eq!(gated, 1, "+30% perf_vs_sgx shift must fail the gate");

    // Without --gate the regression is reported but the exit stays 0.
    let ungated =
        cli::run_compare(&args(&[base.to_str().unwrap(), new.to_str().unwrap()])).unwrap();
    assert_eq!(ungated, 0);
}

#[test]
fn committed_history_gates_cleanly_against_committed_baseline() {
    let report = scratch("committed").join("compare.json");
    let code = cli::run_compare(&args(&[
        &results("bench.json"),
        &results("history.jsonl"),
        "--gate",
        "--json",
        report.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(code, 0, "committed artifacts must agree with each other");
    let text = std::fs::read_to_string(&report).unwrap();
    let j = sgxs_obs::json::Json::parse(&text).unwrap();
    assert_eq!(
        j.get("schema").and_then(sgxs_obs::json::Json::as_str),
        Some("sgxs-compare-v1")
    );
}

#[test]
fn profile_then_render_roundtrips() {
    let dir = scratch("render");
    let json = dir.join("profile.json");
    let folded = dir.join("profile.folded");
    let svg = dir.join("profile.svg");
    let code = cli::run_profile(&args(&[
        "sqlite",
        "--tiny",
        "--quick",
        "--json",
        json.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(code, 0);
    let code = cli::run_render(&args(&[
        json.to_str().unwrap(),
        "--folded",
        folded.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(code, 0);

    // Folded stacks are inferno-shaped and sum to the profiled cpu cycles.
    let doc = sgxs_obs::read::parse_profile(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let text = std::fs::read_to_string(&folded).unwrap();
    let total: u64 = text
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(
        total, doc.cpu_cycles,
        "folded counts must sum to cpu_cycles"
    );
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg ") && svg_text.trim_end().ends_with("</svg>"));
}

#[test]
fn usage_errors_are_errors_not_exits() {
    assert!(cli::run(&[]).is_err());
    assert!(cli::run(&args(&["no_such_experiment"])).is_err());
    assert!(cli::run(&args(&["compare", "only-one-side.json"])).is_err());
    assert!(cli::run(&args(&["render"])).is_err());
    assert!(cli::run(&args(&["bench"])).is_err());
    assert!(cli::run(&args(&["profile", "--scheme"])).is_err());

    // Unknown scheme labels are rejected by both label lookups.
    assert!(cli::run(&args(&["profile", "string_match", "--scheme", "native"])).is_err());
    assert!(cli::run(&args(&["trace", "export", "--scheme", "asan"])).is_err());

    // A NaN or out-of-range threshold would pass the availability gate
    // silently.
    for t in ["nan", "-1", "1.5"] {
        assert!(
            cli::run(&args(&["chaos", "--seeds", "1", "--threshold", t])).is_err(),
            "--threshold {t} accepted"
        );
    }

    // A NaN, infinite or negative compare threshold or noise multiplier
    // would let the +30 % shift below through the gate (or print a
    // negative threshold).
    let dir = scratch("gateflags");
    let (base, new) = (dir.join("base.json"), dir.join("new.json"));
    std::fs::write(&base, bench_doc(1.17)).unwrap();
    std::fs::write(&new, bench_doc(1.521)).unwrap();
    let (base, new) = (base.to_str().unwrap(), new.to_str().unwrap());
    for flags in [
        &["--threshold", "nan", "--noise-mult", "nan"][..],
        &["--threshold", "nan"][..],
        &["--noise-mult", "nan"][..],
        &["--threshold", "inf"][..],
        &["--noise-mult", "inf"][..],
        &["--threshold", "-5"][..],
        &["--noise-mult", "-1"][..],
    ] {
        let mut argv = vec!["compare", base, new, "--gate"];
        argv.extend(flags);
        assert!(cli::run(&args(&argv)).is_err(), "{flags:?} accepted");
    }
    let zero = ["compare", base, new, "--gate", "--noise-mult", "0"];
    assert_eq!(cli::run(&args(&zero)), Ok(1), "zero still gates");

    // A seed range whose end overflows u64 would run no seed at all (or a
    // wrapped range) and still report success.
    let max = u64::MAX.to_string();
    for cmd in [
        &["fuzz"][..],
        &["chaos"][..],
        &["metrics"][..],
        &["tier", "check"][..],
    ] {
        let mut argv = cmd.to_vec();
        argv.extend(["--seeds", "2", "--seed0", &max]);
        assert!(
            cli::run(&args(&argv)).is_err(),
            "{argv:?} accepted an overflowing seed range"
        );
    }

    // Malformed inputs surface as errors too.
    let dir = scratch("badinput");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    assert!(cli::run_compare(&args(&[bad.to_str().unwrap(), bad.to_str().unwrap()])).is_err());
    assert!(cli::run_render(&args(&[bad.to_str().unwrap()])).is_err());
}

#[test]
fn profile_keeps_the_baseline_alias_of_the_sgx_label() {
    let dir = scratch("profile-alias");
    let json = dir.join("p.json");
    let argv = [
        "profile",
        "histogram",
        "--scheme",
        "baseline",
        "--json",
        json.to_str().unwrap(),
    ];
    assert_eq!(cli::run(&args(&argv)).unwrap(), 0);
    let doc = sgxs_obs::read::parse_profile(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(doc.scheme, "sgx");
}

#[test]
fn lint_gates_on_the_demo_and_passes_clean_workloads() {
    let dir = scratch("lint");
    let json = dir.join("lint.json");

    // The committed provably-OOB demo must fail the gate and produce a
    // well-formed sgxs-lint-v1 document.
    let code = cli::run(&args(&[
        "lint",
        "--demo-oob",
        "--json",
        json.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(code, 1, "demo OOB must exit nonzero");
    let doc = sgxs_obs::json::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("sgxs-lint-v1")
    );
    assert_eq!(doc.get("proved_oob").and_then(|v| v.as_u64()), Some(1));
    let modules = doc.get("modules").and_then(|v| v.as_arr()).unwrap();
    let findings = modules[0].get("findings").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!(f.get("kind").and_then(|v| v.as_str()), Some("load"));
    assert_eq!(f.get("offset_lo").and_then(|v| v.as_u64()), Some(40));
    assert!(f
        .get("ir")
        .and_then(|v| v.as_str())
        .is_some_and(|s| s.contains("load")));

    // Clean workloads lint green.
    let code = cli::run(&args(&["lint", "kmeans", "histogram"])).unwrap();
    assert_eq!(code, 0, "clean workloads must lint green");

    // Unknown workloads are usage errors.
    assert!(cli::run(&args(&["lint", "no_such_workload"])).is_err());
}

#[test]
fn supervised_fuzz_cli_pins_worker_byte_identity_and_quarantine_semantics() {
    let dir = scratch("super");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

    // Worker count never leaks into the artifact.
    let w1 = p("w1.json");
    let w2 = p("w2.json");
    let code = cli::run(&args(&[
        "fuzz",
        "--seeds",
        "6",
        "--workers",
        "1",
        "--json",
        &w1,
    ]))
    .unwrap();
    assert_eq!(code, 0);
    let code = cli::run(&args(&[
        "fuzz",
        "--seeds",
        "6",
        "--workers",
        "2",
        "--json",
        &w2,
    ]))
    .unwrap();
    assert_eq!(code, 0);
    assert_eq!(
        std::fs::read_to_string(&w1).unwrap(),
        std::fs::read_to_string(&w2).unwrap(),
        "fuzz doc diverged between 1 and 2 workers"
    );

    // A quarantined seed fails the run unless --quarantine tolerates it,
    // and the tolerated run still accounts for it in the document.
    let code = cli::run(&args(&["fuzz", "--seeds", "6", "--demo-panic", "2"])).unwrap();
    assert_eq!(code, 1, "quarantine without --quarantine must exit 1");
    let quar = p("quar.json");
    let code = cli::run(&args(&[
        "fuzz",
        "--seeds",
        "6",
        "--demo-panic",
        "2",
        "--quarantine",
        "--json",
        &quar,
    ]))
    .unwrap();
    assert_eq!(code, 0, "--quarantine must tolerate the demo panic");
    let doc = sgxs_obs::json::Json::parse(&std::fs::read_to_string(&quar).unwrap()).unwrap();
    let cov = doc.get("coverage").expect("fuzz doc has coverage");
    assert_eq!(cov.get("completed").and_then(|v| v.as_u64()), Some(5));
    assert_eq!(cov.get("quarantined").and_then(|v| v.as_u64()), Some(1));
    let q = doc.get("quarantine").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(q[0].get("class").and_then(|v| v.as_str()), Some("panic"));

    // Graceful stop exits EXIT_STOPPED and resume completes the campaign
    // to the byte-identical uninterrupted artifact.
    let journal = p("j.jsonl");
    let stopped = p("stopped.json");
    let code = cli::run(&args(&[
        "fuzz",
        "--seeds",
        "6",
        "--workers",
        "2",
        "--journal",
        &journal,
        "--stop-after",
        "2",
        "--json",
        &stopped,
    ]))
    .unwrap();
    assert_eq!(code, cli::EXIT_STOPPED, "early stop must exit distinctly");
    let resumed = p("resumed.json");
    let code = cli::run(&args(&[
        "fuzz", "--seeds", "6", "--resume", &journal, "--json", &resumed,
    ]))
    .unwrap();
    assert_eq!(code, 0);
    assert_eq!(
        std::fs::read_to_string(&resumed).unwrap(),
        std::fs::read_to_string(&w1).unwrap(),
        "resumed fuzz doc diverged from the uninterrupted artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_chaos_cli_round_trips_through_the_validating_reader() {
    let dir = scratch("super-chaos");
    let out = dir.join("chaos.json").to_string_lossy().into_owned();
    let code = cli::run(&args(&[
        "chaos",
        "--seeds",
        "4",
        "--requests",
        "16",
        "--workers",
        "2",
        "--demo-panic",
        "2",
        "--quarantine",
        "--json",
        &out,
    ]))
    .unwrap();
    assert_eq!(code, 0);
    // The emitted document — coverage and quarantine blocks included —
    // survives the reader's cross-checks (coverage sums, runs==completed,
    // quarantine list length).
    let doc = sgxs_obs::read::parse_chaos(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.seeds, 4);
    assert_eq!(doc.combos[0].runs, 3, "one seed quarantined, three ran");
    let _ = std::fs::remove_dir_all(&dir);
}
