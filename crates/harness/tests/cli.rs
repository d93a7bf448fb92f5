//! In-process tests of the `repro` command line. Every subcommand
//! returns `Result<i32, String>` instead of exiting, so the acceptance
//! criteria of the analysis tier are pinned here without spawning
//! processes:
//!
//! * same-rev replicates must pass the `--gate`;
//! * a synthetic +30 % `perf_vs_sgx` shift must fail it with exit 1;
//! * the committed `results/history.jsonl` must gate cleanly against the
//!   committed `results/bench.json` (what the CI perf-gate job runs);
//! * `profile` → `render` round-trips through `sgxs-profile-v1`;
//! * each document has one text view: the commands that show one document
//!   (spawned as processes, to read their stdout) print the same text, and
//!   an experiment prints the view of the payload it writes.

use sgxs_harness::cli;
use sgxs_harness::exp::Experiments;
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

/// Runs the `repro` binary; its exit code and stdout.
fn repro(parts: &[&str]) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(parts)
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (out.status.code().unwrap_or(-1), stdout)
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

    // `selfcheck` takes no argument, and `lint` no longer takes `--tier`.
    assert!(cli::run(&args(&["selfcheck", "--quick"])).is_err());
    let e = cli::run(&args(&["lint", "--tier", "compiled"])).unwrap_err();
    assert!(e.contains("unknown argument '--tier'"), "{e}");

    // `--tier` takes only the two labels it prints, and the tier oracle
    // lives in the tests, not in a `tier` command.
    let e = cli::run(&args(&["fig1", "--tier", "ref"])).unwrap_err();
    assert!(e.contains("unknown tier 'ref'"), "{e}");
    assert!(cli::run(&args(&["tier", "check"])).is_err());

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
    for cmd in [&["fuzz"][..], &["chaos"][..], &["metrics"][..]] {
        let mut argv = cmd.to_vec();
        argv.extend(["--seeds", "2", "--seed0", &max]);
        assert!(
            cli::run(&args(&argv)).is_err(),
            "{argv:?} accepted an overflowing seed range"
        );
    }

    // A --max-ops beyond the generator's cap would abort the process on
    // its first allocation instead of failing cleanly.
    let argv = ["fuzz", "--seeds", "1", "--max-ops", &max];
    let e = cli::run(&args(&argv)).expect_err("oversized --max-ops accepted");
    assert!(e.contains("exceeds the cap"), "{argv:?}: {e}");
    let dir = scratch("maxops");
    let corpus = dir.join("corpus.txt");
    std::fs::write(&corpus, "1 18446744073709551615 safe\n").unwrap();
    let argv = ["fuzz", "--corpus", corpus.to_str().unwrap()];
    let e = cli::run(&args(&argv)).expect_err("oversized corpus max_ops accepted");
    assert!(e.contains("corpus line 1"), "{e}");

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

/// Runs `cmd --journal J --json A` once, then cuts `J` at every line
/// boundary (and, with `either_side`, one byte either side of it) and
/// resumes each truncated copy with `cmd --resume J' --json B`. A kill
/// can leave exactly such a file. A cut inside the header line must be an
/// error (exit 2); every other cut must resume to an artifact
/// byte-identical to `A`.
fn resume_every_cut(test: &str, cmd: &[&str], either_side: bool) {
    let dir = scratch(test);
    let p = |name: String| dir.join(name).to_string_lossy().into_owned();
    let (journal, full) = (p("j.jsonl".into()), p("full.json".into()));
    let run = |extra: &[&str]| cli::run(&args(&[cmd, extra].concat()));
    let code = run(&["--journal", &journal, "--json", &full]).unwrap();
    let want = std::fs::read_to_string(&full).unwrap();
    let bytes = std::fs::read(&journal).unwrap();
    let header = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
    let boundaries = std::iter::once(0).chain(
        (0..bytes.len())
            .filter(|&i| bytes[i] == b'\n')
            .map(|i| i + 1),
    );
    let mut cuts: Vec<usize> = boundaries
        .flat_map(|b| match either_side {
            true => vec![b.saturating_sub(1), b, b + 1],
            false => vec![b],
        })
        .filter(|&c| c <= bytes.len())
        .collect();
    cuts.dedup();
    assert!(cuts.len() > 4, "{test}: journal too short to sweep");
    for cut in cuts {
        let (cut_journal, out) = (p(format!("cut{cut}.jsonl")), p(format!("cut{cut}.json")));
        std::fs::write(&cut_journal, &bytes[..cut]).unwrap();
        let resumed = run(&["--resume", &cut_journal, "--json", &out]);
        if cut < header {
            let e = resumed.expect_err("a cut inside the header resumed");
            assert!(e.contains("journal"), "{test} cut {cut}: {e}");
            continue;
        }
        assert_eq!(resumed, Ok(code), "{test} cut {cut}");
        let got = std::fs::read_to_string(&out).unwrap();
        assert!(got == want, "{test} cut {cut}: resumed artifact differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_resume_from_any_cut_journal_is_byte_identical() {
    resume_every_cut(
        "cut-fuzz",
        &["fuzz", "--seeds", "12", "--workers", "2"],
        true,
    );
}

#[test]
fn chaos_resume_from_any_cut_journal_is_byte_identical() {
    let cmd = [
        "chaos",
        "--seeds",
        "4",
        "--requests",
        "16",
        "--workers",
        "2",
    ];
    resume_every_cut("cut-chaos", &cmd, false);
}

#[test]
fn profile_top_zero_trims_the_table_but_passes_a_run_whose_sites_fired() {
    let dir = scratch("profile-top0");
    let json = dir.join("p.json");
    let argv = ["profile", "string_match", "--top", "0", "--json"];
    let code = cli::run(&args(&[&argv[..], &[json.to_str().unwrap()]].concat()));
    assert_eq!(code, Ok(0));
    let doc = sgxs_obs::read::parse_profile(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert!(doc.top_sites.is_empty() && doc.sites_active > 0, "{doc:?}");
}

#[test]
fn profile_trace_is_one_event_per_line() {
    let dir = scratch("profile-trace");
    let trace = dir.join("t.jsonl");
    let argv = [
        "profile",
        "string_match",
        "--scheme",
        "sgxbounds",
        "--trace",
    ];
    let code = cli::run(&args(&[&argv[..], &[trace.to_str().unwrap()]].concat()));
    assert_eq!(code, Ok(0));
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.lines().count() > 0);
    for line in text.lines() {
        let v = sgxs_obs::json::Json::parse(line).unwrap();
        assert!(v.get("ev").is_some(), "{line}");
    }
}

#[test]
fn trace_export_writes_the_serve_request_check_hierarchy() {
    let dir = scratch("trace-export");
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (out, ascii, svg) = (p("t.json"), p("t.txt"), p("t.svg"));
    let argv = [
        "trace",
        "export",
        "--seed",
        "3",
        "--requests",
        "16",
        "--out",
        &out,
    ];
    let code = cli::run(&args(
        &[&argv[..], &["--ascii", &ascii, "--svg", &svg]].concat(),
    ));
    assert_eq!(code, Ok(0));
    let doc = sgxs_obs::json::Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .map(|e| e.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert!(
        ["serve", "request", "check"]
            .iter()
            .all(|n| names.contains(n)),
        "{names:?}"
    );
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")));
    assert!(!std::fs::read_to_string(&ascii).unwrap().is_empty());
    let svg = std::fs::read_to_string(&svg).unwrap();
    assert!(svg.starts_with("<svg ") && svg.trim_end().ends_with("</svg>"));
}

/// Journals `cmd` with one worker, rewrites seed 1's line with `edit`, and
/// returns what resuming the edited journal gives.
fn resume_edited(test: &str, cmd: &[&str], edit: impl Fn(&str) -> String) -> Result<i32, String> {
    let dir = scratch(test);
    let journal = dir.join("j.jsonl").to_string_lossy().into_owned();
    let run = |extra: &[&str]| cli::run(&args(&[cmd, &["--workers", "1"], extra].concat()));
    assert_eq!(run(&["--journal", &journal]), Ok(0));
    let text = std::fs::read_to_string(&journal).unwrap();
    let forged: Vec<String> = text
        .lines()
        .map(|l| match l.starts_with(r#"{"seed":1,"#) {
            true => edit(l),
            false => l.to_owned(),
        })
        .collect();
    assert_ne!(
        forged.join("\n") + "\n",
        text,
        "{test}: seed 1's line was not edited"
    );
    std::fs::write(&journal, forged.join("\n") + "\n").unwrap();
    run(&["--resume", &journal])
}

#[test]
fn resume_refuses_a_fuzz_row_of_another_fault_kind() {
    // Seed 1 injects a heap-overflow-far fault; a row claiming another
    // kind would restore a matrix the campaign never ran.
    let cmd = ["fuzz", "--seeds", "6"];
    let e = resume_edited("forged-kind", &cmd, |l| {
        l.replace(
            r#""kind":"heap-overflow-far""#,
            r#""kind":"global-overflow""#,
        )
    })
    .unwrap_err();
    assert!(
        e.contains("j.jsonl: seed 1:") && e.contains("global-overflow"),
        "{e}"
    );
}

#[test]
fn resume_refuses_chaos_fuzz_counters_no_clean_seed_has() {
    // A clean chaos-fuzz seed runs each of the eight schemes once; forged
    // counters would wrap the campaign's totals.
    let cmd = ["fuzz", "--chaos", "--seeds", "6"];
    let e = resume_edited("forged-counts", &cmd, |l| {
        let max = u64::MAX;
        let at = l.find(r#""clean":"#).unwrap();
        let rest = &l[at..];
        let end = at + rest.find(',').unwrap();
        let l = format!("{}\"clean\":{max}{}", &l[..at], &l[end..]);
        l.replace(r#""runs":8"#, &format!("\"runs\":{max}"))
    })
    .unwrap_err();
    assert!(
        e.contains("j.jsonl: seed 1:") && e.contains("chaos-fuzz checkpoint"),
        "{e}"
    );
}

#[test]
fn a_clean_fuzz_campaign_writes_both_tables_and_no_disagreement() {
    let dir = scratch("fuzz-doc");
    let json = dir.join("f.json");
    let argv = ["fuzz", "--seeds", "25", "--json", json.to_str().unwrap()];
    assert_eq!(cli::run(&args(&argv)), Ok(0));
    let doc = sgxs_obs::json::Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let field = |k: &str| doc.get(k).unwrap_or_else(|| panic!("no {k}"));
    assert_eq!(field("schema").as_str(), Some("sgxs-fuzz-v1"));
    assert_eq!(field("disagreements").as_arr().map(<[_]>::len), Some(0));
    for table in ["safe", "matrix"] {
        assert!(
            field(table).as_arr().is_some_and(|t| !t.is_empty()),
            "{table}"
        );
    }
}

#[test]
fn audit_prints_the_text_view_it_writes_to_ascii() {
    let dir = scratch("audit-view");
    let ascii = dir.join("incident.txt");
    let (code, stdout) = repro(&["audit", "--demo-oob", "--ascii", ascii.to_str().unwrap()]);
    assert_eq!(code, 0);
    let view = std::fs::read_to_string(&ascii).unwrap();
    assert!(view.starts_with("== incident "), "{view}");
    assert!(
        stdout.starts_with(&view),
        "stdout:\n{stdout}\n--ascii:\n{view}"
    );
}

#[test]
fn render_prints_the_table_profile_printed() {
    let dir = scratch("profile-view");
    let json = dir.join("p.json");
    let json = json.to_str().unwrap();
    let (code, profiled) = repro(&["profile", "string_match", "--json", json]);
    assert_eq!(code, 0);
    let (code, rendered) = repro(&["render", json]);
    assert_eq!(code, 0);
    assert!(rendered.contains("%checks"), "{rendered}");
    assert!(
        profiled.starts_with(&rendered),
        "profile:\n{profiled}\nrender:\n{rendered}"
    );
}

#[test]
fn table4_prints_the_view_of_the_payload_it_writes() {
    let dir = scratch("table4-view");
    let json = dir.join("b.json");
    let json = json.to_str().unwrap();
    let (code, stdout) = repro(&["table4", "--tiny", "--json", json]);
    assert_eq!(code, 0);
    let doc = sgxs_obs::read::parse_bench(&std::fs::read_to_string(json).unwrap()).unwrap();
    let payload = Experiments::read(&doc)
        .unwrap()
        .table4
        .expect("table4 payload");
    let (header, rest) = stdout.split_once('\n').unwrap();
    assert!(header.starts_with("SGXBounds reproduction"), "{header}");
    assert_eq!(
        rest,
        format!("\n{payload}\n\nbench json written to {json}\n")
    );
}

#[test]
fn chaos_and_metrics_print_the_same_latency_table() {
    let run = ["--seeds", "2", "--requests", "8", "--workers", "1"];
    let (code, chaos) = repro(&[&["chaos"][..], &run].concat());
    assert_eq!(code, 0);
    let (code, table) = repro(&[&["metrics"][..], &run].concat());
    assert_eq!(code, 0);
    assert!(table.starts_with("histogram"), "{table}");
    assert!(chaos.contains(&table), "chaos:\n{chaos}\nmetrics:\n{table}");
}

#[test]
fn requests_below_the_schedule_minimum_exit_2() {
    let min = sgxs_resil::MIN_REQUESTS;
    let below = (min - 1).to_string();
    for cmd in [
        &["chaos", "--seeds", "1"][..],
        &["metrics", "--seeds", "1"][..],
        &["trace", "export"][..],
    ] {
        let argv = [cmd, &["--requests", &below]].concat();
        let e = cli::run(&args(&argv)).expect_err("--requests below the minimum accepted");
        assert!(e.contains("below the minimum"), "{argv:?}: {e}");
    }
    // The binary exits 2 on it, before running or printing anything.
    let (code, stdout) = repro(&["chaos", "--seeds", "1", "--requests", &below]);
    assert_eq!((code, stdout.as_str()), (2, ""));
}

#[test]
fn workers_above_the_cap_exit_2_before_any_thread_starts() {
    // `--seeds 1` keeps even a regression to one worker thread.
    let over = (sgxs_super::MAX_WORKERS + 1).to_string();
    let max = u64::MAX.to_string();
    for cmd in [
        &["fuzz"][..],
        &["fuzz", "--chaos"][..],
        &["chaos"][..],
        &["metrics"][..],
    ] {
        for n in [over.as_str(), max.as_str()] {
            let argv = [cmd, &["--seeds", "1", "--workers", n]].concat();
            let e = cli::run(&args(&argv)).expect_err("--workers above the cap accepted");
            assert!(e.contains("exceeds the cap"), "{argv:?}: {e}");
        }
    }
    let (code, _) = repro(&["fuzz", "--seeds", "1", "--workers", &over]);
    assert_eq!(code, 2);
}

#[test]
fn corpus_replay_over_budget_fails_naming_the_budget() {
    // An entry whose run exhausts `--budget` is no verdict, so the replay
    // cannot call the corpus clean.
    let corpus = format!(
        "{}/../../tests/corpus/fuzz_seeds.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let (code, stdout) = repro(&["fuzz", "--corpus", &corpus, "--seeds", "0", "--budget", "1"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(!stdout.contains("corpus clean"), "{stdout}");
    assert!(stdout.contains("1-instruction budget"), "{stdout}");
}
