//! Hostile-input sweep over every validating artifact reader.
//!
//! Each reader takes one real document, produced here by the same code
//! that writes the committed artifacts, in compact form (one JSON value
//! per line), and is fed three families of damaged copies:
//!
//! - prefix truncations (a file cut mid-write);
//! - seeded single-byte edits;
//! - every integer leaf set to 0, 2^63 and 2^64 − 1, one at a time, so
//!   that the readers' ledger cross-checks see values whose sums overflow.
//!   Incident ids are recomputed after the edit, as a forger would: an id
//!   is a plain FNV-1a hash of the id-blanked document, not a secret.
//!
//! Every input must come back as `Ok` or `Err`. A panic is a failure.
//! The journal case also restores every `done` checkpoint through the
//! chaos campaign, the path `repro chaos --resume` takes.
//!
//! The same test pins the round-trip law of the document declarations:
//! reading each real document and writing the declaration back gives its
//! compact bytes exactly. So do the whole committed `results/bench.json`
//! and every line of the committed `results/history.jsonl`, with their
//! experiment payloads read through the harness's `Experiments`
//! declaration.

use sgxs_audit::DEFAULT_TRACE_WINDOW;
use sgxs_fuzz::runner::{FScheme, Verdict};
use sgxs_fuzz::{run_campaign, Disagreement, FuzzOpts};
use sgxs_harness::audit::pinned_demo_incident;
use sgxs_harness::exp::Experiments;
use sgxs_harness::lint::{lint_modules, oob_demo, uaf_demo};
use sgxs_harness::{profile_one, RunConfig, Scheme};
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{
    parse_bench, parse_chaos, parse_fuzz, parse_incident, parse_journal, parse_lint, parse_metrics,
    parse_profile, BenchDoc, JournalDoc, INCIDENT_SCHEMA,
};
use sgxs_perf::{parse_history, HistoryRecord};
use sgxs_resil::{run_chaos_campaign_supervised, CampaignOpts, ChaosCampaign};
use sgxs_sim::Preset;
use sgxs_super::{Campaign, Restored, StopFlag, SuperOpts};
use sgxs_workloads::SizeClass;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Upper bound on truncation points, and the number of byte edits, per
/// document.
const CUTS: usize = 600;
const EDITS: usize = 600;

/// A reader that writes back what it read: the declaration's compact
/// serialization, or the reader's error.
type Reader = fn(&str) -> Result<String, String>;

/// The options of the chaos campaign whose journal the sweep damages.
fn chaos_opts() -> CampaignOpts {
    CampaignOpts {
        seeds: 3,
        requests: 12,
        demo_corruption: true,
        demo_panic: Some(2),
        ..CampaignOpts::default()
    }
}

/// A journal as JSONL: header, then one line per entry.
fn journal_text(doc: &JournalDoc) -> String {
    let entries = doc.entries.iter().map(Field::put);
    let lines = std::iter::once(doc.header.put()).chain(entries);
    lines.map(|l| l.to_compact() + "\n").collect()
}

/// Reads a chaos journal and restores every `done` checkpoint, as
/// `repro chaos --resume` does; writes the journal back with each payload
/// re-checkpointed from the restored deltas.
fn restore_chaos(text: &str) -> Result<String, String> {
    let mut doc = parse_journal(text)?;
    let campaign = ChaosCampaign::new(chaos_opts());
    for e in &mut doc.entries {
        if let Some(payload) = &mut e.payload {
            match campaign.restore(e.seed, payload)? {
                Restored::Value(deltas) => *payload = campaign.checkpoint(&deltas),
                Restored::Rerun => return Err("chaos checkpoints never ask for a re-run".into()),
            }
        }
    }
    Ok(journal_text(&doc))
}

/// `doc` with its experiment payloads read through [`Experiments`] and
/// written back.
fn typed(mut doc: BenchDoc) -> Result<BenchDoc, String> {
    doc.experiments = Experiments::read(&doc)?.entries();
    Ok(doc)
}

/// Every integer leaf of `v`, in document order.
fn int_leaves(v: &mut Json) -> Vec<&mut Json> {
    match v {
        Json::U64(_) | Json::I64(_) => vec![v],
        Json::Arr(items) => items.iter_mut().flat_map(int_leaves).collect(),
        Json::Obj(fields) => fields.iter_mut().flat_map(|(_, f)| int_leaves(f)).collect(),
        _ => Vec::new(),
    }
}

/// Recomputes the id of every incident in `v` over its id-blanked compact
/// form, the computation the writer and the reader both use.
fn reseal(v: &mut Json) {
    let incident = v.get("schema").and_then(Json::as_str) == Some(INCIDENT_SCHEMA);
    match v {
        Json::Arr(items) => items.iter_mut().for_each(reseal),
        Json::Obj(fields) => {
            fields.iter_mut().for_each(|(_, f)| reseal(f));
            if let (true, Some(i)) = (incident, fields.iter().position(|(k, _)| k == "id")) {
                fields[i].1 = Json::Str(String::new());
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in Json::Obj(fields.clone()).to_compact().bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                fields[i].1 = Json::Str(format!("{h:016x}"));
            }
        }
        _ => {}
    }
}

/// Every damaged copy of `doc`, each with a description.
fn damaged(doc: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for cut in (0..doc.len()).step_by((doc.len() / CUTS).max(1)) {
        if doc.is_char_boundary(cut) {
            out.push((format!("cut at byte {cut}"), doc[..cut].to_owned()));
        }
    }
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..EDITS {
        let at = (next() % doc.len() as u64) as usize;
        let b = b' ' + (next() % 95) as u8;
        if doc.as_bytes()[at].is_ascii() {
            let mut bytes = doc.as_bytes().to_vec();
            bytes[at] = b;
            let text = String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8");
            out.push((format!("byte {at} set to {:?}", b as char), text));
        }
    }
    let lines: Vec<&str> = doc.lines().collect();
    for (l, line) in lines.iter().enumerate() {
        let tree = Json::parse(line).expect("real document parses");
        for leaf in 0..int_leaves(&mut tree.clone()).len() {
            for x in [0, 1 << 63, u64::MAX] {
                let mut t = tree.clone();
                *int_leaves(&mut t)[leaf] = Json::U64(x);
                reseal(&mut t);
                let mut text: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
                text[l] = t.to_compact();
                let what = format!("line {l} integer leaf {leaf} set to {x}");
                out.push((what, text.join("\n")));
            }
        }
    }
    out
}

/// Real documents, one per reader.
fn cases() -> Vec<(&'static str, String, Reader)> {
    // The committed baseline, cut to two of its experiments: the reader
    // treats every payload alike, and the whole 55 KB document would make
    // this sweep the slowest test in the suite.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench.json");
    let text = std::fs::read_to_string(path).expect("committed bench baseline readable");
    let mut bench = Json::parse(&text).expect("committed bench baseline parses");
    if let Json::Obj(fields) = &mut bench {
        for (k, v) in fields.iter_mut() {
            if let (true, Json::Obj(exps)) = (k == "experiments", v) {
                exps.retain(|(id, _)| id == "fig1" || id == "table4");
            }
        }
    }
    let history = HistoryRecord::new("abc1234", 42, bench.clone())
        .expect("cut baseline is a bench document")
        .to_line();

    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    let w = sgxs_workloads::by_name("string_match").expect("workload registered");
    let profile = profile_one(w.as_ref(), Scheme::SgxBounds, &rc, 64, 8).profile;

    // A chaos campaign with a gate-failing corruption (so the document
    // embeds incidents) and a panicking seed (so both it and the journal
    // carry a quarantine entry).
    let dir = std::env::temp_dir().join(format!("sgxs-reader-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("chaos.jsonl").to_string_lossy().into_owned();
    let sup = SuperOpts {
        workers: 1,
        journal: Some(journal.clone()),
        quiet_panics: true,
        ..SuperOpts::default()
    };
    let chaos = run_chaos_campaign_supervised(&chaos_opts(), &sup, &StopFlag::new())
        .expect("chaos runs")
        .report;
    let journal = std::fs::read_to_string(&journal).expect("journal written");
    let _ = std::fs::remove_dir_all(&dir);

    let incident = pinned_demo_incident(DEFAULT_TRACE_WINDOW).expect("cross-tier pin holds");
    // A fuzz campaign with an over-budget seed (a quarantine entry) and a
    // disagreement carrying the demo incident: clean campaigns have none.
    let mut fuzz = run_campaign(&FuzzOpts {
        seeds: 3,
        max_ops: 8,
        demo_budget: Some(1),
        ..FuzzOpts::default()
    })
    .expect("valid options");
    fuzz.disagreements.push(Disagreement {
        seed: 0,
        kind: None,
        scheme: FScheme::SgxBounds,
        verdict: Verdict::Crash("demo".into()),
        incident: incident.clone(),
    });
    let lint = lint_modules(vec![oob_demo(), uaf_demo()], 42, true).doc;
    let metrics = chaos.metrics().to_json();
    let chaos = chaos.to_json();

    vec![
        ("parse_bench", bench.to_compact(), |t| {
            parse_bench(t).map(|d| d.put().to_compact())
        }),
        ("Experiments::read", bench.to_compact(), |t| {
            typed(parse_bench(t)?).map(|d| d.put().to_compact())
        }),
        ("parse_profile", profile.put().to_compact(), |t| {
            parse_profile(t).map(|d| d.put().to_compact())
        }),
        ("parse_metrics", metrics.to_compact(), |t| {
            parse_metrics(t).map(|d| d.put().to_compact())
        }),
        ("parse_chaos", chaos.to_compact(), |t| {
            parse_chaos(t).map(|d| d.put().to_compact())
        }),
        ("parse_incident", incident.put().to_compact(), |t| {
            parse_incident(t).map(|d| d.put().to_compact())
        }),
        ("parse_fuzz", fuzz.to_json().to_compact(), |t| {
            parse_fuzz(t).map(|d| d.put().to_compact())
        }),
        ("parse_lint", lint.to_compact(), |t| {
            parse_lint(t).map(|d| d.put().to_compact())
        }),
        ("parse_journal", journal.clone(), |t| {
            parse_journal(t).map(|d| journal_text(&d))
        }),
        ("restore_chaos", journal, restore_chaos),
        ("parse_history", history, |t| {
            let records = parse_history(t)?;
            Ok(records.iter().map(HistoryRecord::to_line).collect())
        }),
    ]
}

#[test]
fn readers_return_ok_or_err_on_damaged_documents_never_panic() {
    let cases = cases();
    for (reader, doc, read) in &cases {
        match read(doc) {
            Ok(back) => assert_eq!(&back, doc, "{reader}: writing back changes its document"),
            Err(e) => panic!("{reader} rejects its own real document: {e}"),
        }
    }
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();
    for (reader, doc, read) in cases {
        let inputs = damaged(&doc);
        let panicked: Vec<&str> = inputs
            .iter()
            .filter(|(_, text)| catch_unwind(AssertUnwindSafe(|| read(text))).is_err())
            .map(|(what, _)| what.as_str())
            .collect();
        if !panicked.is_empty() {
            failures.push(format!(
                "{reader}: {} of {} damaged inputs panicked, e.g. {}",
                panicked.len(),
                inputs.len(),
                panicked[..panicked.len().min(3)].join("; ")
            ));
        }
    }
    std::panic::set_hook(hook);
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    // The whole committed baseline and every committed history line
    // re-serialize byte for byte, payloads included.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/bench.json");
    let text = std::fs::read_to_string(path).expect("committed bench baseline readable");
    let doc = parse_bench(&text)
        .and_then(typed)
        .expect("committed baseline reads");
    assert_eq!(
        doc.put().to_pretty(),
        text,
        "results/bench.json does not round-trip"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/history.jsonl");
    let text = std::fs::read_to_string(path).expect("committed history readable");
    let records = parse_history(&text).expect("committed history parses");
    let back: String = records
        .into_iter()
        .map(|mut r| {
            r.bench = typed(r.bench).expect("committed history payloads read");
            r.to_line() + "\n"
        })
        .collect();
    assert_eq!(back, text, "results/history.jsonl does not round-trip");
}
