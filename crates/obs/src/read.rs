//! Readers for the artifact documents declared in [`crate::schema`]:
//! `sgxs-bench-v1` (`repro ... --json`), `sgxs-profile-v1` (`repro
//! profile ... --json`), `sgxs-metrics-v1` (`repro metrics --json`, also
//! the `latency` block of chaos documents), `sgxs-chaos-v1` (`repro chaos
//! --json`), `sgxs-incident-v1` (`repro audit --json`, also embedded in
//! fuzz and chaos documents), `sgxs-fuzz-v1` (`repro fuzz --json`),
//! `sgxs-lint-v1`/`-v2` (`repro lint --json`) and the `sgxs-campaign-v1`
//! journal (`--journal`).
//!
//! Each reader takes the structure from the document's declaration
//! ([`Field::take`]: every key present, every value of its declared
//! type, schema tags exact) and adds only what a structure cannot say: the
//! domain cross-checks that tie fields together — ledger sums, the
//! percentile chain, the incident id recompute, neighbourhood geometry,
//! the journal seed range — and the checks that a value the writer
//! derives (`check_pct`, `heap_benign`, a failure class) is what the
//! writer would have derived. Keys a reader does not know are ignored;
//! bench experiment payloads stay free-form JSON, since the analysis tier
//! works on their flattened numeric leaves. All errors are `Err(String)`s
//! naming the offending path; no input, however malformed or truncated,
//! panics.

use crate::codec::Field;
use crate::json::Json;

pub use crate::schema::*;

/// The sum of `xs`, or `None` when it overflows `u64`. The ledger
/// cross-checks add untrusted counts, so a forged document must not be
/// able to wrap a sum onto the value it is checked against.
fn checked_sum(xs: impl IntoIterator<Item = u64>) -> Option<u64> {
    xs.into_iter().try_fold(0u64, u64::checked_add)
}

fn parsed(text: &str, what: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| format!("{what}: {e}"))
}

fn check_class(class: &str, what: &str) -> Result<(), String> {
    if FAILURE_CLASSES.contains(&class) {
        Ok(())
    } else {
        Err(format!(
            "{what}: failure class '{class}' is not one of {FAILURE_CLASSES:?}"
        ))
    }
}

/// Interprets an already-parsed JSON value as a bench document.
pub fn bench_from_json(v: &Json) -> Result<BenchDoc, String> {
    BenchDoc::take(v, "bench")
}

/// Parses a `sgxs-bench-v1` document from text.
pub fn parse_bench(text: &str) -> Result<BenchDoc, String> {
    bench_from_json(&parsed(text, "bench")?)
}

/// Interprets an already-parsed JSON value as a profile document,
/// checking what the writer derives: the attribution sums to
/// `cpu_cycles` and its percentage is [`Profile::check_pct`], the top
/// sites account for no more than `check_cycles`, and
/// `top_sites.len() <= sites_active <= sites_total`.
pub fn profile_from_json(v: &Json) -> Result<Profile, String> {
    let what = "profile";
    let p = Profile::take(v, what)?;
    let a = &p.attribution;
    if checked_sum([a.app_cycles, a.check_cycles]) != Some(p.cpu_cycles) {
        return Err(format!(
            "{what}: attribution does not sum (app {} + checks {} != cpu {})",
            a.app_cycles, a.check_cycles, p.cpu_cycles
        ));
    }
    if a.check_pct != p.check_pct() {
        return Err(format!(
            "{what}: attribution.check_pct {} is not the checks' share of cpu ({})",
            a.check_pct,
            p.check_pct()
        ));
    }
    let top_cycles = checked_sum(p.top_sites.iter().map(|s| s.cycles));
    if top_cycles.is_none_or(|c| c > a.check_cycles) {
        return Err(format!(
            "{what}: top_sites cycles exceed check_cycles {}",
            a.check_cycles
        ));
    }
    if p.top_sites.len() > p.sites_active || p.sites_active > p.sites_total {
        return Err(format!(
            "{what}: {} top sites, {} active, {} total (want top <= active <= total)",
            p.top_sites.len(),
            p.sites_active,
            p.sites_total
        ));
    }
    Ok(p)
}

/// Parses a `sgxs-profile-v1` document from text.
pub fn parse_profile(text: &str) -> Result<Profile, String> {
    profile_from_json(&parsed(text, "profile")?)
}

/// The last bucket index a histogram has: `Hist::bucket_index(u64::MAX)`
/// in `sgxs-metrics`, which pins the two equal.
pub const MAX_BUCKET_INDEX: u64 = 975;

/// Checks a histogram's serialized parts: bucket indices strictly
/// ascending and at most [`MAX_BUCKET_INDEX`], no zero-count bucket,
/// bucket counts summing to `count`, and `min <= max`. Shared by the
/// metrics reader's hist rows and the chaos journal checkpoint, whose
/// restore builds a dense bucket vector as long as the largest index.
pub fn check_hist_parts(
    count: u64,
    min: u64,
    max: u64,
    buckets: &[(u64, u64)],
) -> Result<(), String> {
    if !buckets.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("bucket indices not strictly ascending".into());
    }
    if let Some(&(idx, _)) = buckets.last().filter(|(i, _)| *i > MAX_BUCKET_INDEX) {
        return Err(format!(
            "bucket index {idx} past the last bucket {MAX_BUCKET_INDEX}"
        ));
    }
    if buckets.iter().any(|&(_, n)| n == 0) {
        return Err("zero-count bucket serialized".into());
    }
    match checked_sum(buckets.iter().map(|&(_, n)| n)) {
        Some(total) if total == count => {}
        Some(total) => return Err(format!("bucket counts sum to {total}, count says {count}")),
        None => return Err("bucket counts overflow u64".into()),
    }
    if min > max {
        return Err(format!("min {min} > max {max}"));
    }
    Ok(())
}

fn check_metrics(doc: &MetricsDoc, what: &str) -> Result<(), String> {
    for (i, h) in doc.hists.iter().enumerate() {
        let what = format!("{what} hists[{i}]");
        check_hist_parts(h.count, h.min, h.max, &h.buckets).map_err(|e| format!("{what}: {e}"))?;
        let chain = [h.p50, h.p90, h.p99, h.p999];
        if !chain.windows(2).all(|w| w[0] <= w[1]) || h.p999 > h.max {
            return Err(format!(
                "{what}: percentile chain not monotone within [.., max] \
                 (p50 {} p90 {} p99 {} p999 {} max {})",
                h.p50, h.p90, h.p99, h.p999, h.max
            ));
        }
    }
    Ok(())
}

/// Interprets an already-parsed JSON value as a metrics document,
/// validating the internal consistency every consumer relies on
/// ([`check_hist_parts`] per histogram, and the percentile chain monotone
/// and bounded by `max`).
pub fn metrics_from_json(v: &Json) -> Result<MetricsDoc, String> {
    let doc = MetricsDoc::take(v, "metrics")?;
    check_metrics(&doc, "metrics")?;
    Ok(doc)
}

/// Parses a `sgxs-metrics-v1` document from text.
pub fn parse_metrics(text: &str) -> Result<MetricsDoc, String> {
    metrics_from_json(&parsed(text, "metrics")?)
}

/// Interprets an already-parsed JSON value as a chaos-campaign document,
/// cross-validating each combo's request ledger (the scheduled total is
/// `runs × requests`, the outcomes sum to it, availability matches the
/// counts), the latency block
/// (a valid metrics document whose per-combo histogram counted every
/// attempted request), every embedded incident, the coverage ledger
/// against the combos and the quarantine list, and the gate flag against
/// its failure list.
pub fn chaos_from_json(v: &Json) -> Result<ChaosDoc, String> {
    let what = "chaos";
    let doc = ChaosDoc::take(v, what)?;
    check_metrics(&doc.latency, &format!("{what} latency block"))?;
    for (i, c) in doc.combos.iter().enumerate() {
        let what = format!("{what} combos[{i}]");
        if checked_sum([c.served, c.degraded, c.aborted, c.lost]) != Some(c.total) {
            return Err(format!(
                "{what}: outcomes do not sum ({} + {} + {} + {} != {})",
                c.served, c.degraded, c.aborted, c.lost, c.total
            ));
        }
        let expect = if c.total == 0 {
            1.0
        } else {
            (c.served + c.degraded) as f64 / c.total as f64
        };
        if (c.availability - expect).abs() > 1e-9 {
            return Err(format!(
                "{what}: availability {} does not match the counts ({expect})",
                c.availability
            ));
        }
        if c.runs.checked_mul(doc.requests) != Some(c.total) {
            return Err(format!(
                "{what}: {} requests scheduled over {} run(s) of {} requests",
                c.total, c.runs, doc.requests
            ));
        }
        let name = format!("latency/{}/{}", c.scheme, c.policy);
        let h = doc
            .latency
            .hist(&name)
            .ok_or_else(|| format!("{what}: latency block missing histogram '{name}'"))?;
        let attempted = c.served + c.degraded + c.aborted;
        if h.count != attempted {
            return Err(format!(
                "{what}: '{name}' counted {} samples, ledger attempted {attempted}",
                h.count
            ));
        }
    }
    for (i, inc) in doc.incidents.iter().enumerate() {
        check_incident(inc).map_err(|e| format!("{what} incidents[{i}]: {e}"))?;
    }
    let cov = &doc.coverage;
    check_coverage(cov, &doc.quarantine, what)?;
    if let Some(c) = doc.combos.iter().find(|c| c.runs != cov.completed) {
        return Err(format!(
            "{what}: combo {}/{} absorbed {} run(s), coverage says {} completed",
            c.scheme, c.policy, c.runs, cov.completed
        ));
    }
    if doc.gate.failed == doc.gate.failures.is_empty() {
        return Err(format!(
            "{what}: gate.failed is {} but {} failure(s) listed",
            doc.gate.failed,
            doc.gate.failures.len()
        ));
    }
    Ok(doc)
}

/// Parses a `sgxs-chaos-v1` document from text.
pub fn parse_chaos(text: &str) -> Result<ChaosDoc, String> {
    chaos_from_json(&parsed(text, "chaos")?)
}

/// The domain checks of an incident document: the id recomputes, the
/// tagged-address decode is consistent, every neighborhood row's bounds
/// and distance agree with the faulting address, the recovery decision
/// matches its counts, and the trace tail's absolute indices ascend
/// strictly within the declared window.
fn check_incident(d: &IncidentDoc) -> Result<(), String> {
    let want = d.content_id();
    if d.id != want {
        return Err(format!(
            "id '{}' does not match the document content (expected '{want}')",
            d.id
        ));
    }
    if let Some(f) = &d.fault {
        if f.kind != "load" && f.kind != "store" {
            return Err(format!("fault: kind '{}' is not load/store", f.kind));
        }
        if f.ptr != f.raw_addr & 0xffff_ffff || f.tag_ub != f.raw_addr >> 32 {
            return Err(format!(
                "fault: ptr/tag_ub do not decode raw_addr {:#x}",
                f.raw_addr
            ));
        }
    }
    let r = &d.recovery;
    let expect = recovery_decision(r.attempts, r.degraded, r.gave_up);
    if r.decision != expect {
        return Err(format!(
            "recovery decision '{}' does not match the counts (expected '{expect}')",
            r.decision
        ));
    }
    let heap = &d.heap;
    if heap.objects_live > heap.objects_total {
        return Err(format!(
            "{} live objects but only {} total",
            heap.objects_live, heap.objects_total
        ));
    }
    for (i, n) in heap.neighborhood.iter().enumerate() {
        let what = format!("neighborhood[{i}]");
        if n.base.checked_add(n.size) != Some(n.ub) {
            return Err(format!(
                "{what}: ub {} != base {} + size {}",
                n.ub, n.base, n.size
            ));
        }
        if n.free_at.is_some_and(|free_at| free_at < n.birth_at) {
            return Err(format!("{what}: freed before born (ins {})", n.birth_at));
        }
        let f = d
            .fault
            .as_ref()
            .ok_or_else(|| format!("{what}: neighborhood present without a fault address"))?;
        let expect = match n.relation.as_str() {
            "contains" if f.ptr >= n.base && f.ptr < n.ub => 0,
            "before" if f.ptr >= n.ub => f.ptr - n.ub + 1,
            "after" if f.ptr < n.base => n.base - f.ptr,
            other => {
                return Err(format!(
                    "{what}: relation '{other}' inconsistent with ptr {:#x} and [{:#x}..{:#x})",
                    f.ptr, n.base, n.ub
                ))
            }
        };
        if n.distance != expect {
            return Err(format!(
                "{what}: distance {} does not match ptr {:#x} (expected {expect})",
                n.distance, f.ptr
            ));
        }
    }
    if heap.neighborhood.len() as u64 > heap.objects_total {
        return Err(format!(
            "neighborhood has {} rows but the ledger saw {} objects",
            heap.neighborhood.len(),
            heap.objects_total
        ));
    }
    let tr = &d.trace;
    if tr.events.len() as u64 > tr.window {
        return Err(format!(
            "{} trace events exceed the declared window {}",
            tr.events.len(),
            tr.window
        ));
    }
    if !tr.events.windows(2).all(|w| w[0].index < w[1].index) {
        return Err("trace indices not strictly ascending".into());
    }
    if let Some(last) = tr.events.last().filter(|e| e.index >= tr.total) {
        return Err(format!(
            "trace index {} out of range (total {})",
            last.index, tr.total
        ));
    }
    if d.digest.len() != 16 || !d.digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("digest '{}' is not 16 hex digits", d.digest));
    }
    Ok(())
}

/// Interprets an already-parsed JSON value as an incident document and
/// applies its domain checks (see [`IncidentDoc::content_id`]).
pub fn incident_from_json(v: &Json) -> Result<IncidentDoc, String> {
    let doc = IncidentDoc::take(v, "incident")?;
    check_incident(&doc).map_err(|e| format!("incident: {e}"))?;
    Ok(doc)
}

/// Parses a `sgxs-incident-v1` document from text.
pub fn parse_incident(text: &str) -> Result<IncidentDoc, String> {
    incident_from_json(&parsed(text, "incident")?)
}

/// Checks a campaign's coverage ledger: its counts sum to `seeds`, and
/// the quarantine list has one entry of a known class per quarantined
/// seed.
fn check_coverage(cov: &Coverage, quarantine: &[Quarantined], what: &str) -> Result<(), String> {
    if checked_sum([cov.completed, cov.quarantined, cov.skipped]) != Some(cov.seeds) {
        return Err(format!(
            "{what}: coverage does not sum ({} + {} + {} != {})",
            cov.completed, cov.quarantined, cov.skipped, cov.seeds
        ));
    }
    if quarantine.len() as u64 != cov.quarantined {
        return Err(format!(
            "{what}: {} quarantine entr(ies) listed, coverage says {}",
            quarantine.len(),
            cov.quarantined
        ));
    }
    for (i, q) in quarantine.iter().enumerate() {
        check_class(&q.class, &format!("{what} quarantine[{i}]"))?;
    }
    Ok(())
}

/// Parses a `sgxs-fuzz-v1` document from text, checking each safe row's
/// outcomes sum to its total, each matrix cell's verdicts and
/// disagreements fit in its total, the coverage ledger against `programs`
/// and the quarantine list, and every embedded incident.
pub fn parse_fuzz(text: &str) -> Result<FuzzDoc, String> {
    let what = "fuzz";
    let doc = FuzzDoc::take(&parsed(text, what)?, what)?;
    for (i, s) in doc.safe.iter().enumerate() {
        if checked_sum([s.passes, s.false_positives, s.mismatches, s.crashes]) != Some(s.total) {
            return Err(format!(
                "{what} safe[{i}]: outcomes do not sum to total {}",
                s.total
            ));
        }
    }
    for (i, c) in doc.matrix.iter().enumerate() {
        let verdicts = checked_sum([c.detected, c.wrong_site, c.missed, c.tolerated, c.crashed]);
        if verdicts.is_none_or(|n| n > c.total) || c.disagreements > c.total {
            return Err(format!(
                "{what} matrix[{i}]: verdicts or disagreements exceed total {}",
                c.total
            ));
        }
    }
    check_coverage(&doc.coverage, &doc.quarantine, what)?;
    if doc.programs != doc.coverage.completed {
        return Err(format!(
            "{what}: {} programs, coverage says {} completed",
            doc.programs, doc.coverage.completed
        ));
    }
    for (i, d) in doc.disagreements.iter().enumerate() {
        check_incident(&d.incident)
            .map_err(|e| format!("{what} disagreements[{i}].incident: {e}"))?;
    }
    Ok(doc)
}

fn check_lint_summary(s: &LintSummary, what: &str) -> Result<(), String> {
    if s.frees_params.len() != s.must_frees_params.len()
        || s.frees_params.len() != s.captures_params.len()
    {
        return Err(format!(
            "{what}: parameter effect arrays disagree in length"
        ));
    }
    // must-freed is a subset of may-freed by construction.
    if s.must_frees_params
        .iter()
        .zip(&s.frees_params)
        .any(|(must, may)| *must && !*may)
    {
        return Err(format!("{what}: must-freed param not in may-freed set"));
    }
    let benign = !s.frees_unknown && !s.frees_params.contains(&true);
    if s.heap_benign != benign {
        return Err(format!(
            "{what}: heap_benign is {} but the free sets say {benign}",
            s.heap_benign
        ));
    }
    Ok(())
}

fn check_lint_module(m: &LintModule, v2: bool, what: &str) -> Result<(), String> {
    let v2_keys = [
        m.proved_uaf.is_some(),
        m.proved_df.is_some(),
        m.leaks.is_some(),
        m.temporal.is_some(),
        m.call_graph.is_some(),
        m.summaries.is_some(),
    ];
    if v2_keys.iter().any(|&present| present != v2) {
        return Err(format!(
            "{what}: v2 module keys must be present exactly in v2 documents"
        ));
    }
    if checked_sum([m.proved_safe, m.unknown, m.proved_oob]) != Some(m.sites) {
        return Err(format!("{what}: classification counts do not sum to sites"));
    }
    if m.proved_oob != m.findings.len() as u64 {
        return Err(format!("{what}: proved_oob disagrees with findings length"));
    }
    for f in &m.findings {
        match (f.offset_lo, f.offset_hi) {
            (None, None) => {}
            (Some(lo), Some(hi)) if lo <= hi => {}
            (lo, hi) => {
                return Err(format!(
                    "{what}: offset bounds {lo:?}..{hi:?} are not both null or lo <= hi"
                ))
            }
        }
    }
    let temporal = m.temporal.as_deref().unwrap_or_default();
    if let Some(t) = temporal
        .iter()
        .find(|t| !matches!(t.kind.as_str(), "uaf" | "df" | "leak"))
    {
        return Err(format!("{what}: unknown temporal kind '{}'", t.kind));
    }
    let counts = [m.proved_uaf, m.proved_df, m.leaks].map(Option::unwrap_or_default);
    if checked_sum(counts) != Some(temporal.len() as u64) {
        return Err(format!(
            "{what}: temporal counts disagree with temporal findings length"
        ));
    }
    let summaries = m.summaries.as_deref().unwrap_or_default();
    if summaries.len() != m.call_graph.as_ref().map_or(0, Vec::len) {
        return Err(format!("{what}: summaries/call_graph length mismatch"));
    }
    summaries
        .iter()
        .try_for_each(|s| check_lint_summary(s, what))
}

/// Interprets an already-parsed JSON value as a lint document (v1 or v2),
/// checking the v2 keys are present exactly in v2 documents, every
/// module's counts against its findings, the summaries' derived fields,
/// and the document totals against the module sums.
pub fn lint_from_json(v: &Json) -> Result<LintDoc, String> {
    let what = "lint";
    let v2 = match v.get("schema").and_then(Json::as_str) {
        Some(LINT_SCHEMA) => false,
        Some(LINT_SCHEMA_V2) => true,
        other => {
            return Err(format!(
                "{what}: schema is '{}', expected '{LINT_SCHEMA}' or '{LINT_SCHEMA_V2}'",
                other.unwrap_or("?")
            ))
        }
    };
    let doc = LintDoc::take(v, what)?;
    let v2_keys = [
        doc.ipa == Some(true),
        doc.proved_uaf.is_some(),
        doc.proved_df.is_some(),
        doc.leaks.is_some(),
    ];
    if v2_keys.iter().any(|&present| present != v2) || doc.ipa == Some(false) {
        return Err(format!(
            "{what}: v2 keys must be present (with ipa true) exactly in v2 documents"
        ));
    }
    for (i, m) in doc.modules.iter().enumerate() {
        check_lint_module(m, v2, &format!("{what} modules[{i}]"))?;
    }
    let sum = |f: fn(&LintModule) -> Option<u64>| {
        checked_sum(doc.modules.iter().map(|m| f(m).unwrap_or_default()))
    };
    if Some(doc.proved_oob) != sum(|m| Some(m.proved_oob))
        || Some(doc.proved_uaf.unwrap_or_default()) != sum(|m| m.proved_uaf)
        || Some(doc.proved_df.unwrap_or_default()) != sum(|m| m.proved_df)
        || Some(doc.leaks.unwrap_or_default()) != sum(|m| m.leaks)
    {
        return Err(format!("{what}: document totals disagree with module sums"));
    }
    Ok(doc)
}

/// Parses a `sgxs-lint-v1`/`sgxs-lint-v2` document from text.
pub fn parse_lint(text: &str) -> Result<LintDoc, String> {
    lint_from_json(&parsed(text, "lint")?)
}

/// A parsed `sgxs-campaign-v1` journal: the header handshake plus every
/// checkpointed seed, in completion order.
#[derive(Debug, Clone)]
pub struct JournalDoc {
    /// The header line.
    pub header: JournalHeader,
    /// Checkpointed seeds, journal order.
    pub entries: Vec<JournalEntry>,
}

/// Parses a `sgxs-campaign-v1` journal from JSONL text: a schema-tagged
/// header line followed by one entry per checkpointed seed. Validates the
/// entry shape (status vocabulary, seed inside the declared range, `done`
/// carries a payload, `quarantined` carries a failure of a known class)
/// and rejects a seed journaled twice — an interrupted writer never
/// produces one, so a duplicate means the file was corrupted or
/// concatenated.
pub fn parse_journal(text: &str) -> Result<JournalDoc, String> {
    let what = "journal";
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines
        .next()
        .ok_or_else(|| format!("{what}: empty journal (no header line)"))?;
    let header = JournalHeader::take(&parsed(header_line, "journal header")?, what)?;
    let (lo, hi) = (header.seed0, header.seed0.saturating_add(header.seeds));
    let mut seen = std::collections::BTreeSet::new();
    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        let what = format!("journal entries[{i}]");
        let e = JournalEntry::take(&parsed(line, &what)?, &what)?;
        if e.seed < lo || e.seed >= hi {
            return Err(format!(
                "{what}: seed {} outside the journal's range [{lo}, {hi})",
                e.seed
            ));
        }
        if !seen.insert(e.seed) {
            return Err(format!("{what}: seed {} journaled twice", e.seed));
        }
        if e.attempts == 0 {
            return Err(format!("{what}: attempts must be at least 1"));
        }
        match (e.status.as_str(), &e.payload, &e.failure) {
            ("done", Some(_), None) => {}
            ("done", ..) => {
                return Err(format!(
                    "{what}: 'done' entry needs a 'payload' and no 'failure'"
                ))
            }
            ("quarantined", None, Some(f)) => check_class(&f.class, &what)?,
            ("quarantined", ..) => {
                return Err(format!(
                    "{what}: 'quarantined' entry needs a 'failure' and no 'payload'"
                ))
            }
            (other, ..) => {
                return Err(format!(
                    "{what}: unknown status '{other}' (expected 'done' or 'quarantined')"
                ))
            }
        }
        entries.push(e);
    }
    Ok(JournalDoc { header, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceRecorder};

    /// A profile of two sites (10 and 30 check cycles) in 200 CPU cycles.
    fn sample_profile_json() -> Json {
        let mut r = TraceRecorder::new(8);
        let exec = |site, cycles| crate::Event::CheckExec { site, cycles };
        r.record(1, exec(0, 10));
        r.record(2, exec(1, 30));
        let labels = vec![
            ("main".to_owned(), "sb_full".to_owned()),
            ("work".to_owned(), "sb_full".to_owned()),
        ];
        Profile::build("w", "sgxbounds", &r, &labels, 100, 200, 5).put()
    }

    /// Replaces every `from` in the compact form of `j`.
    fn forged(j: &Json, from: &str, to: &str) -> String {
        let text = j.to_compact();
        assert!(text.contains(from), "{from} not in {text}");
        text.replace(from, to)
    }

    #[test]
    fn emitted_profile_parses_back() {
        let j = sample_profile_json();
        let doc = parse_profile(&j.to_pretty()).expect("own output parses");
        assert_eq!(doc.workload, "w");
        assert_eq!(doc.attribution.check_cycles, 40);
        assert_eq!(doc.attribution.check_pct, 20.0);
        assert_eq!(
            doc.attribution.app_cycles + doc.attribution.check_cycles,
            doc.cpu_cycles
        );
        assert_eq!(doc.top_sites.len(), 2);
        assert_eq!(doc.top_sites[0].func, "work");
        assert_eq!(doc.put(), j);
    }

    #[test]
    fn profile_readers_check_what_the_writer_derives() {
        let j = sample_profile_json();
        // Top-site cycles beyond check_cycles, including a sum that wraps.
        let e = parse_profile(&forged(&j, "\"cycles\":10", "\"cycles\":11")).unwrap_err();
        assert!(e.contains("exceed check_cycles"), "{e}");
        let huge = "\"cycles\":9223372036854775808";
        let text = forged(&j, "\"cycles\":10", huge).replace("\"cycles\":30", huge);
        let e = parse_profile(&text).unwrap_err();
        assert!(e.contains("exceed check_cycles"), "{e}");
        // top_sites.len() <= sites_active <= sites_total.
        let e = parse_profile(&forged(&j, "\"sites_active\":2", "\"sites_active\":1")).unwrap_err();
        assert!(e.contains("top <= active <= total"), "{e}");
        let e = parse_profile(&forged(&j, "\"sites_total\":2", "\"sites_total\":1")).unwrap_err();
        assert!(e.contains("top <= active <= total"), "{e}");
        // check_pct is the checks' share of cpu, not a free number.
        let e = parse_profile(&forged(&j, "\"check_pct\":20.0", "\"check_pct\":2.0")).unwrap_err();
        assert!(e.contains("check_pct"), "{e}");
    }

    #[test]
    fn committed_bench_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench.json");
        let text = std::fs::read_to_string(path).expect("committed baseline exists");
        let doc = parse_bench(&text).expect("committed baseline parses");
        assert_eq!(doc.preset, "Tiny");
        assert_eq!(doc.effort, "Quick");
        for key in ["fig1", "fig7", "fig8", "table4", "cases"] {
            assert!(
                doc.experiments.iter().any(|(k, _)| k == key),
                "missing {key}"
            );
        }
        assert_eq!(
            doc.put().to_pretty(),
            text,
            "the declaration writes it back"
        );
    }

    #[test]
    fn wrong_schema_is_rejected_without_panic() {
        let j = Json::obj(vec![("schema", "sgxs-bench-v9".into())]);
        let e = bench_from_json(&j).unwrap_err();
        assert!(e.contains("sgxs-bench-v9"), "{e}");
        let e = parse_profile(&j.to_compact()).unwrap_err();
        assert!(e.contains("schema"), "{e}");
    }

    #[test]
    fn truncated_and_nonobject_inputs_error_gracefully() {
        assert!(parse_bench("{\"schema\": \"sgxs-b").is_err());
        assert!(parse_bench("[1, 2, 3]").is_err());
        assert!(parse_profile("").is_err());
    }

    #[test]
    fn nonfinite_numbers_are_rejected() {
        let text = r#"{"schema": "sgxs-bench-v1", "preset": "Tiny",
                       "effort": "Quick", "experiments": {"fig1": {"x": 1e999}}}"#;
        let e = parse_bench(text).unwrap_err();
        assert!(e.contains("non-finite"), "{e}");
    }

    #[test]
    fn bench_envelope_fields_are_required() {
        for key in ["preset", "effort", "experiments"] {
            let mut j = Json::parse(
                r#"{"schema": "sgxs-bench-v1", "preset": "Tiny", "effort": "Quick",
                    "experiments": {}}"#,
            )
            .unwrap();
            if let Json::Obj(fields) = &mut j {
                fields.retain(|(k, _)| k != key);
            }
            let e = bench_from_json(&j).unwrap_err();
            assert!(e.contains(key), "{e}");
        }
    }

    /// A handcrafted, internally consistent metrics document: two samples
    /// (7 and 7) in one histogram, one counter, one gauge.
    fn sample_metrics_text() -> String {
        r#"{
            "schema": "sgxs-metrics-v1",
            "counters": {"requests/native/abort/served": 2},
            "gauges": {"latency_max/native/abort": 7},
            "hists": [{
                "name": "latency/native/abort",
                "count": 2, "sum": 14, "min": 7, "max": 7,
                "p50": 7, "p90": 7, "p99": 7, "p999": 7,
                "buckets": [[7, 2]]
            }]
        }"#
        .to_owned()
    }

    #[test]
    fn handcrafted_metrics_doc_parses() {
        let doc = parse_metrics(&sample_metrics_text()).expect("valid doc parses");
        assert_eq!(doc.counter("requests/native/abort/served"), Some(2));
        assert_eq!(doc.gauges, vec![("latency_max/native/abort".to_owned(), 7)]);
        let h = doc.hist("latency/native/abort").expect("hist present");
        assert_eq!((h.count, h.sum, h.p999), (2, 14, 7));
        assert_eq!(h.buckets, vec![(7, 2)]);
    }

    #[test]
    fn metrics_internal_consistency_is_enforced() {
        // Bucket counts must sum to `count`.
        let bad = sample_metrics_text().replace("\"count\": 2", "\"count\": 3");
        let e = parse_metrics(&bad).unwrap_err();
        assert!(e.contains("sum to"), "{e}");
        // Bucket counts whose sum wraps u64 onto `count` are rejected.
        let bad = sample_metrics_text()
            .replace("\"count\": 2", "\"count\": 0")
            .replace(
                "[[7, 2]]",
                "[[1, 9223372036854775808], [2, 9223372036854775808]]",
            );
        let e = parse_metrics(&bad).unwrap_err();
        assert!(e.contains("overflow"), "{e}");
        // The percentile chain must be monotone and bounded by max.
        let bad = sample_metrics_text().replace("\"p999\": 7", "\"p999\": 9");
        let e = parse_metrics(&bad).unwrap_err();
        assert!(e.contains("percentile"), "{e}");
        // Bucket indices must ascend strictly.
        let bad = sample_metrics_text()
            .replace("\"count\": 2", "\"count\": 4")
            .replace("[[7, 2]]", "[[7, 2], [7, 2]]");
        let e = parse_metrics(&bad).unwrap_err();
        assert!(e.contains("ascending"), "{e}");
        // No histogram has a bucket past the one u64::MAX lands in.
        let bad = sample_metrics_text().replace("[[7, 2]]", "[[976, 2]]");
        let e = parse_metrics(&bad).unwrap_err();
        assert!(e.contains("past the last bucket"), "{e}");
        assert!(parse_metrics(&sample_metrics_text().replace("[[7, 2]]", "[[975, 2]]")).is_ok());
        // Wrong schema tag.
        let bad = sample_metrics_text().replace("metrics-v1", "metrics-v9");
        assert!(parse_metrics(&bad).is_err());
    }

    /// A handcrafted chaos document whose single combo attempted 3 of 4
    /// requests, with a matching latency block, no incidents, and full
    /// coverage of its one seed.
    fn sample_chaos_text() -> String {
        r#"{
            "schema": "sgxs-chaos-v1",
            "seeds": 1, "seed0": 42, "requests": 4, "threshold": 0.5,
            "combos": [{
                "scheme": "sgxbounds", "policy": "graceful",
                "runs": 1, "total": 4,
                "served": 2, "degraded": 1, "aborted": 0, "lost": 1,
                "retries": 0, "corrupted_runs": 0, "corrupted_bytes": 0,
                "aex_cycles": 120, "availability": 0.75
            }],
            "latency": {
                "schema": "sgxs-metrics-v1",
                "counters": {}, "gauges": {},
                "hists": [{
                    "name": "latency/sgxbounds/graceful",
                    "count": 3, "sum": 30, "min": 8, "max": 12,
                    "p50": 9, "p90": 12, "p99": 12, "p999": 12,
                    "buckets": [[8, 1], [9, 1], [12, 1]]
                }]
            },
            "incidents": [],
            "coverage": {"seeds": 1, "completed": 1, "quarantined": 0, "skipped": 0},
            "quarantine": [],
            "gate": {"failed": false, "failures": []}
        }"#
        .to_owned()
    }

    /// `j` with its top-level `key` set to `v` (or removed, for `None`).
    fn with_key(j: &Json, key: &str, v: Option<Json>) -> Json {
        let mut j = j.clone();
        if let Json::Obj(fields) = &mut j {
            match v {
                Some(v) => fields
                    .iter_mut()
                    .filter(|(k, _)| k == key)
                    .for_each(|(_, x)| *x = v.clone()),
                None => fields.retain(|(k, _)| k != key),
            }
        }
        j
    }

    #[test]
    fn handcrafted_chaos_doc_parses() {
        let doc = parse_chaos(&sample_chaos_text()).expect("valid doc parses");
        assert_eq!((doc.seeds, doc.seed0, doc.requests), (1, 42, 4));
        assert_eq!(doc.threshold, 0.5);
        assert!(!doc.gate.failed);
        assert_eq!(doc.combos.len(), 1);
        let c = &doc.combos[0];
        assert_eq!(
            (c.scheme.as_str(), c.policy.as_str()),
            ("sgxbounds", "graceful")
        );
        assert_eq!(c.served + c.degraded + c.aborted + c.lost, c.total);
        let h = doc.latency.hist("latency/sgxbounds/graceful").unwrap();
        assert_eq!(h.count, c.served + c.degraded + c.aborted);
    }

    #[test]
    fn chaos_cross_validation_is_enforced() {
        // Ledger must sum: served+degraded+aborted+lost == total.
        let bad = sample_chaos_text().replace("\"lost\": 1", "\"lost\": 2");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("sum"), "{e}");
        // ...without wrapping: 2^64 - 1 + 1 is not 0.
        let bad = sample_chaos_text()
            .replace("\"total\": 4", "\"total\": 0")
            .replace("\"served\": 2", "\"served\": 18446744073709551615")
            .replace("\"lost\": 1", "\"lost\": 0");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("outcomes do not sum"), "{e}");
        // Availability must match the counts.
        let bad = sample_chaos_text().replace("0.75", "0.9");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("availability"), "{e}");
        // The latency histogram must have counted every attempted request.
        let bad = sample_chaos_text()
            .replace("\"count\": 3, \"sum\": 30", "\"count\": 2, \"sum\": 18")
            .replace("[[8, 1], [9, 1], [12, 1]]", "[[8, 1], [12, 1]]");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("ledger attempted"), "{e}");
        // Every run schedules `requests` requests: a document recording
        // fewer than its combos ran is refused.
        let bad = sample_chaos_text().replace("\"requests\": 4", "\"requests\": 2");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("4 requests scheduled over 1 run(s) of 2"), "{e}");
        let bad =
            sample_chaos_text().replace("\"requests\": 4", "\"requests\": 18446744073709551615");
        assert!(parse_chaos(&bad).is_err());
        // The gate flag must agree with the failure list.
        let bad = sample_chaos_text().replace("\"failed\": false", "\"failed\": true");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("gate.failed"), "{e}");
        // Pre-metrics, pre-audit and pre-supervisor documents (no latency,
        // incidents, or coverage/quarantine blocks) are rejected: no
        // emitter writes them.
        let j = Json::parse(&sample_chaos_text()).unwrap();
        for key in ["latency", "incidents", "coverage", "quarantine"] {
            let e = chaos_from_json(&with_key(&j, key, None)).unwrap_err();
            assert!(e.contains(&format!("missing field '{key}'")), "{e}");
        }
    }

    #[test]
    fn quarantine_classes_are_a_closed_vocabulary() {
        let text = sample_chaos_text()
            .replace(
                "\"seeds\": 1, \"completed\": 1, \"quarantined\": 0",
                "\"seeds\": 2, \"completed\": 1, \"quarantined\": 1",
            )
            .replace(
                "\"quarantine\": []",
                "\"quarantine\": [{\"seed\": 43, \"attempts\": 1, \
                 \"class\": \"budget\", \"detail\": \"spent 9 of 5\"}]",
            );
        let doc = parse_chaos(&text).expect("a budget quarantine parses");
        assert_eq!(doc.quarantine[0].class, "budget");
        let e = parse_chaos(&text.replace("\"budget\"", "\"oops\"")).unwrap_err();
        assert!(e.contains("failure class 'oops'"), "{e}");
    }

    /// A handcrafted, internally consistent incident document, with its id
    /// computed the way writers compute it.
    fn sample_incident_json() -> Json {
        let body = r#"{
            "schema": "sgxs-incident-v1",
            "id": "",
            "origin": "fuzz", "workload": "seed-3", "scheme": "sgxbounds",
            "tier": "reference", "verdict": "detected",
            "fault": {
                "at": 40, "index": 6, "site": 2,
                "raw_addr": 1168231104784, "ptr": 272, "tag_ub": 272,
                "size": 8, "kind": "store"
            },
            "truth": {"kind": "oob-store", "op": "OobStore", "op_index": 4},
            "span_path": [{"name": "check", "arg": 2}],
            "recovery": {"attempts": 0, "degraded": 0, "gave_up": 0,
                         "decision": "trapped"},
            "heap": {
                "objects_total": 2, "objects_live": 2,
                "neighborhood": [
                    {"id": 0, "base": 256, "size": 16, "ub": 272,
                     "birth_at": 10, "free_at": null,
                     "relation": "before", "distance": 1},
                    {"id": 1, "base": 320, "size": 32, "ub": 352,
                     "birth_at": 20, "free_at": null,
                     "relation": "after", "distance": 48}
                ]
            },
            "derivation": ["b0 i4 store w8 proved-oob"],
            "trace": {"window": 32, "total": 7, "events": [
                {"index": 5, "line": "[ins 30] alloc addr=0x140 size=32"},
                {"index": 6, "line": "[ins 40] check_fail site=2"}
            ]},
            "repro": {"insts": 120, "ops": ["Alloc", "OobStore"]},
            "digest": "00000000deadbeef"
        }"#;
        sealed(&Json::parse(body).expect("sample body parses"))
    }

    /// `j` with its id recomputed over its content.
    fn sealed(j: &Json) -> Json {
        let mut doc = IncidentDoc::take(j, "sample").expect("incident shape");
        doc.id = doc.content_id();
        doc.put()
    }

    #[test]
    fn handcrafted_incident_doc_parses() {
        let j = sample_incident_json();
        let doc = parse_incident(&j.to_pretty()).expect("valid incident parses");
        assert_eq!(doc.origin, "fuzz");
        let f = doc.fault.as_ref().expect("fault present");
        assert_eq!((f.ptr, f.tag_ub, f.site), (272, 272, Some(2)));
        assert_eq!(doc.heap.neighborhood.len(), 2);
        assert_eq!(doc.heap.neighborhood[0].relation, "before");
        let lines: Vec<(u64, &str)> = doc
            .trace
            .events
            .iter()
            .map(|e| (e.index, e.line.as_str()))
            .collect();
        assert_eq!(
            lines,
            vec![
                (5, "[ins 30] alloc addr=0x140 size=32"),
                (6, "[ins 40] check_fail site=2"),
            ]
        );
        assert_eq!(doc.truth.as_ref().unwrap().op_index, 4);
        assert_eq!(doc.repro.as_ref().unwrap().ops.len(), 2);
    }

    #[test]
    fn incident_mutations_invalidate_the_id() {
        // Any content change breaks the recomputed id.
        let tampered = sample_incident_json()
            .to_pretty()
            .replace("\"op_index\": 4", "\"op_index\": 5");
        let e = parse_incident(&tampered).unwrap_err();
        assert!(e.contains("id"), "{e}");
    }

    #[test]
    fn incident_cross_validation_is_enforced() {
        let base = sample_incident_json().to_pretty();
        let forged = |from: &str, to: &str| {
            assert!(base.contains(from), "{from}");
            let j = Json::parse(&base.replace(from, to)).unwrap();
            parse_incident(&sealed(&j).to_pretty()).unwrap_err()
        };
        // Neighborhood bounds must be internally consistent.
        let e = forged("\"ub\": 272", "\"ub\": 273");
        assert!(e.contains("ub"), "{e}");
        // Distance must match the faulting pointer.
        let e = forged("\"distance\": 48", "\"distance\": 47");
        assert!(e.contains("distance"), "{e}");
        // The recovery decision must match its counts.
        let e = forged("\"decision\": \"trapped\"", "\"decision\": \"retried\"");
        assert!(e.contains("decision"), "{e}");
        // Trace indices ascend strictly.
        let e = forged("\"index\": 5,", "\"index\": 6,");
        assert!(e.contains("ascending"), "{e}");
        // The fault kind vocabulary is closed.
        let e = forged("\"kind\": \"store\"", "\"kind\": \"write\"");
        assert!(e.contains("load/store"), "{e}");
        // A null fault is allowed only with an empty neighborhood — there
        // is no address to anchor the rows on.
        let j = with_key(&sample_incident_json(), "fault", Some(Json::Null));
        let e = parse_incident(&sealed(&j).to_pretty()).unwrap_err();
        assert!(e.contains("without a fault"), "{e}");
    }

    #[test]
    fn chaos_incident_embedding_is_validated() {
        let j = Json::parse(&sample_chaos_text()).unwrap();
        let incidents = |v: Json| with_key(&j, "incidents", Some(Json::Arr(vec![v])));
        let doc = chaos_from_json(&incidents(sample_incident_json()))
            .expect("embedded incident validates");
        assert_eq!(doc.incidents.len(), 1);
        assert_eq!(doc.incidents[0].origin, "fuzz");
        // A corrupt embedded incident fails the whole document.
        let e =
            chaos_from_json(&incidents(Json::obj(vec![("schema", "bogus".into())]))).unwrap_err();
        assert!(e.contains("incidents[0]"), "{e}");
        let tampered = Json::parse(
            &sample_incident_json()
                .to_compact()
                .replace("\"op_index\":4", "\"op_index\":5"),
        )
        .unwrap();
        let e = chaos_from_json(&incidents(tampered)).unwrap_err();
        assert!(e.contains("incidents[0]: id"), "{e}");
    }

    /// A one-seed fuzz document: a safe row, a matrix cell, no
    /// disagreement or quarantine.
    fn sample_fuzz_text() -> String {
        r#"{
            "schema": "sgxs-fuzz-v1", "programs": 1, "runs": 2,
            "safe": [{"scheme": "sgxbounds", "passes": 1, "false_positives": 0,
                      "mismatches": 0, "crashes": 0, "total": 1}],
            "matrix": [{"kind": "heap-overflow", "scheme": "sgxbounds", "detected": 1,
                        "wrong_site": 0, "missed": 0, "tolerated": 0, "crashed": 0,
                        "disagreements": 0, "total": 1}],
            "disagreements": [],
            "coverage": {"seeds": 1, "completed": 1, "quarantined": 0, "skipped": 0},
            "quarantine": []
        }"#
        .to_owned()
    }

    #[test]
    fn fuzz_cross_validation_is_enforced() {
        let doc = parse_fuzz(&sample_fuzz_text()).expect("sample parses");
        assert_eq!(doc.matrix[0].kind, "heap-overflow");
        let rejects = |from: &str, to: &str, want: &str| {
            let text = sample_fuzz_text();
            assert!(text.contains(from), "{from}");
            let e = parse_fuzz(&text.replace(from, to)).unwrap_err();
            assert!(e.contains(want), "{from} -> {to}: {e}");
        };
        rejects(
            "\"crashes\": 0",
            "\"crashes\": 1",
            "safe[0]: outcomes do not sum",
        );
        let max = "18446744073709551615";
        rejects("\"passes\": 1", &format!("\"passes\": {max}"), "safe[0]");
        rejects("\"missed\": 0", "\"missed\": 1", "matrix[0]: verdicts");
        rejects("\"disagreements\": 0", "\"disagreements\": 2", "matrix[0]");
        rejects("\"missed\": 0", &format!("\"missed\": {max}"), "matrix[0]");
        rejects(
            "\"programs\": 1",
            "\"programs\": 2",
            "2 programs, coverage says 1",
        );
        rejects("\"seeds\": 1", "\"seeds\": 2", "coverage does not sum");
        let quarantined = sample_fuzz_text()
            .replace("\"seeds\": 1,", "\"seeds\": 2,")
            .replace("\"quarantined\": 0", "\"quarantined\": 1");
        let e = parse_fuzz(&quarantined).unwrap_err();
        assert!(e.contains("0 quarantine entr(ies) listed"), "{e}");
        let listed = quarantined.replace(
            "\"quarantine\": []",
            "\"quarantine\": [{\"seed\": 1, \"attempts\": 1, \"class\": \"panic\", \"detail\": \"x\"}]",
        );
        parse_fuzz(&listed).expect("a panic quarantine parses");
        let e = parse_fuzz(&listed.replace("\"panic\"", "\"oops\"")).unwrap_err();
        assert!(e.contains("failure class 'oops'"), "{e}");
    }

    #[test]
    fn fuzz_incident_embedding_is_validated() {
        let j = Json::parse(&sample_fuzz_text()).unwrap();
        let with = |incident: Json| {
            let d = Json::obj(vec![
                ("seed", 0u64.into()),
                ("kind", Json::Null),
                ("scheme", "sgxbounds".into()),
                ("verdict", "crash".into()),
                ("detail", "trap".into()),
                ("incident", incident),
            ]);
            with_key(&j, "disagreements", Some(Json::Arr(vec![d]))).to_compact()
        };
        let doc = parse_fuzz(&with(sample_incident_json())).expect("embedded incident");
        assert_eq!(doc.disagreements[0].incident.origin, "fuzz");
        assert_eq!(doc.disagreements[0].kind, None);
        let tampered = sample_incident_json()
            .to_compact()
            .replace("\"op_index\":4", "\"op_index\":5");
        let e = parse_fuzz(&with(Json::parse(&tampered).unwrap())).unwrap_err();
        assert!(e.contains("disagreements[0].incident: id"), "{e}");
    }

    fn sample_lint_v2_text() -> String {
        Json::obj(vec![
            ("schema", "sgxs-lint-v2".into()),
            ("seed", 42u64.into()),
            ("ipa", true.into()),
            ("proved_oob", 1u64.into()),
            ("proved_uaf", 1u64.into()),
            ("proved_df", 0u64.into()),
            ("leaks", 0u64.into()),
            (
                "modules",
                Json::Arr(vec![Json::obj(vec![
                    ("module", "demo".into()),
                    ("sites", 3u64.into()),
                    ("proved_safe", 1u64.into()),
                    ("unknown", 1u64.into()),
                    ("proved_oob", 1u64.into()),
                    ("proved_uaf", 1u64.into()),
                    ("proved_df", 0u64.into()),
                    ("leaks", 0u64.into()),
                    (
                        "findings",
                        Json::Arr(vec![Json::obj(vec![
                            ("function", "main".into()),
                            ("block", 0u64.into()),
                            ("inst", 5u64.into()),
                            ("site", 2u64.into()),
                            ("kind", "load".into()),
                            ("width", 8u64.into()),
                            ("object", "alloc#0(40B)".into()),
                            ("offset_lo", Json::Null),
                            ("offset_hi", Json::Null),
                            ("ir", "r3 = load.i64 [r2]".into()),
                        ])]),
                    ),
                    (
                        "temporal",
                        Json::Arr(vec![Json::obj(vec![
                            ("function", "main".into()),
                            ("block", 0u64.into()),
                            ("inst", 7u64.into()),
                            ("site", 3u64.into()),
                            ("kind", "uaf".into()),
                            ("alloc_site", 0u64.into()),
                            ("object", "alloc#0(24B)".into()),
                            ("ir", "r4 = load.i64 [r1]".into()),
                        ])]),
                    ),
                    (
                        "call_graph",
                        Json::Arr(vec![Json::obj(vec![
                            ("func", "main".into()),
                            ("callees", Json::Arr(vec![])),
                            ("scc", 0u64.into()),
                            ("unresolved", false.into()),
                        ])]),
                    ),
                    (
                        "summaries",
                        Json::Arr(vec![Json::obj(vec![
                            ("func", "main".into()),
                            ("ret", "top".into()),
                            ("frees_params", Json::Arr(vec![true.into()])),
                            ("must_frees_params", Json::Arr(vec![true.into()])),
                            ("captures_params", Json::Arr(vec![false.into()])),
                            ("frees_unknown", false.into()),
                            ("heap_benign", false.into()),
                        ])]),
                    ),
                ])]),
            ),
        ])
        .to_compact()
    }

    #[test]
    fn lint_v2_round_trips_and_null_offset_is_none() {
        let text = sample_lint_v2_text();
        let doc = parse_lint(&text).expect("v2 parses");
        assert_eq!(doc.schema, "sgxs-lint-v2");
        assert_eq!(doc.ipa, Some(true));
        assert_eq!(doc.modules.len(), 1);
        let m = &doc.modules[0];
        assert_eq!(
            (m.findings[0].offset_lo, m.findings[0].offset_hi),
            (None, None)
        );
        assert_eq!(m.temporal.as_ref().unwrap()[0].kind, "uaf");
        let s = &m.summaries.as_ref().unwrap()[0];
        assert_eq!(s.frees_params, vec![true]);
        assert!(!s.heap_benign);
        assert_eq!(doc.put().to_compact(), text);
    }

    #[test]
    fn lint_validation_rejects_inconsistencies() {
        // Unknown temporal kind.
        let bad = sample_lint_v2_text().replace("\"uaf\"", "\"oops\"");
        assert!(parse_lint(&bad).unwrap_err().contains("temporal kind"));
        // must-freed not in may-freed.
        let bad =
            sample_lint_v2_text().replace("\"frees_params\":[true]", "\"frees_params\":[false]");
        assert!(parse_lint(&bad).unwrap_err().contains("must-freed"));
        // Temporal counts disagreeing with the findings list.
        let bad = sample_lint_v2_text().replace("\"leaks\":0", "\"leaks\":1");
        assert!(parse_lint(&bad).unwrap_err().contains("temporal counts"));
        // heap_benign is derived from the free sets.
        let bad = sample_lint_v2_text().replace("\"heap_benign\":false", "\"heap_benign\":true");
        assert!(parse_lint(&bad).unwrap_err().contains("heap_benign"));
        // Half-known offset bounds.
        let bad = sample_lint_v2_text().replace("\"offset_lo\":null", "\"offset_lo\":3");
        assert!(parse_lint(&bad).unwrap_err().contains("offset bounds"));
        // A v2 key in a v1 document.
        let bad = sample_lint_v2_text().replace("sgxs-lint-v2", "sgxs-lint-v1");
        assert!(parse_lint(&bad).unwrap_err().contains("v2 keys"));
        // Wrong schema tag.
        assert!(parse_lint("{\"schema\": \"sgxs-lint-v3\"}").is_err());
    }

    #[test]
    fn lint_v1_documents_still_parse() {
        let v1 = Json::obj(vec![
            ("schema", "sgxs-lint-v1".into()),
            ("seed", 1u64.into()),
            ("proved_oob", 0u64.into()),
            (
                "modules",
                Json::Arr(vec![Json::obj(vec![
                    ("module", "m".into()),
                    ("sites", 0u64.into()),
                    ("proved_safe", 0u64.into()),
                    ("unknown", 0u64.into()),
                    ("proved_oob", 0u64.into()),
                    ("findings", Json::Arr(vec![])),
                ])]),
            ),
        ]);
        let doc = lint_from_json(&v1).expect("v1 parses");
        assert_eq!((doc.ipa, doc.proved_uaf), (None, None));
        assert!(doc.modules[0].temporal.is_none());
        assert_eq!(doc.put(), v1, "v1 keys stay absent on the way back");
    }

    fn sample_journal_text() -> String {
        [
            "{\"schema\":\"sgxs-campaign-v1\",\"campaign\":\"fuzz\",\
             \"fingerprint\":\"00deadbeef00cafe\",\"seed0\":5,\"seeds\":3}",
            "{\"seed\":5,\"status\":\"done\",\"attempts\":1,\"payload\":{\"runs\":16}}",
            "{\"seed\":7,\"status\":\"quarantined\",\"attempts\":3,\
             \"failure\":{\"class\":\"budget\",\"detail\":\"spent 99 of 10\"}}",
        ]
        .join("\n")
    }

    #[test]
    fn emitted_journal_parses_back() {
        let text = sample_journal_text();
        let doc = parse_journal(&text).expect("journal parses");
        assert_eq!(doc.header.campaign, "fuzz");
        assert_eq!((doc.header.seed0, doc.header.seeds), (5, 3));
        assert_eq!(doc.entries.len(), 2);
        assert_eq!(doc.entries[0].seed, 5);
        let payload = doc.entries[0].payload.as_ref().unwrap();
        assert_eq!(payload.get("runs").unwrap(), &Json::from(16u64));
        let failure = doc.entries[1].failure.as_ref().unwrap();
        assert_eq!(
            (failure.class.as_str(), failure.detail.as_str()),
            ("budget", "spent 99 of 10")
        );
        let lines: Vec<String> = std::iter::once(doc.header.put())
            .chain(doc.entries.iter().map(Field::put))
            .map(|j| j.to_compact())
            .collect();
        assert_eq!(lines.join("\n"), text);
    }

    #[test]
    fn journal_validation_rejects_inconsistencies() {
        // Seed outside the declared range.
        let bad = sample_journal_text().replace("\"seed\":7", "\"seed\":9");
        assert!(parse_journal(&bad).unwrap_err().contains("outside"));
        // Duplicate seed.
        let bad = sample_journal_text().replace("\"seed\":7", "\"seed\":5");
        assert!(parse_journal(&bad).unwrap_err().contains("twice"));
        // done without a payload.
        let bad = sample_journal_text().replace(",\"payload\":{\"runs\":16}", "");
        assert!(parse_journal(&bad).unwrap_err().contains("payload"));
        // Unknown status.
        let bad = sample_journal_text().replace("\"quarantined\"", "\"lost\"");
        assert!(parse_journal(&bad).unwrap_err().contains("unknown status"));
        // Zero attempts.
        let bad = sample_journal_text().replace("\"attempts\":3", "\"attempts\":0");
        assert!(parse_journal(&bad).unwrap_err().contains("at least 1"));
        // A failure class outside the vocabulary.
        let bad = sample_journal_text().replace("\"budget\"", "\"oops\"");
        assert!(parse_journal(&bad).unwrap_err().contains("failure class"));
        // Wrong schema tag and empty input.
        assert!(parse_journal("{\"schema\":\"sgxs-campaign-v2\"}").is_err());
        assert!(parse_journal("").unwrap_err().contains("empty"));
    }
}
