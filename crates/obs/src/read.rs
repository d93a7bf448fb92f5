//! Readers for the machine-readable schemas this repo's producers emit:
//! `sgxs-bench-v1` (`repro ... --json`), `sgxs-profile-v1`
//! (`repro profile ... --json`), `sgxs-chaos-v1` (`repro chaos --json`),
//! `sgxs-metrics-v1` (`repro metrics --json`, also embedded in chaos
//! documents as their `latency` block), and `sgxs-incident-v1`
//! (`repro audit --json`, also embedded in fuzz and chaos artifacts).
//!
//! Emission lives next to the data it serializes (`Profile::to_json`, the
//! experiment `to_json` impls); parsing lives here so downstream analysis
//! (the `sgxs-perf` history/compare/render tier) never re-implements schema
//! knowledge. Readers are strict about the schema tag and the envelope
//! shape but deliberately lenient about experiment payloads — those evolve
//! per figure, and the analysis tier works on flattened numeric leaves
//! rather than per-figure structs. All errors are `Err(String)`s; no input,
//! however malformed or truncated, panics.

use crate::json::Json;

/// Schema tag of bench documents.
pub const BENCH_SCHEMA: &str = "sgxs-bench-v1";

/// Schema tag of profile documents.
pub const PROFILE_SCHEMA: &str = "sgxs-profile-v1";

/// Schema tag of chaos-campaign documents.
pub const CHAOS_SCHEMA: &str = "sgxs-chaos-v1";

/// Schema tag of metrics documents.
pub const METRICS_SCHEMA: &str = "sgxs-metrics-v1";

/// Schema tag of incident documents.
pub const INCIDENT_SCHEMA: &str = "sgxs-incident-v1";

/// A parsed `sgxs-bench-v1` document.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// Machine preset the run used (`Tiny` / `Mini` / `Paper`).
    pub preset: String,
    /// Effort level (`Quick` / `Full`).
    pub effort: String,
    /// `(experiment id, payload)` in document order.
    pub experiments: Vec<(String, Json)>,
}

impl BenchDoc {
    /// The payload of one experiment, if present.
    pub fn experiment(&self, id: &str) -> Option<&Json> {
        self.experiments
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, v)| v)
    }
}

/// One `top_sites` row of a profile document.
#[derive(Debug, Clone)]
pub struct ProfileSite {
    /// Check-site ID.
    pub site: u64,
    /// Enclosing function.
    pub func: String,
    /// Check kind label.
    pub kind: String,
    /// Completed executions.
    pub execs: u64,
    /// Cycles spent in the check sequence.
    pub cycles: u64,
    /// Violations at this site.
    pub fails: u64,
}

/// A parsed `sgxs-profile-v1` document.
#[derive(Debug, Clone)]
pub struct ProfileDoc {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Simulated wall-clock cycles.
    pub wall_cycles: u64,
    /// Summed thread cycles.
    pub cpu_cycles: u64,
    /// Application share of CPU cycles.
    pub app_cycles: u64,
    /// Instrumentation share of CPU cycles.
    pub check_cycles: u64,
    /// Completed check executions.
    pub check_execs: u64,
    /// Violations recorded.
    pub check_fails: u64,
    /// Check sites the pass inserted.
    pub sites_total: u64,
    /// Sites that fired at least once.
    pub sites_active: u64,
    /// Hottest sites, as serialized (already sorted by cycles, descending).
    pub top_sites: Vec<ProfileSite>,
    /// Total events recorded.
    pub events: u64,
    /// Hex digest over the full event stream.
    pub digest: String,
}

fn obj_of<'a>(v: &'a Json, what: &str) -> Result<&'a Json, String> {
    match v {
        Json::Obj(_) => Ok(v),
        other => Err(format!("{what}: expected an object, got {other:?}")),
    }
}

fn str_field(v: &Json, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{what}: missing or non-string field '{key}'"))
}

fn u64_field(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing or non-integer field '{key}'"))
}

/// The sum of `xs`, or `None` when it overflows `u64`. The ledger
/// cross-checks add untrusted counts, so a forged document must not be
/// able to wrap a sum onto the value it is checked against.
fn checked_sum(xs: impl IntoIterator<Item = u64>) -> Option<u64> {
    xs.into_iter().try_fold(0u64, u64::checked_add)
}

fn check_schema(v: &Json, expect: &str, what: &str) -> Result<(), String> {
    let tag = str_field(v, "schema", what)?;
    if tag != expect {
        return Err(format!("{what}: schema is '{tag}', expected '{expect}'"));
    }
    Ok(())
}

/// Rejects non-finite numbers anywhere in the tree. The writer serializes
/// non-finite floats as `null`, so a parsed `Infinity` can only come from a
/// hand-edited or foreign file (e.g. a `1e999` literal) — refuse it rather
/// than let NaN poison downstream statistics.
fn check_finite(v: &Json, path: &str) -> Result<(), String> {
    match v {
        Json::F64(f) if !f.is_finite() => Err(format!("non-finite number at {path}")),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| check_finite(item, &format!("{path}[{i}]"))),
        Json::Obj(fields) => fields
            .iter()
            .try_for_each(|(k, item)| check_finite(item, &format!("{path}.{k}"))),
        _ => Ok(()),
    }
}

/// Interprets an already-parsed JSON value as a bench document.
pub fn bench_from_json(v: &Json) -> Result<BenchDoc, String> {
    let what = "bench";
    obj_of(v, what)?;
    check_schema(v, BENCH_SCHEMA, what)?;
    check_finite(v, what)?;
    let exps = v
        .get("experiments")
        .ok_or_else(|| format!("{what}: missing field 'experiments'"))?;
    let Json::Obj(fields) = exps else {
        return Err(format!("{what}: 'experiments' is not an object"));
    };
    Ok(BenchDoc {
        preset: str_field(v, "preset", what)?,
        effort: str_field(v, "effort", what)?,
        experiments: fields.clone(),
    })
}

/// Parses a `sgxs-bench-v1` document from text.
pub fn parse_bench(text: &str) -> Result<BenchDoc, String> {
    bench_from_json(&Json::parse(text).map_err(|e| format!("bench: {e}"))?)
}

/// Interprets an already-parsed JSON value as a profile document.
pub fn profile_from_json(v: &Json) -> Result<ProfileDoc, String> {
    let what = "profile";
    obj_of(v, what)?;
    check_schema(v, PROFILE_SCHEMA, what)?;
    check_finite(v, what)?;
    let att = v
        .get("attribution")
        .ok_or_else(|| format!("{what}: missing field 'attribution'"))?;
    let mut top_sites = Vec::new();
    let rows = v
        .get("top_sites")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'top_sites'"))?;
    for (i, row) in rows.iter().enumerate() {
        let what = format!("profile top_sites[{i}]");
        top_sites.push(ProfileSite {
            site: u64_field(row, "site", &what)?,
            func: str_field(row, "func", &what)?,
            kind: str_field(row, "kind", &what)?,
            execs: u64_field(row, "execs", &what)?,
            cycles: u64_field(row, "cycles", &what)?,
            fails: u64_field(row, "fails", &what)?,
        });
    }
    let doc = ProfileDoc {
        workload: str_field(v, "workload", what)?,
        scheme: str_field(v, "scheme", what)?,
        wall_cycles: u64_field(v, "wall_cycles", what)?,
        cpu_cycles: u64_field(v, "cpu_cycles", what)?,
        app_cycles: u64_field(att, "app_cycles", "profile attribution")?,
        check_cycles: u64_field(att, "check_cycles", "profile attribution")?,
        check_execs: u64_field(v, "check_execs", what)?,
        check_fails: u64_field(v, "check_fails", what)?,
        sites_total: u64_field(v, "sites_total", what)?,
        sites_active: u64_field(v, "sites_active", what)?,
        top_sites,
        events: u64_field(v, "events", what)?,
        digest: str_field(v, "digest", what)?,
    };
    if checked_sum([doc.app_cycles, doc.check_cycles]) != Some(doc.cpu_cycles) {
        return Err(format!(
            "{what}: attribution does not sum (app {} + checks {} != cpu {})",
            doc.app_cycles, doc.check_cycles, doc.cpu_cycles
        ));
    }
    Ok(doc)
}

/// Parses a `sgxs-profile-v1` document from text.
pub fn parse_profile(text: &str) -> Result<ProfileDoc, String> {
    profile_from_json(&Json::parse(text).map_err(|e| format!("profile: {e}"))?)
}

/// One histogram of a metrics document.
#[derive(Debug, Clone)]
pub struct MetricsHist {
    /// Metric name (`/`-separated path).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median representative.
    pub p50: u64,
    /// 90th percentile representative.
    pub p90: u64,
    /// 99th percentile representative.
    pub p99: u64,
    /// 99.9th percentile representative.
    pub p999: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u64, u64)>,
}

/// A parsed `sgxs-metrics-v1` document.
#[derive(Debug, Clone, Default)]
pub struct MetricsDoc {
    /// Named counters, document order (sorted by name at emission).
    pub counters: Vec<(String, u64)>,
    /// Named gauges, document order.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, document order.
    pub hists: Vec<MetricsHist>,
}

impl MetricsDoc {
    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&MetricsHist> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

fn named_u64s(v: &Json, key: &str, what: &str) -> Result<Vec<(String, u64)>, String> {
    let section = v
        .get(key)
        .ok_or_else(|| format!("{what}: missing field '{key}'"))?;
    let Json::Obj(fields) = section else {
        return Err(format!("{what}: '{key}' is not an object"));
    };
    fields
        .iter()
        .map(|(k, val)| {
            val.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("{what}: {key}.{k} is not a non-negative integer"))
        })
        .collect()
}

/// Interprets an already-parsed JSON value as a metrics document,
/// validating the internal consistency every consumer relies on: bucket
/// indices strictly ascending, bucket counts summing to `count`, and the
/// percentile chain monotone and bounded by `max`.
pub fn metrics_from_json(v: &Json) -> Result<MetricsDoc, String> {
    let what = "metrics";
    obj_of(v, what)?;
    check_schema(v, METRICS_SCHEMA, what)?;
    check_finite(v, what)?;
    let counters = named_u64s(v, "counters", what)?;
    let gauges = named_u64s(v, "gauges", what)?;
    let rows = v
        .get("hists")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'hists'"))?;
    let mut hists = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let what = format!("metrics hists[{i}]");
        let mut buckets = Vec::new();
        let pairs = row
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{what}: missing or non-array field 'buckets'"))?;
        for (j, pair) in pairs.iter().enumerate() {
            let err = || format!("{what}: buckets[{j}] is not an [index, count] pair");
            let pair = pair.as_arr().ok_or_else(err)?;
            let (idx, n) = match pair {
                [a, b] => (a.as_u64().ok_or_else(err)?, b.as_u64().ok_or_else(err)?),
                _ => return Err(err()),
            };
            buckets.push((idx, n));
        }
        let h = MetricsHist {
            name: str_field(row, "name", &what)?,
            count: u64_field(row, "count", &what)?,
            sum: u64_field(row, "sum", &what)?,
            min: u64_field(row, "min", &what)?,
            max: u64_field(row, "max", &what)?,
            p50: u64_field(row, "p50", &what)?,
            p90: u64_field(row, "p90", &what)?,
            p99: u64_field(row, "p99", &what)?,
            p999: u64_field(row, "p999", &what)?,
            buckets,
        };
        if !h.buckets.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(format!("{what}: bucket indices not strictly ascending"));
        }
        if h.buckets.iter().any(|&(_, n)| n == 0) {
            return Err(format!("{what}: zero-count bucket serialized"));
        }
        match checked_sum(h.buckets.iter().map(|&(_, n)| n)) {
            Some(total) if total == h.count => {}
            Some(total) => {
                return Err(format!(
                    "{what}: bucket counts sum to {total}, count says {}",
                    h.count
                ))
            }
            None => return Err(format!("{what}: bucket counts overflow u64")),
        }
        if h.min > h.max {
            return Err(format!("{what}: min {} > max {}", h.min, h.max));
        }
        let chain = [h.p50, h.p90, h.p99, h.p999];
        if !chain.windows(2).all(|w| w[0] <= w[1]) || h.p999 > h.max {
            return Err(format!(
                "{what}: percentile chain not monotone within [.., max] \
                 (p50 {} p90 {} p99 {} p999 {} max {})",
                h.p50, h.p90, h.p99, h.p999, h.max
            ));
        }
        hists.push(h);
    }
    Ok(MetricsDoc {
        counters,
        gauges,
        hists,
    })
}

/// Parses a `sgxs-metrics-v1` document from text.
pub fn parse_metrics(text: &str) -> Result<MetricsDoc, String> {
    metrics_from_json(&Json::parse(text).map_err(|e| format!("metrics: {e}"))?)
}

/// One combo row of a chaos-campaign document.
#[derive(Debug, Clone)]
pub struct ChaosCombo {
    /// Scheme label.
    pub scheme: String,
    /// Policy label.
    pub policy: String,
    /// Server runs aggregated.
    pub runs: u64,
    /// Requests scheduled.
    pub total: u64,
    /// Served cleanly.
    pub served: u64,
    /// Degraded but answered.
    pub degraded: u64,
    /// Aborted individually.
    pub aborted: u64,
    /// Lost to whole-server death.
    pub lost: u64,
    /// Interpreter retry attempts.
    pub retries: u64,
    /// Runs that ended with corrupted canaries.
    pub corrupted_runs: u64,
    /// Corrupted canary bytes.
    pub corrupted_bytes: u64,
    /// AEX re-entry cycles charged.
    pub aex_cycles: u64,
    /// Answered fraction.
    pub availability: f64,
}

/// A parsed `sgxs-chaos-v1` document.
#[derive(Debug, Clone)]
pub struct ChaosDoc {
    /// Seeds the campaign ran.
    pub seeds: u64,
    /// First seed.
    pub seed0: u64,
    /// Requests per server run.
    pub requests: u64,
    /// Availability gate threshold.
    pub threshold: f64,
    /// One row per scheme × policy combo, campaign order.
    pub combos: Vec<ChaosCombo>,
    /// The embedded `sgxs-metrics-v1` latency block (absent only in
    /// pre-metrics documents).
    pub latency: Option<MetricsDoc>,
    /// Embedded `sgxs-incident-v1` forensic reports for gate-failing
    /// canary corruptions (absent in pre-audit documents; empty when the
    /// campaign saw no corruption).
    pub incidents: Vec<IncidentDoc>,
    /// Whether any gate condition failed.
    pub gate_failed: bool,
    /// Gate failures, human-readable.
    pub failures: Vec<String>,
}

fn f64_field(v: &Json, key: &str, what: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what}: missing or non-numeric field '{key}'"))
}

/// Interprets an already-parsed JSON value as a chaos-campaign document,
/// cross-validating each combo's request ledger (outcomes sum to the
/// scheduled total, availability matches the counts) and, when the
/// latency block is present, that it is a valid metrics document whose
/// per-combo histogram counted every attempted request.
pub fn chaos_from_json(v: &Json) -> Result<ChaosDoc, String> {
    let what = "chaos";
    obj_of(v, what)?;
    check_schema(v, CHAOS_SCHEMA, what)?;
    check_finite(v, what)?;
    let rows = v
        .get("combos")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'combos'"))?;
    let mut combos = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let what = format!("chaos combos[{i}]");
        let c = ChaosCombo {
            scheme: str_field(row, "scheme", &what)?,
            policy: str_field(row, "policy", &what)?,
            runs: u64_field(row, "runs", &what)?,
            total: u64_field(row, "total", &what)?,
            served: u64_field(row, "served", &what)?,
            degraded: u64_field(row, "degraded", &what)?,
            aborted: u64_field(row, "aborted", &what)?,
            lost: u64_field(row, "lost", &what)?,
            retries: u64_field(row, "retries", &what)?,
            corrupted_runs: u64_field(row, "corrupted_runs", &what)?,
            corrupted_bytes: u64_field(row, "corrupted_bytes", &what)?,
            aex_cycles: u64_field(row, "aex_cycles", &what)?,
            availability: f64_field(row, "availability", &what)?,
        };
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
        combos.push(c);
    }
    let latency = match v.get("latency") {
        Some(block) => {
            let doc = metrics_from_json(block).map_err(|e| format!("{what} latency block: {e}"))?;
            for c in &combos {
                let name = format!("latency/{}/{}", c.scheme, c.policy);
                let h = doc
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
            Some(doc)
        }
        None => None,
    };
    let incidents = match v.get("incidents") {
        Some(block) => {
            let rows = block
                .as_arr()
                .ok_or_else(|| format!("{what}: 'incidents' is not an array"))?;
            rows.iter()
                .enumerate()
                .map(|(i, row)| {
                    incident_from_json(row).map_err(|e| format!("{what} incidents[{i}]: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?
        }
        None => Vec::new(),
    };
    if let Some(cov) = v.get("coverage") {
        let completed = u64_field(cov, "completed", "chaos coverage")?;
        let quarantined = u64_field(cov, "quarantined", "chaos coverage")?;
        let skipped = u64_field(cov, "skipped", "chaos coverage")?;
        let seeds = u64_field(cov, "seeds", "chaos coverage")?;
        if checked_sum([completed, quarantined, skipped]) != Some(seeds) {
            return Err(format!(
                "{what}: coverage does not sum ({completed} + {quarantined} + {skipped} != {seeds})"
            ));
        }
        for c in &combos {
            if c.runs != completed {
                return Err(format!(
                    "{what}: combo {}/{} absorbed {} run(s), coverage says {completed} completed",
                    c.scheme, c.policy, c.runs
                ));
            }
        }
        let listed = v
            .get("quarantine")
            .and_then(Json::as_arr)
            .map(|rows| rows.len())
            .unwrap_or(0) as u64;
        if listed != quarantined {
            return Err(format!(
                "{what}: {listed} quarantine entr(ies) listed, coverage says {quarantined}"
            ));
        }
    }
    let gate = v
        .get("gate")
        .ok_or_else(|| format!("{what}: missing field 'gate'"))?;
    let gate_failed = gate
        .get("failed")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{what}: missing or non-bool field 'gate.failed'"))?;
    let failures = gate
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'gate.failures'"))?
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{what}: non-string gate failure"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if gate_failed == failures.is_empty() {
        return Err(format!(
            "{what}: gate.failed is {gate_failed} but {} failure(s) listed",
            failures.len()
        ));
    }
    Ok(ChaosDoc {
        seeds: u64_field(v, "seeds", what)?,
        seed0: u64_field(v, "seed0", what)?,
        requests: u64_field(v, "requests", what)?,
        threshold: f64_field(v, "threshold", what)?,
        combos,
        latency,
        incidents,
        gate_failed,
        failures,
    })
}

/// Parses a `sgxs-chaos-v1` document from text.
pub fn parse_chaos(text: &str) -> Result<ChaosDoc, String> {
    chaos_from_json(&Json::parse(text).map_err(|e| format!("chaos: {e}"))?)
}

/// The faulting access of an incident document.
#[derive(Debug, Clone)]
pub struct IncidentFault {
    /// Instruction timestamp (0 for post-run discoveries).
    pub at: u64,
    /// Absolute event index in the forensic run's stream.
    pub index: u64,
    /// Check-site ID, when attributable.
    pub site: Option<u64>,
    /// Raw address as the handler saw it (tagged under sgxbounds).
    pub raw_addr: u64,
    /// Decoded pointer (low 32 bits of `raw_addr`).
    pub ptr: u64,
    /// Decoded upper-bound tag (high 32 bits of `raw_addr`).
    pub tag_ub: u64,
    /// Access size in bytes.
    pub size: u64,
    /// `load` or `store`.
    pub kind: String,
}

/// One heap-neighborhood row of an incident document.
#[derive(Debug, Clone)]
pub struct IncidentNeighbor {
    /// Birth-order object id.
    pub id: u64,
    /// Lower bound (user base address).
    pub base: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Upper bound (`base + size`).
    pub ub: u64,
    /// Allocation timestamp.
    pub birth_at: u64,
    /// Free timestamp, if the object died.
    pub free_at: Option<u64>,
    /// `contains` / `before` / `after`, relative to the faulting address.
    pub relation: String,
    /// Byte distance from the faulting address (0 iff `contains`).
    pub distance: u64,
}

/// Injected ground truth of an incident, when the producer knew it.
#[derive(Debug, Clone)]
pub struct IncidentTruth {
    /// Injected fault-kind label.
    pub kind: String,
    /// Debug rendering of the injected victim op.
    pub op: String,
    /// Index of the victim op in the program's op list.
    pub op_index: u64,
}

/// The recovery-policy trail of an incident.
#[derive(Debug, Clone)]
pub struct IncidentRecovery {
    /// Retry attempts issued.
    pub attempts: u64,
    /// Traps converted to degraded service.
    pub degraded: u64,
    /// Retry budgets exhausted.
    pub gave_up: u64,
    /// Decision label implied by the counts.
    pub decision: String,
}

/// The shrunk minimal reproducer of an incident.
#[derive(Debug, Clone)]
pub struct IncidentRepro {
    /// Instructions the shrunk program executes.
    pub insts: u64,
    /// Debug renderings of the surviving ops.
    pub ops: Vec<String>,
}

/// A parsed `sgxs-incident-v1` document.
#[derive(Debug, Clone)]
pub struct IncidentDoc {
    /// Content-derived incident id (verified on parse).
    pub id: String,
    /// Producing surface (`fuzz` / `chaos` / `lint` / `audit`).
    pub origin: String,
    /// Workload label.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Execution-tier label.
    pub tier: String,
    /// Oracle verdict or gate outcome.
    pub verdict: String,
    /// The faulting access (`None` for near-misses without a trap).
    pub fault: Option<IncidentFault>,
    /// Injected ground truth, when known.
    pub truth: Option<IncidentTruth>,
    /// Open spans at fault time, outermost first.
    pub span_path: Vec<(String, u64)>,
    /// Recovery-policy trail.
    pub recovery: IncidentRecovery,
    /// Objects the ledger observed in total.
    pub objects_total: u64,
    /// Objects still live at end of run.
    pub objects_live: u64,
    /// Heap neighborhood of the faulting address.
    pub neighborhood: Vec<IncidentNeighbor>,
    /// Pointer-derivation chain, one line per fact.
    pub derivation: Vec<String>,
    /// Trace-ring window of the forensic run.
    pub trace_window: u64,
    /// Total events the forensic run recorded.
    pub trace_total: u64,
    /// Trace tail as `(absolute_index, rendered_line)`.
    pub trace: Vec<(u64, String)>,
    /// Shrunk minimal reproducer, when the shrinker ran.
    pub repro: Option<IncidentRepro>,
    /// Hex digest of the forensic run's full event stream.
    pub digest: String,
}

fn opt_u64_field(v: &Json, key: &str, what: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Err(format!("{what}: missing field '{key}'")),
        Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{what}: field '{key}' is neither null nor an integer")),
    }
}

fn str_list(v: &Json, key: &str, what: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field '{key}'"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{what}: non-string entry in '{key}'"))
        })
        .collect()
}

/// Interprets an already-parsed JSON value as an incident document,
/// verifying everything a forensic consumer relies on: the content-derived
/// id recomputes (so any mutation of the document invalidates it), the
/// tagged-address decode is consistent, every neighborhood row's bounds
/// and distances agree with the faulting address, the recovery decision
/// matches its counts, and the trace tail's absolute indices are strictly
/// ascending within the declared window.
pub fn incident_from_json(v: &Json) -> Result<IncidentDoc, String> {
    let what = "incident";
    obj_of(v, what)?;
    check_schema(v, INCIDENT_SCHEMA, what)?;
    check_finite(v, what)?;
    let id = str_field(v, "id", what)?;
    // Recompute the content hash over the compact serialization with the
    // id blanked — the exact computation the writer used. The JSON tree
    // preserves key order and integer values exactly, so the writer's
    // compact form is reproducible from the parsed document.
    let mut blanked = v.clone();
    if let Json::Obj(fields) = &mut blanked {
        for (k, val) in fields.iter_mut() {
            if k == "id" {
                *val = Json::Str(String::new());
            }
        }
    }
    let want = format!(
        "{:016x}",
        crate::fnv(crate::FNV_OFFSET, blanked.to_compact().as_bytes())
    );
    if id != want {
        return Err(format!(
            "{what}: id '{id}' does not match the document content (expected '{want}')"
        ));
    }
    let fault = match v.get("fault") {
        None | Some(Json::Null) => None,
        Some(f) => {
            let what = "incident fault";
            let fault = IncidentFault {
                at: u64_field(f, "at", what)?,
                index: u64_field(f, "index", what)?,
                site: opt_u64_field(f, "site", what)?,
                raw_addr: u64_field(f, "raw_addr", what)?,
                ptr: u64_field(f, "ptr", what)?,
                tag_ub: u64_field(f, "tag_ub", what)?,
                size: u64_field(f, "size", what)?,
                kind: str_field(f, "kind", what)?,
            };
            if fault.kind != "load" && fault.kind != "store" {
                return Err(format!("{what}: kind '{}' is not load/store", fault.kind));
            }
            if fault.ptr != fault.raw_addr & 0xffff_ffff || fault.tag_ub != fault.raw_addr >> 32 {
                return Err(format!(
                    "{what}: ptr/tag_ub do not decode raw_addr {:#x}",
                    fault.raw_addr
                ));
            }
            Some(fault)
        }
    };
    let truth = match v.get("truth") {
        None | Some(Json::Null) => None,
        Some(t) => {
            let what = "incident truth";
            Some(IncidentTruth {
                kind: str_field(t, "kind", what)?,
                op: str_field(t, "op", what)?,
                op_index: u64_field(t, "op_index", what)?,
            })
        }
    };
    let span_path = v
        .get("span_path")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'span_path'"))?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let what = format!("incident span_path[{i}]");
            Ok((str_field(s, "name", &what)?, u64_field(s, "arg", &what)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let rec = v
        .get("recovery")
        .ok_or_else(|| format!("{what}: missing field 'recovery'"))?;
    let recovery = IncidentRecovery {
        attempts: u64_field(rec, "attempts", "incident recovery")?,
        degraded: u64_field(rec, "degraded", "incident recovery")?,
        gave_up: u64_field(rec, "gave_up", "incident recovery")?,
        decision: str_field(rec, "decision", "incident recovery")?,
    };
    let expect_decision = if recovery.gave_up > 0 {
        "gave-up"
    } else if recovery.degraded > 0 {
        "degraded"
    } else if recovery.attempts > 0 {
        "retried"
    } else {
        "trapped"
    };
    if recovery.decision != expect_decision {
        return Err(format!(
            "{what}: recovery decision '{}' does not match the counts (expected '{expect_decision}')",
            recovery.decision
        ));
    }
    let heap = v
        .get("heap")
        .ok_or_else(|| format!("{what}: missing field 'heap'"))?;
    let objects_total = u64_field(heap, "objects_total", "incident heap")?;
    let objects_live = u64_field(heap, "objects_live", "incident heap")?;
    if objects_live > objects_total {
        return Err(format!(
            "{what}: {objects_live} live objects but only {objects_total} total"
        ));
    }
    let mut neighborhood = Vec::new();
    let rows = heap
        .get("neighborhood")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'heap.neighborhood'"))?;
    for (i, row) in rows.iter().enumerate() {
        let what = format!("incident neighborhood[{i}]");
        let n = IncidentNeighbor {
            id: u64_field(row, "id", &what)?,
            base: u64_field(row, "base", &what)?,
            size: u64_field(row, "size", &what)?,
            ub: u64_field(row, "ub", &what)?,
            birth_at: u64_field(row, "birth_at", &what)?,
            free_at: opt_u64_field(row, "free_at", &what)?,
            relation: str_field(row, "relation", &what)?,
            distance: u64_field(row, "distance", &what)?,
        };
        if n.base.checked_add(n.size) != Some(n.ub) {
            return Err(format!(
                "{what}: ub {} != base {} + size {}",
                n.ub, n.base, n.size
            ));
        }
        if let Some(free_at) = n.free_at {
            if free_at < n.birth_at {
                return Err(format!(
                    "{what}: freed (ins {free_at}) before born (ins {})",
                    n.birth_at
                ));
            }
        }
        let f = fault
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
        neighborhood.push(n);
    }
    if neighborhood.len() as u64 > objects_total {
        return Err(format!(
            "{what}: neighborhood has {} rows but the ledger saw {objects_total} objects",
            neighborhood.len()
        ));
    }
    let derivation = str_list(v, "derivation", what)?;
    let tr = v
        .get("trace")
        .ok_or_else(|| format!("{what}: missing field 'trace'"))?;
    let trace_window = u64_field(tr, "window", "incident trace")?;
    let trace_total = u64_field(tr, "total", "incident trace")?;
    let trace = tr
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing or non-array field 'trace.events'"))?
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let what = format!("incident trace.events[{i}]");
            Ok((str_field(e, "line", &what)?, u64_field(e, "index", &what)?))
        })
        .collect::<Result<Vec<_>, String>>()?
        .into_iter()
        .map(|(line, idx)| (idx, line))
        .collect::<Vec<_>>();
    if trace.len() as u64 > trace_window {
        return Err(format!(
            "{what}: {} trace events exceed the declared window {trace_window}",
            trace.len()
        ));
    }
    if !trace.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(format!("{what}: trace indices not strictly ascending"));
    }
    if let Some((idx, _)) = trace.last() {
        if *idx >= trace_total {
            return Err(format!(
                "{what}: trace index {idx} out of range (total {trace_total})"
            ));
        }
    }
    let repro = match v.get("repro") {
        None | Some(Json::Null) => None,
        Some(r) => Some(IncidentRepro {
            insts: u64_field(r, "insts", "incident repro")?,
            ops: str_list(r, "ops", "incident repro")?,
        }),
    };
    let digest = str_field(v, "digest", what)?;
    if digest.len() != 16 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("{what}: digest '{digest}' is not 16 hex digits"));
    }
    Ok(IncidentDoc {
        id,
        origin: str_field(v, "origin", what)?,
        workload: str_field(v, "workload", what)?,
        scheme: str_field(v, "scheme", what)?,
        tier: str_field(v, "tier", what)?,
        verdict: str_field(v, "verdict", what)?,
        fault,
        truth,
        span_path,
        recovery,
        objects_total,
        objects_live,
        neighborhood,
        derivation,
        trace_window,
        trace_total,
        trace,
        repro,
        digest,
    })
}

/// Parses a `sgxs-incident-v1` document from text.
pub fn parse_incident(text: &str) -> Result<IncidentDoc, String> {
    incident_from_json(&Json::parse(text).map_err(|e| format!("incident: {e}"))?)
}

fn bool_field(v: &Json, key: &str, what: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{what}: missing or non-bool field '{key}'"))
}

fn bool_array(v: &Json, key: &str, what: &str) -> Result<Vec<bool>, String> {
    let Some(Json::Arr(items)) = v.get(key) else {
        return Err(format!("{what}: missing or non-array field '{key}'"));
    };
    items
        .iter()
        .map(|b| {
            b.as_bool()
                .ok_or_else(|| format!("{what}: non-bool entry in '{key}'"))
        })
        .collect()
}

/// One spatial (proved-OOB) finding of a lint document.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// Enclosing function name.
    pub function: String,
    /// Block index.
    pub block: u64,
    /// Instruction index within the block.
    pub inst: u64,
    /// Registered check-site id.
    pub site: u64,
    /// Access kind (`load`/`store`/`rmw`/`cas`).
    pub kind: String,
    /// Access width in bytes.
    pub width: u64,
    /// Object description (e.g. `alloc#0(40B)`).
    pub object: String,
    /// Proven `[lo, hi]` offset bounds, absent when unknown (`null` in
    /// the JSON).
    pub offset: Option<(u64, u64)>,
    /// Textual IR of the offending instruction.
    pub ir: String,
}

/// One temporal finding (`uaf`/`df`/`leak`) of a v2 lint document.
#[derive(Debug, Clone)]
pub struct LintTemporal {
    /// Enclosing function name.
    pub function: String,
    /// Block index.
    pub block: u64,
    /// Instruction index within the block.
    pub inst: u64,
    /// Registered check-site id.
    pub site: u64,
    /// `"uaf"`, `"df"`, or `"leak"`.
    pub kind: String,
    /// Allocation-site number within the function.
    pub alloc_site: u64,
    /// Object description (e.g. `alloc#0(24B)`).
    pub object: String,
    /// Textual IR of the anchoring instruction.
    pub ir: String,
}

/// One call-graph node of a v2 lint document.
#[derive(Debug, Clone)]
pub struct LintCgNode {
    /// Function name.
    pub func: String,
    /// Resolved direct/indirect callees, by name.
    pub callees: Vec<String>,
    /// Condensation component index (bottom-up order).
    pub scc: u64,
    /// Whether the function had an unresolvable indirect call.
    pub unresolved: bool,
}

/// One function summary of a v2 lint document.
#[derive(Debug, Clone)]
pub struct LintSummary {
    /// Function name.
    pub func: String,
    /// Rendered return-value summary (e.g. `fresh(24B)`, `param0+[0,0]`).
    pub ret: String,
    /// Per parameter: may the callee free it (transitively)?
    pub frees_params: Vec<bool>,
    /// Per parameter: does the callee free it on every return path?
    pub must_frees_params: Vec<bool>,
    /// Per parameter: may the callee capture (escape) it?
    pub captures_params: Vec<bool>,
    /// May the callee free memory of unknown provenance?
    pub frees_unknown: bool,
    /// Derived: the callee provably frees nothing at all.
    pub heap_benign: bool,
}

/// One module block of a lint document.
#[derive(Debug, Clone)]
pub struct LintModule {
    /// Module name.
    pub module: String,
    /// Total classified access sites.
    pub sites: u64,
    /// Proved-safe access count.
    pub proved_safe: u64,
    /// Undecided access count.
    pub unknown: u64,
    /// Proved-OOB access count.
    pub proved_oob: u64,
    /// Proved use-after-free count (v2; 0 in v1 documents).
    pub proved_uaf: u64,
    /// Proved double-free count (v2; 0 in v1 documents).
    pub proved_df: u64,
    /// Proved leak count (v2; 0 in v1 documents).
    pub leaks: u64,
    /// Spatial findings.
    pub findings: Vec<LintFinding>,
    /// Temporal findings (v2 only).
    pub temporal: Vec<LintTemporal>,
    /// Call graph (v2 only).
    pub call_graph: Vec<LintCgNode>,
    /// Function summaries (v2 only).
    pub summaries: Vec<LintSummary>,
}

/// A parsed `sgxs-lint-v1` or `sgxs-lint-v2` document.
#[derive(Debug, Clone)]
pub struct LintDoc {
    /// The schema tag the document carried (v1 or v2).
    pub schema: String,
    /// Workload-build seed.
    pub seed: u64,
    /// Whether the interprocedural tier ran (always false for v1).
    pub ipa: bool,
    /// Total proved-OOB across modules.
    pub proved_oob: u64,
    /// Total proved use-after-free across modules (v2).
    pub proved_uaf: u64,
    /// Total proved double-free across modules (v2).
    pub proved_df: u64,
    /// Total proved leaks across modules (v2).
    pub leaks: u64,
    /// Per-module reports.
    pub modules: Vec<LintModule>,
}

/// Schema tag of v1 lint documents.
pub const LINT_SCHEMA: &str = "sgxs-lint-v1";

/// Schema tag of v2 (interprocedural) lint documents.
pub const LINT_SCHEMA_V2: &str = "sgxs-lint-v2";

fn offset_field(v: &Json, what: &str) -> Result<Option<(u64, u64)>, String> {
    let lo = v
        .get("offset_lo")
        .ok_or_else(|| format!("{what}: missing field 'offset_lo'"))?;
    let hi = v
        .get("offset_hi")
        .ok_or_else(|| format!("{what}: missing field 'offset_hi'"))?;
    match (lo, hi) {
        (Json::Null, Json::Null) => Ok(None),
        _ => {
            let lo = lo
                .as_u64()
                .ok_or_else(|| format!("{what}: non-integer 'offset_lo'"))?;
            let hi = hi
                .as_u64()
                .ok_or_else(|| format!("{what}: non-integer 'offset_hi'"))?;
            if lo > hi {
                return Err(format!("{what}: offset_lo {lo} > offset_hi {hi}"));
            }
            Ok(Some((lo, hi)))
        }
    }
}

fn lint_finding(v: &Json, what: &str) -> Result<LintFinding, String> {
    obj_of(v, what)?;
    Ok(LintFinding {
        function: str_field(v, "function", what)?,
        block: u64_field(v, "block", what)?,
        inst: u64_field(v, "inst", what)?,
        site: u64_field(v, "site", what)?,
        kind: str_field(v, "kind", what)?,
        width: u64_field(v, "width", what)?,
        object: str_field(v, "object", what)?,
        offset: offset_field(v, what)?,
        ir: str_field(v, "ir", what)?,
    })
}

fn lint_temporal(v: &Json, what: &str) -> Result<LintTemporal, String> {
    obj_of(v, what)?;
    let kind = str_field(v, "kind", what)?;
    if !matches!(kind.as_str(), "uaf" | "df" | "leak") {
        return Err(format!("{what}: unknown temporal kind '{kind}'"));
    }
    Ok(LintTemporal {
        function: str_field(v, "function", what)?,
        block: u64_field(v, "block", what)?,
        inst: u64_field(v, "inst", what)?,
        site: u64_field(v, "site", what)?,
        kind,
        alloc_site: u64_field(v, "alloc_site", what)?,
        object: str_field(v, "object", what)?,
        ir: str_field(v, "ir", what)?,
    })
}

fn lint_cg_node(v: &Json, what: &str) -> Result<LintCgNode, String> {
    obj_of(v, what)?;
    let Some(Json::Arr(items)) = v.get("callees") else {
        return Err(format!("{what}: missing or non-array field 'callees'"));
    };
    let callees = items
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("{what}: non-string callee"))
        })
        .collect::<Result<_, _>>()?;
    Ok(LintCgNode {
        func: str_field(v, "func", what)?,
        callees,
        scc: u64_field(v, "scc", what)?,
        unresolved: bool_field(v, "unresolved", what)?,
    })
}

fn lint_summary(v: &Json, what: &str) -> Result<LintSummary, String> {
    obj_of(v, what)?;
    let s = LintSummary {
        func: str_field(v, "func", what)?,
        ret: str_field(v, "ret", what)?,
        frees_params: bool_array(v, "frees_params", what)?,
        must_frees_params: bool_array(v, "must_frees_params", what)?,
        captures_params: bool_array(v, "captures_params", what)?,
        frees_unknown: bool_field(v, "frees_unknown", what)?,
        heap_benign: bool_field(v, "heap_benign", what)?,
    };
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
    Ok(s)
}

fn lint_module_block(v: &Json, v2: bool, what: &str) -> Result<LintModule, String> {
    obj_of(v, what)?;
    let Some(Json::Arr(items)) = v.get("findings") else {
        return Err(format!("{what}: missing or non-array field 'findings'"));
    };
    let findings = items
        .iter()
        .map(|f| lint_finding(f, what))
        .collect::<Result<Vec<_>, _>>()?;
    let mut m = LintModule {
        module: str_field(v, "module", what)?,
        sites: u64_field(v, "sites", what)?,
        proved_safe: u64_field(v, "proved_safe", what)?,
        unknown: u64_field(v, "unknown", what)?,
        proved_oob: u64_field(v, "proved_oob", what)?,
        proved_uaf: 0,
        proved_df: 0,
        leaks: 0,
        findings,
        temporal: Vec::new(),
        call_graph: Vec::new(),
        summaries: Vec::new(),
    };
    if checked_sum([m.proved_safe, m.unknown, m.proved_oob]) != Some(m.sites) {
        return Err(format!("{what}: classification counts do not sum to sites"));
    }
    if m.proved_oob as usize != m.findings.len() {
        return Err(format!("{what}: proved_oob disagrees with findings length"));
    }
    if v2 {
        m.proved_uaf = u64_field(v, "proved_uaf", what)?;
        m.proved_df = u64_field(v, "proved_df", what)?;
        m.leaks = u64_field(v, "leaks", what)?;
        let Some(Json::Arr(items)) = v.get("temporal") else {
            return Err(format!("{what}: missing or non-array field 'temporal'"));
        };
        m.temporal = items
            .iter()
            .map(|t| lint_temporal(t, what))
            .collect::<Result<_, _>>()?;
        if checked_sum([m.proved_uaf, m.proved_df, m.leaks]) != Some(m.temporal.len() as u64) {
            return Err(format!(
                "{what}: temporal counts disagree with temporal findings length"
            ));
        }
        let Some(Json::Arr(items)) = v.get("call_graph") else {
            return Err(format!("{what}: missing or non-array field 'call_graph'"));
        };
        m.call_graph = items
            .iter()
            .map(|n| lint_cg_node(n, what))
            .collect::<Result<_, _>>()?;
        let Some(Json::Arr(items)) = v.get("summaries") else {
            return Err(format!("{what}: missing or non-array field 'summaries'"));
        };
        m.summaries = items
            .iter()
            .map(|s| lint_summary(s, what))
            .collect::<Result<_, _>>()?;
        if m.summaries.len() != m.call_graph.len() {
            return Err(format!("{what}: summaries/call_graph length mismatch"));
        }
    }
    Ok(m)
}

/// Interprets an already-parsed JSON value as a lint document (v1 or v2).
pub fn lint_from_json(v: &Json) -> Result<LintDoc, String> {
    let what = "lint";
    obj_of(v, what)?;
    let schema = str_field(v, "schema", what)?;
    let v2 = match schema.as_str() {
        s if s == LINT_SCHEMA => false,
        s if s == LINT_SCHEMA_V2 => true,
        other => {
            return Err(format!(
                "{what}: schema is '{other}', expected '{LINT_SCHEMA}' or '{LINT_SCHEMA_V2}'"
            ))
        }
    };
    check_finite(v, what)?;
    let Some(Json::Arr(items)) = v.get("modules") else {
        return Err(format!("{what}: missing or non-array field 'modules'"));
    };
    let modules = items
        .iter()
        .map(|m| lint_module_block(m, v2, what))
        .collect::<Result<Vec<_>, _>>()?;
    let doc = LintDoc {
        schema,
        seed: u64_field(v, "seed", what)?,
        ipa: if v2 {
            bool_field(v, "ipa", what)?
        } else {
            false
        },
        proved_oob: u64_field(v, "proved_oob", what)?,
        proved_uaf: if v2 {
            u64_field(v, "proved_uaf", what)?
        } else {
            0
        },
        proved_df: if v2 {
            u64_field(v, "proved_df", what)?
        } else {
            0
        },
        leaks: if v2 { u64_field(v, "leaks", what)? } else { 0 },
        modules,
    };
    let sum = |f: fn(&LintModule) -> u64| checked_sum(doc.modules.iter().map(f));
    if Some(doc.proved_oob) != sum(|m| m.proved_oob)
        || Some(doc.proved_uaf) != sum(|m| m.proved_uaf)
        || Some(doc.proved_df) != sum(|m| m.proved_df)
        || Some(doc.leaks) != sum(|m| m.leaks)
    {
        return Err(format!("{what}: document totals disagree with module sums"));
    }
    Ok(doc)
}

/// Parses a `sgxs-lint-v1`/`sgxs-lint-v2` document from text.
pub fn parse_lint(text: &str) -> Result<LintDoc, String> {
    lint_from_json(&Json::parse(text).map_err(|e| format!("lint: {e}"))?)
}

/// Schema tag of campaign-journal documents.
pub const CAMPAIGN_SCHEMA: &str = "sgxs-campaign-v1";

/// One journaled seed of a campaign: either `done` with the
/// campaign-specific payload needed to rebuild that seed's contribution to
/// the final artifact, or `quarantined` with the failure class and detail.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The seed this entry checkpoints.
    pub seed: u64,
    /// `done` or `quarantined`.
    pub status: String,
    /// Attempts the retry ladder spent on the seed (≥ 1).
    pub attempts: u64,
    /// Campaign-specific checkpoint payload (`done` entries only).
    pub payload: Option<Json>,
    /// Failure class — `panic`, `budget`, `transient` (`quarantined` only).
    pub failure_class: Option<String>,
    /// Human-readable failure detail (`quarantined` only).
    pub failure_detail: Option<String>,
}

/// A parsed `sgxs-campaign-v1` journal: the header handshake plus every
/// checkpointed seed, in completion order.
#[derive(Debug, Clone)]
pub struct JournalDoc {
    /// Campaign kind (`fuzz`, `chaos-fuzz`, `chaos`).
    pub campaign: String,
    /// Fingerprint of the options that change per-seed results.
    pub fingerprint: String,
    /// First seed of the campaign's range.
    pub seed0: u64,
    /// Seed count of the campaign's range.
    pub seeds: u64,
    /// Checkpointed seeds, journal order.
    pub entries: Vec<JournalEntry>,
}

/// Parses a `sgxs-campaign-v1` journal from JSONL text: a schema-tagged
/// header line followed by one entry per checkpointed seed. Validates the
/// entry shape (status vocabulary, seed inside the declared range, `done`
/// carries a payload, `quarantined` carries a failure) and rejects a seed
/// journaled twice — an interrupted writer never produces one, so a
/// duplicate means the file was corrupted or concatenated.
pub fn parse_journal(text: &str) -> Result<JournalDoc, String> {
    let what = "journal";
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines
        .next()
        .ok_or_else(|| format!("{what}: empty journal (no header line)"))?;
    let header = Json::parse(header_line).map_err(|e| format!("{what} header: {e}"))?;
    obj_of(&header, what)?;
    check_schema(&header, CAMPAIGN_SCHEMA, what)?;
    let mut doc = JournalDoc {
        campaign: str_field(&header, "campaign", what)?,
        fingerprint: str_field(&header, "fingerprint", what)?,
        seed0: u64_field(&header, "seed0", what)?,
        seeds: u64_field(&header, "seeds", what)?,
        entries: Vec::new(),
    };
    let mut seen = std::collections::BTreeSet::new();
    for (i, line) in lines.enumerate() {
        let what = format!("journal entries[{i}]");
        let v = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        obj_of(&v, &what)?;
        let seed = u64_field(&v, "seed", &what)?;
        let lo = doc.seed0;
        let hi = doc.seed0.saturating_add(doc.seeds);
        if seed < lo || seed >= hi {
            return Err(format!(
                "{what}: seed {seed} outside the journal's range [{lo}, {hi})"
            ));
        }
        if !seen.insert(seed) {
            return Err(format!("{what}: seed {seed} journaled twice"));
        }
        let status = str_field(&v, "status", &what)?;
        let attempts = u64_field(&v, "attempts", &what)?;
        if attempts == 0 {
            return Err(format!("{what}: attempts must be at least 1"));
        }
        let entry = match status.as_str() {
            "done" => JournalEntry {
                seed,
                status,
                attempts,
                payload: Some(
                    v.get("payload")
                        .cloned()
                        .ok_or_else(|| format!("{what}: 'done' entry missing 'payload'"))?,
                ),
                failure_class: None,
                failure_detail: None,
            },
            "quarantined" => {
                let failure = v
                    .get("failure")
                    .ok_or_else(|| format!("{what}: 'quarantined' entry missing 'failure'"))?;
                JournalEntry {
                    seed,
                    status,
                    attempts,
                    payload: None,
                    failure_class: Some(str_field(failure, "class", &what)?),
                    failure_detail: Some(str_field(failure, "detail", &what)?),
                }
            }
            other => {
                return Err(format!(
                    "{what}: unknown status '{other}' (expected 'done' or 'quarantined')"
                ))
            }
        };
        doc.entries.push(entry);
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profile, Recorder, TraceRecorder};

    fn sample_profile_json() -> Json {
        let mut r = TraceRecorder::new(8);
        r.record(
            1,
            crate::Event::CheckExec {
                site: 0,
                cycles: 10,
            },
        );
        let labels = vec![("main".to_owned(), "sb_full".to_owned())];
        Profile::build("w", "sgxbounds", &r, &labels, 100, 200, 5).to_json()
    }

    #[test]
    fn emitted_profile_parses_back() {
        let j = sample_profile_json();
        let doc = parse_profile(&j.to_pretty()).expect("own output parses");
        assert_eq!(doc.workload, "w");
        assert_eq!(doc.check_cycles, 10);
        assert_eq!(doc.app_cycles + doc.check_cycles, doc.cpu_cycles);
        assert_eq!(doc.top_sites.len(), 1);
        assert_eq!(doc.top_sites[0].func, "main");
    }

    #[test]
    fn committed_bench_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench.json");
        let text = std::fs::read_to_string(path).expect("committed baseline exists");
        let doc = parse_bench(&text).expect("committed baseline parses");
        assert_eq!(doc.preset, "Tiny");
        assert_eq!(doc.effort, "Quick");
        for key in ["fig1", "fig7", "fig8", "table4", "cases"] {
            assert!(doc.experiment(key).is_some(), "missing {key}");
        }
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
        let text = r#"{"schema": "sgxs-bench-v1", "preset": "Tiny"}"#;
        let e = parse_bench(text).unwrap_err();
        assert!(e.contains("experiments"), "{e}");
        let text = r#"{"schema": "sgxs-bench-v1", "preset": "Tiny",
                       "experiments": {}}"#;
        let e = parse_bench(text).unwrap_err();
        assert!(e.contains("effort"), "{e}");
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
        // Wrong schema tag.
        let bad = sample_metrics_text().replace("metrics-v1", "metrics-v9");
        assert!(parse_metrics(&bad).is_err());
    }

    /// A handcrafted chaos document whose single combo attempted 3 of 4
    /// requests, with a matching latency block.
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
            "gate": {"failed": false, "failures": []}
        }"#
        .to_owned()
    }

    #[test]
    fn handcrafted_chaos_doc_parses() {
        let doc = parse_chaos(&sample_chaos_text()).expect("valid doc parses");
        assert_eq!((doc.seeds, doc.seed0, doc.requests), (1, 42, 4));
        assert_eq!(doc.threshold, 0.5);
        assert!(!doc.gate_failed);
        assert_eq!(doc.combos.len(), 1);
        let c = &doc.combos[0];
        assert_eq!(
            (c.scheme.as_str(), c.policy.as_str()),
            ("sgxbounds", "graceful")
        );
        assert_eq!(c.served + c.degraded + c.aborted + c.lost, c.total);
        let lat = doc.latency.as_ref().expect("latency block parsed");
        let h = lat.hist("latency/sgxbounds/graceful").unwrap();
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
        // The gate flag must agree with the failure list.
        let bad = sample_chaos_text().replace("\"failed\": false", "\"failed\": true");
        let e = parse_chaos(&bad).unwrap_err();
        assert!(e.contains("gate.failed"), "{e}");
        // A pre-metrics document without the latency block still parses.
        let mut j = Json::parse(&sample_chaos_text()).unwrap();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "latency");
        }
        let doc = chaos_from_json(&j).expect("latency block is optional");
        assert!(doc.latency.is_none());
    }

    /// A handcrafted, internally consistent incident document. The id is
    /// computed the same way writers compute it: FNV-1a over the compact
    /// serialization with the id blanked.
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
        let mut j = Json::parse(body).expect("sample body parses");
        let id = format!(
            "{:016x}",
            crate::fnv(crate::FNV_OFFSET, j.to_compact().as_bytes())
        );
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "id" {
                    *v = Json::Str(id.clone());
                }
            }
        }
        j
    }

    #[test]
    fn handcrafted_incident_doc_parses() {
        let j = sample_incident_json();
        let doc = parse_incident(&j.to_pretty()).expect("valid incident parses");
        assert_eq!(doc.origin, "fuzz");
        let f = doc.fault.as_ref().expect("fault present");
        assert_eq!((f.ptr, f.tag_ub, f.site), (272, 272, Some(2)));
        assert_eq!(doc.neighborhood.len(), 2);
        assert_eq!(doc.neighborhood[0].relation, "before");
        assert_eq!(
            doc.trace,
            vec![
                (5, "[ins 30] alloc addr=0x140 size=32".to_owned()),
                (6, "[ins 40] check_fail site=2".to_owned()),
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
        let fix_id = |text: String| {
            let mut j = Json::parse(&text).unwrap();
            if let Json::Obj(fields) = &mut j {
                for (k, v) in fields.iter_mut() {
                    if k == "id" {
                        *v = Json::Str(String::new());
                    }
                }
            }
            let id = format!(
                "{:016x}",
                crate::fnv(crate::FNV_OFFSET, j.to_compact().as_bytes())
            );
            if let Json::Obj(fields) = &mut j {
                for (k, v) in fields.iter_mut() {
                    if k == "id" {
                        *v = Json::Str(id.clone());
                    }
                }
            }
            j.to_pretty()
        };
        let base = sample_incident_json().to_pretty();
        // Neighborhood bounds must be internally consistent.
        let e = parse_incident(&fix_id(base.replace("\"ub\": 272", "\"ub\": 273"))).unwrap_err();
        assert!(e.contains("ub"), "{e}");
        // Distance must match the faulting pointer.
        let e = parse_incident(&fix_id(
            base.replace("\"distance\": 48", "\"distance\": 47"),
        ))
        .unwrap_err();
        assert!(e.contains("distance"), "{e}");
        // The recovery decision must match its counts.
        let e = parse_incident(&fix_id(
            base.replace("\"decision\": \"trapped\"", "\"decision\": \"retried\""),
        ))
        .unwrap_err();
        assert!(e.contains("decision"), "{e}");
        // Trace indices ascend strictly.
        let e =
            parse_incident(&fix_id(base.replace("\"index\": 5,", "\"index\": 6,"))).unwrap_err();
        assert!(e.contains("ascending"), "{e}");
        // The fault kind vocabulary is closed.
        let e = parse_incident(&fix_id(
            base.replace("\"kind\": \"store\"", "\"kind\": \"write\""),
        ))
        .unwrap_err();
        assert!(e.contains("load/store"), "{e}");
        // A null fault is allowed only with an empty neighborhood — there
        // is no address to anchor the rows on.
        let mut j = Json::parse(&base).unwrap();
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "fault" {
                    *v = Json::Null;
                }
            }
        }
        let e = parse_incident(&fix_id(j.to_pretty())).unwrap_err();
        assert!(e.contains("without a fault"), "{e}");
    }

    #[test]
    fn chaos_incident_embedding_is_validated() {
        let mut j = Json::parse(&sample_chaos_text()).unwrap();
        if let Json::Obj(fields) = &mut j {
            fields.insert(
                fields.len() - 1,
                (
                    "incidents".to_owned(),
                    Json::Arr(vec![sample_incident_json()]),
                ),
            );
        }
        let doc = chaos_from_json(&j).expect("embedded incident validates");
        assert_eq!(doc.incidents.len(), 1);
        assert_eq!(doc.incidents[0].origin, "fuzz");
        // A corrupt embedded incident fails the whole document.
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "incidents" {
                    *v = Json::Arr(vec![Json::obj(vec![("schema", "bogus".into())])]);
                }
            }
        }
        let e = chaos_from_json(&j).unwrap_err();
        assert!(e.contains("incidents[0]"), "{e}");
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
        let doc = parse_lint(&sample_lint_v2_text()).expect("v2 parses");
        assert_eq!(doc.schema, "sgxs-lint-v2");
        assert!(doc.ipa);
        assert_eq!(doc.modules.len(), 1);
        let m = &doc.modules[0];
        assert_eq!(m.findings[0].offset, None);
        assert_eq!(m.temporal[0].kind, "uaf");
        assert_eq!(m.summaries[0].frees_params, vec![true]);
        assert!(!m.summaries[0].heap_benign);
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
        assert!(!doc.ipa);
        assert_eq!(doc.proved_uaf, 0);
        assert!(doc.modules[0].temporal.is_empty());
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
        let doc = parse_journal(&sample_journal_text()).expect("journal parses");
        assert_eq!(doc.campaign, "fuzz");
        assert_eq!((doc.seed0, doc.seeds), (5, 3));
        assert_eq!(doc.entries.len(), 2);
        assert_eq!(doc.entries[0].seed, 5);
        assert_eq!(
            doc.entries[0]
                .payload
                .as_ref()
                .unwrap()
                .get("runs")
                .unwrap(),
            &Json::from(16u64)
        );
        assert_eq!(doc.entries[1].failure_class.as_deref(), Some("budget"));
        assert_eq!(
            doc.entries[1].failure_detail.as_deref(),
            Some("spent 99 of 10")
        );
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
        // Wrong schema tag and empty input.
        assert!(parse_journal("{\"schema\":\"sgxs-campaign-v2\"}").is_err());
        assert!(parse_journal("").unwrap_err().contains("empty"));
    }
}
