//! The append-only benchmark history (`results/history.jsonl`).
//!
//! One line per recorded run, schema `sgxs-history-v1`:
//!
//! ```json
//! {"schema": "sgxs-history-v1", "rev": "0b35491", "preset": "Tiny",
//!  "effort": "Quick", "seed": 42, "bench": { ...sgxs-bench-v1... }}
//! ```
//!
//! The embedded `bench` document is the complete `sgxs-bench-v1` output
//! of that run; the envelope adds the provenance the comparison engine
//! needs: which commit produced it and which input seed the workloads
//! ran with. Replicates = same rev, same preset/effort, different seeds.
//! Appending is the only mutation; `repro bench record` never rewrites
//! existing lines, so the file is a merge-friendly, ever-growing log.

use crate::metrics::{flatten, Metric};
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{bench_from_json, BenchDoc};

/// Schema tag of one history line.
pub const HISTORY_SCHEMA: &str = "sgxs-history-v1";

sgxs_obs::document! {
    /// One recorded run.
    #[derive(Debug, Clone)]
    pub struct HistoryRecord[HISTORY_SCHEMA] {
        /// Git revision (short hash) of the tree that produced the run.
        pub rev: String,
        /// Machine preset (the embedded bench document's).
        pub preset: String,
        /// Effort level (the embedded bench document's).
        pub effort: String,
        /// Workload input seed.
        pub seed: u64,
        /// The embedded bench document.
        pub bench: BenchDoc,
    }
}

impl HistoryRecord {
    /// Wraps a bench document produced under `rev` and `seed`.
    pub fn new(rev: &str, seed: u64, bench_json: Json) -> Result<HistoryRecord, String> {
        let bench = bench_from_json(&bench_json)?;
        Ok(HistoryRecord {
            rev: rev.to_owned(),
            preset: bench.preset.clone(),
            effort: bench.effort.clone(),
            seed,
            bench,
        })
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.put().to_compact()
    }

    /// The record's flattened metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        flatten(&self.bench)
    }
}

/// Parses a history file (one record per non-empty line). A line's
/// preset and effort must be its bench document's, as the writer copies
/// them.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let what = format!("history line {}", i + 1);
        let v = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        let r = HistoryRecord::take(&v, &what)?;
        if (&r.preset, &r.effort) != (&r.bench.preset, &r.bench.effort) {
            return Err(format!(
                "{what}: envelope says {}/{} but its bench says {}/{}",
                r.preset, r.effort, r.bench.preset, r.bench.effort
            ));
        }
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(ratio: f64) -> Json {
        Json::parse(&format!(
            r#"{{"schema": "sgxs-bench-v1", "preset": "Tiny", "effort": "Quick",
                 "experiments": {{"fig7": {{"gmean_perf": {{"sgxbounds": {ratio}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn record_roundtrips_through_its_line() {
        let r = HistoryRecord::new("abc1234", 43, bench_json(1.17)).unwrap();
        let line = r.to_line();
        assert!(!line.contains('\n'));
        let back = parse_history(&line).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].rev, "abc1234");
        assert_eq!(back[0].seed, 43);
        assert_eq!(back[0].preset, "Tiny");
        let m = back[0].metrics();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].path, "fig7.gmean_perf.sgxbounds");
    }

    #[test]
    fn multiple_lines_and_blanks_parse() {
        let a = HistoryRecord::new("r1", 1, bench_json(1.1)).unwrap();
        let b = HistoryRecord::new("r1", 2, bench_json(1.2)).unwrap();
        let text = format!("{}\n\n{}\n", a.to_line(), b.to_line());
        let recs = parse_history(&text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].seed, 2);
    }

    #[test]
    fn bad_lines_error_with_line_numbers() {
        let good = HistoryRecord::new("r1", 1, bench_json(1.1)).unwrap();
        let text = format!("{}\n{{\"schema\": \"nope\"}}\n", good.to_line());
        let e = parse_history(&text).unwrap_err();
        assert!(e.contains("line 2"), "{e}");
        assert!(parse_history("{truncated").is_err());
        // An embedded bench that fails validation is rejected too.
        let line = r#"{"schema": "sgxs-history-v1", "rev": "r", "preset": "Tiny", "effort": "Quick", "seed": 1, "bench": {"schema": "x"}}"#;
        let e = parse_history(line).unwrap_err();
        assert!(e.contains("line 1") && e.contains("bench"), "{e}");
        // The envelope repeats what its bench says.
        let forged = good.to_line().replacen("\"Tiny\"", "\"Paper\"", 1);
        let e = parse_history(&forged).unwrap_err();
        assert!(e.contains("envelope says Paper/Quick"), "{e}");
    }
}
