//! The `sgxs-campaign-v1` journal: an append-only JSONL checkpoint of
//! per-seed campaign verdicts.
//!
//! Line 1 is the header — campaign name, an options fingerprint, and the
//! seed range — and every following line is one completed seed: either
//! `done` with a campaign-specific payload (enough to rebuild that seed's
//! contribution to the final artifact without re-running it) or
//! `quarantined` with the failure class and detail. Each line goes to the
//! file in one `write_all` as its seed finishes. A kill can still cut the
//! last line short; [`JournalWriter::resume`] drops such a torn tail, so
//! `--resume` re-runs that one seed and picks up where the run stopped.
//! The validating parser lives in [`sgxs_obs::read::parse_journal`]; this
//! module wraps it with the writer and the fingerprint handshake.

use sgxs_obs::json::Json;
use sgxs_obs::read::{parse_journal, JournalEntry, CAMPAIGN_SCHEMA};
use std::io::Write as _;
use std::sync::Mutex;

/// Identity of a campaign a journal belongs to. Resume refuses a journal
/// whose header does not match the live campaign bit-for-bit — replaying
/// half of a different campaign would silently corrupt the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign kind (`fuzz`, `chaos-fuzz`, `chaos`).
    pub campaign: String,
    /// FNV fingerprint of every option that changes per-seed results.
    pub fingerprint: String,
    /// First seed.
    pub seed0: u64,
    /// Seed count.
    pub seeds: u64,
}

impl JournalHeader {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", CAMPAIGN_SCHEMA.into()),
            ("campaign", self.campaign.as_str().into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("seed0", self.seed0.into()),
            ("seeds", self.seeds.into()),
        ])
    }
}

/// FNV-1a over a canonical options rendering — the journal handshake.
pub fn fingerprint(canonical: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in canonical.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Append-only journal writer. Every [`JournalWriter::append`] hands one
/// whole line, `\n` included, to a single `write_all`. A kill mid-write
/// can leave at most that line torn, which [`JournalWriter::resume`]
/// removes. Lines are not synced to disk: this covers a killed process,
/// not a lost machine.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<std::fs::File>,
    path: String,
}

impl JournalWriter {
    /// Creates a fresh journal at `path`, writing the header line.
    pub fn create(path: &str, header: &JournalHeader) -> Result<JournalWriter, String> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal {path}: {e}"))?;
        file.write_all(journal_line(&header.to_json()).as_bytes())
            .map_err(|e| format!("cannot write journal header to {path}: {e}"))?;
        Ok(JournalWriter {
            file: Mutex::new(file),
            path: path.to_owned(),
        })
    }

    /// Reopens an existing journal for appending (resume mode). The
    /// header must match `header` exactly; returns the already-journaled
    /// entries. A trailing line without its `\n` is a write cut short by
    /// a kill: it is truncated from the file, so its seed runs again. Any
    /// other malformed line rejects the journal and leaves it untouched.
    pub fn resume(
        path: &str,
        header: &JournalHeader,
    ) -> Result<(JournalWriter, Vec<JournalEntry>), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read journal {path}: {e}"))?;
        let complete = bytes.iter().rposition(|b| *b == b'\n').map_or(0, |i| i + 1);
        let text = std::str::from_utf8(&bytes[..complete])
            .map_err(|e| format!("{path}: journal is not UTF-8: {e}"))?;
        let doc = parse_journal(text).map_err(|e| format!("{path}: {e}"))?;
        let found = JournalHeader {
            campaign: doc.campaign,
            fingerprint: doc.fingerprint,
            seed0: doc.seed0,
            seeds: doc.seeds,
        };
        if &found != header {
            return Err(format!(
                "{path}: journal belongs to a different campaign \
                 (journal {found:?}, live {header:?}) — refusing to resume"
            ));
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot append to journal {path}: {e}"))?;
        if complete < bytes.len() {
            file.set_len(complete as u64)
                .map_err(|e| format!("cannot truncate the torn tail of journal {path}: {e}"))?;
        }
        Ok((
            JournalWriter {
                file: Mutex::new(file),
                path: path.to_owned(),
            },
            doc.entries,
        ))
    }

    /// Appends one completed-seed line with a single `write_all`.
    pub fn append(&self, line: &Json) -> Result<(), String> {
        let mut file = self.file.lock().expect("journal writer poisoned");
        file.write_all(journal_line(line).as_bytes())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path))
    }
}

/// One journal line, terminated, ready for a single write.
fn journal_line(line: &Json) -> String {
    let mut text = line.to_compact();
    text.push('\n');
    text
}

/// Serializes a `done` entry.
pub fn done_line(seed: u64, attempts: u32, payload: Json) -> Json {
    Json::obj(vec![
        ("seed", seed.into()),
        ("status", "done".into()),
        ("attempts", (attempts as u64).into()),
        ("payload", payload),
    ])
}

/// Serializes a `quarantined` entry.
pub fn quarantined_line(seed: u64, attempts: u32, class: &str, detail: &str) -> Json {
    Json::obj(vec![
        ("seed", seed.into()),
        ("status", "quarantined".into()),
        ("attempts", (attempts as u64).into()),
        (
            "failure",
            Json::obj(vec![("class", class.into()), ("detail", detail.into())]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sgxs-super-tests");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn journal_round_trips_and_resume_checks_the_handshake() {
        let path = tmp("roundtrip");
        let header = JournalHeader {
            campaign: "fuzz".into(),
            fingerprint: fingerprint("opts v1"),
            seed0: 10,
            seeds: 4,
        };
        let w = JournalWriter::create(&path, &header).expect("create");
        w.append(&done_line(10, 1, Json::obj(vec![("runs", 16u64.into())])))
            .expect("append");
        w.append(&quarantined_line(
            11,
            1,
            "panic",
            "demo: injected panicking seed",
        ))
        .expect("append");
        drop(w);

        let (_w2, entries) = JournalWriter::resume(&path, &header).expect("resume");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seed, 10);
        assert_eq!(entries[0].status, "done");
        assert_eq!(entries[1].status, "quarantined");
        assert_eq!(entries[1].failure_class.as_deref(), Some("panic"));

        // A different fingerprint must refuse to resume.
        let other = JournalHeader {
            fingerprint: fingerprint("opts v2"),
            ..header.clone()
        };
        let err = JournalWriter::resume(&path, &other).expect_err("handshake must fail");
        assert!(err.contains("different campaign"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// A kill can cut the journal at any byte. Resuming must keep every
    /// complete line, drop the torn one from the file (its seed re-runs),
    /// and append cleanly after it; a cut inside the header is an error.
    #[test]
    fn resume_drops_a_torn_tail_at_every_cut_point() {
        let path = tmp("torn");
        let header = JournalHeader {
            campaign: "fuzz".into(),
            fingerprint: fingerprint("opts torn"),
            seed0: 0,
            seeds: 8,
        };
        let w = JournalWriter::create(&path, &header).expect("create");
        w.append(&done_line(0, 1, Json::obj(vec![("runs", 16u64.into())])))
            .expect("append");
        w.append(&quarantined_line(1, 2, "panic", "demo: torn — journal"))
            .expect("append");
        w.append(&done_line(2, 1, Json::Null)).expect("append");
        drop(w);
        let full = std::fs::read(&path).expect("journal bytes");
        let header_len = full.iter().position(|b| *b == b'\n').expect("header line") + 1;

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).expect("write cut journal");
            let result = JournalWriter::resume(&path, &header);
            if cut < header_len {
                assert!(result.is_err(), "cut {cut} inside the header resumed");
                continue;
            }
            let (w, entries) = result.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let kept = full[..cut]
                .iter()
                .rposition(|b| *b == b'\n')
                .expect("header")
                + 1;
            let lines = full[header_len..kept]
                .iter()
                .filter(|b| **b == b'\n')
                .count();
            assert_eq!(entries.len(), lines, "cut {cut}");
            let seeds: Vec<u64> = entries.iter().map(|e| e.seed).collect();
            assert_eq!(seeds, (0..lines as u64).collect::<Vec<_>>(), "cut {cut}");
            assert_eq!(
                std::fs::read(&path).expect("reread"),
                &full[..kept],
                "cut {cut}: file not truncated to its complete lines"
            );
            // The re-run seed appends onto a clean line boundary.
            w.append(&done_line(7, 1, Json::Null))
                .expect("append after resume");
            drop(w);
            let (_w, again) = JournalWriter::resume(&path, &header).expect("second resume");
            assert_eq!(again.len(), lines + 1, "cut {cut}");
        }

        // Interior corruption is still rejected, and the file is left as is.
        let mut bad = full.clone();
        bad[header_len] = b'#';
        std::fs::write(&path, &bad).expect("write corrupt journal");
        assert!(JournalWriter::resume(&path, &header).is_err());
        assert_eq!(std::fs::read(&path).expect("reread"), bad);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint("a"), fingerprint("a"));
        assert_ne!(fingerprint("a"), fingerprint("b"));
        assert_eq!(fingerprint("").len(), 16);
    }
}
