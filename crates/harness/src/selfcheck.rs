//! `repro selfcheck`: every determinism law of every artifact, from one
//! table.
//!
//! [`ROWS`] has one row per artifact-producing command: its `repro`
//! arguments with each file it writes marked `{name}` (the first is its
//! document; with none marked, stdout is), its exit code, its validating
//! reader, and its laws. [`check`] applies each law the same way to every
//! row, through the runner it is given:
//!
//! * `rerun`, `tier`, `workers` — a second run, a `--tier compiled` run
//!   and a `--workers 1` run (the row runs 4) each write the same bytes;
//! * `resume` — stopped after [`STOP_AFTER`] seeds (exit 3, or the row's
//!   own code when a failing seed came first) and resumed from its
//!   journal, the campaign writes the bytes of the uninterrupted run;
//! * `committed`, `same-as` — the document equals a committed file, or an
//!   earlier row's document;
//! * `gate` — `repro compare DOC DOC --gate` exits 0.
//!
//! The bytes compared are every file the row writes. Every run must exit
//! with the row's code; the base run's document must pass the reader, and
//! its other files must not be empty. A row carries every law its flags
//! allow (`tier` for `--tier`, `workers` and `resume` for the supervisor
//! flags, `rerun` otherwise); a unit test asks the command-line parser.
//! `repro selfcheck` spawns this executable once per run, so no process
//! state (a panic, say) carries over, and keeps each run's
//! files, stdout and stderr under `target/selfcheck/<row>/<run>/`, minus a
//! stopped run's once its law holds: they depend on the worker schedule.

use crate::cli::{EXIT_STOPPED, USAGE};
use crate::exp::Experiments;
use sgxs_obs::json::Json;
use sgxs_obs::read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

/// Where `repro selfcheck` keeps every run's files.
pub(crate) const OUT_DIR: &str = "target/selfcheck";

/// Completed seeds after which a `resume` law stops its campaign. Its rows
/// run at least `STOP_AFTER + 4` seeds on 4 workers, so seeds are left.
pub(crate) const STOP_AFTER: &str = "10";

/// A determinism law, one of the module docs' list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Law {
    Rerun,
    Tier,
    Workers,
    Resume,
    /// A repository-relative file.
    Committed(&'static str),
    /// An earlier row's name.
    SameAs(&'static str),
    Gate,
}

impl Law {
    /// The law's name in failure lines.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Rerun => "rerun",
            Tier => "tier",
            Workers => "workers",
            Resume => "resume",
            Committed(_) => "committed",
            SameAs(_) => "same-as",
            Gate => "gate",
        }
    }
}

/// Validates a document's text.
pub(crate) type Reader = fn(&str) -> Result<(), String>;

/// One artifact-producing command and the laws it obeys.
pub(crate) struct Row {
    /// The row's name, also its directory.
    pub(crate) name: &'static str,
    /// The `repro` arguments, separated by single spaces; `{file}` marks a
    /// file the command writes, the first one its document.
    pub(crate) cmd: &'static str,
    /// The exit code every run must return.
    pub(crate) exit: i32,
    /// The document's validating reader; `None` for stdout.
    pub(crate) reader: Option<Reader>,
    /// The laws the row obeys.
    pub(crate) laws: &'static [Law],
}

#[rustfmt::skip]
const fn row(name: &'static str, cmd: &'static str, exit: i32, reader: Option<Reader>, laws: &'static [Law]) -> Row {
    Row { name, cmd, exit, reader, laws }
}

use Law::*;

const FUZZ: Option<Reader> = Some(|t| read::parse_fuzz(t).map(drop));
const CHAOS: Option<Reader> = Some(|t| read::parse_chaos(t).map(drop));
const LINT: Option<Reader> = Some(|t| read::parse_lint(t).map(drop));
const INCIDENT: Option<Reader> = Some(|t| read::parse_incident(t).map(drop));
const METRICS: Option<Reader> = Some(|t| read::parse_metrics(t).map(drop));
const PROFILE: Option<Reader> = Some(|t| read::parse_profile(t).map(drop));
const BENCH: Option<Reader> = Some(|t| Experiments::read(&read::parse_bench(t)?).map(drop));
const TRACE: Option<Reader> = Some(|t| Json::parse(t).map(drop));
const SUPERVISED: &[Law] = &[Tier, Workers, Resume];

/// The registry: every artifact-producing command, cheapest first.
#[rustfmt::skip]
pub(crate) const ROWS: &[Row] = &[
    row("fuzz", "fuzz --corpus tests/corpus/fuzz_seeds.txt --seeds 400 --workers 4 --json {doc.json}",
        0, FUZZ, SUPERVISED),
    row("quarantine", "fuzz --seeds 50 --workers 4 --demo-panic 7 --demo-budget 11 --quarantine --json {doc.json}",
        0, FUZZ, SUPERVISED),
    row("quarantine-fails", "fuzz --seeds 50 --workers 4 --demo-panic 7 --demo-budget 11 --json {doc.json}",
        1, FUZZ, &[Tier, Workers, Resume, SameAs("quarantine")]),
    row("chaos-fuzz", "fuzz --chaos --seeds 100 --workers 4", 0, None, SUPERVISED),
    row("chaos", "chaos --seeds 100 --workers 4 --json {doc.json}", 0, CHAOS, SUPERVISED),
    row("chaos-corruption", "chaos --seeds 16 --requests 16 --demo-corruption --workers 4 --json {doc.json}",
        1, CHAOS, SUPERVISED),
    row("metrics", "metrics --seeds 20 --workers 4 --json {doc.json}", 0, METRICS, &[Tier, Workers, Resume, Gate]),
    row("trace", "trace export --seed 3 --requests 16 --out {doc.json} --ascii {trace.txt} --svg {trace.svg}",
        0, TRACE, &[Tier]),
    row("profile", "profile string_match --scheme sgxbounds --json {doc.json} --trace {trace.jsonl}",
        0, PROFILE, &[Rerun]),
    row("audit", "audit --demo-oob --json {doc.json} --ascii {incident.txt} --svg {incident.svg}",
        0, INCIDENT, &[Rerun]),
    row("lint", "lint --json {doc.json}", 0, LINT, &[Rerun]),
    row("lint-ipa", "lint --ipa --ascii --json {doc.json}", 0, LINT, &[Rerun]),
    row("lint-ipa-plain", "lint --ipa --json {doc.json}", 0, LINT, &[Rerun, SameAs("lint-ipa")]),
    row("lint-uaf", "lint --demo-uaf --ipa --ascii --json {doc.json}", 1, LINT, &[Rerun]),
    row("lint-oob", "lint --demo-oob --incident {doc.json}", 1, INCIDENT, &[Rerun, SameAs("audit")]),
    row("bench", "all --quick --tiny --json {doc.json}", 0, BENCH, &[Committed("results/bench.json"), Tier, Gate]),
];

/// Runs `repro ARGS`. `Err` is a failure of the runner itself.
pub(crate) type Runner<'a> = dyn FnMut(&[String]) -> Result<Output, String> + 'a;

/// Named file contents, such as a run's outputs: its document
/// (`stdout.txt` when the row marks no file), then its other files.
type Files = Vec<(String, Vec<u8>)>;

fn io_err(path: &Path, e: std::io::Error) -> String {
    format!("selfcheck: {}: {e}", path.display())
}

/// One row under check, and the failures found so far.
struct RowCheck<'a, 'r> {
    row: &'a Row,
    run: &'a mut Runner<'r>,
    dir: PathBuf,
    /// The law under check, named in failure lines.
    law: &'static str,
    broken: Vec<String>,
}

impl RowCheck<'_, '_> {
    fn fail(&mut self, msg: impl std::fmt::Display) {
        let line = format!("{} {}: {msg}", self.row.name, self.law);
        println!("  {line}");
        self.broken.push(line);
    }

    /// Runs `args` as run `name`, keeping its stdout and stderr in the
    /// run's directory; a failure unless it exits with one of `codes`.
    fn spawn(&mut self, name: &str, args: &[String], codes: &[i32]) -> Result<Output, String> {
        let dir = self.dir.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let out = (self.run)(args)?;
        for (file, bytes) in [("stdout.txt", &out.stdout), ("stderr.txt", &out.stderr)] {
            std::fs::write(dir.join(file), bytes).map_err(|e| io_err(&dir, e))?;
        }
        let code = out.status.code().unwrap_or(-1);
        if !codes.contains(&code) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let (cmd, last) = (args.join(" "), stderr.lines().last().unwrap_or(""));
            let msg = format!("`repro {cmd}` exited {code}, not {codes:?}: {last}");
            self.fail(msg);
        }
        Ok(out)
    }

    /// Runs the row as run `name` with `extra` arguments; its outputs, or
    /// `None` (a failure) when a marked file was not written.
    fn exec(&mut self, name: &str, extra: &[&str], codes: &[i32]) -> Result<Option<Files>, String> {
        let dir = self.dir.join(name);
        let marked = self
            .row
            .cmd
            .split(' ')
            .filter_map(|a| a.strip_prefix('{')?.strip_suffix('}'));
        let files: Vec<&str> = marked.collect();
        let prefix = format!("{}/", dir.display());
        let args = self.row.cmd.split(' ').chain(extra.iter().copied());
        let args: Vec<String> = args
            .map(|a| a.replace('{', &prefix).replace('}', ""))
            .collect();
        let out = self.spawn(name, &args, codes)?;
        let mut outputs = Vec::new();
        if files.is_empty() {
            outputs.push(("stdout.txt".to_owned(), out.stdout));
        }
        for file in files {
            let Ok(bytes) = std::fs::read(dir.join(file)) else {
                self.fail(format!("the {name} run wrote no {file}"));
                return Ok(None);
            };
            outputs.push((file.to_owned(), bytes));
        }
        Ok(Some(outputs))
    }

    /// A failure for every file in `got` that differs from `want`'s.
    fn same(&mut self, want: &[(String, Vec<u8>)], got: &[(String, Vec<u8>)], what: &str) {
        for ((file, a), (_, b)) in want.iter().zip(got) {
            if a != b {
                let at = a.iter().zip(b).position(|(x, y)| x != y);
                let at = at.unwrap_or(a.len().min(b.len()));
                self.fail(format!("{file} differs from {what} at byte {at}"));
            }
        }
    }

    /// The `resume` law: stop, resume, compare with `base`.
    fn resume(&mut self, base: &Files) -> Result<(), String> {
        let stop_dir = self.dir.join("stop");
        let journal = stop_dir.join("journal.jsonl");
        let journal = journal.to_string_lossy();
        let stopped = [EXIT_STOPPED, self.row.exit];
        let codes = &stopped[..if self.row.exit == 0 { 1 } else { 2 }];
        let before = self.broken.len();
        let stop = ["--journal", &journal, "--stop-after", STOP_AFTER];
        if self.exec("stop", &stop, codes)?.as_ref() == Some(base) {
            self.fail(format!("--stop-after {STOP_AFTER} left no seed to resume"));
        }
        let resumed = self.exec("resume", &["--resume", &journal], &[self.row.exit])?;
        self.same(base, &resumed.unwrap_or_default(), "the uninterrupted run");
        if self.broken.len() == before {
            std::fs::remove_dir_all(&stop_dir).map_err(|e| io_err(&stop_dir, e))?;
        }
        Ok(())
    }

    /// The base run, its reader, then every law; returns the row's
    /// document under the row's name, for later `same-as` laws.
    fn check(&mut self, root: &Path, docs: &Files) -> Result<Files, String> {
        let row = self.row;
        self.law = "exit";
        let Some(base) = self.exec("base", &[], &[row.exit])? else {
            return Ok(Vec::new());
        };
        self.law = "reader";
        let text = std::str::from_utf8(&base[0].1).map_err(|e| e.to_string());
        if let Some(Err(e)) = row.reader.map(|read| text.and_then(read)) {
            self.fail(e);
        }
        for (file, _) in base[1..].iter().filter(|(_, bytes)| bytes.is_empty()) {
            self.fail(format!("{file} is empty"));
        }
        for &law in row.laws {
            self.law = law.name();
            let extra: &[&str] = match law {
                Tier => &["--tier", "compiled"],
                Workers => &["--workers", "1"],
                _ => &[],
            };
            match law {
                Rerun | Tier | Workers => {
                    let got = self.exec(law.name(), extra, &[row.exit])?;
                    self.same(&base, &got.unwrap_or_default(), "the base run");
                }
                Resume => self.resume(&base)?,
                Committed(file) => {
                    let path = root.join(file);
                    let want = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
                    self.same(&base[..1], &[(file.to_owned(), want)], file);
                }
                SameAs(other) => match docs.iter().find(|(name, _)| name == other) {
                    Some(want) => self.same(&base[..1], std::slice::from_ref(want), other),
                    None => self.fail(format!("row {other} wrote no document")),
                },
                Gate => {
                    let doc = self.dir.join("base").join(&base[0].0);
                    let doc = doc.to_string_lossy();
                    let args = ["compare", &doc, &doc, "--gate"].map(String::from);
                    self.spawn("gate", &args, &[0])?;
                }
            }
        }
        Ok(vec![(row.name.to_owned(), base[0].1.clone())])
    }
}

/// Checks every law of every row in `rows`, running commands through `run`
/// with their files under `out`, and reading committed files under `root`.
/// Returns one line per broken law, naming its row and law; `Err` is an
/// I/O error.
pub(crate) fn check(
    rows: &[Row],
    run: &mut Runner,
    root: &Path,
    out: &Path,
) -> Result<Vec<String>, String> {
    let (mut docs, mut broken) = (Vec::new(), Vec::new());
    for row in rows {
        let t0 = Instant::now();
        let mut rc = RowCheck {
            row,
            run: &mut *run,
            dir: out.join(row.name),
            law: "",
            broken: Vec::new(),
        };
        docs.extend(rc.check(root, &docs)?);
        let verdict = if rc.broken.is_empty() { "ok  " } else { "FAIL" };
        let laws: Vec<&str> = row.laws.iter().map(|l| l.name()).collect();
        let (name, secs) = (row.name, t0.elapsed().as_secs_f64());
        println!("{verdict} {name:<17} {secs:>5.1} s  {}", laws.join(" "));
        broken.append(&mut rc.broken);
    }
    Ok(broken)
}

/// `repro selfcheck`: runs [`check`] over [`ROWS`] from the repository
/// root into [`OUT_DIR`], spawning this executable once per run. Exits 0
/// when every law holds and 1 when one breaks.
pub(crate) fn run_selfcheck(args: &[String]) -> Result<i32, String> {
    if let Some(a) = args.first() {
        return Err(format!("selfcheck: takes no arguments, got '{a}'\n{USAGE}"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("selfcheck: no path to repro: {e}"))?;
    let out = Path::new(OUT_DIR);
    if out.exists() {
        std::fs::remove_dir_all(out).map_err(|e| io_err(out, e))?;
    }
    let mut spawn = |args: &[String]| {
        let out = Command::new(&exe).args(args).output();
        out.map_err(|e| format!("selfcheck: cannot run {}: {e}", exe.display()))
    };
    let broken = check(ROWS, &mut spawn, Path::new("."), out)?;
    let laws: usize = ROWS.iter().map(|r| r.laws.len()).sum();
    if broken.is_empty() {
        println!("selfcheck passed: {} rows, {laws} laws", ROWS.len());
        return Ok(0);
    }
    println!("selfcheck FAILED: {} of {laws} laws broken", broken.len());
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Whether the row's command parses `flag`: with a bogus value every
    /// command fails before it runs, naming the flag only if it is unknown.
    fn takes(row: &Row, flag: &str) -> bool {
        let mut args: Vec<String> = row.cmd.split(' ').map(String::from).collect();
        args.extend([flag.to_owned(), "?".to_owned()]);
        let e = crate::cli::run(&args).expect_err("a bogus value never runs");
        !e.contains("unknown argument") && !e.contains("unknown experiment")
    }

    #[test]
    fn every_row_carries_every_law_its_flags_allow() {
        for (i, row) in ROWS.iter().enumerate() {
            let (tier, supervised) = (takes(row, "--tier"), takes(row, "--workers"));
            let has = |law| row.laws.contains(&law);
            assert_eq!(has(Tier), tier, "{}: tier", row.name);
            assert_eq!(has(Workers), supervised, "{}: workers", row.name);
            assert_eq!(has(Resume), supervised, "{}: resume", row.name);
            assert_eq!(has(Rerun), !tier && !supervised, "{}: rerun", row.name);
            if supervised {
                let args: Vec<&str> = row.cmd.split(' ').collect();
                let seeds = args.windows(2).find(|w| w[0] == "--seeds").map(|w| w[1]);
                let seeds: u64 = seeds.expect("a seed count").parse().unwrap();
                assert!(
                    seeds >= STOP_AFTER.parse::<u64>().unwrap() + 4,
                    "{}",
                    row.name
                );
                assert!(row.cmd.contains("--workers 4"), "{}", row.name);
            }
            let earlier = &ROWS[..i];
            assert!(earlier.iter().all(|r| r.name != row.name), "{}", row.name);
            for law in row.laws {
                if let SameAs(other) = law {
                    assert!(earlier.iter().any(|r| r.name == *other), "{}", row.name);
                }
            }
        }
        let committed = |r: &&Row| r.laws.contains(&Committed("results/bench.json"));
        let bench = ROWS.iter().find(committed).expect("a row pins the bench");
        assert!(bench.cmd.starts_with("all --quick --tiny --json "));
    }

    /// A change the fake `repro` makes to the run whose arguments mention
    /// a given string.
    #[derive(Clone, Copy)]
    enum Edit {
        Byte(usize),
        Exit(i32),
    }

    /// A faithful fake `repro`: writes `{"n":1}` to every `.json` and
    /// `.txt` path it is given (`{"n":0}` when stopped) and exits 0 (3 when
    /// stopped), except for the `edit` to a run whose arguments mention
    /// `hit`.
    fn fake(hit: &'static str, edit: Edit) -> impl FnMut(&[String]) -> Result<Output, String> {
        move |args: &[String]| {
            let stopped = args.iter().any(|a| a == "--stop-after");
            let mut doc = format!("{{\"n\":{}}}", u8::from(!stopped)).into_bytes();
            let mut code = if stopped { EXIT_STOPPED } else { 0 };
            if args.iter().any(|a| a.contains(hit)) {
                match edit {
                    Edit::Byte(i) => doc[i] ^= 1,
                    Edit::Exit(c) => code = c,
                }
            }
            let outputs = args
                .iter()
                .filter(|a| a.ends_with(".json") || a.ends_with(".txt"));
            for path in outputs.filter(|_| args[0] != "compare") {
                std::fs::write(path, &doc).map_err(|e| e.to_string())?;
            }
            let status = std::os::unix::process::ExitStatusExt::from_raw(code << 8);
            Ok(Output {
                status,
                stdout: Vec::new(),
                stderr: Vec::new(),
            })
        }
    }

    const JSON_ONLY: Option<Reader> = Some(|t| Json::parse(t).map(drop));
    const ALL_LAWS: &[Law] = &[Rerun, Tier, Workers, Resume, Committed("c.json"), Gate];
    const TABLE: &[Row] = &[
        row(
            "a",
            "fuzz --workers 4 --json {doc.json} --ascii {a.txt}",
            0,
            JSON_ONLY,
            ALL_LAWS,
        ),
        row("b", "lint --json {doc.json}", 0, None, &[SameAs("a")]),
    ];

    /// The broken-law lines of [`TABLE`] under `fake(hit, edit)`, with
    /// `committed` as `c.json`.
    fn broken(hit: &'static str, edit: Edit, committed: &str) -> Vec<String> {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let n = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("sgxs-selfcheck-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("c.json"), committed).unwrap();
        let lines = check(TABLE, &mut fake(hit, edit), &root, &root.join("out")).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        lines
    }

    #[test]
    fn a_faithful_repro_keeps_every_law() {
        assert_eq!(
            broken("\0", Edit::Exit(0), r#"{"n":1}"#),
            Vec::<String>::new()
        );
    }

    #[test]
    fn every_law_breaks_on_one_changed_byte_or_exit_code() {
        let cases = [
            ("/a/rerun/", Edit::Byte(5), "a rerun: doc.json differs"),
            ("compiled", Edit::Byte(5), "a tier: doc.json differs"),
            ("/a/workers/", Edit::Byte(5), "a workers: doc.json differs"),
            ("/a/resume/", Edit::Byte(5), "a resume: doc.json differs"),
            ("/a/stop/", Edit::Exit(0), "a resume: `repro fuzz"),
            (
                "/a/stop/",
                Edit::Byte(5),
                "a resume: --stop-after 10 left no seed",
            ),
            (
                "/b/base/",
                Edit::Byte(5),
                "b same-as: doc.json differs from a at byte 5",
            ),
            ("compare", Edit::Exit(1), "a gate: `repro compare"),
            ("/a/base/", Edit::Exit(1), "a exit: `repro fuzz"),
            ("/a/base/", Edit::Byte(0), "a reader: "),
        ];
        for (hit, edit, want) in cases {
            let lines = broken(hit, edit, r#"{"n":1}"#);
            assert!(
                lines.first().is_some_and(|l| l.starts_with(want)),
                "{hit}: {lines:?}"
            );
        }
        let lines = broken("\0", Edit::Exit(0), r#"{"n":2}"#);
        assert_eq!(
            lines,
            ["a committed: doc.json differs from c.json at byte 5"]
        );
    }
}
