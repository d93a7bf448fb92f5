//! The campaign supervisor: retry ladder, failure taxonomy, quarantine,
//! and checkpoint/resume on top of the work-stealing pool.
//!
//! A [`Campaign`] exposes one deterministic `run_seed` entry point; the
//! supervisor shards the seed range across workers and wraps every seed in
//! the robustness ladder:
//!
//! * a **panic** inside `run_seed` is caught and quarantined as a
//!   [`SeedFailure::Panic`] carrying the payload message — the worker and
//!   the rest of the campaign survive;
//! * a **budget** failure ([`TaskError::Budget`] — the deterministic
//!   instruction-budget watchdog, never wall-clock) is quarantined
//!   immediately: re-running a deterministic seed against the same budget
//!   would retire the same instructions and fail the same way;
//! * a **transient** failure ([`TaskError::Transient`] — injected alloc
//!   faults and their kin) is retried at once, up to [`MAX_ATTEMPTS`]
//!   attempts in all, then quarantined as [`SeedFailure::Transient`].
//!   Each attempt is a fresh deterministic run of `(seed, attempt)`.
//!
//! Every terminal verdict is appended to the `sgxs-campaign-v1` journal,
//! one whole line per write, before the worker moves on. A campaign
//! killed at any point leaves every settled seed's line intact plus at
//! most one torn last line, which resume drops; `--resume` replays
//! journaled verdicts through [`Campaign::restore`] and runs only the
//! remainder. Because
//! `run_seed` is deterministic and per-seed results are merged in seed
//! order, the final artifact is byte-identical for every worker count and
//! for resumed-vs-uninterrupted runs.

use crate::journal::{done_line, fingerprint, quarantined_line, JournalHeader, JournalWriter};
use crate::pool::{panic_message, run_indexed, ItemState, StopFlag};
use sgxs_obs::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A recoverable-or-not error a campaign's `run_seed` can report without
/// panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// A transiently-injected fault (e.g. an exhausted allocation-fault
    /// retry ladder inside the VM). The supervisor retries these.
    Transient(String),
    /// The deterministic instruction-budget watchdog fired. Never retried.
    Budget {
        /// Instructions the seed had retired when the watchdog fired.
        spent: u64,
        /// The budget it exceeded.
        budget: u64,
    },
}

/// Structured classification of why a seed was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedFailure {
    /// `run_seed` panicked; the payload message is preserved.
    Panic {
        /// Rendered panic payload.
        message: String,
    },
    /// The instruction-budget watchdog fired.
    Budget {
        /// Instructions retired when it fired.
        spent: u64,
        /// The exceeded budget.
        budget: u64,
    },
    /// Transient faults survived every rung of the retry ladder.
    Transient {
        /// Attempts made (= the ladder bound).
        attempts: u32,
        /// The last attempt's error.
        last: String,
    },
}

impl SeedFailure {
    /// The journal/report failure class: `panic`, `budget`, `transient`.
    pub fn class(&self) -> &'static str {
        match self {
            SeedFailure::Panic { .. } => "panic",
            SeedFailure::Budget { .. } => "budget",
            SeedFailure::Transient { .. } => "transient",
        }
    }

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            SeedFailure::Panic { message } => message.clone(),
            SeedFailure::Budget { spent, budget } => {
                format!("spent {spent} instructions of a {budget}-instruction budget")
            }
            SeedFailure::Transient { attempts, last } => {
                format!("{attempts} attempts exhausted; last: {last}")
            }
        }
    }
}

/// What [`Campaign::restore`] made of a journaled `done` payload.
pub enum Restored<T> {
    /// The payload was enough to rebuild the seed's contribution.
    Value(T),
    /// The payload flags the seed as needing a deterministic re-run (e.g.
    /// fuzz seeds with disagreements, whose incident records are cheaper
    /// to recompute than to checkpoint).
    Rerun,
}

/// A parallelizable campaign: one deterministic per-seed unit of work plus
/// the checkpoint codec the journal uses.
pub trait Campaign: Sync {
    /// The per-seed result merged into the final artifact.
    type Out: Send;

    /// Campaign kind for the journal header (`fuzz`, `chaos-fuzz`,
    /// `chaos`).
    fn name(&self) -> &'static str;

    /// Canonical rendering of every option that changes per-seed results;
    /// fingerprinted into the journal handshake so a stale journal cannot
    /// be resumed against different options.
    fn fingerprint(&self) -> String;

    /// Runs one seed. Must be deterministic in `(seed, attempt)` and must
    /// not depend on which worker or in what order it runs.
    fn run_seed(&self, seed: u64, attempt: u32) -> Result<Self::Out, TaskError>;

    /// Serializes a completed seed's journal checkpoint.
    fn checkpoint(&self, out: &Self::Out) -> Json;

    /// Rebuilds a seed's contribution from its journal checkpoint, or asks
    /// for a deterministic re-run.
    fn restore(&self, seed: u64, payload: &Json) -> Result<Restored<Self::Out>, String>;
}

/// Attempts the retry ladder gives a seed that keeps failing transiently.
pub const MAX_ATTEMPTS: u32 = 3;

/// The most workers a campaign accepts: each worker is an OS thread, and
/// the selfcheck, the tests and CI never ask for more than 4.
pub const MAX_WORKERS: usize = 64;

/// Supervisor knobs.
#[derive(Debug, Clone)]
pub struct SuperOpts {
    /// Worker threads (0 = auto: host parallelism capped at 8), at most
    /// [`MAX_WORKERS`].
    pub workers: usize,
    /// Journal path; `None` runs unjournaled.
    pub journal: Option<String>,
    /// Resume from an existing journal at the path above.
    pub resume: bool,
    /// Test/demo hook: raise the stop flag after this many completions.
    pub stop_after: Option<usize>,
    /// Suppress the default panic hook while the pool runs, so isolated
    /// panics do not spray backtraces over campaign output.
    pub quiet_panics: bool,
}

impl Default for SuperOpts {
    fn default() -> SuperOpts {
        SuperOpts {
            workers: 1,
            journal: None,
            resume: false,
            stop_after: None,
            quiet_panics: false,
        }
    }
}

impl SuperOpts {
    /// Checks the options [`supervise`] refuses before it opens a journal
    /// or starts a thread: `workers` at most [`MAX_WORKERS`], and `resume`
    /// only with a `journal`.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers > MAX_WORKERS {
            Err(format!(
                "workers {} exceeds the cap {MAX_WORKERS}",
                self.workers
            ))
        } else if self.resume && self.journal.is_none() {
            Err("resume requires a journal path".to_owned())
        } else {
            Ok(())
        }
    }
}

pub use sgxs_obs::read::{Coverage, Quarantined};

/// A supervised campaign's outcome: per-seed results in seed order plus
/// the quarantine/skip/resume ledger.
#[derive(Debug)]
pub struct CampaignRun<T> {
    /// `(seed, result)` for every completed seed, sorted by seed.
    pub outcomes: Vec<(u64, T)>,
    /// Quarantined seeds, sorted by seed.
    pub quarantined: Vec<Quarantined>,
    /// Seeds skipped by a graceful stop, sorted.
    pub skipped: Vec<u64>,
    /// Seeds whose verdicts were restored from the journal.
    pub resumed: u64,
    /// Whether the stop flag ended the campaign early.
    pub stopped: bool,
}

impl<T> CampaignRun<T> {
    /// The coverage ledger; always sums to the campaign's seed count.
    pub fn coverage(&self) -> Coverage {
        Coverage {
            seeds: (self.outcomes.len() + self.quarantined.len() + self.skipped.len()) as u64,
            completed: self.outcomes.len() as u64,
            quarantined: self.quarantined.len() as u64,
            skipped: self.skipped.len() as u64,
        }
    }
}

enum LadderOutcome<T> {
    Done { attempts: u32, out: T },
    Fail { attempts: u32, failure: SeedFailure },
}

/// Climbs the retry ladder for one seed: panics and budget overruns are
/// terminal on the rung they occur; transients retry until the bound.
fn run_ladder<C: Campaign>(campaign: &C, seed: u64) -> LadderOutcome<C::Out> {
    let mut attempt = 1u32;
    loop {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            campaign.run_seed(seed, attempt)
        }));
        match caught {
            Err(payload) => {
                return LadderOutcome::Fail {
                    attempts: attempt,
                    failure: SeedFailure::Panic {
                        message: panic_message(payload.as_ref()),
                    },
                }
            }
            Ok(Ok(out)) => {
                return LadderOutcome::Done {
                    attempts: attempt,
                    out,
                }
            }
            Ok(Err(TaskError::Budget { spent, budget })) => {
                return LadderOutcome::Fail {
                    attempts: attempt,
                    failure: SeedFailure::Budget { spent, budget },
                }
            }
            Ok(Err(TaskError::Transient(last))) => {
                if attempt >= MAX_ATTEMPTS {
                    return LadderOutcome::Fail {
                        attempts: attempt,
                        failure: SeedFailure::Transient {
                            attempts: attempt,
                            last,
                        },
                    };
                }
                attempt += 1;
            }
        }
    }
}

/// Runs a campaign's seed range `[seed0, seed0 + seeds)` under the
/// supervisor: shard across workers, isolate failures, journal every
/// terminal verdict, and merge per-seed results in seed order.
pub fn supervise<C: Campaign>(
    campaign: &C,
    seed0: u64,
    seeds: u64,
    opts: &SuperOpts,
    stop: &StopFlag,
) -> Result<CampaignRun<C::Out>, String> {
    opts.validate()?;
    let header = JournalHeader {
        campaign: campaign.name().to_owned(),
        fingerprint: fingerprint(&campaign.fingerprint()),
        seed0,
        seeds,
    };

    // Restore journaled verdicts (resume mode) and open the writer.
    let mut outcomes: Vec<(u64, C::Out)> = Vec::new();
    let mut quarantined: Vec<Quarantined> = Vec::new();
    let mut resumed = 0u64;
    // Seeds already present in the journal: never journaled again, even
    // when `restore` asks for a re-run (a duplicate line would corrupt the
    // journal for the next resume).
    let mut journaled = std::collections::BTreeSet::new();
    let writer = match (&opts.journal, opts.resume) {
        (Some(path), true) => {
            let (w, entries) = JournalWriter::resume(path, &header)?;
            for e in entries {
                journaled.insert(e.seed);
                if e.status == "done" {
                    let payload = e.payload.as_ref().expect("validated done payload");
                    let restored = campaign.restore(e.seed, payload);
                    match restored.map_err(|err| format!("{path}: seed {}: {err}", e.seed))? {
                        Restored::Value(out) => {
                            outcomes.push((e.seed, out));
                            resumed += 1;
                        }
                        Restored::Rerun => {}
                    }
                } else {
                    let failure = e.failure.expect("validated quarantined failure");
                    quarantined.push(Quarantined {
                        seed: e.seed,
                        attempts: e.attempts,
                        class: failure.class,
                        detail: failure.detail,
                    });
                    resumed += 1;
                }
            }
            Some(w)
        }
        (Some(path), false) => Some(JournalWriter::create(path, &header)?),
        (None, _) => None,
    };

    let settled: std::collections::BTreeSet<u64> = outcomes
        .iter()
        .map(|(s, _)| *s)
        .chain(quarantined.iter().map(|q| q.seed))
        .collect();
    let pending: Vec<u64> = (seed0..seed0.saturating_add(seeds))
        .filter(|s| !settled.contains(s))
        .collect();

    let prev_hook = if opts.quiet_panics {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Some(hook)
    } else {
        None
    };

    let completions = AtomicUsize::new(0);
    let states = run_indexed(pending.len(), opts.workers, stop, |idx| {
        let seed = pending[idx];
        let res = run_ladder(campaign, seed);
        if let Some(w) = &writer {
            if !journaled.contains(&seed) {
                let line = match &res {
                    LadderOutcome::Done { attempts, out } => {
                        done_line(seed, *attempts, campaign.checkpoint(out))
                    }
                    LadderOutcome::Fail { attempts, failure } => {
                        quarantined_line(seed, *attempts, failure.class(), &failure.detail())
                    }
                };
                if let Err(e) = w.append(&line) {
                    eprintln!("warning: {e}");
                }
            }
        }
        let n = completions.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(cap) = opts.stop_after {
            if n >= cap {
                stop.raise();
            }
        }
        res
    });

    if let Some(hook) = prev_hook {
        let _ = std::panic::take_hook();
        std::panic::set_hook(hook);
    }

    let mut skipped = Vec::new();
    for (idx, state) in states.into_iter().enumerate() {
        let seed = pending[idx];
        match state {
            ItemState::Done(LadderOutcome::Done { out, .. }) => outcomes.push((seed, out)),
            ItemState::Done(LadderOutcome::Fail { attempts, failure }) => {
                quarantined.push(Quarantined {
                    seed,
                    attempts,
                    class: failure.class().to_owned(),
                    detail: failure.detail(),
                })
            }
            // Backstop: a panic escaped the ladder (checkpoint/journal
            // layer). Quarantine it and journal the verdict post-hoc.
            ItemState::Panicked(message) => {
                if let Some(w) = &writer {
                    if !journaled.contains(&seed) {
                        let _ = w.append(&quarantined_line(seed, 1, "panic", &message));
                    }
                }
                quarantined.push(Quarantined {
                    seed,
                    attempts: 1,
                    class: "panic".to_owned(),
                    detail: message,
                });
            }
            ItemState::Skipped => skipped.push(seed),
        }
    }

    outcomes.sort_by_key(|(s, _)| *s);
    quarantined.sort_by_key(|q| q.seed);
    skipped.sort_unstable();
    Ok(CampaignRun {
        outcomes,
        quarantined,
        skipped,
        resumed,
        stopped: stop.raised(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic mock campaign:
    /// * seed ≡ 0 (mod 10): panics;
    /// * seed ≡ 1 (mod 10): over budget;
    /// * seed ≡ 2 (mod 10): transient on attempts 1–2, succeeds on 3;
    /// * seed ≡ 3 (mod 10): transient on every attempt;
    /// * everything else: returns `seed * 10`.
    struct Mock {
        dirty_restore: bool,
    }

    impl Campaign for Mock {
        type Out = u64;

        fn name(&self) -> &'static str {
            "mock"
        }

        fn fingerprint(&self) -> String {
            "mock-opts-v1".to_owned()
        }

        fn run_seed(&self, seed: u64, attempt: u32) -> Result<u64, TaskError> {
            match seed % 10 {
                0 => panic!("mock seed {seed} exploded"),
                1 => Err(TaskError::Budget {
                    spent: 999,
                    budget: 100,
                }),
                2 if attempt < 3 => Err(TaskError::Transient(format!("flake {attempt}"))),
                3 => Err(TaskError::Transient("always flaky".to_owned())),
                _ => Ok(seed * 10),
            }
        }

        fn checkpoint(&self, out: &u64) -> Json {
            Json::obj(vec![("value", (*out).into())])
        }

        fn restore(&self, seed: u64, payload: &Json) -> Result<Restored<u64>, String> {
            if self.dirty_restore && seed % 2 == 1 {
                return Ok(Restored::Rerun);
            }
            payload
                .get("value")
                .and_then(Json::as_u64)
                .map(Restored::Value)
                .ok_or_else(|| "bad payload".to_owned())
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("sgxs-super-tests");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn opts() -> SuperOpts {
        SuperOpts {
            workers: 3,
            quiet_panics: true,
            ..SuperOpts::default()
        }
    }

    #[test]
    fn failures_are_classified_and_the_rest_of_the_campaign_survives() {
        let mock = Mock {
            dirty_restore: false,
        };
        let run = supervise(&mock, 40, 14, &opts(), &StopFlag::new()).expect("supervise");
        // Seeds 40..54: 40/50 panic, 41/51 budget, 42/52 flaky-then-ok,
        // 43/53 always flaky; the other 8 complete.
        let cov = run.coverage();
        assert_eq!(cov.seeds, 14);
        assert_eq!(cov.completed, 8);
        assert_eq!(cov.quarantined, 6);
        assert_eq!(cov.skipped, 0);
        let classes: Vec<(u64, &str)> = run
            .quarantined
            .iter()
            .map(|q| (q.seed, q.class.as_str()))
            .collect();
        assert_eq!(
            classes,
            vec![
                (40, "panic"),
                (41, "budget"),
                (43, "transient"),
                (50, "panic"),
                (51, "budget"),
                (53, "transient"),
            ]
        );
        let panic_q = &run.quarantined[0];
        assert!(
            panic_q.detail.contains("mock seed 40 exploded"),
            "{}",
            panic_q.detail
        );
        let budget_q = &run.quarantined[1];
        assert_eq!(budget_q.attempts, 1, "budget failures must not retry");
        assert!(budget_q.detail.contains("999"), "{}", budget_q.detail);
        let flaky_q = &run.quarantined[2];
        assert_eq!(flaky_q.attempts, 3, "transients climb the full ladder");
        assert!(
            flaky_q.detail.contains("always flaky"),
            "{}",
            flaky_q.detail
        );
        // 42 and 52 recovered on attempt 3.
        assert!(run.outcomes.iter().any(|&(s, v)| s == 42 && v == 420));
        // Outcomes are seed-sorted regardless of worker scheduling.
        let seeds: Vec<u64> = run.outcomes.iter().map(|&(s, _)| s).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(seeds, sorted);
    }

    #[test]
    fn outcomes_are_identical_for_every_worker_count() {
        let mock = Mock {
            dirty_restore: false,
        };
        let baseline = supervise(&mock, 100, 37, &opts(), &StopFlag::new()).expect("supervise");
        for workers in [1, 2, 4, 7] {
            let o = SuperOpts { workers, ..opts() };
            let run = supervise(&mock, 100, 37, &o, &StopFlag::new()).expect("supervise");
            assert_eq!(run.outcomes, baseline.outcomes, "workers={workers}");
            assert_eq!(
                run.quarantined
                    .iter()
                    .map(|q| (q.seed, q.class.clone()))
                    .collect::<Vec<_>>(),
                baseline
                    .quarantined
                    .iter()
                    .map(|q| (q.seed, q.class.clone()))
                    .collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn interrupted_campaign_resumes_to_the_uninterrupted_result() {
        let mock = Mock {
            dirty_restore: false,
        };
        let uninterrupted =
            supervise(&mock, 200, 20, &opts(), &StopFlag::new()).expect("supervise");

        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        // First leg: one worker (deterministic claim order), stop after 7.
        let first = SuperOpts {
            workers: 1,
            journal: Some(path.clone()),
            stop_after: Some(7),
            quiet_panics: true,
            ..SuperOpts::default()
        };
        let leg1 = supervise(&mock, 200, 20, &first, &StopFlag::new()).expect("leg 1");
        assert!(leg1.stopped);
        assert_eq!(leg1.coverage().skipped, 13);
        assert_eq!(leg1.resumed, 0);

        // Second leg: resume and finish.
        let second = SuperOpts {
            journal: Some(path.clone()),
            resume: true,
            ..opts()
        };
        let leg2 = supervise(&mock, 200, 20, &second, &StopFlag::new()).expect("leg 2");
        assert!(!leg2.stopped);
        assert_eq!(leg2.resumed, 7);
        assert_eq!(leg2.outcomes, uninterrupted.outcomes);
        assert_eq!(leg2.coverage(), uninterrupted.coverage());
        assert_eq!(
            leg2.quarantined
                .iter()
                .map(|q| (q.seed, q.class.clone()))
                .collect::<Vec<_>>(),
            uninterrupted
                .quarantined
                .iter()
                .map(|q| (q.seed, q.class.clone()))
                .collect::<Vec<_>>()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rerun_restores_do_not_duplicate_journal_lines() {
        let mock = Mock {
            dirty_restore: true,
        };
        let path = tmp("rerun");
        let _ = std::fs::remove_file(&path);
        let first = SuperOpts {
            workers: 1,
            journal: Some(path.clone()),
            quiet_panics: true,
            ..SuperOpts::default()
        };
        // Seeds 204..209 (mod 10 ∈ 4..9): all complete cleanly.
        let leg1 = supervise(&mock, 204, 5, &first, &StopFlag::new()).expect("leg 1");
        assert_eq!(leg1.coverage().completed, 5);

        // Resume with dirty_restore: odd seeds ask for a re-run; the
        // journal must stay parseable (no duplicate seed lines) and the
        // result must match.
        let second = SuperOpts {
            journal: Some(path.clone()),
            resume: true,
            quiet_panics: true,
            ..SuperOpts::default()
        };
        let leg2 = supervise(&mock, 204, 5, &second, &StopFlag::new()).expect("leg 2");
        assert_eq!(leg2.outcomes, leg1.outcomes);
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let doc = sgxs_obs::read::parse_journal(&text).expect("journal still valid");
        assert_eq!(doc.entries.len(), 5);
        // And it can be resumed once more.
        let leg3 = supervise(&mock, 204, 5, &second, &StopFlag::new()).expect("leg 3");
        assert_eq!(leg3.outcomes, leg1.outcomes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_without_a_journal_path_is_refused() {
        let mock = Mock {
            dirty_restore: false,
        };
        let o = SuperOpts {
            resume: true,
            ..SuperOpts::default()
        };
        let err = supervise(&mock, 0, 1, &o, &StopFlag::new()).expect_err("must refuse");
        assert!(err.contains("journal path"), "{err}");
    }

    #[test]
    fn validate_refuses_each_broken_rule() {
        assert_eq!(SuperOpts::default().validate(), Ok(()));
        let at_cap = SuperOpts {
            workers: MAX_WORKERS,
            ..SuperOpts::default()
        };
        assert_eq!(at_cap.validate(), Ok(()));
        let over = SuperOpts {
            workers: MAX_WORKERS + 1,
            ..SuperOpts::default()
        };
        let e = over.validate().expect_err("workers above the cap");
        assert!(e.contains("exceeds the cap"), "{e}");
        let resume = SuperOpts {
            resume: true,
            ..SuperOpts::default()
        };
        let e = resume.validate().expect_err("resume without a journal");
        assert!(e.contains("journal path"), "{e}");
    }

    /// Counts the seeds it runs.
    struct Counted(AtomicUsize);

    impl Campaign for Counted {
        type Out = u64;

        fn name(&self) -> &'static str {
            "counted"
        }

        fn fingerprint(&self) -> String {
            String::new()
        }

        fn run_seed(&self, seed: u64, _attempt: u32) -> Result<u64, TaskError> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(seed)
        }

        fn checkpoint(&self, out: &u64) -> Json {
            (*out).into()
        }

        fn restore(&self, _seed: u64, _payload: &Json) -> Result<Restored<u64>, String> {
            Ok(Restored::Rerun)
        }
    }

    #[test]
    fn workers_above_the_cap_are_refused_before_the_journal_or_any_thread() {
        // One seed: a regression could start at most one thread.
        let path = tmp("over-cap");
        let _ = std::fs::remove_file(&path);
        let o = SuperOpts {
            workers: MAX_WORKERS + 1,
            journal: Some(path.clone()),
            ..opts()
        };
        let counted = Counted(AtomicUsize::new(0));
        let err = supervise(&counted, 0, 1, &o, &StopFlag::new()).expect_err("must refuse");
        assert!(err.contains("exceeds the cap"), "{err}");
        assert!(!std::path::Path::new(&path).exists(), "journal opened");
        assert_eq!(counted.0.load(Ordering::SeqCst), 0, "a seed ran");
    }
}
