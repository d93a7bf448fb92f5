#![warn(missing_docs)]

//! Low-overhead observability for the SGXBounds reproduction stack.
//!
//! The layer has three pieces:
//!
//! 1. **Events** ([`Event`]) — structured records emitted by the simulator
//!    (`sim::Machine`), the interpreter, the scheme runtimes, and the
//!    allocator: checks executed and failed, EPC faults/evictions,
//!    allocations, and harness phases.
//! 2. **Recorders** ([`Recorder`]) — sinks for events. [`NoopRecorder`]
//!    reports `enabled() == false` and every emission site guards on that
//!    flag, so the measured fast path is unchanged when observability is
//!    off (see the zero-overhead guard test in the harness).
//!    [`TraceRecorder`] keeps per-site counters, a bounded ring buffer of
//!    recent events, an FNV digest over *all* events (for determinism
//!    tests), and an EPC-pressure timeline.
//! 3. **Profiles** ([`Profile`]) — aggregation of a recorder into the
//!    per-check-site report that `repro profile` prints and serializes:
//!    top-N hottest sites with app-vs-instrumentation cycle attribution
//!    plus the EPC timeline.
//!
//! Check *sites* are stable small integers assigned by the instrumentation
//! passes (one per inserted check, in deterministic pass order); the pass
//! records a label per site so profiles can name the function and check
//! kind.

#[macro_use]
pub mod codec;
pub mod json;
pub mod read;
pub mod schema;
pub mod view;

pub use schema::{AllocCounts, Attribution, EpcCounts, Profile, SiteRow, Timeline};

use json::Json;
use std::collections::VecDeque;

/// One structured observability event.
///
/// Timestamps are not part of the event: the emitter passes the global
/// instruction count separately so recorders can order events on the same
/// clock the simulator schedules on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A bounds check (site `site`) ran to completion; `cycles` is the
    /// executing thread's cycle delta across the check sequence.
    CheckExec {
        /// Check-site ID assigned by the instrumentation pass.
        site: u32,
        /// Thread cycles spent inside the check sequence.
        cycles: u64,
    },
    /// A bounds check failed (the scheme's violation handler ran).
    CheckFail {
        /// Check-site ID, when the failing access is attributable.
        site: Option<u32>,
        /// Faulting address as the handler saw it.
        addr: u64,
        /// Access size in bytes.
        size: u32,
        /// Whether the access was a store.
        is_store: bool,
    },
    /// An EPC page fault (enclave page not resident).
    EpcFault {
        /// 4 KiB page index.
        page: u32,
    },
    /// An EPC page eviction (resident page pushed out to make room).
    EpcEvict {
        /// 4 KiB page index.
        page: u32,
    },
    /// A heap allocation was served.
    Alloc {
        /// User base address.
        addr: u32,
        /// User size in bytes.
        size: u32,
    },
    /// A heap allocation was freed.
    Free {
        /// User base address.
        addr: u32,
    },
    /// A named harness phase began.
    PhaseBegin {
        /// Phase name (static: phases are harness-defined).
        name: &'static str,
    },
    /// A named harness phase ended.
    PhaseEnd {
        /// Phase name.
        name: &'static str,
    },
    /// The recovery policy intercepted a trap and is retrying the faulting
    /// operation (`attempt` counts from 1).
    RecoveryAttempt {
        /// Trap-kind label (e.g. `oom`, `safety`).
        kind: &'static str,
        /// Retry attempt number, starting at 1.
        attempt: u32,
    },
    /// The recovery policy converted a trap into degraded-but-alive service
    /// (graceful per-request exit or boundless toleration).
    RecoveryDegraded {
        /// Trap-kind label.
        kind: &'static str,
    },
    /// The recovery policy exhausted its retry budget and let the trap
    /// propagate.
    RecoveryGaveUp {
        /// Trap-kind label.
        kind: &'static str,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// A named span opened (hierarchical tracing: campaign → seed →
    /// request → check-region). Spans nest by emission order; the
    /// collector in `sgxs-metrics` rebuilds the tree from the stream.
    SpanBegin {
        /// Span name (static: span sites are code-defined).
        name: &'static str,
        /// One free argument (seed, request index, check site, …).
        arg: u64,
    },
    /// The innermost open span with this name closed.
    SpanEnd {
        /// Span name.
        name: &'static str,
    },
}

impl Event {
    /// Short kind label used in rendered traces and JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CheckExec { .. } => "check_exec",
            Event::CheckFail { .. } => "check_fail",
            Event::EpcFault { .. } => "epc_fault",
            Event::EpcEvict { .. } => "epc_evict",
            Event::Alloc { .. } => "alloc",
            Event::Free { .. } => "free",
            Event::PhaseBegin { .. } => "phase_begin",
            Event::PhaseEnd { .. } => "phase_end",
            Event::RecoveryAttempt { .. } => "recovery.attempt",
            Event::RecoveryDegraded { .. } => "recovery.degraded",
            Event::RecoveryGaveUp { .. } => "recovery.gave_up",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
        }
    }

    /// One-line human rendering, prefixed with the instruction timestamp.
    pub fn render(&self, at: u64) -> String {
        match self {
            Event::CheckExec { site, cycles } => {
                format!("[ins {at}] check_exec site={site} cycles={cycles}")
            }
            Event::CheckFail {
                site,
                addr,
                size,
                is_store,
            } => format!(
                "[ins {at}] check_fail site={} addr={addr:#x} size={size} {}",
                site.map(|s| s.to_string()).unwrap_or_else(|| "?".into()),
                if *is_store { "store" } else { "load" }
            ),
            Event::EpcFault { page } => format!("[ins {at}] epc_fault page={page:#x}"),
            Event::EpcEvict { page } => format!("[ins {at}] epc_evict page={page:#x}"),
            Event::Alloc { addr, size } => {
                format!("[ins {at}] alloc addr={addr:#x} size={size}")
            }
            Event::Free { addr } => format!("[ins {at}] free addr={addr:#x}"),
            Event::PhaseBegin { name } => format!("[ins {at}] phase_begin {name}"),
            Event::PhaseEnd { name } => format!("[ins {at}] phase_end {name}"),
            Event::RecoveryAttempt { kind, attempt } => {
                format!("[ins {at}] recovery.attempt kind={kind} attempt={attempt}")
            }
            Event::RecoveryDegraded { kind } => {
                format!("[ins {at}] recovery.degraded kind={kind}")
            }
            Event::RecoveryGaveUp { kind, attempts } => {
                format!("[ins {at}] recovery.gave_up kind={kind} attempts={attempts}")
            }
            Event::SpanBegin { name, arg } => {
                format!("[ins {at}] span_begin {name} arg={arg}")
            }
            Event::SpanEnd { name } => format!("[ins {at}] span_end {name}"),
        }
    }

    /// JSON form used by the JSONL trace sink.
    pub fn to_json(&self, at: u64) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![("at", at.into()), ("ev", self.kind().into())];
        match self {
            Event::CheckExec { site, cycles } => {
                fields.push(("site", (*site).into()));
                fields.push(("cycles", (*cycles).into()));
            }
            Event::CheckFail {
                site,
                addr,
                size,
                is_store,
            } => {
                fields.push(("site", (*site).into()));
                fields.push(("addr", (*addr).into()));
                fields.push(("size", (*size).into()));
                fields.push(("is_store", (*is_store).into()));
            }
            Event::EpcFault { page } | Event::EpcEvict { page } => {
                fields.push(("page", (*page).into()));
            }
            Event::Alloc { addr, size } => {
                fields.push(("addr", (*addr).into()));
                fields.push(("size", (*size).into()));
            }
            Event::Free { addr } => {
                fields.push(("addr", (*addr).into()));
            }
            Event::PhaseBegin { name } | Event::PhaseEnd { name } => {
                fields.push(("name", (*name).into()));
            }
            Event::RecoveryAttempt { kind, attempt } => {
                fields.push(("kind", (*kind).into()));
                fields.push(("attempt", (*attempt).into()));
            }
            Event::RecoveryDegraded { kind } => {
                fields.push(("kind", (*kind).into()));
            }
            Event::RecoveryGaveUp { kind, attempts } => {
                fields.push(("kind", (*kind).into()));
                fields.push(("attempts", (*attempts).into()));
            }
            Event::SpanBegin { name, arg } => {
                fields.push(("name", (*name).into()));
                fields.push(("arg", (*arg).into()));
            }
            Event::SpanEnd { name } => {
                fields.push(("name", (*name).into()));
            }
        }
        Json::obj(fields)
    }
}

/// Sink for observability events.
///
/// Emission sites call `enabled()` first (the simulator caches the answer in
/// a plain `bool`), so a disabled recorder costs one predictable branch per
/// *rare* event site and nothing on the hot path.
pub trait Recorder {
    /// Whether this recorder wants events at all.
    fn enabled(&self) -> bool;
    /// Records one event; `now` is the global instruction count.
    fn record(&mut self, now: u64, ev: Event);
}

/// A recorder that drops everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _now: u64, _ev: Event) {}
}

/// Per-check-site running counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SiteStat {
    /// Completed check executions.
    pub execs: u64,
    /// Thread cycles attributed to the check sequence.
    pub cycles: u64,
    /// Violations reported at this site.
    pub fails: u64,
}

/// One bucket of the EPC-pressure timeline.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimelineBucket {
    /// EPC faults in this instruction-time window.
    pub faults: u64,
    /// EPC evictions in this window.
    pub evicts: u64,
}

/// EPC pressure over instruction time, in at most [`EpcTimeline::MAX_BUCKETS`]
/// equal-width buckets. When execution outgrows the span, adjacent buckets
/// fold pairwise and the width doubles — deterministic, bounded memory.
#[derive(Debug, Clone)]
pub struct EpcTimeline {
    width: u64,
    buckets: Vec<TimelineBucket>,
}

impl Default for EpcTimeline {
    fn default() -> Self {
        EpcTimeline {
            width: 4096,
            buckets: Vec::new(),
        }
    }
}

impl EpcTimeline {
    /// Bucket-count ceiling; reaching it folds the timeline.
    pub const MAX_BUCKETS: usize = 64;

    /// Current bucket width in instructions.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The buckets recorded so far.
    pub fn buckets(&self) -> &[TimelineBucket] {
        &self.buckets
    }

    fn note(&mut self, now: u64, evict: bool) {
        while (now / self.width) as usize >= Self::MAX_BUCKETS {
            self.fold();
        }
        let idx = (now / self.width) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, TimelineBucket::default());
        }
        if evict {
            self.buckets[idx].evicts += 1;
        } else {
            self.buckets[idx].faults += 1;
        }
    }

    fn fold(&mut self) {
        let mut folded = Vec::with_capacity(self.buckets.len().div_ceil(2));
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.faults += second.faults;
                b.evicts += second.evicts;
            }
            folded.push(b);
        }
        self.buckets = folded;
        self.width *= 2;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The real recorder: counters, bounded trace ring, digest, timeline.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    cap: usize,
    ring: VecDeque<(u64, Event)>,
    sites: Vec<SiteStat>,
    digest: u64,
    events: u64,
    dropped: u64,
    check_execs: u64,
    check_cycles: u64,
    check_fails: u64,
    allocs: u64,
    frees: u64,
    alloc_bytes: u64,
    epc_faults: u64,
    epc_evicts: u64,
    timeline: EpcTimeline,
    phases: Vec<(u64, &'static str, bool)>,
}

impl TraceRecorder {
    /// Creates a recorder keeping at most `ring_cap` recent events.
    pub fn new(ring_cap: usize) -> Self {
        TraceRecorder {
            cap: ring_cap.max(1),
            ring: VecDeque::new(),
            sites: Vec::new(),
            digest: FNV_OFFSET,
            events: 0,
            dropped: 0,
            check_execs: 0,
            check_cycles: 0,
            check_fails: 0,
            allocs: 0,
            frees: 0,
            alloc_bytes: 0,
            epc_faults: 0,
            epc_evicts: 0,
            timeline: EpcTimeline::default(),
            phases: Vec::new(),
        }
    }

    /// Per-site counters, indexed by site ID (dense; zero for unseen sites).
    pub fn sites(&self) -> &[SiteStat] {
        &self.sites
    }

    /// FNV-1a digest over every event recorded (not just the retained ring).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events that aged out of the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently retained in the ring.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Sum of check-sequence cycles across all sites (the instrumentation
    /// share of CPU time).
    pub fn check_cycles(&self) -> u64 {
        self.check_cycles
    }

    /// Completed check executions.
    pub fn check_execs(&self) -> u64 {
        self.check_execs
    }

    /// Violations recorded.
    pub fn check_fails(&self) -> u64 {
        self.check_fails
    }

    /// `(allocs, frees, allocated_bytes)` counters.
    pub fn alloc_counts(&self) -> (u64, u64, u64) {
        (self.allocs, self.frees, self.alloc_bytes)
    }

    /// `(faults, evictions)` EPC counters as seen by the recorder.
    pub fn epc_counts(&self) -> (u64, u64) {
        (self.epc_faults, self.epc_evicts)
    }

    /// The EPC-pressure timeline.
    pub fn timeline(&self) -> &EpcTimeline {
        &self.timeline
    }

    /// Recorded phase marks as `(at, name, is_begin)`.
    pub fn phases(&self) -> &[(u64, &'static str, bool)] {
        &self.phases
    }

    /// The last `n` retained events, oldest first, rendered one per line.
    pub fn last_events(&self, n: usize) -> Vec<String> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring
            .iter()
            .skip(skip)
            .map(|(at, ev)| ev.render(*at))
            .collect()
    }

    /// Like [`last_events`](Self::last_events), but each rendered line is
    /// paired with the event's *absolute* index in the full stream (ring
    /// position plus [`dropped`](Self::dropped)), so a bounded-window tail
    /// still tells the reader how far into the run each event fell.
    pub fn last_events_indexed(&self, n: usize) -> Vec<(u64, String)> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring
            .iter()
            .enumerate()
            .skip(skip)
            .map(|(i, (at, ev))| (self.dropped + i as u64, ev.render(*at)))
            .collect()
    }

    /// The retained ring as JSONL (one event object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (at, ev) in &self.ring {
            out.push_str(&ev.to_json(*at).to_compact());
            out.push('\n');
        }
        out
    }

    fn site_mut(&mut self, site: u32) -> &mut SiteStat {
        let idx = site as usize;
        if idx >= self.sites.len() {
            self.sites.resize(idx + 1, SiteStat::default());
        }
        &mut self.sites[idx]
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, now: u64, ev: Event) {
        self.events += 1;
        // Digest covers every event, in order, with its timestamp.
        let mut h = fnv(self.digest, &now.to_le_bytes());
        h = fnv(h, ev.kind().as_bytes());
        match &ev {
            Event::CheckExec { site, cycles } => {
                h = fnv(h, &site.to_le_bytes());
                h = fnv(h, &cycles.to_le_bytes());
                let s = self.site_mut(*site);
                s.execs += 1;
                s.cycles += *cycles;
                self.check_execs += 1;
                self.check_cycles += *cycles;
            }
            Event::CheckFail {
                site, addr, size, ..
            } => {
                h = fnv(h, &addr.to_le_bytes());
                h = fnv(h, &size.to_le_bytes());
                if let Some(site) = site {
                    h = fnv(h, &site.to_le_bytes());
                    self.site_mut(*site).fails += 1;
                }
                self.check_fails += 1;
            }
            Event::EpcFault { page } => {
                h = fnv(h, &page.to_le_bytes());
                self.epc_faults += 1;
                self.timeline.note(now, false);
            }
            Event::EpcEvict { page } => {
                h = fnv(h, &page.to_le_bytes());
                self.epc_evicts += 1;
                self.timeline.note(now, true);
            }
            Event::Alloc { addr, size } => {
                h = fnv(h, &addr.to_le_bytes());
                h = fnv(h, &size.to_le_bytes());
                self.allocs += 1;
                self.alloc_bytes += *size as u64;
            }
            Event::Free { addr } => {
                h = fnv(h, &addr.to_le_bytes());
                self.frees += 1;
            }
            Event::PhaseBegin { name } | Event::PhaseEnd { name } => {
                h = fnv(h, name.as_bytes());
                self.phases
                    .push((now, name, matches!(ev, Event::PhaseBegin { .. })));
            }
            Event::RecoveryAttempt { kind, attempt } => {
                h = fnv(h, kind.as_bytes());
                h = fnv(h, &attempt.to_le_bytes());
            }
            Event::RecoveryDegraded { kind } => {
                h = fnv(h, kind.as_bytes());
            }
            Event::RecoveryGaveUp { kind, attempts } => {
                h = fnv(h, kind.as_bytes());
                h = fnv(h, &attempts.to_le_bytes());
            }
            Event::SpanBegin { name, arg } => {
                h = fnv(h, name.as_bytes());
                h = fnv(h, &arg.to_le_bytes());
            }
            Event::SpanEnd { name } => {
                h = fnv(h, name.as_bytes());
            }
        }
        self.digest = h;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((now, ev));
    }
}

impl Profile {
    /// Builds a profile from a finished recorder.
    ///
    /// `site_labels[site] = (func, kind)` comes from the instrumented
    /// module's check-site table; sites beyond the table (which would
    /// indicate a pass bug) get `?` labels rather than panicking.
    pub fn build(
        workload: &str,
        scheme: &str,
        rec: &TraceRecorder,
        site_labels: &[(String, String)],
        wall_cycles: u64,
        cpu_cycles: u64,
        top_n: usize,
    ) -> Profile {
        let mut rows: Vec<SiteRow> = rec
            .sites()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.execs > 0 || s.fails > 0)
            .map(|(i, s)| {
                let (func, kind) = site_labels
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| ("?".into(), "?".into()));
                SiteRow {
                    site: i as u32,
                    func,
                    kind,
                    execs: s.execs,
                    cycles: s.cycles,
                    fails: s.fails,
                }
            })
            .collect();
        let sites_active = rows.len();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.site.cmp(&b.site)));
        rows.truncate(top_n);
        let (allocs, frees, bytes) = rec.alloc_counts();
        let (faults, evictions) = rec.epc_counts();
        let timeline = rec.timeline().buckets();
        let mut p = Profile {
            workload: workload.to_owned(),
            scheme: scheme.to_owned(),
            wall_cycles,
            cpu_cycles,
            attribution: Attribution {
                app_cycles: cpu_cycles.saturating_sub(rec.check_cycles()),
                check_cycles: rec.check_cycles(),
                check_pct: 0.0,
            },
            check_execs: rec.check_execs(),
            check_fails: rec.check_fails(),
            alloc: AllocCounts {
                allocs,
                frees,
                bytes,
            },
            epc: EpcCounts { faults, evictions },
            epc_timeline: Timeline {
                bucket_instructions: rec.timeline().width(),
                faults: timeline.iter().map(|b| b.faults).collect(),
                evictions: timeline.iter().map(|b| b.evicts).collect(),
            },
            sites_total: site_labels.len(),
            sites_active,
            top_sites: rows,
            events: rec.events(),
            digest: format!("{:016x}", rec.digest()),
        };
        p.attribution.check_pct = p.check_pct();
        p
    }

    /// Instrumentation share of CPU cycles, in percent. The reader checks
    /// a document's `attribution.check_pct` against this expression.
    pub fn check_pct(&self) -> f64 {
        view::pct(self.attribution.check_cycles, self.cpu_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(site: u32, cycles: u64) -> Event {
        Event::CheckExec { site, cycles }
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.enabled());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut r = TraceRecorder::new(4);
        for i in 0..10u64 {
            r.record(i, exec(0, 1));
        }
        assert_eq!(r.events(), 10);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.last_events(100).len(), 4);
        assert!(r.last_events(2)[0].contains("ins 8"));
    }

    #[test]
    fn digest_covers_dropped_events() {
        let mut a = TraceRecorder::new(2);
        let mut b = TraceRecorder::new(2);
        for i in 0..8u64 {
            a.record(i, exec(0, 1));
            // Same retained ring tail, different prefix.
            b.record(i, exec(0, if i == 0 { 2 } else { 1 }));
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn site_counters_accumulate() {
        let mut r = TraceRecorder::new(8);
        r.record(1, exec(3, 10));
        r.record(2, exec(3, 5));
        r.record(
            3,
            Event::CheckFail {
                site: Some(3),
                addr: 0x100,
                size: 8,
                is_store: true,
            },
        );
        let s = r.sites()[3];
        assert_eq!((s.execs, s.cycles, s.fails), (2, 15, 1));
        assert_eq!(r.check_cycles(), 15);
    }

    #[test]
    fn timeline_folds_deterministically() {
        let mut t = EpcTimeline::default();
        let w0 = t.width();
        // Push far beyond the initial span; width must double, totals hold.
        for i in 0..1000u64 {
            t.note(i * 1000, i % 3 == 0);
        }
        assert!(t.width() > w0);
        assert!(t.buckets().len() <= EpcTimeline::MAX_BUCKETS);
        let faults: u64 = t.buckets().iter().map(|b| b.faults).sum();
        let evicts: u64 = t.buckets().iter().map(|b| b.evicts).sum();
        assert_eq!(faults + evicts, 1000);
    }

    #[test]
    fn profile_attributes_and_ranks() {
        let mut r = TraceRecorder::new(8);
        r.record(1, exec(0, 10));
        r.record(2, exec(1, 50));
        r.record(3, exec(1, 50));
        let labels = vec![
            ("main".to_owned(), "sb_full".to_owned()),
            ("worker".to_owned(), "sb_full".to_owned()),
        ];
        let p = Profile::build("w", "sgxbounds", &r, &labels, 500, 1000, 10);
        assert_eq!(p.attribution.check_cycles, 110);
        assert_eq!(p.attribution.app_cycles, 890);
        assert_eq!(p.top_sites[0].site, 1, "hottest site first");
        assert_eq!(p.top_sites[0].func, "worker");
        assert_eq!(p.sites_active, 2);
        // JSON form parses back and keeps the schema tag.
        let j = Json::parse(&codec::Field::put(&p).to_pretty()).unwrap();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("sgxs-profile-v1")
        );
        assert_eq!(
            j.get("attribution")
                .and_then(|a| a.get("check_cycles"))
                .and_then(Json::as_u64),
            Some(110)
        );
    }

    #[test]
    fn span_events_render_digest_and_serialize() {
        let mut r = TraceRecorder::new(8);
        r.record(
            1,
            Event::SpanBegin {
                name: "request",
                arg: 7,
            },
        );
        r.record(9, Event::SpanEnd { name: "request" });
        assert_eq!(r.events(), 2);
        let lines = r.last_events(10);
        assert!(lines[0].contains("span_begin request arg=7"));
        assert!(lines[1].contains("span_end request"));
        // The digest covers the span argument, so two traces differing
        // only in `arg` diverge.
        let mut other = TraceRecorder::new(8);
        other.record(
            1,
            Event::SpanBegin {
                name: "request",
                arg: 8,
            },
        );
        other.record(9, Event::SpanEnd { name: "request" });
        assert_ne!(r.digest(), other.digest());
        for line in r.to_jsonl().lines() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("name").and_then(Json::as_str), Some("request"));
        }
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let mut r = TraceRecorder::new(8);
        r.record(1, Event::Alloc { addr: 64, size: 16 });
        r.record(2, Event::Free { addr: 64 });
        r.record(3, Event::PhaseBegin { name: "run" });
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = Json::parse(line).expect("each line is a JSON object");
            assert!(v.get("at").is_some());
            assert!(v.get("ev").is_some());
        }
    }
}
