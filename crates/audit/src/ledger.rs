//! The object provenance ledger and the recorder that feeds it.

use sgxs_obs::{Event, Recorder, TraceRecorder};

/// One heap object's lifetime, as observed from alloc/free events.
///
/// `base` is the user base address the allocator handed out — the same
/// LB the SGXBounds tagged pointer carries — and `base + size` is the UB
/// the checks enforce, so the ledger reconstructs exactly the bounds
/// metadata without reading any scheme-private state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Birth-order id (dense, 0-based; the Nth allocation has id N).
    pub id: u32,
    /// User base address (the object's lower bound).
    pub base: u32,
    /// User size in bytes (upper bound = `base + size`).
    pub size: u32,
    /// Instruction timestamp of the allocation.
    pub birth_at: u64,
    /// Instruction timestamp of the free, if the object died.
    pub free_at: Option<u64>,
}

impl ObjectRecord {
    /// Lower bound (inclusive).
    pub fn lb(&self) -> u64 {
        self.base as u64
    }

    /// Upper bound (exclusive).
    pub fn ub(&self) -> u64 {
        self.base as u64 + self.size as u64
    }

    /// Whether `addr` falls inside `[lb, ub)`.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.lb() && addr < self.ub()
    }

    /// Byte distance from `addr` to this object: 0 when contained,
    /// otherwise the gap to the nearest edge (1 for the byte just past
    /// the upper bound — the classic off-by-one overflow).
    pub fn distance(&self, addr: u64) -> u64 {
        if addr < self.lb() {
            self.lb() - addr
        } else if addr >= self.ub() {
            addr - self.ub() + 1
        } else {
            0
        }
    }
}

/// Append-only ledger of every heap object the recorder observed,
/// in birth order.
#[derive(Debug, Clone, Default)]
pub struct ObjectLedger {
    objects: Vec<ObjectRecord>,
    live: u64,
}

impl ObjectLedger {
    /// Feeds one event into the ledger; events other than alloc/free are
    /// ignored.
    pub fn observe(&mut self, now: u64, ev: &Event) {
        match ev {
            Event::Alloc { addr, size } => {
                let id = self.objects.len() as u32;
                self.objects.push(ObjectRecord {
                    id,
                    base: *addr,
                    size: *size,
                    birth_at: now,
                    free_at: None,
                });
                self.live += 1;
            }
            Event::Free { addr } => {
                // The most recent live object at this base: address reuse
                // after free creates a fresh record, so only the latest
                // can be the one dying.
                if let Some(o) = self
                    .objects
                    .iter_mut()
                    .rev()
                    .find(|o| o.base == *addr && o.free_at.is_none())
                {
                    o.free_at = Some(now);
                    self.live -= 1;
                }
            }
            _ => {}
        }
    }

    /// Every object observed, in birth order.
    pub fn objects(&self) -> &[ObjectRecord] {
        &self.objects
    }

    /// Objects still live when observation ended.
    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// The `k` objects nearest `addr` by byte distance (an object
    /// containing `addr` has distance 0), ties broken by birth id —
    /// fully deterministic.
    pub fn neighborhood(&self, addr: u64, k: usize) -> Vec<ObjectRecord> {
        let mut v = self.objects.clone();
        v.sort_by_key(|o| (o.distance(addr), o.id));
        v.truncate(k);
        v
    }
}

/// Snapshot of the first check failure the recorder saw, taken at the
/// instant the violation handler emitted it.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Instruction timestamp of the failure.
    pub at: u64,
    /// Absolute index of the event in the full stream (0-based).
    pub index: u64,
    /// Check-site ID, when the failing access is attributable.
    pub site: Option<u32>,
    /// Raw address as the violation handler saw it. Under sgxbounds this
    /// is the *tagged* value: low 32 bits are the pointer, high 32 bits
    /// the upper bound.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u32,
    /// Whether the access was a store.
    pub is_store: bool,
    /// Open spans at fault time, outermost first, as `(name, arg)`.
    pub span_path: Vec<(&'static str, u64)>,
}

/// Running counts of recovery-policy events, from which the policy
/// decision is reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTrail {
    /// `recovery.attempt` events (retries issued).
    pub attempts: u64,
    /// `recovery.degraded` events (trap converted to degraded service).
    pub degraded: u64,
    /// `recovery.gave_up` events (retry budget exhausted).
    pub gave_up: u64,
}

impl RecoveryTrail {
    /// Label of the policy decision the counts imply: `gave-up` >
    /// `degraded` > `retried` > `trapped` (no recovery ran at all).
    pub fn decision(&self) -> &'static str {
        sgxs_obs::read::recovery_decision(self.attempts, self.degraded, self.gave_up)
    }
}

/// A [`Recorder`] that composes the standard [`TraceRecorder`] with the
/// provenance ledger, first-fault capture, span tracking, and the
/// recovery trail. Attach it exactly like a `TraceRecorder` — forensic
/// re-runs only, never on the measured path.
#[derive(Debug, Clone)]
pub struct LedgerRecorder {
    inner: TraceRecorder,
    ledger: ObjectLedger,
    spans: Vec<(&'static str, u64)>,
    fault: Option<FaultRecord>,
    recovery: RecoveryTrail,
}

impl LedgerRecorder {
    /// Creates a recorder whose inner trace ring keeps `ring_cap` events.
    pub fn new(ring_cap: usize) -> Self {
        LedgerRecorder {
            inner: TraceRecorder::new(ring_cap),
            ledger: ObjectLedger::default(),
            spans: Vec::new(),
            fault: None,
            recovery: RecoveryTrail::default(),
        }
    }

    /// The composed trace recorder (digest, counters, ring tail).
    pub fn trace(&self) -> &TraceRecorder {
        &self.inner
    }

    /// The object provenance ledger.
    pub fn ledger(&self) -> &ObjectLedger {
        &self.ledger
    }

    /// The first check failure observed, if any.
    pub fn fault(&self) -> Option<&FaultRecord> {
        self.fault.as_ref()
    }

    /// The recovery-policy trail.
    pub fn recovery(&self) -> RecoveryTrail {
        self.recovery
    }

    /// Spans currently open (outermost first).
    pub fn open_spans(&self) -> &[(&'static str, u64)] {
        &self.spans
    }
}

impl Recorder for LedgerRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, now: u64, ev: Event) {
        match &ev {
            Event::SpanBegin { name, arg } => self.spans.push((name, *arg)),
            Event::SpanEnd { name } => {
                // Innermost open span with this name, mirroring the
                // metrics collector's matching rule.
                if let Some(pos) = self.spans.iter().rposition(|(n, _)| n == name) {
                    self.spans.remove(pos);
                }
            }
            Event::CheckFail {
                site,
                addr,
                size,
                is_store,
            } if self.fault.is_none() => {
                self.fault = Some(FaultRecord {
                    at: now,
                    // `events()` counts events already recorded, so it is
                    // exactly this event's absolute index.
                    index: self.inner.events(),
                    site: *site,
                    addr: *addr,
                    size: *size,
                    is_store: *is_store,
                    span_path: self.spans.clone(),
                });
            }
            Event::RecoveryAttempt { .. } => self.recovery.attempts += 1,
            Event::RecoveryDegraded { .. } => self.recovery.degraded += 1,
            Event::RecoveryGaveUp { .. } => self.recovery.gave_up += 1,
            _ => {}
        }
        self.ledger.observe(now, &ev);
        self.inner.record(now, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(addr: u32, size: u32) -> Event {
        Event::Alloc { addr, size }
    }

    #[test]
    fn ledger_tracks_lifetimes_and_reuse() {
        let mut l = ObjectLedger::default();
        l.observe(10, &alloc(0x100, 32));
        l.observe(20, &alloc(0x200, 64));
        l.observe(30, &Event::Free { addr: 0x100 });
        l.observe(40, &alloc(0x100, 16)); // address reuse: fresh record
        assert_eq!(l.objects().len(), 3);
        assert_eq!(l.live_count(), 2);
        assert_eq!(l.objects()[0].free_at, Some(30));
        assert_eq!(l.objects()[2].free_at, None);
        assert_eq!(l.objects()[2].size, 16);
    }

    #[test]
    fn distance_is_zero_inside_and_one_just_past_ub() {
        let o = ObjectRecord {
            id: 0,
            base: 0x100,
            size: 16,
            birth_at: 0,
            free_at: None,
        };
        assert_eq!(o.distance(0x100), 0);
        assert_eq!(o.distance(0x10f), 0);
        assert_eq!(o.distance(0x110), 1, "first OOB byte is distance 1");
        assert_eq!(o.distance(0xff), 1);
    }

    #[test]
    fn neighborhood_orders_by_distance_then_id() {
        let mut l = ObjectLedger::default();
        l.observe(1, &alloc(0x100, 16)); // id 0, ub 0x110
        l.observe(2, &alloc(0x120, 16)); // id 1
        l.observe(3, &alloc(0x400, 16)); // id 2, far away
        let n = l.neighborhood(0x110, 2); // first byte past object 0
        assert_eq!(n[0].id, 0, "overflowed object is nearest");
        assert_eq!(n[1].id, 1, "adjacent neighbor next");
    }

    #[test]
    fn recorder_captures_first_fault_with_span_path() {
        let mut r = LedgerRecorder::new(8);
        r.record(1, alloc(0x100, 16));
        r.record(
            2,
            Event::SpanBegin {
                name: "request",
                arg: 7,
            },
        );
        r.record(
            3,
            Event::CheckFail {
                site: Some(4),
                addr: 0x110,
                size: 8,
                is_store: true,
            },
        );
        r.record(
            4,
            Event::CheckFail {
                site: Some(9),
                addr: 0x200,
                size: 1,
                is_store: false,
            },
        );
        r.record(5, Event::SpanEnd { name: "request" });
        let f = r.fault().expect("fault captured");
        assert_eq!((f.at, f.index, f.site), (3, 2, Some(4)));
        assert_eq!(f.span_path, vec![("request", 7)]);
        assert!(r.open_spans().is_empty());
        assert_eq!(r.trace().events(), 5, "inner trace saw everything");
    }

    #[test]
    fn recovery_trail_decision_ladder() {
        let mut t = RecoveryTrail::default();
        assert_eq!(t.decision(), "trapped");
        t.attempts = 2;
        assert_eq!(t.decision(), "retried");
        t.degraded = 1;
        assert_eq!(t.decision(), "degraded");
        t.gave_up = 1;
        assert_eq!(t.decision(), "gave-up");
    }
}
