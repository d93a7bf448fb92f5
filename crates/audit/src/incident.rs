//! Incident assembly: joins a finished forensic [`LedgerRecorder`] with
//! what the producer knows ([`IncidentMeta`]) into the declared
//! `sgxs-incident-v1` document, [`IncidentDoc`] — the only incident type.
//! Its id is computed once, over the final content; its one text view is
//! `IncidentDoc::render` in `sgxs-obs`.

use crate::ledger::LedgerRecorder;
use crate::NEIGHBOR_K;
use sgxs_obs::read::{
    IncidentDoc, IncidentFault, IncidentHeap, IncidentNeighbor, IncidentRecovery, IncidentRepro,
    IncidentTrace, IncidentTruth, SpanStep, TraceLine,
};

/// What the producer knows about an incident besides the recording: who
/// detected what, where, and the evidence only it holds.
#[derive(Debug, Clone, Default)]
pub struct IncidentMeta {
    /// Producing surface: `fuzz`, `chaos`, `lint`, or `audit`.
    pub origin: String,
    /// Workload label (fuzz seed, server app, demo name).
    pub workload: String,
    /// Scheme label (or `scheme/policy` combo for chaos).
    pub scheme: String,
    /// Execution-tier pinning claim. Production surfaces write `pinned`:
    /// the forensic payload derives entirely from simulated instruction
    /// counts, so the artifact is asserted (and verified by comparing
    /// reference and compiled outputs) to be byte-identical across tiers.
    /// Ad-hoc single-tier runs may record a tier label instead.
    pub tier: String,
    /// Oracle verdict or gate outcome that triggered the incident.
    pub verdict: String,
    /// The injected fault's ground truth, when the producer planted it
    /// (the differential fuzzer knows exactly which op it injected).
    pub truth: Option<IncidentTruth>,
    /// Pointer-derivation chain from `analyze::prov`, one line per fact.
    pub derivation: Vec<String>,
    /// The ddmin-shrunk minimal reproducer, when the shrinker ran.
    pub repro: Option<IncidentRepro>,
}

/// The fault block of an access at raw address `addr`: SGXBounds packs
/// the pointer into the low 32 bits and the upper-bound tag into the high
/// 32 (untagged schemes use the value as-is, so their tag is 0).
fn decode(
    at: u64,
    index: u64,
    site: Option<u32>,
    addr: u64,
    size: u32,
    store: bool,
) -> IncidentFault {
    IncidentFault {
        at,
        index,
        site: site.map(u64::from),
        raw_addr: addr,
        ptr: addr & 0xffff_ffff,
        tag_ub: addr >> 32,
        size: size.into(),
        kind: if store { "store" } else { "load" }.into(),
    }
}

/// A fault discovered *after* the run, where no check fired (a canary
/// corruption found by the post-run scan): `addr` is the first corrupted
/// byte, `size` the corrupted byte count; timestamp and event index are 0
/// by convention.
pub fn post_run_fault(addr: u64, size: u32) -> IncidentFault {
    decode(0, 0, None, addr, size, true)
}

/// Assembles the incident from a finished forensic recorder, around the
/// first check failure it captured (none for a near-miss).
pub fn assemble(meta: IncidentMeta, rec: &LedgerRecorder, window: usize) -> IncidentDoc {
    let fault = rec
        .fault()
        .map(|f| decode(f.at, f.index, f.site, f.addr, f.size, f.is_store));
    assemble_with(meta, fault, rec, window)
}

/// Assembles the incident around an explicit fault — one found outside
/// the check path — with a trace tail of at most `window` events.
pub fn assemble_with(
    meta: IncidentMeta,
    fault: Option<IncidentFault>,
    rec: &LedgerRecorder,
    window: usize,
) -> IncidentDoc {
    let span_path = rec
        .fault()
        .map_or(rec.open_spans(), |f| f.span_path.as_slice())
        .iter()
        .map(|(name, arg)| SpanStep {
            name: (*name).to_owned(),
            arg: *arg,
        })
        .collect();
    let neighbors = |ptr: u64| {
        let near = rec.ledger().neighborhood(ptr, NEIGHBOR_K).into_iter();
        near.map(move |o| {
            let relation = if o.contains(ptr) {
                "contains"
            } else if ptr >= o.ub() {
                "before"
            } else {
                "after"
            };
            IncidentNeighbor {
                id: o.id.into(),
                base: o.lb(),
                size: o.size.into(),
                ub: o.ub(),
                birth_at: o.birth_at,
                free_at: o.free_at,
                relation: relation.into(),
                distance: o.distance(ptr),
            }
        })
    };
    let neighborhood = fault.iter().flat_map(|f| neighbors(f.ptr)).collect();
    let recovery = rec.recovery();
    let events = rec.trace().last_events_indexed(window).into_iter();
    let mut doc = IncidentDoc {
        id: String::new(),
        origin: meta.origin,
        workload: meta.workload,
        scheme: meta.scheme,
        tier: meta.tier,
        verdict: meta.verdict,
        fault,
        truth: meta.truth,
        span_path,
        recovery: IncidentRecovery {
            attempts: recovery.attempts,
            degraded: recovery.degraded,
            gave_up: recovery.gave_up,
            decision: recovery.decision().into(),
        },
        heap: IncidentHeap {
            objects_total: rec.ledger().objects().len() as u64,
            objects_live: rec.ledger().live_count(),
            neighborhood,
        },
        derivation: meta.derivation,
        trace: IncidentTrace {
            window: window as u64,
            total: rec.trace().events(),
            events: events
                .map(|(index, line)| TraceLine { index, line })
                .collect(),
        },
        repro: meta.repro,
        digest: format!("{:016x}", rec.trace().digest()),
    };
    doc.id = doc.content_id();
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_obs::{Event, Recorder};

    fn forensic_recorder() -> LedgerRecorder {
        let mut r = LedgerRecorder::new(4);
        r.record(
            1,
            Event::Alloc {
                addr: 0x100,
                size: 16,
            },
        );
        r.record(
            2,
            Event::Alloc {
                addr: 0x140,
                size: 32,
            },
        );
        r.record(
            3,
            Event::SpanBegin {
                name: "request",
                arg: 9,
            },
        );
        r.record(
            4,
            Event::CheckFail {
                site: Some(2),
                // Tagged pointer: ptr 0x110 (one past object 0), ub tag 0x110.
                addr: (0x110u64 << 32) | 0x110,
                size: 8,
                is_store: true,
            },
        );
        r.record(5, Event::SpanEnd { name: "request" });
        r
    }

    fn meta() -> IncidentMeta {
        IncidentMeta {
            origin: "fuzz".into(),
            workload: "seed-1".into(),
            scheme: "sgxbounds".into(),
            tier: "reference".into(),
            verdict: "detected".into(),
            ..IncidentMeta::default()
        }
    }

    #[test]
    fn assemble_decodes_tag_and_builds_neighborhood() {
        let rec = forensic_recorder();
        let inc = assemble(meta(), &rec, 32);
        let f = inc.fault.as_ref().expect("fault captured");
        assert_eq!(f.ptr, 0x110);
        assert_eq!(f.tag_ub, 0x110);
        assert_eq!(f.kind, "store");
        let request = SpanStep {
            name: "request".into(),
            arg: 9,
        };
        assert_eq!(inc.span_path, vec![request]);
        assert_eq!(inc.heap.objects_total, 2);
        let n0 = &inc.heap.neighborhood[0];
        assert_eq!((n0.id, n0.relation.as_str(), n0.distance), (0, "before", 1));
    }

    #[test]
    fn id_is_content_derived_and_stable() {
        let rec = forensic_recorder();
        let a = assemble(meta(), &rec, 32);
        let b = assemble(meta(), &rec, 32);
        assert_eq!(a.id, b.id);
        assert_eq!(a.id, a.content_id(), "the id covers the final content");
        let derived = IncidentMeta {
            derivation: vec!["b0 i0 load".into()],
            ..meta()
        };
        let c = assemble(derived, &rec, 32);
        assert_ne!(a.id, c.id, "content change moves the id");
        assert_eq!(c.id, c.content_id());
    }

    #[test]
    fn trace_tail_carries_absolute_indices() {
        let mut rec = LedgerRecorder::new(2); // tiny ring: early events age out
        for i in 0..6u64 {
            rec.record(
                i,
                Event::Alloc {
                    addr: 0x100 + (i as u32) * 0x40,
                    size: 8,
                },
            );
        }
        let inc = assemble_with(meta(), Some(post_run_fault(0x100, 1)), &rec, 2);
        let idx: Vec<u64> = inc.trace.events.iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![4, 5], "ring tail keeps absolute indices");
        assert_eq!(inc.trace.total, 6);
    }

    #[test]
    fn text_view_names_truth_and_neighbors() {
        let rec = forensic_recorder();
        let truth = IncidentTruth {
            kind: "oob-store".into(),
            op: "OobStore { obj: Heap(0), slot_off: 2 }".into(),
            op_index: 3,
        };
        let meta = IncidentMeta {
            truth: Some(truth),
            ..meta()
        };
        let text = assemble(meta, &rec, 32).render();
        assert!(text.contains("injected oob-store at op 3"));
        assert!(text.contains("OobStore"));
        assert!(text.contains("obj #0"));
        assert!(text.contains("before (distance 1)"));
        assert!(text.contains("spans: request(9)"));
    }
}
