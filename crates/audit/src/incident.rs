//! The assembled incident report: `sgxs-incident-v1` serialization and
//! the ASCII rendering every surfacing path shares.

use crate::ledger::{FaultRecord, LedgerRecorder, ObjectRecord, RecoveryTrail};
use crate::NEIGHBOR_K;
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{
    IncidentDoc, IncidentFault, IncidentHeap, IncidentNeighbor, IncidentRecovery, IncidentTrace,
    SpanStep, TraceLine,
};

/// The injected fault's ground truth, when the incident came from the
/// differential fuzzer (which knows exactly which op it planted).
pub use sgxs_obs::read::IncidentTruth as TruthInfo;

/// The ddmin-shrunk minimal reproducer, when the shrinker ran.
pub use sgxs_obs::read::IncidentRepro as ReproInfo;

/// A neighbor object's position relative to the faulting address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// The address falls inside the object.
    Contains,
    /// The object lies entirely below the address.
    Before,
    /// The object lies entirely above the address.
    After,
}

impl Relation {
    /// Stable label used in the serialized document.
    pub fn label(&self) -> &'static str {
        match self {
            Relation::Contains => "contains",
            Relation::Before => "before",
            Relation::After => "after",
        }
    }
}

/// One entry of the heap-neighborhood map.
#[derive(Debug, Clone)]
pub struct Neighbor {
    /// The object itself, from the provenance ledger.
    pub object: ObjectRecord,
    /// Where the object sits relative to the faulting address.
    pub relation: Relation,
    /// Byte distance from the faulting address (0 iff `Contains`).
    pub distance: u64,
}

/// The faulting access, decoded from the check-failure event.
#[derive(Debug, Clone, Copy)]
pub struct FaultInfo {
    /// Instruction timestamp (0 for post-run discoveries, e.g. a canary
    /// corruption found after the serve loop finished).
    pub at: u64,
    /// Absolute event index in the forensic run's stream.
    pub index: u64,
    /// Check-site ID, when attributable.
    pub site: Option<u32>,
    /// Raw address as the handler saw it (tagged under sgxbounds).
    pub raw_addr: u64,
    /// Decoded pointer: the low 32 bits of `raw_addr` (SGXBounds packs
    /// the pointer there; untagged schemes use the value as-is).
    pub ptr: u64,
    /// Decoded upper-bound tag: the high 32 bits (nonzero only for
    /// tagged-pointer schemes).
    pub tag_ub: u64,
    /// Access size in bytes.
    pub size: u32,
    /// Whether the access was a store.
    pub is_store: bool,
}

impl FaultInfo {
    /// Decodes a captured [`FaultRecord`] (splitting the tagged address).
    pub fn from_record(r: &FaultRecord) -> FaultInfo {
        FaultInfo {
            at: r.at,
            index: r.index,
            site: r.site,
            raw_addr: r.addr,
            ptr: r.addr & 0xffff_ffff,
            tag_ub: r.addr >> 32,
            size: r.size,
            is_store: r.is_store,
        }
    }

    /// A synthetic fault for violations discovered *after* the run (no
    /// check fired): `addr` is the first corrupted byte, `size` the
    /// corrupted byte count. Timestamp and index are 0 by convention.
    pub fn post_run(addr: u64, size: u32) -> FaultInfo {
        FaultInfo {
            at: 0,
            index: 0,
            site: None,
            raw_addr: addr,
            ptr: addr & 0xffff_ffff,
            tag_ub: addr >> 32,
            size,
            is_store: true,
        }
    }

    /// `load` / `store` label.
    pub fn kind(&self) -> &'static str {
        if self.is_store {
            "store"
        } else {
            "load"
        }
    }
}

/// Identity of an incident: who detected what, where.
#[derive(Debug, Clone)]
pub struct IncidentMeta {
    /// Producing surface: `fuzz`, `chaos`, `lint`, or `audit`.
    pub origin: String,
    /// Workload label (fuzz seed, server app, demo name).
    pub workload: String,
    /// Scheme label (or `scheme/policy` combo for chaos).
    pub scheme: String,
    /// Execution-tier pinning claim. Production surfaces write `pinned`:
    /// the forensic payload derives entirely from simulated instruction
    /// counts, so the artifact is asserted (and CI-verified by byte-diffing
    /// reference vs compiled outputs) to be byte-identical across tiers.
    /// Ad-hoc single-tier runs may record a tier label instead.
    pub tier: String,
    /// Oracle verdict or gate outcome that triggered the incident.
    pub verdict: String,
}

/// A fully assembled memory-safety incident.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Who detected what, where.
    pub meta: IncidentMeta,
    /// The faulting access; `None` for near-misses (e.g. a `missed`
    /// verdict where ground truth says a violation happened but the
    /// scheme never trapped).
    pub fault: Option<FaultInfo>,
    /// Injected ground truth, when known.
    pub truth: Option<TruthInfo>,
    /// Open spans at fault time, outermost first, as `(name, arg)`.
    pub span_path: Vec<(String, u64)>,
    /// Recovery-policy trail of the forensic run.
    pub recovery: RecoveryTrail,
    /// Total objects the ledger observed.
    pub objects_total: u64,
    /// Objects still live at end of run.
    pub objects_live: u64,
    /// The K objects nearest the faulting address (empty without a fault
    /// address to anchor on).
    pub neighborhood: Vec<Neighbor>,
    /// Pointer-derivation chain from `analyze::prov`, one line per fact.
    pub derivation: Vec<String>,
    /// Ring window the trace tail was captured with.
    pub trace_window: u64,
    /// Total events the forensic run recorded.
    pub trace_total: u64,
    /// Trace tail: `(absolute_index, rendered_line)`, oldest first.
    pub trace: Vec<(u64, String)>,
    /// Shrunk minimal reproducer, when available.
    pub repro: Option<ReproInfo>,
    /// FNV digest of the forensic run's full event stream.
    pub digest: u64,
}

impl Incident {
    /// Assembles an incident from a finished forensic recorder, using the
    /// first captured check failure as the fault (if any fired).
    pub fn assemble(meta: IncidentMeta, rec: &LedgerRecorder, window: usize) -> Incident {
        let fault = rec.fault().map(FaultInfo::from_record);
        Incident::assemble_with(meta, fault, rec, window)
    }

    /// Assembles an incident around an explicit fault — used when the
    /// violation was discovered outside the check path (canary
    /// corruption) or did not fire at all (near-miss).
    pub fn assemble_with(
        meta: IncidentMeta,
        fault: Option<FaultInfo>,
        rec: &LedgerRecorder,
        window: usize,
    ) -> Incident {
        let span_path = rec
            .fault()
            .map(|f| f.span_path.as_slice())
            .unwrap_or_else(|| rec.open_spans())
            .iter()
            .map(|(n, a)| ((*n).to_owned(), *a))
            .collect();
        let neighborhood = match &fault {
            Some(f) => rec
                .ledger()
                .neighborhood(f.ptr, NEIGHBOR_K)
                .into_iter()
                .map(|object| {
                    let relation = if object.contains(f.ptr) {
                        Relation::Contains
                    } else if f.ptr >= object.ub() {
                        Relation::Before
                    } else {
                        Relation::After
                    };
                    Neighbor {
                        distance: object.distance(f.ptr),
                        object,
                        relation,
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        Incident {
            meta,
            fault,
            truth: None,
            span_path,
            recovery: rec.recovery(),
            objects_total: rec.ledger().objects().len() as u64,
            objects_live: rec.ledger().live_count(),
            neighborhood,
            derivation: Vec::new(),
            trace_window: window as u64,
            trace_total: rec.trace().events(),
            trace: rec.trace().last_events_indexed(window),
            repro: None,
            digest: rec.trace().digest(),
        }
    }

    /// The content-derived incident id ([`IncidentDoc::content_id`]).
    pub fn id(&self) -> String {
        self.doc().id
    }

    /// Serializes to the `sgxs-incident-v1` document.
    pub fn to_json(&self) -> Json {
        self.doc().put()
    }

    /// The `sgxs-incident-v1` document, its id computed over its content.
    pub fn doc(&self) -> IncidentDoc {
        let mut doc = IncidentDoc {
            id: String::new(),
            origin: self.meta.origin.clone(),
            workload: self.meta.workload.clone(),
            scheme: self.meta.scheme.clone(),
            tier: self.meta.tier.clone(),
            verdict: self.meta.verdict.clone(),
            fault: self.fault.map(|f| IncidentFault {
                at: f.at,
                index: f.index,
                site: f.site.map(u64::from),
                raw_addr: f.raw_addr,
                ptr: f.ptr,
                tag_ub: f.tag_ub,
                size: f.size.into(),
                kind: f.kind().into(),
            }),
            truth: self.truth.clone(),
            span_path: self
                .span_path
                .iter()
                .map(|(name, arg)| SpanStep {
                    name: name.clone(),
                    arg: *arg,
                })
                .collect(),
            recovery: IncidentRecovery {
                attempts: self.recovery.attempts,
                degraded: self.recovery.degraded,
                gave_up: self.recovery.gave_up,
                decision: self.recovery.decision().into(),
            },
            heap: IncidentHeap {
                objects_total: self.objects_total,
                objects_live: self.objects_live,
                neighborhood: self
                    .neighborhood
                    .iter()
                    .map(|n| IncidentNeighbor {
                        id: n.object.id.into(),
                        base: n.object.lb(),
                        size: n.object.size.into(),
                        ub: n.object.ub(),
                        birth_at: n.object.birth_at,
                        free_at: n.object.free_at,
                        relation: n.relation.label().into(),
                        distance: n.distance,
                    })
                    .collect(),
            },
            derivation: self.derivation.clone(),
            trace: IncidentTrace {
                window: self.trace_window,
                total: self.trace_total,
                events: self
                    .trace
                    .iter()
                    .map(|(index, line)| TraceLine {
                        index: *index,
                        line: line.clone(),
                    })
                    .collect(),
            },
            repro: self.repro.clone(),
            digest: format!("{:016x}", self.digest),
        };
        doc.id = doc.content_id();
        doc
    }

    /// Human-readable ASCII report — the single rendering every surface
    /// (fuzz disagreements, `repro audit`, the example) shares.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let m = &self.meta;
        out.push_str(&format!("== incident {} ==\n", self.id()));
        out.push_str(&format!(
            "origin={} workload={} scheme={} tier={} verdict={}\n",
            m.origin, m.workload, m.scheme, m.tier, m.verdict
        ));
        match &self.fault {
            Some(f) => {
                let site = f.site.map(|s| s.to_string()).unwrap_or_else(|| "?".into());
                out.push_str(&format!(
                    "fault: [ins {}] event #{} {} size={} ptr={:#x} tag_ub={:#x} site={}\n",
                    f.at,
                    f.index,
                    f.kind(),
                    f.size,
                    f.ptr,
                    f.tag_ub,
                    site
                ));
            }
            None => out.push_str("fault: none captured (near-miss: no check fired)\n"),
        }
        if let Some(t) = &self.truth {
            out.push_str(&format!(
                "truth: injected {} at op {}: {}\n",
                t.kind, t.op_index, t.op
            ));
        }
        if !self.span_path.is_empty() {
            let path: Vec<String> = self
                .span_path
                .iter()
                .map(|(n, a)| format!("{n}({a})"))
                .collect();
            out.push_str(&format!("spans: {}\n", path.join(" > ")));
        }
        out.push_str(&format!(
            "recovery: decision={} attempts={} degraded={} gave_up={}\n",
            self.recovery.decision(),
            self.recovery.attempts,
            self.recovery.degraded,
            self.recovery.gave_up
        ));
        out.push_str(&format!(
            "heap: {} live / {} total objects\n",
            self.objects_live, self.objects_total
        ));
        if let Some(f) = &self.fault {
            if !self.neighborhood.is_empty() {
                out.push_str(&format!("neighborhood of {:#x}:\n", f.ptr));
            }
            for n in &self.neighborhood {
                let o = &n.object;
                let life = match o.free_at {
                    Some(fr) => format!("freed@ins{fr}"),
                    None => "live".into(),
                };
                let rel = match n.relation {
                    Relation::Contains => format!("contains (offset {})", f.ptr - o.lb()),
                    Relation::Before => format!("before (distance {})", n.distance),
                    Relation::After => format!("after (distance {})", n.distance),
                };
                out.push_str(&format!(
                    "  obj #{} [{:#x}..{:#x}) size={} born@ins{} {} <- {}\n",
                    o.id,
                    o.lb(),
                    o.ub(),
                    o.size,
                    o.birth_at,
                    life,
                    rel
                ));
            }
        }
        if !self.derivation.is_empty() {
            out.push_str("derivation:\n");
            for d in &self.derivation {
                out.push_str(&format!("  {d}\n"));
            }
        }
        out.push_str(&format!(
            "trace: last {} of {} events (window {}):\n",
            self.trace.len(),
            self.trace_total,
            self.trace_window
        ));
        for (i, line) in &self.trace {
            out.push_str(&format!("  #{i} {line}\n"));
        }
        if let Some(r) = &self.repro {
            out.push_str(&format!("repro: {} ops, {} insts:\n", r.ops.len(), r.insts));
            for (i, op) in r.ops.iter().enumerate() {
                out.push_str(&format!("  op{i}: {op}\n"));
            }
        }
        out
    }
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
        }
    }

    #[test]
    fn assemble_decodes_tag_and_builds_neighborhood() {
        let rec = forensic_recorder();
        let inc = Incident::assemble(meta(), &rec, 32);
        let f = inc.fault.as_ref().expect("fault captured");
        assert_eq!(f.ptr, 0x110);
        assert_eq!(f.tag_ub, 0x110);
        assert_eq!(inc.span_path, vec![("request".to_owned(), 9)]);
        assert_eq!(inc.objects_total, 2);
        assert_eq!(inc.neighborhood[0].object.id, 0);
        assert_eq!(inc.neighborhood[0].relation, Relation::Before);
        assert_eq!(inc.neighborhood[0].distance, 1);
    }

    #[test]
    fn id_is_content_derived_and_stable() {
        let rec = forensic_recorder();
        let a = Incident::assemble(meta(), &rec, 32);
        let mut b = Incident::assemble(meta(), &rec, 32);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        b.derivation.push("b0 i0 load".into());
        assert_ne!(a.id(), b.id(), "content change moves the id");
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
        let inc = Incident::assemble_with(meta(), Some(FaultInfo::post_run(0x100, 1)), &rec, 2);
        let idx: Vec<u64> = inc.trace.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![4, 5], "ring tail keeps absolute indices");
        assert_eq!(inc.trace_total, 6);
    }

    #[test]
    fn render_names_truth_and_neighbors() {
        let rec = forensic_recorder();
        let mut inc = Incident::assemble(meta(), &rec, 32);
        inc.truth = Some(TruthInfo {
            kind: "oob-store".into(),
            op: "OobStore { obj: Heap(0), slot_off: 2 }".into(),
            op_index: 3,
        });
        let text = inc.render();
        assert!(text.contains("injected oob-store at op 3"));
        assert!(text.contains("OobStore"));
        assert!(text.contains("obj #0"));
        assert!(text.contains("before (distance 1)"));
        assert!(text.contains("spans: request(9)"));
    }
}
