//! The one text view of each declared document that has one: an
//! incident ([`IncidentDoc::render`]), a profile ([`Profile::render`]), a
//! lint document ([`LintDoc::render`]), a metrics document's latency
//! table ([`MetricsDoc::render`]) and a campaign's quarantine block
//! ([`render_quarantine`]). Every surface that shows one of these
//! documents as text calls its view — `repro` stdout, the `--ascii` files,
//! `repro render`, the fuzz and chaos reports and the examples — so no
//! command shows two renderings of one document. The SVG, folded-stack
//! and span views live in `sgxs-perf`.

use crate::schema::{IncidentDoc, LintDoc, MetricsDoc, Profile, Quarantined};
use std::fmt::Write as _;

/// The percentage `part` is of `whole` (0 when `whole` is 0), as the
/// views and the profile SVG print shares.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

impl IncidentDoc {
    /// The incident's text view: identity, the decoded fault (raw address,
    /// pointer and upper-bound tag), ground truth, span path, recovery
    /// trail, heap neighborhood, derivation chain, indexed trace tail and
    /// shrunk repro.
    pub fn render(&self) -> String {
        let mut out = format!("== incident {} ==\n", self.id);
        let _ = writeln!(
            out,
            "origin={} workload={} scheme={} tier={} verdict={}",
            self.origin, self.workload, self.scheme, self.tier, self.verdict
        );
        match &self.fault {
            Some(f) => {
                let site = f.site.map_or("?".to_owned(), |s| s.to_string());
                let _ = writeln!(
                    out,
                    "fault: [ins {}] event #{} {} size={} ptr={:#x} raw={:#x} tag_ub={:#x} site={site}",
                    f.at, f.index, f.kind, f.size, f.ptr, f.raw_addr, f.tag_ub
                );
            }
            None => out.push_str("fault: none captured (near-miss: no check fired)\n"),
        }
        if let Some(t) = &self.truth {
            let _ = writeln!(
                out,
                "truth: injected {} at op {}: {}",
                t.kind, t.op_index, t.op
            );
        }
        if !self.span_path.is_empty() {
            let path: Vec<String> = self
                .span_path
                .iter()
                .map(|s| format!("{}({})", s.name, s.arg))
                .collect();
            let _ = writeln!(out, "spans: {}", path.join(" > "));
        }
        let r = &self.recovery;
        let _ = writeln!(
            out,
            "recovery: decision={} attempts={} degraded={} gave_up={}",
            r.decision, r.attempts, r.degraded, r.gave_up
        );
        let heap = &self.heap;
        let _ = writeln!(
            out,
            "heap: {} live / {} total objects",
            heap.objects_live, heap.objects_total
        );
        if let (Some(f), false) = (&self.fault, heap.neighborhood.is_empty()) {
            let _ = writeln!(out, "neighborhood of {:#x}:", f.ptr);
            for n in &heap.neighborhood {
                let life = n
                    .free_at
                    .map_or("live".to_owned(), |t| format!("freed@ins{t}"));
                let at = match n.relation.as_str() {
                    "contains" => format!("offset {}", f.ptr.saturating_sub(n.base)),
                    _ => format!("distance {}", n.distance),
                };
                let _ = writeln!(
                    out,
                    "  obj #{} [{:#x}..{:#x}) size={} born@ins{} {life} <- {} ({at})",
                    n.id, n.base, n.ub, n.size, n.birth_at, n.relation
                );
            }
        }
        if !self.derivation.is_empty() {
            out.push_str("derivation:\n");
            for d in &self.derivation {
                let _ = writeln!(out, "  {d}");
            }
        }
        let tr = &self.trace;
        let _ = writeln!(
            out,
            "trace: last {} of {} events (window {}):",
            tr.events.len(),
            tr.total,
            tr.window
        );
        for e in &tr.events {
            let _ = writeln!(out, "  #{} {}", e.index, e.line);
        }
        if let Some(r) = &self.repro {
            let _ = writeln!(out, "repro: {} ops, {} insts:", r.ops.len(), r.insts);
            for (i, op) in r.ops.iter().enumerate() {
                let _ = writeln!(out, "  op{i}: {op}");
            }
        }
        out
    }
}

impl Profile {
    /// The profile's text view: events, the app-vs-check cycle split with
    /// both shares, allocator and EPC counters, the EPC timeline's peak,
    /// site activity, and a table of at most `top` hot sites with each
    /// one's share of check cycles.
    pub fn render(&self, top: usize) -> String {
        let a = &self.attribution;
        let mut out = format!(
            "profile: {} under {} — {} events ({} check execs, {} fails)\n",
            self.workload, self.scheme, self.events, self.check_execs, self.check_fails
        );
        let _ = writeln!(
            out,
            "cycles: wall {} | cpu {} = app {} ({:.1}%) + checks {} ({:.1}% instrumentation)",
            self.wall_cycles,
            self.cpu_cycles,
            a.app_cycles,
            pct(a.app_cycles, self.cpu_cycles),
            a.check_cycles,
            a.check_pct
        );
        let (alloc, epc) = (&self.alloc, &self.epc);
        let _ = writeln!(
            out,
            "alloc: {} allocs / {} frees, {} bytes | epc: {} faults, {} evictions",
            alloc.allocs, alloc.frees, alloc.bytes, epc.faults, epc.evictions
        );
        if epc.faults + epc.evictions > 0 {
            let t = &self.epc_timeline;
            let per_bucket = t.faults.iter().zip(&t.evictions).map(|(f, e)| f + e);
            let _ = writeln!(
                out,
                "epc timeline: {} buckets x {} instructions, peak {} events/bucket",
                t.faults.len(),
                t.bucket_instructions,
                per_bucket.max().unwrap_or(0)
            );
        }
        let _ = writeln!(
            out,
            "check sites: {} active of {} inserted",
            self.sites_active, self.sites_total
        );
        if top > 0 && !self.top_sites.is_empty() {
            let _ = writeln!(
                out,
                "{:>6}  {:<24} {:<10} {:>12} {:>12} {:>7} {:>7}",
                "site", "func", "kind", "execs", "cycles", "fails", "%checks"
            );
            for s in self.top_sites.iter().take(top) {
                let _ = writeln!(
                    out,
                    "{:>6}  {:<24} {:<10} {:>12} {:>12} {:>7} {:>6.1}%",
                    format!("#{}", s.site),
                    s.func,
                    s.kind,
                    s.execs,
                    s.cycles,
                    s.fails,
                    pct(s.cycles, a.check_cycles)
                );
            }
        }
        out
    }
}

impl LintDoc {
    /// The lint document's text view: per module, its verdict counts and
    /// one diagnostic per spatial and temporal finding; with `graph`, each
    /// function of a v2 document's call graph (bottom-up SCC order) with
    /// its callees and summary effects, `[indirect?]` marking an
    /// unresolvable indirect call; then the document totals. A v1 document
    /// records no temporal findings, so its view shows none.
    pub fn render(&self, graph: bool) -> String {
        let (mut out, mut sites) = (String::new(), 0u64);
        for m in &self.modules {
            sites = sites.saturating_add(m.sites);
            let _ = write!(
                out,
                "{}: {} access sites — {} proved-safe, {} unknown, {} proved-oob",
                m.module, m.sites, m.proved_safe, m.unknown, m.proved_oob
            );
            if let (Some(uaf), Some(df), Some(leaks)) = (m.proved_uaf, m.proved_df, m.leaks) {
                let _ = write!(out, "; {uaf} proved-uaf, {df} proved-df, {leaks} leaks");
            }
            out.push('\n');
            for f in &m.findings {
                let off = match (f.offset_lo, f.offset_hi) {
                    (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
                    _ => "?".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "  {}:b{}:i{} [site {}]: {} of {}B at offset {off} past {}\n    {}",
                    f.function, f.block, f.inst, f.site, f.kind, f.width, f.object, f.ir
                );
            }
            for t in m.temporal.iter().flatten() {
                let _ = writeln!(
                    out,
                    "  {}:b{}:i{} [site {}]: proved {} of {} (alloc site {})\n    {}",
                    t.function, t.block, t.inst, t.site, t.kind, t.object, t.alloc_site, t.ir
                );
            }
            if !graph {
                continue;
            }
            let summaries = m.summaries.iter().flatten();
            for (node, s) in m.call_graph.iter().flatten().zip(summaries) {
                let mut effects = Vec::new();
                for (i, _) in s.frees_params.iter().enumerate().filter(|(_, may)| **may) {
                    let must = s.must_frees_params.get(i).copied().unwrap_or(false);
                    effects.push(format!("frees p{i}{}", if must { "!" } else { "?" }));
                }
                for (i, _) in s.captures_params.iter().enumerate().filter(|(_, c)| **c) {
                    effects.push(format!("caps p{i}"));
                }
                if s.frees_unknown {
                    effects.push("frees ?".to_owned());
                }
                let callees = match node.callees.is_empty() {
                    true => "(leaf)".to_owned(),
                    false => format!("-> {}", node.callees.join(", ")),
                };
                let eff = match effects.is_empty() {
                    true => String::new(),
                    false => format!(" {{{}}}", effects.join(", ")),
                };
                let benign = if s.heap_benign { " benign" } else { "" };
                let indirect = if node.unresolved { " [indirect?]" } else { "" };
                let _ = writeln!(
                    out,
                    "  scc{:<3} {:<18} {callees} ret={}{eff}{benign}{indirect}",
                    node.scc, node.func, s.ret
                );
            }
        }
        let _ = write!(
            out,
            "lint: {} modules, {sites} sites, {} proved-oob",
            self.modules.len(),
            self.proved_oob
        );
        if let (Some(uaf), Some(df), Some(leaks)) = (self.proved_uaf, self.proved_df, self.leaks) {
            let _ = write!(out, ", {uaf} proved-uaf, {df} proved-df, {leaks} leaks");
        }
        out.push('\n');
        out
    }
}

impl MetricsDoc {
    /// The latency table: one row per histogram with its sample count, the
    /// percentile representatives and the maximum, in cycles.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<34} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "histogram", "count", "p50", "p90", "p99", "p999", "max"
        );
        for h in &self.hists {
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                h.name, h.count, h.p50, h.p90, h.p99, h.p999, h.max
            );
        }
        out
    }
}

/// A campaign's quarantine block: each quarantined seed with its failure
/// class, attempts and detail, then the seeds a graceful stop skipped.
/// Empty when there is neither.
pub fn render_quarantine(quarantine: &[Quarantined], skipped: u64) -> String {
    let mut out = String::new();
    if !quarantine.is_empty() {
        out.push_str("\nquarantined seeds:\n");
        for q in quarantine {
            let _ = writeln!(
                out,
                "  seed {} [{} after {} attempt(s)]: {}",
                q.seed, q.class, q.attempts, q.detail
            );
        }
    }
    if skipped > 0 {
        let _ = writeln!(out, "\n{skipped} seed(s) skipped by early stop");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::*;

    fn sample_profile() -> Profile {
        let site = |site, func: &str, kind: &str, execs, cycles, fails| SiteRow {
            site,
            func: func.into(),
            kind: kind.into(),
            execs,
            cycles,
            fails,
        };
        Profile {
            workload: "string_match".into(),
            scheme: "sgxbounds".into(),
            wall_cycles: 500,
            cpu_cycles: 1000,
            attribution: Attribution {
                app_cycles: 700,
                check_cycles: 300,
                check_pct: 30.0,
            },
            check_execs: 42,
            check_fails: 1,
            alloc: AllocCounts {
                allocs: 2,
                frees: 1,
                bytes: 96,
            },
            epc: EpcCounts {
                faults: 3,
                evictions: 1,
            },
            epc_timeline: Timeline {
                bucket_instructions: 4096,
                faults: vec![2, 1],
                evictions: vec![1, 0],
            },
            sites_total: 9,
            sites_active: 3,
            top_sites: vec![
                site(2, "worker", "sb_full", 30, 200, 0),
                site(0, "main", "sb_safe", 12, 80, 1),
            ],
            events: 43,
            digest: "deadbeef".into(),
        }
    }

    #[test]
    fn profile_view_reports_counters_and_shares() {
        let t = sample_profile().render(10);
        assert!(t.starts_with("profile: string_match under sgxbounds — 43 events"));
        assert!(t.contains("(42 check execs, 1 fails)"));
        assert!(t.contains("wall 500 | cpu 1000 = app 700 (70.0%) + checks 300 (30.0%"));
        assert!(t.contains("2 allocs / 1 frees, 96 bytes | epc: 3 faults, 1 evictions"));
        assert!(t.contains("2 buckets x 4096 instructions, peak 3 events/bucket"));
        assert!(t.contains("check sites: 3 active of 9 inserted"));
        assert!(t.contains("#2"));
        assert!(t.contains("66.7%"), "200/300 check cycles:\n{t}");
        // `top` trims the table, never the header lines.
        let one = sample_profile().render(1);
        assert!(one.contains("#2") && !one.contains("sb_safe"), "{one}");
        assert!(!sample_profile().render(0).contains("%checks"));
    }

    #[test]
    fn latency_view_lists_every_histogram() {
        let doc = crate::read::parse_metrics(
            r#"{
                "schema": "sgxs-metrics-v1",
                "counters": {}, "gauges": {},
                "hists": [{
                    "name": "latency/sgxbounds/retry",
                    "count": 3, "sum": 30, "min": 8, "max": 12,
                    "p50": 9, "p90": 12, "p99": 12, "p999": 12,
                    "buckets": [[8, 1], [9, 1], [12, 1]]
                }]
            }"#,
        )
        .unwrap();
        let t = doc.render();
        assert!(t.lines().next().unwrap().contains("p999"));
        assert!(t.contains("latency/sgxbounds/retry"));
        let row = t.lines().nth(1).unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[1..], ["3", "9", "12", "12", "12", "12"]);
    }

    fn sample_incident() -> IncidentDoc {
        IncidentDoc {
            id: "00c0ffee00c0ffee".into(),
            origin: "fuzz".into(),
            workload: "seed-42".into(),
            scheme: "sgxbounds".into(),
            tier: "pinned".into(),
            verdict: "detected".into(),
            fault: Some(IncidentFault {
                at: 120,
                index: 9,
                site: Some(3),
                raw_addr: (0x150u64 << 32) | 0x14c,
                ptr: 0x14c,
                tag_ub: 0x150,
                size: 4,
                kind: "store".into(),
            }),
            truth: Some(IncidentTruth {
                kind: "heap-overflow".into(),
                op: "Store { dst: 1, off: 8 }".into(),
                op_index: 5,
            }),
            span_path: vec![SpanStep {
                name: "exec".into(),
                arg: 42,
            }],
            recovery: IncidentRecovery {
                attempts: 0,
                degraded: 0,
                gave_up: 0,
                decision: "trapped".into(),
            },
            heap: IncidentHeap {
                objects_total: 3,
                objects_live: 2,
                neighborhood: vec![
                    IncidentNeighbor {
                        id: 1,
                        base: 0x140,
                        size: 12,
                        ub: 0x14c,
                        birth_at: 10,
                        free_at: None,
                        relation: "before".into(),
                        distance: 1,
                    },
                    IncidentNeighbor {
                        id: 2,
                        base: 0x150,
                        size: 8,
                        ub: 0x158,
                        birth_at: 20,
                        free_at: Some(90),
                        relation: "after".into(),
                        distance: 4,
                    },
                ],
            },
            derivation: vec!["b0 i4 store w4 proved-oob referent=Alloc(0) offset=[12,12]".into()],
            trace: IncidentTrace {
                window: 32,
                total: 40,
                events: vec![
                    TraceLine {
                        index: 38,
                        line: "alloc #1 12B".into(),
                    },
                    TraceLine {
                        index: 39,
                        line: "check-fail site#3".into(),
                    },
                ],
            },
            repro: Some(IncidentRepro {
                insts: 77,
                ops: vec!["Alloc(12)".into(), "Store { dst: 1, off: 8 }".into()],
            }),
            digest: "deadbeefdeadbeef".into(),
        }
    }

    #[test]
    fn incident_view_reports_the_full_forensic_story() {
        let t = sample_incident().render();
        assert!(t.contains("== incident 00c0ffee00c0ffee =="));
        assert!(t.contains("origin=fuzz workload=seed-42 scheme=sgxbounds tier=pinned"));
        assert!(t.contains("fault: [ins 120] event #9 store size=4 ptr=0x14c"));
        assert!(t.contains("raw=0x1500000014c tag_ub=0x150 site=3"));
        assert!(t.contains("truth: injected heap-overflow at op 5: Store"));
        assert!(t.contains("spans: exec(42)"));
        assert!(t.contains("recovery: decision=trapped attempts=0"));
        assert!(t.contains("heap: 2 live / 3 total objects"));
        assert!(t.contains("obj #1 [0x140..0x14c) size=12 born@ins10 live <- before (distance 1)"));
        assert!(
            t.contains("obj #2 [0x150..0x158) size=8 born@ins20 freed@ins90 <- after (distance 4)")
        );
        assert!(t.contains("derivation:\n  b0 i4 store"));
        assert!(t.contains("trace: last 2 of 40 events (window 32):"));
        assert!(t.contains("  #39 check-fail site#3"));
        assert!(t.contains("repro: 2 ops, 77 insts:\n  op0: Alloc(12)\n  op1: Store"));
        // A contained fault reports its offset into the object.
        let mut inside = sample_incident();
        inside.heap.neighborhood.truncate(1);
        let n = &mut inside.heap.neighborhood[0];
        (n.relation, n.distance, n.ub, n.size) = ("contains".into(), 0, 0x150, 16);
        assert!(inside.render().contains("<- contains (offset 12)"));
        // A near-miss document renders too.
        let mut near = sample_incident();
        near.fault = None;
        near.heap.neighborhood.clear();
        let t = near.render();
        assert!(t.contains("fault: none captured (near-miss: no check fired)"));
        assert!(!t.contains("neighborhood of"));
    }

    fn sample_lint(v2: bool) -> LintDoc {
        let temporal = LintTemporal {
            function: "main".into(),
            block: 0,
            inst: 3,
            site: 1,
            kind: "uaf".into(),
            alloc_site: 0,
            object: "alloc#0(24B)".into(),
            ir: "r1 = load i64 [r0]".into(),
        };
        let node = |func: &str, callees: Vec<String>, scc| LintCgNode {
            func: func.into(),
            callees,
            scc,
            unresolved: false,
        };
        let summary = |func: &str, frees: bool| LintSummary {
            func: func.into(),
            ret: "top".into(),
            frees_params: vec![frees],
            must_frees_params: vec![frees],
            captures_params: vec![false],
            frees_unknown: false,
            heap_benign: !frees,
        };
        let v2_count = |n: u64| v2.then_some(n);
        LintDoc {
            schema: if v2 { LINT_SCHEMA_V2 } else { LINT_SCHEMA }.into(),
            seed: 42,
            ipa: v2.then_some(true),
            proved_oob: 1,
            proved_uaf: v2_count(1),
            proved_df: v2_count(0),
            leaks: v2_count(0),
            modules: vec![LintModule {
                module: "demo".into(),
                sites: 4,
                proved_safe: 2,
                unknown: 1,
                proved_oob: 1,
                proved_uaf: v2_count(1),
                proved_df: v2_count(0),
                leaks: v2_count(0),
                findings: vec![LintFinding {
                    function: "main".into(),
                    block: 3,
                    inst: 1,
                    site: 0,
                    kind: "load".into(),
                    width: 8,
                    object: "alloc#0(40B)".into(),
                    offset_lo: Some(40),
                    offset_hi: Some(40),
                    ir: "r8 = load i64 [r7]".into(),
                }],
                temporal: v2.then(|| vec![temporal]),
                call_graph: v2.then(|| {
                    vec![
                        node("release", vec![], 0),
                        node("main", vec!["release".into()], 1),
                    ]
                }),
                summaries: v2.then(|| vec![summary("release", true), summary("main", false)]),
            }],
        }
    }

    #[test]
    fn lint_view_reports_counts_findings_and_the_call_graph() {
        let t = sample_lint(true).render(true);
        assert!(t.contains(
            "demo: 4 access sites — 2 proved-safe, 1 unknown, 1 proved-oob; \
             1 proved-uaf, 0 proved-df, 0 leaks"
        ));
        assert!(t.contains(
            "  main:b3:i1 [site 0]: load of 8B at offset [40, 40] past alloc#0(40B)\n    \
             r8 = load i64 [r7]"
        ));
        assert!(t.contains("  main:b0:i3 [site 1]: proved uaf of alloc#0(24B) (alloc site 0)"));
        assert!(t.contains("scc0   release            (leaf) ret=top {frees p0!}"));
        assert!(t.contains("scc1   main               -> release ret=top benign"));
        assert!(t.ends_with(
            "lint: 1 modules, 4 sites, 1 proved-oob, 1 proved-uaf, 0 proved-df, 0 leaks\n"
        ));
        // The call graph only with `graph`; a v1 document has neither
        // temporal counts nor a graph.
        assert!(!sample_lint(true).render(false).contains("scc"));
        let v1 = sample_lint(false).render(true);
        assert!(v1.contains("1 proved-oob\n") && !v1.contains("uaf") && !v1.contains("scc"));
        assert!(v1.ends_with("lint: 1 modules, 4 sites, 1 proved-oob\n"));
    }

    #[test]
    fn quarantine_view_lists_seeds_then_skips() {
        assert_eq!(render_quarantine(&[], 0), "");
        let q = Quarantined {
            seed: 7,
            attempts: 1,
            class: "panic".into(),
            detail: "demo".into(),
        };
        assert_eq!(
            render_quarantine(&[q], 2),
            "\nquarantined seeds:\n  seed 7 [panic after 1 attempt(s)]: demo\n\
             \n2 seed(s) skipped by early stop\n"
        );
    }
}
