//! `sgxs-profile-v1` renderers: folded stacks and a self-contained SVG
//! flame/treemap view — plus span-tree renderers for the metrics tier and
//! the SVG heap-neighborhood map of an incident. Each document's one text
//! view lives beside its declaration in `sgxs-obs` (`Profile::render`,
//! `IncidentDoc::render`, ...).
//!
//! The folded form is the interchange format flamegraph tooling consumes
//! (`stack;frames count`, one line per stack): feed it to inferno or
//! `flamegraph.pl` unchanged. The SVG views need no tooling at all — one
//! file, no scripts, no external fonts. The profile SVG lays the cycle
//! budget out as a two-level treemap; the span SVG is a timeline (one row
//! per nesting depth, x = simulated instruction time), the poor
//! developer's Perfetto for when the Chrome-trace export isn't handy.

use sgxs_metrics::SpanCollector;
use sgxs_obs::read::IncidentDoc;
use sgxs_obs::view::pct;
use sgxs_obs::Profile;

/// Folded-stack text (inferno-compatible).
///
/// Stacks are `workload;scheme;app` for the application share and
/// `workload;scheme;checks;<func>;<kind>#<site>` per check site; counts
/// are simulated cycles. Sites beyond the serialized top-N are folded
/// into a `checks;(other)` stack so the totals still sum to `cpu_cycles`.
pub fn folded(p: &Profile) -> String {
    let mut out = String::new();
    let root = format!("{};{}", p.workload, p.scheme);
    if p.attribution.app_cycles > 0 {
        out.push_str(&format!("{root};app {}\n", p.attribution.app_cycles));
    }
    let mut attributed = 0u64;
    for s in &p.top_sites {
        attributed += s.cycles;
        out.push_str(&format!(
            "{root};checks;{};{}#{} {}\n",
            s.func, s.kind, s.site, s.cycles
        ));
    }
    let rest = p.attribution.check_cycles.saturating_sub(attributed);
    if rest > 0 {
        out.push_str(&format!("{root};checks;(other) {rest}\n"));
    }
    out
}

/// Deterministic fill color per label (warm palette, flamegraph-style).
fn color(label: &str) -> String {
    let mut h: u32 = 2166136261;
    for b in label.bytes() {
        h = (h ^ b as u32).wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 120);
    let b = (h >> 16) % 40;
    format!("rgb({r},{g},{b})")
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

const W: f64 = 1000.0;
const ROW_H: f64 = 28.0;
const PAD: f64 = 6.0;

struct SvgRect<'a> {
    x: f64,
    y: f64,
    w: f64,
    fill: String,
    label: String,
    title: &'a str,
}

/// Self-contained SVG flame/treemap view of the cycle budget.
///
/// Three rows: total CPU, app-vs-checks split, and per-site subdivision
/// of the checks span (top-N, remainder folded into `(other)`). Widths
/// are proportional to cycles; every rect carries a `<title>` tooltip so
/// any SVG viewer shows exact numbers on hover.
pub fn svg(p: &Profile) -> String {
    let total = p.cpu_cycles.max(1) as f64;
    let scale = |cycles: u64| cycles as f64 / total * (W - 2.0 * PAD);
    let mut rects: Vec<SvgRect> = Vec::new();
    let titles: Vec<String> = {
        let mut t = vec![
            format!("cpu: {} cycles (wall {})", p.cpu_cycles, p.wall_cycles),
            format!(
                "app: {} cycles ({:.1}%)",
                p.attribution.app_cycles,
                pct(p.attribution.app_cycles, p.cpu_cycles)
            ),
            format!(
                "checks: {} cycles ({:.1}%), {} execs",
                p.attribution.check_cycles,
                pct(p.attribution.check_cycles, p.cpu_cycles),
                p.check_execs
            ),
        ];
        let mut attributed = 0u64;
        for s in &p.top_sites {
            attributed += s.cycles;
            t.push(format!(
                "site #{} {} [{}]: {} cycles ({:.1}% of checks), {} execs, {} fails",
                s.site,
                s.func,
                s.kind,
                s.cycles,
                pct(s.cycles, p.attribution.check_cycles),
                s.execs,
                s.fails
            ));
        }
        t.push(format!(
            "(other): {} cycles",
            p.attribution.check_cycles.saturating_sub(attributed)
        ));
        t
    };

    // Row 0: the whole CPU budget.
    rects.push(SvgRect {
        x: PAD,
        y: PAD,
        w: scale(p.cpu_cycles),
        fill: "rgb(120,120,120)".into(),
        label: format!(
            "{} / {} — {} cpu cycles",
            p.workload, p.scheme, p.cpu_cycles
        ),
        title: &titles[0],
    });
    // Row 1: app vs instrumentation.
    let y1 = PAD + ROW_H + 2.0;
    rects.push(SvgRect {
        x: PAD,
        y: y1,
        w: scale(p.attribution.app_cycles),
        fill: "rgb(90,140,200)".into(),
        label: format!("app {:.1}%", pct(p.attribution.app_cycles, p.cpu_cycles)),
        title: &titles[1],
    });
    let checks_x = PAD + scale(p.attribution.app_cycles);
    rects.push(SvgRect {
        x: checks_x,
        y: y1,
        w: scale(p.attribution.check_cycles),
        fill: "rgb(210,90,60)".into(),
        label: format!(
            "checks {:.1}%",
            pct(p.attribution.check_cycles, p.cpu_cycles)
        ),
        title: &titles[2],
    });
    // Row 2: per-site treemap of the checks span.
    let y2 = y1 + ROW_H + 2.0;
    let mut x = checks_x;
    let mut attributed = 0u64;
    for (i, s) in p.top_sites.iter().enumerate() {
        attributed += s.cycles;
        let w = scale(s.cycles);
        rects.push(SvgRect {
            x,
            y: y2,
            w,
            fill: color(&format!("{}#{}", s.func, s.site)),
            label: format!("{}#{}", s.func, s.site),
            title: &titles[3 + i],
        });
        x += w;
    }
    let rest = p.attribution.check_cycles.saturating_sub(attributed);
    if rest > 0 {
        rects.push(SvgRect {
            x,
            y: y2,
            w: scale(rest),
            fill: "rgb(160,140,120)".into(),
            label: "(other)".into(),
            title: titles.last().expect("pushed above"),
        });
    }

    let h = y2 + ROW_H + PAD;
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{h}" viewBox="0 0 {W} {h}" font-family="monospace" font-size="12">
<rect x="0" y="0" width="{W}" height="{h}" fill="rgb(250,250,248)"/>
"#
    );
    for r in &rects {
        if r.w < 0.25 {
            continue; // invisible slivers: skip, tooltip lives on the parent
        }
        out.push_str(&format!(
            r#"<g><title>{}</title><rect x="{:.2}" y="{:.2}" width="{:.2}" height="{ROW_H}" fill="{}" stroke="white"/>"#,
            esc(r.title),
            r.x,
            r.y,
            r.w,
            r.fill
        ));
        // Only label rects wide enough to hold ~4 characters.
        if r.w > 34.0 {
            let max_chars = (r.w / 7.5) as usize;
            let mut label = r.label.clone();
            if label.len() > max_chars {
                label.truncate(max_chars.saturating_sub(1));
                label.push('…');
            }
            out.push_str(&format!(
                r#"<text x="{:.2}" y="{:.2}" fill="white">{}</text>"#,
                r.x + 4.0,
                r.y + ROW_H - 9.0,
                esc(&label)
            ));
        }
        out.push_str("</g>\n");
    }
    out.push_str("</svg>\n");
    out
}

/// ASCII rendering of a collected span tree.
///
/// One line per span, indented by depth: name, argument, the half-open
/// instruction interval, its length, and the attributed check cost. A
/// trailing line reports drops/unbalance so truncated traces are never
/// mistaken for complete ones.
pub fn span_ascii(c: &SpanCollector) -> String {
    let mut out = String::new();
    for n in c.nodes() {
        out.push_str(&format!(
            "{:indent$}{} arg={} [{}..{}] dur={} checks={}cy/{}x\n",
            "",
            n.name,
            n.arg,
            n.begin,
            n.end,
            n.end - n.begin,
            n.check_cycles,
            n.check_execs,
            indent = n.depth as usize * 2,
        ));
    }
    if c.dropped() > 0 || c.unbalanced() > 0 || c.open_depth() > 0 {
        out.push_str(&format!(
            "({} dropped, {} unbalanced, {} still open)\n",
            c.dropped(),
            c.unbalanced(),
            c.open_depth()
        ));
    }
    out
}

/// Self-contained SVG timeline of a span tree.
///
/// One row per nesting depth; x is proportional to the simulated
/// instruction counter over the trace's span. Rects carry `<title>`
/// tooltips with exact timestamps and check attribution.
pub fn span_svg(c: &SpanCollector) -> String {
    let nodes = c.nodes();
    let (t0, t1) = nodes.iter().fold((u64::MAX, 0u64), |(lo, hi), n| {
        (lo.min(n.begin), hi.max(n.end))
    });
    let (t0, t1) = if nodes.is_empty() {
        (0, 1)
    } else {
        (t0, t1.max(t0 + 1))
    };
    let span = (t1 - t0) as f64;
    let scale = |t: u64| PAD + (t - t0) as f64 / span * (W - 2.0 * PAD);
    let depth_max = nodes.iter().map(|n| n.depth).max().unwrap_or(0);
    let h = PAD * 2.0 + (depth_max as f64 + 1.0) * (ROW_H + 2.0);
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{h}" viewBox="0 0 {W} {h}" font-family="monospace" font-size="12">
<rect x="0" y="0" width="{W}" height="{h}" fill="rgb(250,250,248)"/>
"#
    );
    for n in nodes {
        let x = scale(n.begin);
        let w = (scale(n.end) - x).max(0.5);
        let y = PAD + n.depth as f64 * (ROW_H + 2.0);
        let title = format!(
            "{} arg={} [{}..{}] dur={} checks={}cy/{}x",
            n.name,
            n.arg,
            n.begin,
            n.end,
            n.end - n.begin,
            n.check_cycles,
            n.check_execs
        );
        out.push_str(&format!(
            r#"<g><title>{}</title><rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{ROW_H}" fill="{}" stroke="white"/>"#,
            esc(&title),
            color(n.name),
        ));
        if w > 34.0 {
            let max_chars = (w / 7.5) as usize;
            let mut label = format!("{} #{}", n.name, n.arg);
            if label.len() > max_chars {
                label.truncate(max_chars.saturating_sub(1));
                label.push('…');
            }
            out.push_str(&format!(
                r#"<text x="{:.2}" y="{:.2}" fill="white">{}</text>"#,
                x + 4.0,
                y + ROW_H - 9.0,
                esc(&label)
            ));
        }
        out.push_str("</g>\n");
    }
    out.push_str("</svg>\n");
    out
}

/// Self-contained SVG heap-neighborhood map of an incident.
///
/// The neighborhood's address range is laid out proportionally along x:
/// one rect per object (live colored, freed greyed), with a red marker at
/// the decoded faulting pointer cutting through the object row. Every
/// rect carries a `<title>` tooltip with exact addresses, so any SVG
/// viewer shows the off-by-how-much on hover.
pub fn incident_svg(d: &IncidentDoc) -> String {
    let fault_ptr = d.fault.as_ref().map(|f| f.ptr);
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for n in &d.heap.neighborhood {
        lo = lo.min(n.base);
        hi = hi.max(n.ub);
    }
    if let Some(p) = fault_ptr {
        lo = lo.min(p);
        hi = hi.max(p + 1);
    }
    let (lo, hi) = if lo >= hi { (0, 1) } else { (lo, hi) };
    let span = (hi - lo) as f64;
    let scale = |a: u64| PAD + (a - lo) as f64 / span * (W - 2.0 * PAD);

    let y_head = PAD + 12.0;
    let y_obj = PAD + ROW_H;
    let h = y_obj + ROW_H + ROW_H / 2.0 + PAD;
    let mut out = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{h}" viewBox="0 0 {W} {h}" font-family="monospace" font-size="12">
<rect x="0" y="0" width="{W}" height="{h}" fill="rgb(250,250,248)"/>
"#
    );
    let head = format!(
        "incident {}: {} {} under {} — {} objects ({} live)",
        d.id, d.origin, d.verdict, d.scheme, d.heap.objects_total, d.heap.objects_live
    );
    out.push_str(&format!(
        r#"<text x="{PAD}" y="{y_head:.2}" fill="rgb(60,60,60)">{}</text>"#,
        esc(&head)
    ));
    out.push('\n');
    for n in &d.heap.neighborhood {
        let x = scale(n.base);
        let w = (scale(n.ub) - x).max(0.5);
        let fill = if n.free_at.is_some() {
            "rgb(190,190,190)".to_owned()
        } else {
            color(&format!("obj{}", n.id))
        };
        let life = match n.free_at {
            Some(f) => format!("freed@{f}"),
            None => "live".into(),
        };
        let title = format!(
            "obj #{} [{:#x}..{:#x}) size={} born@{} {} — {} (+{}B)",
            n.id, n.base, n.ub, n.size, n.birth_at, life, n.relation, n.distance
        );
        out.push_str(&format!(
            r#"<g><title>{}</title><rect x="{x:.2}" y="{y_obj:.2}" width="{w:.2}" height="{ROW_H}" fill="{fill}" stroke="white"/>"#,
            esc(&title)
        ));
        if w > 34.0 {
            let max_chars = (w / 7.5) as usize;
            let mut label = format!("#{} {}B", n.id, n.size);
            if label.len() > max_chars {
                label.truncate(max_chars.saturating_sub(1));
                label.push('…');
            }
            out.push_str(&format!(
                r#"<text x="{:.2}" y="{:.2}" fill="white">{}</text>"#,
                x + 4.0,
                y_obj + ROW_H - 9.0,
                esc(&label)
            ));
        }
        out.push_str("</g>\n");
    }
    if let Some(f) = &d.fault {
        let x = scale(f.ptr);
        let title = format!("fault: {} of {}B at {:#x}", f.kind, f.size, f.ptr);
        out.push_str(&format!(
            r#"<g><title>{}</title><rect x="{:.2}" y="{:.2}" width="2" height="{:.2}" fill="rgb(220,30,30)"/><text x="{:.2}" y="{:.2}" fill="rgb(220,30,30)">fault</text></g>"#,
            esc(&title),
            x - 1.0,
            y_obj - 4.0,
            ROW_H + 8.0,
            (x + 4.0).min(W - 40.0),
            y_obj + ROW_H + 14.0,
        ));
        out.push('\n');
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_obs::read::parse_profile;
    use sgxs_obs::{AllocCounts, Attribution, EpcCounts, SiteRow, Timeline};

    fn sample() -> Profile {
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
                allocs: 0,
                frees: 0,
                bytes: 0,
            },
            epc: EpcCounts {
                faults: 0,
                evictions: 0,
            },
            epc_timeline: Timeline {
                bucket_instructions: 4096,
                faults: Vec::new(),
                evictions: Vec::new(),
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
    fn folded_stacks_sum_to_cpu_cycles() {
        let text = folded(&sample());
        let mut total = 0u64;
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack count");
            assert!(stack.starts_with("string_match;sgxbounds;"));
            total += count.parse::<u64>().expect("numeric count");
        }
        assert_eq!(total, 1000, "app + sites + (other) covers the budget");
        assert!(text.contains("checks;worker;sb_full#2 200"));
        assert!(
            text.contains("checks;(other) 20"),
            "300 - 280 folded:\n{text}"
        );
    }

    #[test]
    fn svg_is_self_contained_and_deterministic() {
        let p = sample();
        let a = svg(&p);
        assert_eq!(a, svg(&p));
        assert!(a.starts_with("<svg"));
        assert!(a.trim_end().ends_with("</svg>"));
        assert!(
            !a.contains("http://") || a.contains("xmlns"),
            "no external refs"
        );
        assert!(a.contains("worker#2"));
        assert!(a.contains("<title>"));
        // Escaping: a hostile function name must not break the markup.
        let mut evil = sample();
        evil.top_sites[0].func = "a<b&c".into();
        let s = svg(&evil);
        assert!(s.contains("a&lt;b&amp;c"));
        assert!(!s.contains("a<b"));
    }

    fn sample_spans() -> SpanCollector {
        use sgxs_obs::{Event, Recorder};
        let mut c = SpanCollector::default();
        c.record(
            0,
            Event::SpanBegin {
                name: "serve",
                arg: 7,
            },
        );
        c.record(
            10,
            Event::SpanBegin {
                name: "request",
                arg: 0,
            },
        );
        c.record(12, Event::CheckExec { site: 1, cycles: 4 });
        c.record(30, Event::SpanEnd { name: "request" });
        c.record(50, Event::SpanEnd { name: "serve" });
        c
    }

    #[test]
    fn span_tree_renders_to_indented_ascii() {
        let t = span_ascii(&sample_spans());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2, "no drop footer for a clean trace:\n{t}");
        assert!(lines[0].starts_with("serve arg=7 [0..50] dur=50"));
        assert!(lines[1].starts_with("  request arg=0 [10..30] dur=20"));
        assert!(lines[1].contains("checks=4cy/1x"));
    }

    #[test]
    fn span_svg_is_self_contained_and_deterministic() {
        let c = sample_spans();
        let a = span_svg(&c);
        assert_eq!(a, span_svg(&c));
        assert!(a.starts_with("<svg"));
        assert!(a.trim_end().ends_with("</svg>"));
        assert!(a.contains("serve arg=7"));
        // Empty trace still yields a valid document.
        let empty = span_svg(&SpanCollector::default());
        assert!(empty.starts_with("<svg") && empty.contains("</svg>"));
    }

    fn sample_incident() -> IncidentDoc {
        use sgxs_obs::read::{
            IncidentFault, IncidentHeap, IncidentNeighbor, IncidentRecovery, IncidentTrace,
            IncidentTruth, SpanStep, TraceLine,
        };
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
            repro: None,
            digest: "deadbeefdeadbeef".into(),
        }
    }

    #[test]
    fn incident_svg_is_self_contained_and_marks_the_fault() {
        let d = sample_incident();
        let a = incident_svg(&d);
        assert_eq!(a, incident_svg(&d), "deterministic");
        assert!(a.starts_with("<svg"));
        assert!(a.trim_end().ends_with("</svg>"));
        assert!(a.contains("<title>"));
        assert!(a.contains("fault: store of 4B at 0x14c"));
        assert!(a.contains(">fault</text>"));
        // Freed neighbour is greyed; live one takes the palette.
        assert!(a.contains("rgb(190,190,190)"));
        // Escaping survives hostile labels.
        let mut evil = sample_incident();
        evil.heap.neighborhood[0].relation = "a<b&c".into();
        let s = incident_svg(&evil);
        assert!(s.contains("a&lt;b&amp;c"));
        // No neighborhood and no fault still yields a valid document.
        let mut bare = sample_incident();
        bare.fault = None;
        bare.heap.neighborhood.clear();
        let s = incident_svg(&bare);
        assert!(s.starts_with("<svg") && s.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn renders_real_emitted_profile() {
        // End-to-end through the obs writer + reader.
        use sgxs_obs::codec::Field;
        use sgxs_obs::{Event, Profile, Recorder, TraceRecorder};
        let mut r = TraceRecorder::new(16);
        r.record(1, Event::CheckExec { site: 0, cycles: 7 });
        let labels = vec![("main".to_owned(), "sb_full".to_owned())];
        let j = Profile::build("w", "sgxbounds", &r, &labels, 50, 100, 5).put();
        let doc = parse_profile(&j.to_pretty()).unwrap();
        assert!(folded(&doc).contains("w;sgxbounds;app 93"));
        assert!(svg(&doc).contains("</svg>"));
        assert!(doc.render(3).contains("sb_full"));
    }
}
