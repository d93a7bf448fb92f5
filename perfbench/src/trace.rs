//! In-memory span recording for the traced run.
//!
//! Every span has a name, a start and end (host ns since the tracer was
//! made), the span that was open when it began, and the id of the op it
//! belongs to. Spans stay in memory until the run ends; a layer's self time
//! is its span minus the part of it that child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-op parent span. Its self time is glue between layers
/// and so counts towards the residual, not towards any layer.
pub const OP: &str = "op";

/// Event count of simulated instructions retired inside `execute` spans.
pub const EXECUTED_INSTRUCTIONS: &str = "execute.instructions";

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a per-layer metric is this name plus `_ms`).
    pub name: &'static str,
    /// Host ns since the tracer's origin.
    pub start: u64,
    /// Host ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Records spans and event counts.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer with no spans; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Host ns since the tracer was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Adds `n` to the event count `name` (counted where the work happens,
    /// so per-event ratios need no second pass).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The event count `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self time (ns) of each span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time((s.start, s.end), &kids))
            .collect()
    }

    /// Summed self time (ns) per layer name, leaving out the [`OP`] glue.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if s.name != OP {
                *by_name.entry(s.name).or_default() += t;
            }
        }
        by_name
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start, s.end, parent, s.op
            );
        }
        out
    }
}

/// Self time of a span covering `span` whose children cover `children`:
/// its length minus the length of the union of the children, each clipped
/// to the span. Overlapping children are counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (hi - lo).saturating_sub(covered)
}

/// Host time (ns) of a phase lasting `wall_ns` that no layer span
/// accounts for: the wall time minus every layer's self time. Negative
/// only if spans were recorded outside the phase.
pub fn residual_ns(wall_ns: u64, tracer: &Tracer) -> i64 {
    let layers: u64 = tracer.layer_self_ns().values().sum();
    wall_ns as i64 - layers as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10,40) and [30,60) overlap on [30,40): the union is 50 long.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Touching intervals merge without double counting.
        assert_eq!(self_time((0, 100), &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15)]), 5);
        assert_eq!(self_time((10, 20), &[(0, 100)]), 0);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn tracer_links_parents_and_partitions_time() {
        let mut tr = Tracer::new();
        let op = tr.begin(OP, 7);
        tr.time("a", 7, || std::hint::black_box((0..1000u64).sum::<u64>()));
        tr.time("b", 7, || {
            std::hint::black_box((0..1000u64).product::<u64>())
        });
        tr.end(op);
        let spans = &tr.spans;
        assert_eq!(spans[1].parent, Some(op));
        assert_eq!(spans[2].parent, Some(op));
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = tr.self_times();
        let total = spans[op].end - spans[op].start;
        assert_eq!(selfs.iter().sum::<u64>(), total);
        assert_eq!(
            tr.layer_self_ns().keys().copied().collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    fn residual_is_never_negative_beyond_clock_resolution() {
        // The clock resolution bound: one microsecond is far above what
        // `Instant` resolves on any supported host.
        const RESOLUTION_NS: i64 = 1_000;
        for reps in [0u64, 1, 10, 200] {
            let mut tr = Tracer::new();
            let t0 = tr.now();
            for op in 0..reps {
                let id = tr.begin(OP, op);
                tr.time("x", op, || std::hint::black_box(op * 3));
                let inner = tr.begin("y", op);
                tr.time("z", op, || std::hint::black_box(op + 1));
                tr.end(inner);
                tr.end(id);
            }
            let wall = tr.now() - t0;
            assert!(
                residual_ns(wall, &tr) >= -RESOLUTION_NS,
                "{reps} ops: residual {}",
                residual_ns(wall, &tr)
            );
        }
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut tr = Tracer::new();
        let id = tr.begin(OP, 1);
        tr.time("leaf", 1, || ());
        tr.end(id);
        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
