//! Figures 7, 11 and 12: performance and memory overheads of MPX, ASan
//! and SGXBounds over the uninstrumented baseline, one row per benchmark
//! plus geometric means. The three differ only in their workloads,
//! execution mode and thread count.

use super::{hardened_runs, Effort, PerScheme};
use crate::report::{ratio, ratio_row, Table};
use crate::scheme::{run_one, Measured, RunConfig, Scheme};
use sgxs_obs::document;
use sgxs_sim::Mode;
use sgxs_workloads::Workload;
use std::fmt;

/// The title Fig. 7 prints; Figs. 11 and 12 carry theirs as `caption`.
const FIG7_TITLE: &str = "Figure 7: overheads over native SGX (Phoenix + PARSEC, 8 threads)";

document! {
    /// One benchmark's overheads (`None` = crash).
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: String,
        /// Performance overhead per scheme.
        pub perf: PerScheme,
        /// Memory overhead per scheme.
        pub mem: PerScheme,
    }
}

document! {
    /// The payload of Figs. 7, 11 and 12.
    #[derive(Debug, Clone)]
    pub struct Overheads {
        /// Title line of Figs. 11 and 12 (Fig. 7 writes none).
        pub caption: Option<String> = absent,
        /// Per-benchmark rows.
        pub rows: Vec<Row>,
        /// Performance geometric means (over completing runs).
        pub gmean_perf: PerScheme,
        /// Memory geometric means.
        pub gmean_mem: PerScheme,
    }
}

/// Runs every workload in `workloads` under the baseline and each
/// hardened scheme, in `mode` with `threads` threads.
pub fn run(
    base: &RunConfig,
    effort: Effort,
    workloads: Vec<Box<dyn Workload>>,
    mode: Mode,
    threads: u32,
) -> Overheads {
    let mut rc = *base;
    rc.mode = mode;
    rc.params.size = effort.size();
    rc.params.threads = threads;
    let mut rows = Vec::new();
    for w in workloads {
        let base = run_one(w.as_ref(), Scheme::Baseline, &rc);
        assert!(base.ok(), "{} baseline failed: {:?}", w.name(), base.result);
        let runs = hardened_runs(w.as_ref(), &rc);
        let over = |get: fn(&Measured) -> u64| {
            PerScheme::from_fn(|i| runs[i].as_ref().map(|m| ratio(get(m), get(&base))))
        };
        rows.push(Row {
            benchmark: w.name().to_owned(),
            perf: over(|m| m.wall_cycles),
            mem: over(|m| m.peak_reserved),
        });
    }
    Overheads {
        caption: None,
        gmean_perf: PerScheme::gmeans(rows.iter().map(|r| &r.perf)),
        gmean_mem: PerScheme::gmeans(rows.iter().map(|r| &r.mem)),
        rows,
    }
}

impl fmt::Display for Overheads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.caption.as_deref().unwrap_or(FIG7_TITLE))?;
        let mut header = vec!["benchmark".to_owned()];
        for m in ["perf", "mem"] {
            header.extend(PerScheme::KEYS.iter().map(|k| format!("{m} {k}")));
        }
        let mut t = Table::new(&header);
        let both = |perf: &PerScheme, mem: &PerScheme| [perf.cells(), mem.cells()].concat();
        for r in &self.rows {
            t.row(ratio_row(&r.benchmark, both(&r.perf, &r.mem)));
        }
        t.row(ratio_row("gmean", both(&self.gmean_perf, &self.gmean_mem)));
        write!(f, "{}", t.render())
    }
}
