//! Figure 10: SGXBounds optimization ablation — no optimizations /
//! safe-access only / hoisting only / both / both + flow-sensitive
//! elision (paper §4.4, §6.5; the `flow` column is this repo's
//! dataflow-tier extension).

use super::{columns, Effort};
use crate::report::{ratio, ratio_row, Table};
use crate::scheme::{run_one, run_one_obs, RunConfig, Scheme};
use sgxbounds::SbConfig;
use sgxs_obs::document;
use sgxs_sim::obs::TraceRecorder;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Ablation configurations in [`Variants`] column order.
fn variants() -> [SbConfig; 5] {
    let off = SbConfig {
        safe_access_opt: false,
        hoist_opt: false,
        ..SbConfig::default()
    };
    [
        off,
        SbConfig {
            safe_access_opt: true,
            ..off
        },
        SbConfig {
            hoist_opt: true,
            ..off
        },
        SbConfig::default(),
        SbConfig {
            flow_elide: true,
            ..SbConfig::default()
        },
    ]
}

columns! {
    /// One value per ablation variant.
    pub struct Variants {
        /// No optimizations.
        none,
        /// Safe-access elision only.
        safe,
        /// Loop check hoisting only.
        hoist,
        /// Both (the paper's "all").
        both,
        /// Both plus flow-sensitive elision.
        flow,
    }
}

document! {
    /// One benchmark row: overhead vs native SGX and dynamic check count
    /// per variant.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: String,
        /// Overheads.
        pub over: Variants,
        /// Dynamic bounds checks executed (site kinds other than
        /// `sb_safe`), from a separate profiled run so the timing runs
        /// stay unperturbed.
        pub checks: Variants,
    }
}

document! {
    /// The experiment result.
    #[derive(Debug, Clone)]
    pub struct Fig10 {
        /// Rows.
        pub rows: Vec<Row>,
        /// Geometric means per variant.
        pub gmean: Variants,
    }
}

/// Counts dynamic check executions for one (workload, config): the sum of
/// per-site exec counters over real check sites. `sb_safe` markers wrap a
/// bare tag strip — not a bounds check — and are excluded, so the metric
/// is exactly "checks the optimization tiers failed to remove".
fn count_checks(w: &dyn sgxs_workloads::Workload, cfg: SbConfig, rc: &RunConfig) -> Option<u64> {
    let rec = Rc::new(RefCell::new(TraceRecorder::new(1)));
    let run = run_one_obs(w, Scheme::SgxBoundsCustom(cfg), rc, rec.clone());
    if !run.measured.ok() {
        return None;
    }
    let rec = rec.borrow();
    let mut checks = 0;
    for (i, stat) in rec.sites().iter().enumerate() {
        let real = run.sites.get(i).is_none_or(|s| s.kind != "sb_safe");
        if real {
            checks += stat.execs;
        }
    }
    Some(checks)
}

/// Runs the ablation.
pub fn run(base: &RunConfig, effort: Effort) -> Fig10 {
    let mut rc = *base;
    rc.params.size = effort.size();
    rc.params.threads = 8;
    let mut rows = Vec::new();
    for w in sgxs_workloads::phoenix_parsec() {
        let base = run_one(w.as_ref(), Scheme::Baseline, &rc);
        assert!(base.ok(), "{} baseline failed", w.name());
        let runs = variants().map(|cfg| {
            let m = run_one(w.as_ref(), Scheme::SgxBoundsCustom(cfg), &rc);
            let over = m.ok().then(|| ratio(m.wall_cycles, base.wall_cycles));
            (over, count_checks(w.as_ref(), cfg, &rc))
        });
        rows.push(Row {
            benchmark: w.name().to_owned(),
            over: Variants::from_fn(|i| runs[i].0),
            checks: Variants::from_fn(|i| runs[i].1.map(|c| c as f64)),
        });
    }
    Fig10 {
        gmean: Variants::gmeans(rows.iter().map(|r| &r.over)),
        rows,
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: SGXBounds overhead by optimization level (8 threads)"
        )?;
        let mut t = Table::new(
            &[
                &["benchmark"],
                Variants::KEYS,
                &["checks(both)", "checks(flow)"],
            ]
            .concat(),
        );
        // Check counts are whole numbers, which `f64` prints without a
        // fraction.
        let fmt_checks = |c: Option<f64>| c.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
        for r in &self.rows {
            let checks = [r.checks.both, r.checks.flow].map(fmt_checks);
            t.row([ratio_row(&r.benchmark, r.over.cells()), checks.into()].concat());
        }
        let gmean = ratio_row("gmean", self.gmean.cells());
        t.row([gmean, vec!["-".into(), "-".into()]].concat());
        write!(f, "{}", t.render())
    }
}
