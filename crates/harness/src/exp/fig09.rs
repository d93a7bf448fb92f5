//! Figure 9: overheads of ASan and SGXBounds with 1 vs 4 threads.
//! SGXBounds is synchronization-free (§4.1), so its overhead must not grow
//! with thread count.

use super::{columns, Effort};
use crate::report::{ratio, ratio_row, Table};
use crate::scheme::{run_one, RunConfig, Scheme};
use sgxs_obs::document;
use std::fmt;

columns! {
    /// Overheads over native SGX per scheme and thread count.
    pub struct Threads {
        /// ASan, 1 thread.
        asan_1t,
        /// ASan, 4 threads.
        asan_4t,
        /// SGXBounds, 1 thread.
        sgxbounds_1t,
        /// SGXBounds, 4 threads.
        sgxbounds_4t,
    }
}

document! {
    /// One benchmark's overheads at both thread counts.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Benchmark.
        pub benchmark: String,
        /// Overheads.
        pub over: Threads,
    }
}

document! {
    /// The experiment result.
    #[derive(Debug, Clone)]
    pub struct Fig9 {
        /// Rows.
        pub rows: Vec<Row>,
        /// Geometric means.
        pub gmean: Threads,
    }
}

/// Runs the experiment.
pub fn run(base: &RunConfig, effort: Effort) -> Fig9 {
    let mut rows = Vec::new();
    for w in sgxs_workloads::phoenix_parsec() {
        // In `Threads` column order: scheme-major, then thread count.
        let mut over = [None; 4];
        for (ti, threads) in [1u32, 4].into_iter().enumerate() {
            let mut rc = *base;
            rc.params.size = effort.size();
            rc.params.threads = threads;
            let base = run_one(w.as_ref(), Scheme::Baseline, &rc);
            assert!(base.ok(), "{} baseline failed", w.name());
            for (si, scheme) in [Scheme::Asan, Scheme::SgxBounds].into_iter().enumerate() {
                let m = run_one(w.as_ref(), scheme, &rc);
                if m.ok() {
                    over[si * 2 + ti] = Some(ratio(m.wall_cycles, base.wall_cycles));
                }
            }
        }
        rows.push(Row {
            benchmark: w.name().to_owned(),
            over: Threads::from_fn(|i| over[i]),
        });
    }
    Fig9 {
        gmean: Threads::gmeans(rows.iter().map(|r| &r.over)),
        rows,
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: overheads over native SGX with 1 and 4 threads"
        )?;
        let header = ["benchmark"].iter().chain(Threads::KEYS);
        let mut t = Table::new(&header.map(|k| k.replace('_', " ")).collect::<Vec<_>>());
        for r in &self.rows {
            t.row(ratio_row(&r.benchmark, r.over.cells()));
        }
        t.row(ratio_row("gmean", self.gmean.cells()));
        write!(f, "{}", t.render())
    }
}
