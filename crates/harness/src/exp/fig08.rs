//! Figure 8 + Table 3: performance with increasing working-set sizes
//! (XS–XL), normalized against SGXBounds, plus the hardware-counter table
//! (LLC misses, page faults, bounds-table counts).

use super::columns;
use crate::report::{fmt_bytes, fmt_ratio, ratio, Table};
use crate::scheme::{run_one, Measured, RunConfig, Scheme};
use sgxs_obs::document;
use sgxs_workloads::SizeClass;
use std::fmt;

/// Benchmarks the paper highlights in this sweep.
pub const BENCHMARKS: [&str; 4] = [
    "kmeans",
    "matrix_multiply",
    "word_count",
    "linear_regression",
];

columns! {
    /// Overheads of one cell relative to SGXBounds.
    pub struct VsSgxBounds {
        /// Native SGX.
        sgx,
        /// Intel MPX.
        mpx,
        /// AddressSanitizer.
        asan,
    }
}

document! {
    /// Hardware counters of one run (Table 3's raw data).
    #[derive(Debug, Clone, Copy)]
    pub struct Counters {
        /// LLC miss percentage.
        pub llc_miss_pct: f64,
        /// EPC page faults.
        pub epc_faults: u64,
        /// MPX bounds tables (0 elsewhere).
        pub bounds_tables: usize,
    }
}

fn counters(m: &Measured) -> Counters {
    Counters {
        llc_miss_pct: m.stats.llc_miss_pct(),
        epc_faults: m.stats.epc_faults,
        bounds_tables: m.mpx_bts,
    }
}

document! {
    /// One (benchmark, size) cell; a `None` counter set is a crash.
    #[derive(Debug, Clone)]
    pub struct Cell {
        /// Size class (`XS`..`XL`).
        pub size: String,
        /// Baseline (native SGX) committed working set.
        pub ws_bytes: u64,
        /// Overheads vs SGXBounds.
        pub vs_sgxbounds: VsSgxBounds,
        /// SGXBounds counters.
        pub counters_sgxbounds: Counters,
        /// ASan counters.
        pub counters_asan: Option<Counters>,
        /// MPX counters (+ BT count).
        pub counters_mpx: Option<Counters>,
    }
}

document! {
    /// One benchmark's sweep.
    #[derive(Debug, Clone)]
    pub struct Sweep {
        /// Benchmark name.
        pub benchmark: String,
        /// XS..XL cells.
        pub cells: Vec<Cell>,
    }
}

document! {
    /// The experiment result (covers Table 3's counters too).
    #[derive(Debug, Clone)]
    pub struct Fig8 {
        /// Sweeps per benchmark.
        pub sweeps: Vec<Sweep>,
    }
}

/// Runs the sweep over `sizes`.
pub fn run(base: &RunConfig, sizes: &[SizeClass]) -> Fig8 {
    let mut sweeps = Vec::new();
    for name in BENCHMARKS {
        let w = sgxs_workloads::by_name(name).expect("benchmark registered");
        let mut cells = Vec::new();
        for &size in sizes {
            let mut rc = *base;
            rc.params.size = size;
            rc.params.threads = 8;
            let sgxb = run_one(w.as_ref(), Scheme::SgxBounds, &rc);
            assert!(sgxb.ok(), "{name} sgxbounds failed: {:?}", sgxb.result);
            let base = run_one(w.as_ref(), Scheme::Baseline, &rc);
            let asan = run_one(w.as_ref(), Scheme::Asan, &rc);
            let mpx = run_one(w.as_ref(), Scheme::Mpx, &rc);
            let vs = |m: &Measured| m.ok().then(|| ratio(m.wall_cycles, sgxb.wall_cycles));
            cells.push(Cell {
                size: format!("{size:?}"),
                ws_bytes: base.peak_committed,
                vs_sgxbounds: VsSgxBounds {
                    sgx: vs(&base),
                    mpx: vs(&mpx),
                    asan: vs(&asan),
                },
                counters_sgxbounds: counters(&sgxb),
                counters_asan: asan.ok().then(|| counters(&asan)),
                counters_mpx: mpx.ok().then(|| counters(&mpx)),
            });
        }
        sweeps.push(Sweep {
            benchmark: name.to_owned(),
            cells,
        });
    }
    Fig8 { sweeps }
}

impl Fig8 {
    /// Renders Table 3 (counters for kmeans and matrixmul).
    pub fn table3(&self) -> String {
        let mut out =
            String::from("Table 3: counters with increasing working set (vs SGXBounds)\n");
        let mut t = Table::new(&[
            "bench/size",
            "ws",
            "asan dLLC%",
            "mpx dLLC%",
            "asan faults x",
            "mpx faults x",
            "# BTs",
        ]);
        for sweep in &self.sweeps {
            if sweep.benchmark != "kmeans" && sweep.benchmark != "matrix_multiply" {
                continue;
            }
            for c in &sweep.cells {
                let sgxb = &c.counters_sgxbounds;
                let d = |x: Option<Counters>| {
                    x.map(|cs| format!("{:+.1}", cs.llc_miss_pct - sgxb.llc_miss_pct))
                        .unwrap_or_else(|| "crash".into())
                };
                let fx = |x: Option<Counters>| {
                    x.map(|cs| {
                        if sgxb.epc_faults == 0 {
                            format!("{}", cs.epc_faults)
                        } else {
                            format!("{:.1}", cs.epc_faults as f64 / sgxb.epc_faults as f64)
                        }
                    })
                    .unwrap_or_else(|| "crash".into())
                };
                t.row(vec![
                    format!("{} {}", sweep.benchmark, c.size),
                    fmt_bytes(c.ws_bytes),
                    d(c.counters_asan),
                    d(c.counters_mpx),
                    fx(c.counters_asan),
                    fx(c.counters_mpx),
                    c.counters_mpx
                        .map(|m| m.bounds_tables.to_string())
                        .unwrap_or_else(|| "crash".into()),
                ]);
            }
        }
        out.push_str(&t.render());
        out
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8: overheads vs SGXBounds with increasing working set (8 threads)"
        )?;
        let mut t = Table::new(&["bench/size", "ws", "sgx", "mpx", "asan"]);
        for sweep in &self.sweeps {
            for c in &sweep.cells {
                let mut cells = vec![
                    format!("{} {}", sweep.benchmark, c.size),
                    fmt_bytes(c.ws_bytes),
                ];
                cells.extend(c.vs_sgxbounds.cells().into_iter().map(fmt_ratio));
                t.row(cells);
            }
        }
        write!(f, "{}", t.render())
    }
}
