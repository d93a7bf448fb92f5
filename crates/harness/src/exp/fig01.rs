//! Figure 1 (the motivating experiment): SQLite speedtest performance and
//! memory with increasing working-set items. MPX dies of bounds-table OOM
//! early in the sweep; ASan is stable but slow and memory-hungry;
//! SGXBounds stays within ~35% of native SGX with near-zero extra memory.

use super::{hardened_runs, PerScheme};
use crate::report::{fmt_bytes, fmt_ratio, ratio, Table};
use crate::scheme::{run_one, RunConfig, Scheme};
use sgxs_obs::document;
use sgxs_workloads::apps::sqlite::{Sqlite, BYTES_PER_ROW};
use std::fmt;

document! {
    /// Peak reserved memory in bytes: the baseline's, and each hardened
    /// scheme's (`None` = crash).
    #[derive(Debug, Clone)]
    pub struct PeakMemory {
        /// Native SGX.
        pub sgx: u64,
        /// Intel MPX.
        pub mpx: Option<u64>,
        /// AddressSanitizer.
        pub asan: Option<u64>,
        /// SGXBounds.
        pub sgxbounds: Option<u64>,
    }
}

document! {
    /// One sweep point.
    #[derive(Debug, Clone)]
    pub struct Point {
        /// Rows in the table.
        pub rows: u64,
        /// Native-SGX working set estimate in bytes.
        pub ws_bytes: u64,
        /// Perf overhead vs native SGX per scheme.
        pub perf_vs_sgx: PerScheme,
        /// Peak reserved memory.
        pub peak_reserved_bytes: PeakMemory,
    }
}

document! {
    /// The sweep.
    #[derive(Debug, Clone)]
    pub struct Fig1 {
        /// Sweep points (increasing working set).
        pub points: Vec<Point>,
    }
}

/// Runs the sweep. `steps` points, doubling row counts.
pub fn run(rc: &RunConfig, steps: usize) -> Fig1 {
    // Start around 1/16th of the enclave cap's row equivalent and double;
    // the later points push MPX's 4x bounds-table factor over the cap.
    let cap = rc.enclave_cap();
    let start_rows = (cap / 40 / BYTES_PER_ROW).max(256);
    let mut points = Vec::new();
    for s in 0..steps {
        let rows = start_rows << s;
        let w = Sqlite::with_rows(rows);
        let base = run_one(&w, Scheme::Baseline, rc);
        assert!(base.ok(), "sqlite baseline failed: {:?}", base.result);
        let runs = hardened_runs(&w, rc);
        let mem = |i: usize| runs[i].as_ref().map(|m| m.peak_reserved);
        points.push(Point {
            rows,
            ws_bytes: rows * BYTES_PER_ROW,
            perf_vs_sgx: PerScheme::from_fn(|i| {
                runs[i]
                    .as_ref()
                    .map(|m| ratio(m.wall_cycles, base.wall_cycles))
            }),
            peak_reserved_bytes: PeakMemory {
                sgx: base.peak_reserved,
                mpx: mem(0),
                asan: mem(1),
                sgxbounds: mem(2),
            },
        });
    }
    Fig1 { points }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1: SQLite speedtest with increasing working set (in-enclave)"
        )?;
        let mut header = vec!["rows".to_owned(), "ws".to_owned()];
        header.extend(PerScheme::KEYS.iter().map(|k| format!("perf {k}")));
        header.extend(
            ["sgx"]
                .iter()
                .chain(PerScheme::KEYS)
                .map(|k| format!("mem {k}")),
        );
        let mut t = Table::new(&header);
        for p in &self.points {
            let memcell = |m: Option<u64>| m.map(fmt_bytes).unwrap_or_else(|| "crash".into());
            let mem = &p.peak_reserved_bytes;
            let mut cells = vec![p.rows.to_string(), fmt_bytes(p.ws_bytes)];
            cells.extend(p.perf_vs_sgx.cells().into_iter().map(fmt_ratio));
            cells.push(fmt_bytes(mem.sgx));
            cells.extend([mem.mpx, mem.asan, mem.sgxbounds].map(memcell));
            t.row(cells);
        }
        write!(f, "{}", t.render())
    }
}
