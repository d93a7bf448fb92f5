//! One module per table/figure of the paper's evaluation. Each declares
//! its `sgxs-bench-v1` payload once with [`document!`]: the fields are the
//! payload's JSON keys, `put` writes it, `take` reads it back, and its
//! `Display` is the figure's one text view. [`Experiments`] gathers them
//! into the document's `experiments` object.

pub mod cases;
pub mod fig01;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod overheads;
pub mod tab04;

use crate::scheme::{run_one, Measured, RunConfig, Scheme};
use sgxs_obs::codec::Field;
use sgxs_obs::document;
use sgxs_obs::json::Json;
use sgxs_obs::read::BenchDoc;
use sgxs_workloads::{SizeClass, Workload};

/// The input-generation seed every committed baseline was recorded with
/// (the `Params::new` default). `repro bench record` varies the seed per
/// replicate so same-rev runs expose the input-sensitivity noise floor;
/// everything else passes this constant for byte-stable outputs.
pub const DEFAULT_SEED: u64 = 42;

/// Experiment effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small inputs (CI and the committed baseline).
    Quick,
    /// Paper-shaped inputs for the preset.
    Full,
}

impl Effort {
    /// Size class used for single-size experiments.
    pub fn size(self) -> SizeClass {
        match self {
            Effort::Quick => SizeClass::S,
            Effort::Full => SizeClass::L,
        }
    }
}

/// Declares a payload row of named `Option<f64>` columns, where `None`
/// (written `null`) is a crashed run, with its cells in declaration order.
macro_rules! columns {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $( $(#[$fmeta:meta])* $field:ident ),* $(,)? }
    ) => {
        sgxs_obs::document! {
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq)]
            pub struct $name {
                $( $(#[$fmeta])* pub $field: Option<f64>, )*
            }
        }

        impl $name {
            /// The columns' keys in declaration order.
            pub const KEYS: &'static [&'static str] = &[$(stringify!($field)),*];

            /// The columns in declaration order.
            pub fn cells(&self) -> Vec<Option<f64>> {
                vec![$(self.$field),*]
            }

            /// The row whose `i`-th column is `f(i)`.
            pub fn from_fn(f: impl Fn(usize) -> Option<f64>) -> $name {
                let mut i = 0;
                let mut next = || {
                    i += 1;
                    f(i - 1)
                };
                $name { $($field: next()),* }
            }

            /// Column-wise geometric means of `rows`, over the cells that
            /// completed.
            pub fn gmeans<'a>(rows: impl Iterator<Item = &'a $name> + Clone) -> $name {
                $name::from_fn(|i| crate::report::geomean(rows.clone().filter_map(|r| r.cells()[i])))
            }
        }
    };
}
pub(crate) use columns;

columns! {
    /// One value per hardened scheme, in the paper's column order.
    pub struct PerScheme {
        /// Intel MPX.
        mpx,
        /// AddressSanitizer.
        asan,
        /// SGXBounds.
        sgxbounds,
    }
}

/// Runs `w` under each hardened scheme, in [`PerScheme`]'s column order;
/// `None` marks a run that did not complete.
fn hardened_runs(w: &dyn Workload, rc: &RunConfig) -> [Option<Measured>; 3] {
    Scheme::all_hardened().map(|s| Some(run_one(w, s, rc)).filter(Measured::ok))
}

document! {
    /// The `experiments` object of an `sgxs-bench-v1` document: the
    /// payload of each experiment that ran, keyed by its id, in suite
    /// order (`table3` is a view of `fig8`).
    #[derive(Debug, Clone)]
    pub struct Experiments {
        /// Figure 1.
        pub fig1: Option<fig01::Fig1> = absent,
        /// Figure 7.
        pub fig7: Option<overheads::Overheads> = absent,
        /// Figure 8 and Table 3.
        pub fig8: Option<fig08::Fig8> = absent,
        /// Figure 9.
        pub fig9: Option<fig09::Fig9> = absent,
        /// Figure 10.
        pub fig10: Option<fig10::Fig10> = absent,
        /// Table 4.
        pub table4: Option<tab04::Tab4> = absent,
        /// Figure 11.
        pub fig11: Option<overheads::Overheads> = absent,
        /// Figure 12.
        pub fig12: Option<overheads::Overheads> = absent,
        /// Figure 13.
        pub fig13: Option<fig13::Fig13> = absent,
        /// The §7 security case studies.
        pub cases: Option<cases::Cases> = absent,
    }
}

impl Experiments {
    /// Reads the payloads of a bench document, naming the path of the
    /// first mismatch.
    pub fn read(doc: &BenchDoc) -> Result<Experiments, String> {
        Experiments::take(&Json::Obj(doc.experiments.clone()), "bench.experiments")
    }

    /// The payloads as [`BenchDoc::experiments`] holds them.
    pub fn entries(&self) -> Vec<(String, Json)> {
        match self.put() {
            Json::Obj(fields) => fields,
            _ => unreachable!("a declaration writes an object"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fig01::{Fig1, PeakMemory, Point};
    use super::overheads::{Overheads, Row};
    use super::*;

    /// Writes `doc`, reads it back, and checks the copy writes the same
    /// bytes.
    fn round_trip<T: Field>(doc: &T) -> T {
        let text = doc.put().to_pretty();
        let back = T::take(&Json::parse(&text).unwrap(), "doc").unwrap();
        assert_eq!(back.put().to_pretty(), text);
        back
    }

    /// Each table row of `view` (after the dashed rule): its label and the
    /// columns that print `crash`. Cells are separated by two or more
    /// spaces.
    fn crashed(view: &str) -> Vec<(String, Vec<usize>)> {
        let rows = view.lines().skip_while(|l| !l.starts_with("--")).skip(1);
        rows.map(|l| {
            let cells: Vec<&str> = l
                .split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect();
            let crash = (0..cells.len()).filter(|&i| cells[i] == "crash");
            (cells[0].to_owned(), crash.collect())
        })
        .collect()
    }

    fn labelled(rows: &[(&str, &[usize])]) -> Vec<(String, Vec<usize>)> {
        rows.iter()
            .map(|(l, c)| (l.to_string(), c.to_vec()))
            .collect()
    }

    #[test]
    fn crashed_cells_round_trip_as_null_and_print_crash() {
        let all = |v: f64| PerScheme::from_fn(|_| Some(v));
        let fig7 = round_trip(&Overheads {
            caption: None,
            rows: vec![
                Row {
                    benchmark: "kmeans".into(),
                    perf: PerScheme {
                        mpx: None,
                        ..all(1.5)
                    },
                    mem: PerScheme {
                        asan: None,
                        ..all(1.0)
                    },
                },
                Row {
                    benchmark: "pca".into(),
                    perf: all(1.2),
                    mem: all(1.0),
                },
            ],
            gmean_perf: PerScheme {
                mpx: None,
                ..all(1.3)
            },
            gmean_mem: all(1.0),
        });
        assert_eq!(fig7.put().to_compact().matches("null").count(), 3);
        assert_eq!(
            crashed(&fig7.to_string()),
            labelled(&[("kmeans", &[1, 5]), ("pca", &[]), ("gmean", &[1])])
        );

        let point = |rows: u64, perf: PerScheme, peak_reserved_bytes: PeakMemory| Point {
            rows,
            ws_bytes: rows << 7,
            perf_vs_sgx: perf,
            peak_reserved_bytes,
        };
        let mem = |mpx, asan| PeakMemory {
            sgx: 1 << 20,
            mpx,
            asan,
            sgxbounds: Some(1 << 20),
        };
        let fig1 = round_trip(&Fig1 {
            points: vec![
                point(256, all(1.1), mem(Some(4 << 20), Some(3 << 20))),
                point(
                    512,
                    PerScheme {
                        mpx: None,
                        ..all(1.2)
                    },
                    mem(None, Some(3 << 20)),
                ),
                point(
                    1024,
                    PerScheme {
                        asan: None,
                        ..all(1.2)
                    },
                    mem(None, None),
                ),
            ],
        });
        assert_eq!(fig1.put().to_compact().matches("null").count(), 5);
        assert_eq!(
            crashed(&fig1.to_string()),
            labelled(&[("256", &[]), ("512", &[2, 6]), ("1024", &[3, 6, 7])])
        );
    }
}
