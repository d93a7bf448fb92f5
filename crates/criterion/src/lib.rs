#![warn(missing_docs)]

//! Offline stand-in for the subset of `criterion` this workspace uses.
//!
//! The container builds with no crates.io access, so the workspace vendors
//! this minimal drop-in: `criterion_group!`/`criterion_main!`, benchmark
//! groups, and a [`Bencher`] that times closures with `std::time::Instant`
//! and prints min/median/mean per benchmark — per element when the group
//! declares a [`Throughput`]. No statistical analysis, no HTML reports — the
//! bench binaries print the paper artifacts themselves.

use std::time::Instant;

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            elements: 1,
            _criterion: self,
        }
    }

    /// Times a standalone benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_benchmark(&id.into(), self.sample_size, 1, f);
        self
    }
}

/// How much work one call of a timed routine does.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The routine processes this many elements; times are reported per
    /// element.
    Elements(u64),
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    /// Elements per routine call; every reported time is divided by it.
    elements: u64,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets how much work one routine call of the following benchmarks
    /// does.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        let Throughput::Elements(n) = t;
        self.elements = n.max(1);
        self
    }

    /// Times one benchmark within the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        run_benchmark(&id, self.sample_size, self.elements, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Times `sample_size` executions of `routine`.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // One warmup execution, untimed.
        black_box(routine());
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }
}

fn run_benchmark(id: &str, sample_size: usize, elements: u64, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<40} (no samples)");
        return;
    }
    let mut s: Vec<f64> = b.samples.iter().map(|t| t / elements as f64).collect();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let min = s[0];
    let median = s[s.len() / 2];
    let mean = s.iter().sum::<f64>() / s.len() as f64;
    let per = if elements > 1 {
        format!(" per element, {elements} elements/sample")
    } else {
        String::new()
    };
    println!(
        "{id:<40} min {} median {} mean {} ({} samples{per})",
        fmt_time(min),
        fmt_time(median),
        fmt_time(mean),
        s.len()
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.2} ns", secs * 1e9)
    }
}

/// Bundles benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut ran = 0u32;
        run_benchmark("t", 5, 1, |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        // 1 warmup + 5 samples.
        assert_eq!(ran, 6);
    }

    #[test]
    fn group_macros_compile_and_run() {
        fn bench(c: &mut Criterion) {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
            g.throughput(Throughput::Elements(64));
            g.bench_function("batch", |b| b.iter(|| black_box(1 + 1)));
            g.finish();
        }
        criterion_group!(benches, bench);
        benches();
    }

    #[test]
    fn time_formatting_picks_units() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(0.002).ends_with(" ms"));
        assert!(fmt_time(0.000002).ends_with(" µs"));
        assert!(fmt_time(0.000000002).ends_with(" ns"));
    }
}
