//! Figure 13: case-study servers — throughput/latency across client
//! concurrency plus the peak-memory table (Memcached, Apache, Nginx).

use crate::report::{fmt_bytes, Table};
use crate::scheme::{run_one, RunConfig, Scheme};
use sgxs_obs::document;
use sgxs_sim::Mode;
use sgxs_workloads::apps::{apache::Apache, memcached::Memcached, nginx::Nginx};
use sgxs_workloads::Workload;
use std::fmt;

document! {
    /// One (app, clients, scheme) measurement; `None` is a crash.
    #[derive(Debug, Clone)]
    pub struct Sample {
        /// Client concurrency.
        pub clients: u32,
        /// Scheme label ("native" is the non-enclave baseline).
        pub scheme: String,
        /// Requests per million cycles (throughput).
        pub throughput_req_per_mcycle: Option<f64>,
        /// Mean cycles per request times concurrency (closed-loop
        /// latency).
        pub latency_cycles: Option<f64>,
        /// Peak reserved memory.
        pub peak_reserved_bytes: Option<u64>,
    }
}

document! {
    /// One application's curves.
    #[derive(Debug, Clone)]
    pub struct AppCurves {
        /// Application name.
        pub app: String,
        /// All samples.
        pub samples: Vec<Sample>,
    }
}

document! {
    /// The full figure.
    #[derive(Debug, Clone)]
    pub struct Fig13 {
        /// Per-application curves.
        pub apps: Vec<AppCurves>,
    }
}

fn build_app(name: &str, clients: u32, requests: u64) -> Box<dyn Workload> {
    match name {
        "memcached" => Box::new(Memcached {
            clients_override: Some(clients),
            requests_override: Some(requests),
        }),
        "apache" => Box::new(Apache {
            clients_override: Some(clients),
            requests_override: Some(requests),
        }),
        "nginx" => Box::new(Nginx {
            clients_override: Some(clients),
            requests_override: Some(requests),
        }),
        _ => unreachable!(),
    }
}

/// Runs the sweep over `client_steps`, issuing `req_per_client` requests
/// per client.
pub fn run(base: &RunConfig, client_steps: &[u32], req_per_client: u64) -> Fig13 {
    let mut apps = Vec::new();
    for name in ["memcached", "apache", "nginx"] {
        let mut samples = Vec::new();
        for &clients in client_steps {
            let requests = req_per_client * clients as u64;
            let w = build_app(name, clients, requests);
            // Five variants: native (non-enclave), SGX baseline, and the
            // three hardened enclave runs.
            let hardened = Scheme::all_hardened().map(|s| (s.label(), s, Mode::Enclave));
            let baselines = [
                ("native", Scheme::Baseline, Mode::Native),
                ("sgx", Scheme::Baseline, Mode::Enclave),
            ];
            for (label, scheme, mode) in baselines.into_iter().chain(hardened) {
                let mut rc = *base;
                rc.mode = mode;
                let m = run_one(w.as_ref(), scheme, &rc);
                let cycles = (m.ok() && m.wall_cycles > 0).then_some(m.wall_cycles as f64);
                samples.push(Sample {
                    clients,
                    scheme: label.to_owned(),
                    throughput_req_per_mcycle: cycles.map(|c| requests as f64 / (c / 1_000_000.0)),
                    latency_cycles: cycles.map(|c| c * clients as f64 / requests as f64),
                    peak_reserved_bytes: m.ok().then_some(m.peak_reserved),
                });
            }
        }
        apps.push(AppCurves {
            app: name.to_owned(),
            samples,
        });
    }
    Fig13 { apps }
}

impl Fig13 {
    /// Peak memory table at the highest client count (the paper's
    /// "memory usage for peak throughput" table).
    pub fn memory_table(&self) -> String {
        let mut t = Table::new(&["scheme", "memcached", "apache", "nginx"]);
        for scheme in ["sgx", "mpx", "asan", "sgxbounds"] {
            let mut cells = vec![scheme.to_owned()];
            for app in &self.apps {
                let max_clients = app.samples.iter().map(|s| s.clients).max().unwrap_or(0);
                let cell = app
                    .samples
                    .iter()
                    .find(|s| s.clients == max_clients && s.scheme == scheme)
                    .and_then(|s| s.peak_reserved_bytes)
                    .map(fmt_bytes)
                    .unwrap_or_else(|| "crash".into());
                cells.push(cell);
            }
            t.row(cells);
        }
        format!("Peak memory at highest concurrency:\n{}", t.render())
    }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 13: throughput (req/Mcycle) and latency (cycles) by concurrency"
        )?;
        for app in &self.apps {
            writeln!(f, "\n[{}]", app.app)?;
            let mut t = Table::new(&["clients", "scheme", "throughput", "latency"]);
            for s in &app.samples {
                t.row(vec![
                    s.clients.to_string(),
                    s.scheme.clone(),
                    s.throughput_req_per_mcycle
                        .map(|v| format!("{v:.2}"))
                        .unwrap_or_else(|| "crash".into()),
                    s.latency_cycles
                        .map(|v| format!("{v:.0}"))
                        .unwrap_or_else(|| "crash".into()),
                ]);
            }
            write!(f, "{}", t.render())?;
        }
        writeln!(f)?;
        write!(f, "{}", self.memory_table())
    }
}
