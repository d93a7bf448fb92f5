//! `chaos`: the availability campaign under the `sgxs-super` supervisor.
//!
//! One op is one server run: one app × scheme/policy combo × seed, 48
//! requests against a seeded chaos schedule. Many short `vm.run`s with trap
//! recovery and the boundless overlay, so the execute layer is used per
//! request rather than per program. This workload carries the paper's §4.2
//! availability claim.

use crate::matrix::SimTotals;
use crate::stats::{median, tail};
use crate::trace::{Tracer, OP};
use crate::{Checks, Metrics, Round, Workload};
use sgxbounds::SbConfig;
use sgxs_mir::Module;
use sgxs_resil::campaign::{combos, Combo};
use sgxs_resil::{
    run_chaos_campaign_supervised, serve_tier, CampaignOpts, ChaosReport, ChaosSchedule, RScheme,
    ServerApp,
};
use sgxs_sim::ExecTier;
use sgxs_super::{StopFlag, SuperOpts};
use sgxs_workloads::apps::{apache, memcached, nginx};

/// Campaign seeds per round.
const SEEDS: u64 = 64;

/// Distinct seed windows a run cycles through, as in the `fuzz` workload:
/// round `k` of `--seed n` runs seeds from `(n * WINDOWS + k % WINDOWS) *
/// SEEDS`.
const WINDOWS: u64 = crate::fuzz::WINDOWS;

/// Supervisor workers, as in the `fuzz` workload.
const WORKERS: usize = crate::fuzz::WORKERS;

/// Label of the combo the availability and latency metrics follow.
const BOUNDLESS: &str = "sb-boundless/boundless";

/// Request outcomes of one combo, summed over a round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    served: u64,
    degraded: u64,
    aborted: u64,
    lost: u64,
    retries: u64,
}

/// What a traced round counts beyond the per-combo tallies.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    tolerated: u64,
    instrument: SimTotals,
}

/// The supervised chaos campaign over one seed window.
pub struct Chaos {
    opts: CampaignOpts,
    sup: SuperOpts,
    combos: Vec<Combo>,
    base: u64,
    /// Each window's `sgxs-chaos-v1` document and per-combo tallies, from
    /// its first run.
    docs: Vec<(String, Vec<Tally>)>,
    /// `availability` and `sim_req_p99_kcycles` of the first window.
    exact: Option<(f64, f64)>,
    /// Per-combo tallies and counts of the first traced round.
    traced: Option<(Vec<Tally>, Counts)>,
}

impl Chaos {
    /// Sets up the campaign for `seed`: the combo registry, the three
    /// server modules, and one warm-up seed.
    pub fn new(seed: u64) -> Chaos {
        let base = seed * WINDOWS * SEEDS;
        let opts = CampaignOpts {
            seeds: SEEDS,
            seed0: base,
            tier: ExecTier::Compiled,
            ..CampaignOpts::default()
        };
        let sup = SuperOpts {
            workers: WORKERS,
            quiet_panics: true,
            ..SuperOpts::default()
        };
        for app in ServerApp::ALL {
            std::hint::black_box(server_module(app));
        }
        // A fixed warm-up seed, as in the `fuzz` workload.
        let warm = CampaignOpts {
            seeds: 1,
            seed0: 0,
            ..opts.clone()
        };
        std::hint::black_box(
            run_chaos_campaign_supervised(&warm, &sup, &StopFlag::new()).expect("warm-up campaign"),
        );
        Chaos {
            opts,
            sup,
            combos: combos(),
            base,
            docs: Vec::new(),
            exact: None,
            traced: None,
        }
    }
}

fn server_module(app: ServerApp) -> Module {
    match app {
        ServerApp::Nginx => nginx::server_module(),
        ServerApp::Apache => apache::server_module(),
        ServerApp::Memcached => memcached::server_module(),
    }
}

/// The SGXBounds configuration behind each chaos scheme.
fn sb_config(scheme: RScheme) -> Option<SbConfig> {
    match scheme {
        RScheme::Native => None,
        RScheme::SgxBounds => Some(SbConfig::default()),
        RScheme::Boundless => Some(SbConfig {
            boundless: true,
            ..SbConfig::default()
        }),
    }
}

fn tallies(r: &ChaosReport) -> Vec<Tally> {
    r.rows
        .iter()
        .map(|row| Tally {
            served: row.served,
            degraded: row.degraded,
            aborted: row.aborted,
            lost: row.lost,
            retries: row.retries,
        })
        .collect()
}

impl Workload for Chaos {
    fn ops(&self) -> u64 {
        SEEDS * self.combos.len() as u64
    }

    fn round(&mut self, k: usize, ck: &mut Checks) -> Round {
        ck.attempted += self.ops();
        let window = k as u64 % WINDOWS;
        self.opts.seed0 = self.base + window * SEEDS;
        let out = match run_chaos_campaign_supervised(&self.opts, &self.sup, &StopFlag::new()) {
            Ok(out) => out,
            Err(e) => {
                ck.fail(format!("campaign: {e}"));
                return Round::default();
            }
        };
        let r = &out.report;
        // The corruption and availability gate.
        for f in &r.failures {
            ck.fail(format!("gate: {f}"));
        }
        for q in &r.quarantine {
            ck.fail(format!("seed {} quarantined: {}", q.seed, q.detail));
        }
        if r.coverage().completed != SEEDS || out.stopped {
            ck.fail(format!(
                "campaign completed {} of {SEEDS} seeds",
                r.coverage().completed
            ));
        }
        let doc = r.to_json().to_compact();
        match self.docs.get(window as usize) {
            None if window == 0 => {
                let row = r
                    .rows
                    .iter()
                    .find(|row| format!("{}/{}", row.scheme, row.policy) == BOUNDLESS);
                let p99 = r
                    .metrics()
                    .hist(&format!("latency/{BOUNDLESS}"))
                    .map_or(0, |h| h.p99());
                self.exact = row.map(|row| (row.availability(), p99 as f64 / 1e3));
                self.docs.push((doc, tallies(r)));
            }
            None => self.docs.push((doc, tallies(r))),
            Some((want, _)) if *want != doc => ck.fail(format!(
                "window {window}: campaign document differs from its first run"
            )),
            Some(_) => {}
        }
        Round::default()
    }

    fn traced_round(&mut self, k: usize, tr: &mut Tracer, ck: &mut Checks) {
        let window = k % self.docs.len().max(1);
        self.opts.seed0 = self.base + window as u64 * SEEDS;
        let mut tally = vec![Tally::default(); self.combos.len()];
        let mut counts = Counts::default();
        for seed in self.opts.seed0..self.opts.seed0 + SEEDS {
            let op = tr.begin(OP, seed);
            let schedule = ChaosSchedule::generate(seed, self.opts.requests);
            let app = ServerApp::ALL[(seed % ServerApp::ALL.len() as u64) as usize];
            for (combo, t) in self.combos.iter().zip(tally.iter_mut()) {
                // Build and instrument a separate copy of the module, to
                // split those layers out of the opaque serve call.
                let mut module = tr.time("workloads.build", seed, || server_module(app));
                if let Some(cfg) = sb_config(combo.scheme) {
                    let r = tr.time("sgxbounds.instrument", seed, || {
                        sgxbounds::instrument(&mut module, &cfg).expect("server instrumentation")
                    });
                    counts.instrument.add_report(&r);
                }
                let rep = tr.time("resil.serve", seed, || {
                    serve_tier(
                        app,
                        combo.scheme,
                        &combo.policies,
                        &schedule,
                        ExecTier::Compiled,
                    )
                });
                tr.count(
                    "resil.requests",
                    (rep.served + rep.degraded + rep.aborted) as u64,
                );
                ck.attempted += 1;
                t.served += rep.served as u64;
                t.degraded += rep.degraded as u64;
                t.aborted += rep.aborted as u64;
                t.lost += rep.lost as u64;
                t.retries += rep.recovery.attempts;
                counts.tolerated += rep.tolerated_violations;
            }
            tr.end(op);
        }
        if self.docs.get(window).map(|(_, want)| want) != Some(&tally) {
            ck.fail("traced server runs do not add up to the supervised campaign".into());
        }
        self.traced.get_or_insert((tally, counts));
    }

    fn exact(&self, m: &mut Metrics) {
        if let Some((availability, p99)) = self.exact {
            m.insert("availability", availability);
            m.insert("sim_req_p99_kcycles", p99);
        }
    }

    fn layers(&self, tr: &Tracer, round_s: f64, m: &mut Metrics) {
        let runs_ms: Vec<f64> = tr
            .durations("resil.serve")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        let t = tail(&runs_ms);
        m.insert("resil.run_p50_ms", median(&runs_ms));
        m.insert("resil.run_tail_ms", t.value);
        m.insert("resil.run_tail_pct", t.pct);
        m.insert("resil.run_samples", t.samples as f64);
        let serve_ms: f64 = runs_ms.iter().sum();
        let requests = tr.counted("resil.requests");
        if requests > 0 {
            m.insert("resil.us_per_request", serve_ms * 1e3 / requests as f64);
        }
        // Per-seed host time is the seed's server runs.
        let mean_run_s = serve_ms / 1e3 / runs_ms.len().max(1) as f64;
        m.insert(
            "super.efficiency",
            mean_run_s * self.ops() as f64 / (WORKERS as f64 * round_s),
        );
        if let Some((tally, c)) = &self.traced {
            let sum = |f: fn(&Tally) -> u64| tally.iter().map(f).sum::<u64>() as f64;
            m.insert("resil.recovery_attempts", sum(|t| t.retries));
            m.insert("resil.aborted", sum(|t| t.aborted));
            m.insert("resil.lost", sum(|t| t.lost));
            m.insert("resil.tolerated", c.tolerated as f64);
            c.instrument.report(m);
        }
    }
}
