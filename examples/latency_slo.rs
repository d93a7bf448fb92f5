//! Latency SLOs under attack: memcached served through a chaos schedule
//! under each recovery policy, with per-request cycle latency collected
//! into the deterministic log-linear histograms of `sgxs-metrics`.
//!
//! The point the table makes: availability policies are not free at the
//! tail. Fail-stop (`abort`) keeps the lowest percentiles — it simply
//! stops serving after the first attack, so the slow requests never
//! happen — while `retry` pays for its second attempts and `boundless`
//! pays the overlay redirection cost on every absorbed overflow. A
//! latency SLO picks a point on that trade-off, which is why
//! `repro chaos --json` ships these histograms per scheme × policy.
//!
//! Run with `cargo run --example latency_slo`.

use sgxs_metrics::Hist;
use sgxs_resil::{
    abort_policy, boundless_policy, graceful_policy, retry_policy, serve_tier, ChaosSchedule,
    RScheme, ServerApp,
};
use sgxs_sim::ExecTier;

fn main() {
    const SEEDS: u64 = 8;
    const REQUESTS: u32 = 24;

    println!("== memcached under chaos: latency percentiles per recovery policy ==");
    println!("({SEEDS} seeded schedules x {REQUESTS} requests, cycles are simulated)\n");

    let configs = [
        ("sgxbounds/abort", RScheme::SgxBounds, abort_policy()),
        ("sgxbounds/graceful", RScheme::SgxBounds, graceful_policy()),
        ("sgxbounds/retry", RScheme::SgxBounds, retry_policy()),
        (
            "sb-boundless/boundless",
            RScheme::Boundless,
            boundless_policy(),
        ),
    ];

    println!(
        "{:<24} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "scheme/policy", "avail", "count", "p50", "p99", "p999", "max"
    );
    for (label, scheme, policies) in configs {
        // One merged histogram across every seed — the same shard-merge
        // the campaign uses, so percentiles are order-independent.
        let mut lat = Hist::new();
        let mut answered = 0u64;
        let mut total = 0u64;
        for seed in 1..=SEEDS {
            let schedule = ChaosSchedule::generate(seed, REQUESTS);
            let rep = serve_tier(
                ServerApp::Memcached,
                scheme,
                &policies,
                &schedule,
                ExecTier::Reference,
            );
            lat.merge(&rep.latency);
            answered += (rep.served + rep.degraded) as u64;
            total += rep.total as u64;
        }
        println!(
            "{:<24} {:>6.1}% {:>6} {:>9} {:>9} {:>9} {:>9}",
            label,
            answered as f64 * 100.0 / total as f64,
            lat.count(),
            lat.percentile_permille(500),
            lat.percentile_permille(990),
            lat.percentile_permille(999),
            lat.max(),
        );
    }

    println!(
        "\nfail-stop 'abort' samples only the requests it survived to attempt;\n\
         crash-only policies answer everything and carry the tail cost instead."
    );
}
