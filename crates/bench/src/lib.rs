//! Criterion benchmark support: the preset and run configuration the
//! ablation benches share.

use sgxs_harness::RunConfig;
use sgxs_sim::Preset;
use sgxs_workloads::SizeClass;

/// The preset benches run at (fast enough for `cargo bench`).
pub const BENCH_PRESET: Preset = Preset::Tiny;

/// Run configuration used by timing loops: smallest size, 8 threads.
pub fn bench_rc() -> RunConfig {
    let mut rc = RunConfig::new(BENCH_PRESET);
    rc.params.size = SizeClass::XS;
    rc.params.threads = 8;
    rc
}
