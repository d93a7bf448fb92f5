//! Observed-run profiling: runs a workload with a [`TraceRecorder`]
//! attached and aggregates the event stream into a per-check-site
//! [`Profile`] (the `repro profile` subcommand's engine).

use crate::scheme::{run_one_obs, Measured, RunConfig, Scheme};
use sgxs_obs::{Profile, TraceRecorder};
use std::cell::RefCell;
use std::rc::Rc;

/// Default ring capacity for traced runs (events kept for the JSONL sink).
pub const DEFAULT_RING: usize = 4096;

/// Default number of hot sites reported.
pub const DEFAULT_TOP: usize = 10;

/// A profiled execution: the aggregate profile, the raw measurement, and
/// the recorder (for trace export).
#[derive(Debug)]
pub struct ProfileRun {
    /// Aggregated per-check-site profile.
    pub profile: Profile,
    /// The plain measurement of the same run.
    pub measured: Measured,
    /// The recorder, recovered after the run (ring + counters + digest).
    pub recorder: TraceRecorder,
}

/// Runs `workload` under `scheme` with tracing on and builds its profile.
pub fn profile_one(
    workload: &dyn sgxs_workloads::Workload,
    scheme: Scheme,
    rc: &RunConfig,
    ring_cap: usize,
    top_n: usize,
) -> ProfileRun {
    let rec = Rc::new(RefCell::new(TraceRecorder::new(ring_cap)));
    let obs = run_one_obs(workload, scheme, rc, rec.clone());
    let recorder = Rc::try_unwrap(rec)
        .expect("machine dropped its recorder handle")
        .into_inner();
    let labels: Vec<(String, String)> = obs
        .sites
        .iter()
        .map(|s| (s.func.clone(), s.kind.to_owned()))
        .collect();
    let profile = Profile::build(
        &obs.measured.workload,
        obs.measured.scheme,
        &recorder,
        &labels,
        obs.measured.wall_cycles,
        obs.cpu_cycles,
        top_n,
    );
    ProfileRun {
        profile,
        measured: obs.measured,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::run_one;
    use sgxs_obs::NoopRecorder;
    use sgxs_sim::Preset;
    use sgxs_workloads::SizeClass;

    fn quick_rc() -> RunConfig {
        let mut rc = RunConfig::new(Preset::Tiny);
        rc.params.size = SizeClass::XS;
        rc.params.threads = 2;
        rc
    }

    #[test]
    fn sgxbounds_profile_has_hot_sites_and_attribution() {
        let w = sgxs_workloads::by_name("simple").unwrap();
        let pr = profile_one(
            w.as_ref(),
            Scheme::SgxBounds,
            &quick_rc(),
            DEFAULT_RING,
            DEFAULT_TOP,
        );
        assert!(pr.measured.ok());
        let p = &pr.profile;
        assert!(!p.top_sites.is_empty(), "instrumented run must hit sites");
        assert!(p.check_execs > 0);
        let a = &p.attribution;
        assert!(a.check_cycles > 0);
        assert!(a.check_cycles < p.cpu_cycles, "checks are a strict subset");
        assert_eq!(a.app_cycles, p.cpu_cycles - a.check_cycles);
        assert!(p.alloc.allocs >= 1, "simple mallocs its buffer");
        assert!(p.sites_active <= p.sites_total);
        // The text view and the JSON form both carry the top table.
        assert!(p.render(DEFAULT_TOP).contains("%checks"));
        let j = sgxs_obs::codec::Field::put(p);
        assert_eq!(
            j.get("schema").and_then(|s| s.as_str()),
            Some("sgxs-profile-v1")
        );
        assert!(!j.get("top_sites").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn noop_recorder_leaves_counters_bit_identical() {
        // The zero-overhead guarantee: an installed-but-disabled recorder
        // (site markers present, emit path compiled in) must not move a
        // single simulated counter relative to the plain run.
        let rc = quick_rc();
        for scheme in [Scheme::SgxBounds, Scheme::Asan, Scheme::Mpx] {
            let w = sgxs_workloads::by_name("string_match").unwrap();
            let plain = run_one(w.as_ref(), scheme, &rc);
            let obs = run_one_obs(w.as_ref(), scheme, &rc, Rc::new(RefCell::new(NoopRecorder)));
            assert_eq!(
                plain.result.clone().unwrap(),
                obs.measured.result.clone().unwrap(),
                "{}",
                scheme.label()
            );
            assert_eq!(
                plain.wall_cycles,
                obs.measured.wall_cycles,
                "{}",
                scheme.label()
            );
            assert_eq!(plain.stats, obs.measured.stats, "{}", scheme.label());
            assert_eq!(plain.peak_reserved, obs.measured.peak_reserved);
            assert_eq!(plain.peak_committed, obs.measured.peak_committed);
        }
    }

    #[test]
    fn traced_rerun_digest_is_stable() {
        let w = sgxs_workloads::by_name("simple").unwrap();
        let a = profile_one(w.as_ref(), Scheme::SgxBounds, &quick_rc(), 64, 5);
        let b = profile_one(w.as_ref(), Scheme::SgxBounds, &quick_rc(), 64, 5);
        assert_eq!(a.profile.digest, b.profile.digest);
        assert_eq!(a.profile.events, b.profile.events);
    }
}
