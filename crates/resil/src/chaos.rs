//! Deterministic seed-driven chaos schedules.
//!
//! A [`ChaosSchedule`] describes everything hostile that happens to one
//! server run: which requests are attacks (oversized, length-trusting
//! bodies) and which *environmental* fault windows are active — EPC
//! pressure storms, allocator failure injection, boundless overlay-cache
//! exhaustion, and async-enclave-exit (AEX) re-entry storms. Schedules are
//! pure functions of `(seed, requests)`, so every campaign row is exactly
//! reproducible from its seed.

use sgxs_rt::AllocFaultPlan;

/// One kind of environmental fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// EPC pressure storm: clamp the enclave page cache to `clamp_pages`
    /// for the window (other enclaves grabbing protected pages); restored
    /// to the configured capacity when the window closes.
    EpcStorm {
        /// Pages the EPC is clamped to during the storm.
        clamp_pages: usize,
    },
    /// Allocator failure injection: during the window `malloc`/`mmap`
    /// fail with `OutOfMemory` at `fail_per_1024`/1024 probability, at most
    /// `budget` times.
    AllocFaults {
        /// Failure probability numerator (denominator 1024).
        fail_per_1024: u16,
        /// Maximum injected failures in the window.
        budget: u32,
    },
    /// Boundless overlay-cache exhaustion: clamp the cache capacity to
    /// `cap_bytes` (no-op for schemes without an overlay).
    OverlayClamp {
        /// Clamped overlay capacity in bytes.
        cap_bytes: u64,
    },
    /// AEX re-entry storm: every request in the window pays
    /// `reentry_cycles` of enclave re-entry cost (TLB flush + EPC walk).
    AexStorm {
        /// Extra cycles charged per request in the window.
        reentry_cycles: u64,
    },
}

impl ChaosKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosKind::EpcStorm { .. } => "epc-storm",
            ChaosKind::AllocFaults { .. } => "alloc-faults",
            ChaosKind::OverlayClamp { .. } => "overlay-clamp",
            ChaosKind::AexStorm { .. } => "aex-storm",
        }
    }
}

/// One fault window: active for requests `start .. start + duration`.
#[derive(Debug, Clone, Copy)]
pub struct ChaosEvent {
    /// First request index the window covers.
    pub start: u32,
    /// Number of requests the window lasts.
    pub duration: u32,
    /// What goes wrong.
    pub kind: ChaosKind,
}

impl ChaosEvent {
    /// True when the window covers request `r`.
    pub fn covers(&self, r: u32) -> bool {
        r >= self.start && r < self.start.saturating_add(self.duration)
    }
}

/// The fewest requests a server run schedules: one guaranteed attack at
/// an index ≥ 1 plus room for fault windows around it. A schedule asked
/// for fewer runs this many, so [`check_requests`] rejects smaller counts.
pub const MIN_REQUESTS: u32 = 4;

/// Rejects a request count below [`MIN_REQUESTS`].
pub fn check_requests(requests: u32) -> Result<(), String> {
    let min = MIN_REQUESTS;
    match requests {
        ..MIN_REQUESTS => Err(format!("requests {requests} is below the minimum {min}")),
        _ => Ok(()),
    }
}

/// A complete deterministic fault plan for one server run.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Generating seed.
    pub seed: u64,
    /// Requests in the run.
    pub requests: u32,
    /// Request indices carrying an attack body (sorted, deduplicated).
    pub attacks: Vec<u32>,
    /// Environmental fault windows.
    pub events: Vec<ChaosEvent>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl ChaosSchedule {
    /// Generates the schedule for `(seed, requests)`, raising `requests`
    /// to [`MIN_REQUESTS`].
    ///
    /// Every schedule carries at least one attack at a request index ≥ 1,
    /// so fail-stop configurations always have availability to lose on it,
    /// and between one and four environmental windows drawn from all four
    /// [`ChaosKind`]s.
    pub fn generate(seed: u64, requests: u32) -> ChaosSchedule {
        let requests = requests.max(MIN_REQUESTS);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut roll = move |bound: u64| xorshift(&mut s) % bound.max(1);

        // Attacks: 1 guaranteed + ~10% of the remaining requests.
        let mut attacks = vec![1 + roll(requests as u64 - 1) as u32];
        for r in 0..requests {
            if roll(10) == 0 {
                attacks.push(r);
            }
        }
        attacks.sort_unstable();
        attacks.dedup();

        let mut events = Vec::new();
        let window = |roll: &mut dyn FnMut(u64) -> u64| {
            let start = roll(requests as u64) as u32;
            let duration = 1 + roll((requests / 4).max(1) as u64) as u32;
            (start, duration)
        };
        // 0–2 EPC storms.
        for _ in 0..roll(3) {
            let (start, duration) = window(&mut roll);
            events.push(ChaosEvent {
                start,
                duration,
                kind: ChaosKind::EpcStorm {
                    clamp_pages: 8 + roll(56) as usize,
                },
            });
        }
        // 0–2 allocator-failure windows (moderate rates: recovery policies
        // with retry budgets are expected to ride them out).
        for _ in 0..roll(3) {
            let (start, duration) = window(&mut roll);
            events.push(ChaosEvent {
                start,
                duration,
                kind: ChaosKind::AllocFaults {
                    fail_per_1024: 64 + roll(192) as u16,
                    budget: 2 + roll(8) as u32,
                },
            });
        }
        // 0–1 overlay clamp.
        if roll(2) == 0 {
            let (start, duration) = window(&mut roll);
            events.push(ChaosEvent {
                start,
                duration,
                kind: ChaosKind::OverlayClamp {
                    cap_bytes: (4 + roll(28)) * 1024,
                },
            });
        }
        // 0–2 AEX storms.
        for _ in 0..roll(3) {
            let (start, duration) = window(&mut roll);
            events.push(ChaosEvent {
                start,
                duration,
                kind: ChaosKind::AexStorm {
                    reentry_cycles: 3000 + roll(9000),
                },
            });
        }
        ChaosSchedule {
            seed,
            requests,
            attacks,
            events,
        }
    }

    /// True when request `r` carries the attack body.
    pub fn is_attack(&self, r: u32) -> bool {
        self.attacks.binary_search(&r).is_ok()
    }

    /// The allocator fault plan for an [`ChaosKind::AllocFaults`] window,
    /// seeded from the schedule seed and the window's position so distinct
    /// windows draw distinct failure streams.
    pub fn fault_plan(&self, event_index: usize) -> Option<AllocFaultPlan> {
        match self.events.get(event_index)?.kind {
            ChaosKind::AllocFaults {
                fail_per_1024,
                budget,
            } => Some(
                AllocFaultPlan::new(
                    self.seed ^ (event_index as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                    fail_per_1024,
                )
                .with_budget(budget),
            ),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_always_armed() {
        for seed in 0..40u64 {
            let a = ChaosSchedule::generate(seed, 48);
            let b = ChaosSchedule::generate(seed, 48);
            assert_eq!(a.attacks, b.attacks, "seed {seed}");
            assert_eq!(a.events.len(), b.events.len(), "seed {seed}");
            assert!(!a.attacks.is_empty(), "seed {seed}: no attack scheduled");
            assert!(
                a.attacks.iter().any(|&r| r >= 1),
                "seed {seed}: needs an attack after request 0"
            );
            for &r in &a.attacks {
                assert!(r < 48, "seed {seed}: attack {r} out of range");
            }
            for e in &a.events {
                assert!(e.start < 48, "seed {seed}: window starts out of range");
                assert!(e.duration >= 1);
            }
        }
    }

    #[test]
    fn distinct_seeds_draw_distinct_plans() {
        let plans: Vec<Vec<u32>> = (0..16)
            .map(|s| ChaosSchedule::generate(s, 48).attacks)
            .collect();
        let distinct = plans.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct > 8, "only {distinct} distinct attack plans");
    }

    #[test]
    fn alloc_windows_expose_fault_plans() {
        // Find a seed whose schedule has an alloc-fault window and check
        // the plan is deterministic per (seed, index).
        let mut found = false;
        for seed in 0..64u64 {
            let sch = ChaosSchedule::generate(seed, 48);
            for (i, e) in sch.events.iter().enumerate() {
                if matches!(e.kind, ChaosKind::AllocFaults { .. }) {
                    let a = sch.fault_plan(i).expect("plan for alloc window");
                    let b = sch.fault_plan(i).expect("plan for alloc window");
                    assert_eq!(a.fail_per_1024, b.fail_per_1024);
                    assert_eq!(a.budget, b.budget);
                    found = true;
                } else {
                    assert!(sch.fault_plan(i).is_none());
                }
            }
        }
        assert!(found, "no alloc-fault window in 64 seeds");
    }
}
