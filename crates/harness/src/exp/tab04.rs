//! Table 4: RIPE security benchmark — attacks prevented per scheme.

use crate::report::Table;
use crate::scheme::{RunConfig, Scheme};
use sgxs_mir::{Module, Trap, VmConfig};
use sgxs_obs::codec::Field;
use sgxs_obs::document;
use sgxs_obs::json::Json;
use sgxs_sim::MachineConfig;
use sgxs_workloads::apps::ripe;
use std::fmt;

/// Outcome of one attack under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The scheme trapped before control flow was captured.
    Prevented,
    /// The shell function ran.
    Succeeded,
    /// Something else happened (counts as not prevented).
    Other,
}

impl Outcome {
    /// The payload's label (the table prints `HIJACKED` in capitals).
    fn label(self) -> &'static str {
        match self {
            Outcome::Prevented => "prevented",
            Outcome::Succeeded => "hijacked",
            Outcome::Other => "other",
        }
    }
}

/// Written as its label.
impl Field for Outcome {
    fn put(&self) -> Json {
        self.label().into()
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        let label = String::take(v, path)?;
        [Outcome::Prevented, Outcome::Succeeded, Outcome::Other]
            .into_iter()
            .find(|o| o.label() == label)
            .ok_or_else(|| format!("{path}: unknown outcome '{label}'"))
    }
}

document! {
    /// One attack's outcome per hardened scheme.
    #[derive(Debug, Clone)]
    pub struct Attack {
        /// Attack label.
        pub attack: String,
        /// Intel MPX.
        pub mpx: Outcome,
        /// AddressSanitizer.
        pub asan: Outcome,
        /// SGXBounds.
        pub sgxbounds: Outcome,
    }
}

document! {
    /// Attacks prevented per hardened scheme, out of `total`.
    #[derive(Debug, Clone)]
    pub struct Prevented {
        /// Intel MPX.
        pub mpx: usize,
        /// AddressSanitizer.
        pub asan: usize,
        /// SGXBounds.
        pub sgxbounds: usize,
        /// Attacks run.
        pub total: usize,
    }
}

document! {
    /// The full matrix.
    #[derive(Debug, Clone)]
    pub struct Tab4 {
        /// Per-attack outcomes.
        pub attacks: Vec<Attack>,
        /// Per-scheme prevention counts.
        pub prevented: Prevented,
    }
}

/// Runs one attack under `scheme` on `rc`'s machine and tier.
fn run_attack(mut module: Module, scheme: Scheme, rc: &RunConfig) -> Outcome {
    let hardening = scheme.hardening();
    hardening
        .instrument(&mut module, false)
        .expect("attack module instruments");
    let mut machine_cfg = MachineConfig::preset(rc.preset, rc.mode);
    machine_cfg.tier = rc.tier;
    let mut cfg = VmConfig::new(machine_cfg);
    cfg.max_instructions = 50_000_000;
    let (mut vm, _) = hardening.boot(&module, cfg, None, rc.scale(), rc.enclave_cap());
    match vm.run("main", &[]).result {
        Err(Trap::SafetyViolation { .. }) => Outcome::Prevented,
        Ok(v) if v == ripe::SHELL_MAGIC => Outcome::Succeeded,
        _ => Outcome::Other,
    }
}

/// Runs the full matrix on `base`'s machine and tier.
pub fn run(base: &RunConfig) -> Tab4 {
    let attacks: Vec<Attack> = ripe::all_attacks()
        .into_iter()
        .map(|cfg| {
            let [mpx, asan, sgxbounds] =
                Scheme::all_hardened().map(|s| run_attack(ripe::build_attack(&cfg), s, base));
            Attack {
                attack: cfg.label(),
                mpx,
                asan,
                sgxbounds,
            }
        })
        .collect();
    let count = |get: fn(&Attack) -> Outcome| {
        attacks
            .iter()
            .filter(|a| get(a) == Outcome::Prevented)
            .count()
    };
    Tab4 {
        prevented: Prevented {
            mpx: count(|a| a.mpx),
            asan: count(|a| a.asan),
            sgxbounds: count(|a| a.sgxbounds),
            total: attacks.len(),
        },
        attacks,
    }
}

impl fmt::Display for Tab4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4: RIPE results ({} SGX-viable of {} native attacks; shellcode dies on `int` in the enclave)",
            ripe::SGX_VIABLE,
            ripe::NATIVE_VIABLE
        )?;
        let mut t = Table::new(&["attack", "mpx", "asan", "sgxbounds"]);
        let cell = |o: Outcome| match o {
            Outcome::Succeeded => "HIJACKED".to_owned(),
            o => o.label().to_owned(),
        };
        for a in &self.attacks {
            t.row(vec![
                a.attack.clone(),
                cell(a.mpx),
                cell(a.asan),
                cell(a.sgxbounds),
            ]);
        }
        let p = &self.prevented;
        t.row(vec![
            "prevented".into(),
            format!("{}/16", p.mpx),
            format!("{}/16", p.asan),
            format!("{}/16", p.sgxbounds),
        ]);
        write!(f, "{}", t.render())
    }
}
