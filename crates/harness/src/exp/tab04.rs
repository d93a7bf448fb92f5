//! Table 4: RIPE security benchmark — attacks prevented per scheme.

use crate::report::Table;
use crate::scheme::{RunConfig, Scheme};
use sgxs_baselines::Hardening;
use sgxs_mir::{verify, Module, Trap, Vm, VmConfig};
use sgxs_obs::json::Json;
use sgxs_sim::{ExecTier, MachineConfig, Preset};
use sgxs_workloads::apps::ripe::{self, AttackConfig};
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

/// The full matrix.
#[derive(Debug, Clone)]
pub struct Tab4 {
    /// (attack, [mpx, asan, sgxbounds]) outcomes.
    pub matrix: Vec<(AttackConfig, [Outcome; 3])>,
}

/// The hardened VM one attack runs in, on `rc.tier` as in
/// [`crate::scheme::run_one`].
fn attack_vm<'m>(module: &'m Module, hardening: &Hardening, rc: &RunConfig) -> Vm<'m> {
    let mut machine_cfg = MachineConfig::preset(rc.preset, rc.mode);
    machine_cfg.tier = rc.tier;
    let mut cfg = VmConfig::new(machine_cfg);
    cfg.max_instructions = 50_000_000;
    let mut vm = Vm::new(module, cfg);
    hardening.install(&mut vm, rc.scale(), rc.enclave_cap());
    if rc.tier == ExecTier::Compiled {
        sgxs_exec::attach(&mut vm);
    }
    vm
}

fn run_attack(mut module: Module, scheme: Scheme, rc: &RunConfig) -> Outcome {
    let hardening = scheme.hardening();
    hardening
        .instrument(&mut module, false)
        .expect("attack module instruments");
    verify(&module).expect("attack module verifies");
    let mut vm = attack_vm(&module, &hardening, rc);
    match vm.run("main", &[]).result {
        Err(Trap::SafetyViolation { .. }) => Outcome::Prevented,
        Ok(v) if v == ripe::SHELL_MAGIC => Outcome::Succeeded,
        _ => Outcome::Other,
    }
}

/// Runs the full matrix.
pub fn run(preset: Preset, seed: u64) -> Tab4 {
    let mut rc = RunConfig::new(preset);
    rc.params.seed = seed;
    let mut matrix = Vec::new();
    for cfg in ripe::all_attacks() {
        let outcomes = Scheme::all_hardened().map(|s| run_attack(ripe::build_attack(&cfg), s, &rc));
        matrix.push((cfg, outcomes));
    }
    Tab4 { matrix }
}

impl Tab4 {
    /// Machine-readable form for `results/bench.json`.
    pub fn to_json(&self) -> Json {
        let cell = |o: Outcome| {
            Json::Str(
                match o {
                    Outcome::Prevented => "prevented",
                    Outcome::Succeeded => "hijacked",
                    Outcome::Other => "other",
                }
                .into(),
            )
        };
        let attacks: Vec<Json> = self
            .matrix
            .iter()
            .map(|(cfg, o)| {
                Json::obj(vec![
                    ("attack", cfg.label().into()),
                    ("mpx", cell(o[0])),
                    ("asan", cell(o[1])),
                    ("sgxbounds", cell(o[2])),
                ])
            })
            .collect();
        let p = self.prevented();
        Json::obj(vec![
            ("attacks", Json::Arr(attacks)),
            (
                "prevented",
                Json::obj(vec![
                    ("mpx", p[0].into()),
                    ("asan", p[1].into()),
                    ("sgxbounds", p[2].into()),
                    ("total", self.matrix.len().into()),
                ]),
            ),
        ])
    }

    /// Prevented counts in [mpx, asan, sgxbounds] order.
    pub fn prevented(&self) -> [usize; 3] {
        let mut p = [0; 3];
        for (_, o) in &self.matrix {
            for i in 0..3 {
                if o[i] == Outcome::Prevented {
                    p[i] += 1;
                }
            }
        }
        p
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
            Outcome::Prevented => "prevented".to_owned(),
            Outcome::Succeeded => "HIJACKED".to_owned(),
            Outcome::Other => "other".to_owned(),
        };
        for (cfg, o) in &self.matrix {
            t.row(vec![cfg.label(), cell(o[0]), cell(o[1]), cell(o[2])]);
        }
        let p = self.prevented();
        t.row(vec![
            "prevented".into(),
            format!("{}/16", p[0]),
            format!("{}/16", p[1]),
            format!("{}/16", p[2]),
        ]);
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacks_run_on_the_requested_tier() {
        let hardening = Scheme::SgxBounds.hardening();
        let mut module = ripe::build_attack(&ripe::all_attacks()[0]);
        hardening.instrument(&mut module, false).unwrap();
        for tier in [ExecTier::Reference, ExecTier::Compiled] {
            let mut rc = RunConfig::new(Preset::Tiny);
            rc.tier = tier;
            let vm = attack_vm(&module, &hardening, &rc);
            assert_eq!(vm.config().machine.tier, tier);
            assert_eq!(vm.engine_installed(), tier == ExecTier::Compiled);
        }
    }
}
