//! `repro audit`: cross-tier-pinned incident forensics.
//!
//! Runs the committed OOB demo module (`repro lint --demo-oob`'s subject)
//! under SGXBounds with a full [`LedgerRecorder`] attached, assembles the
//! detection into a `sgxs-incident-v1` artifact, and *proves* the
//! cross-tier pin before emitting anything: the forensic run executes on
//! both the reference interpreter and the compiled tier, and the two
//! serialized documents must be byte-identical. The emitted artifact then
//! carries `tier: pinned` as a checked claim, and CI byte-diffs reruns.
//!
//! The artifact is self-validated through
//! [`sgxs_obs::read::parse_incident`] (schema tag, id recompute,
//! neighborhood geometry, trace-index monotonicity) before it is written,
//! so `repro audit` can never emit a document its own reader rejects.

use crate::cli::{write_file, Args, USAGE};
use crate::lint::oob_demo;
use crate::scheme::Scheme;
use sgxs_audit::{IncidentDoc, IncidentMeta, LedgerRecorder, DEFAULT_TRACE_WINDOW};
use sgxs_baselines::ADDRESS_SPACE_CAP;
use sgxs_mir::{Trap, VmConfig};
use sgxs_obs::codec::Field;
use sgxs_obs::read::parse_incident;
use sgxs_sim::{ExecTier, MachineConfig, Mode, Preset};
use std::cell::RefCell;
use std::rc::Rc;

/// Runs the demo OOB module under default SGXBounds on `tier` with a
/// ledger recorder attached; returns the outcome and the recovered
/// recorder.
fn forensic_demo_run(tier: ExecTier, window: usize) -> (Result<u64, Trap>, LedgerRecorder) {
    let hardening = Scheme::SgxBounds.hardening();
    let mut module = oob_demo();
    hardening
        .instrument(&mut module, true)
        .expect("demo instrumentation");

    let mut machine_cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
    machine_cfg.tier = tier;
    let rec = Rc::new(RefCell::new(LedgerRecorder::new(window)));
    let scale = MachineConfig::scale_of(Preset::Tiny);
    let cfg = VmConfig::new(machine_cfg);
    let (mut vm, _) = hardening.boot(&module, cfg, Some(rec.clone()), scale, ADDRESS_SPACE_CAP);
    vm.machine.set_span_mode(true);
    let out = vm.run("main", &[]);
    drop(vm);
    let rec = Rc::try_unwrap(rec)
        .expect("machine dropped its recorder handle")
        .into_inner();
    (out.result, rec)
}

/// Assembles the demo incident from one tier's forensic run. The
/// derivation chain comes from the static lint over the same module, so
/// the artifact joins the dynamic trap with the analysis that already
/// proved the access out of bounds.
fn demo_incident(tier: ExecTier, window: usize) -> IncidentDoc {
    let (result, rec) = forensic_demo_run(tier, window);
    let verdict = if result.is_ok() { "missed" } else { "detected" };
    let mut demo = oob_demo();
    let lint = sgxs_analyze::lint_module(&mut demo);
    let derivation = lint.findings.iter().map(|f| {
        let off = match f.offset {
            Some((lo, hi)) => format!("[{lo},{hi}]"),
            None => "?".to_owned(),
        };
        format!(
            "{}:b{}:i{} {} of {}B at offset {} past {} — {}",
            f.function, f.block, f.inst, f.kind, f.width, off, f.object, f.ir
        )
    });
    let meta = IncidentMeta {
        origin: "audit".into(),
        workload: "oob-demo".into(),
        scheme: "sgxbounds".into(),
        tier: "pinned".into(),
        verdict: verdict.into(),
        derivation: derivation.collect(),
        ..IncidentMeta::default()
    };
    sgxs_audit::assemble(meta, &rec, window)
}

/// The cross-tier-pinned demo incident: assembled independently on the
/// reference and compiled tiers, byte-compared, and returned only when the
/// two documents are identical.
pub fn pinned_demo_incident(window: usize) -> Result<IncidentDoc, String> {
    let r = demo_incident(ExecTier::Reference, window);
    let c = demo_incident(ExecTier::Compiled, window);
    let (rj, cj) = (r.put().to_compact(), c.put().to_compact());
    if rj != cj {
        return Err(format!(
            "cross-tier pin violated: reference and compiled forensics differ\n\
             reference: {rj}\ncompiled:  {cj}"
        ));
    }
    Ok(r)
}

/// `repro audit --demo-oob [--window N] [--json FILE] [--ascii FILE]
/// [--svg FILE]`: emit a cross-tier-pinned `sgxs-incident-v1` artifact for
/// the demo OOB detection. Exits 1 when the demo violation was not
/// detected (the forensic pipeline is then demonstrably broken).
pub fn run_audit(args: &[String]) -> Result<i32, String> {
    let mut demo = false;
    let mut window = DEFAULT_TRACE_WINDOW;
    let mut json: Option<String> = None;
    let mut ascii: Option<String> = None;
    let mut svg: Option<String> = None;
    let mut it = Args::new("audit", args);
    while let Some(a) = it.next_arg() {
        match a {
            "--demo-oob" => demo = true,
            "--window" => window = it.parse("--window")?,
            "--json" => json = Some(it.value("--json")?),
            "--ascii" => ascii = Some(it.value("--ascii")?),
            "--svg" => svg = Some(it.value("--svg")?),
            other => return Err(it.fail(format!("unknown argument '{other}'\n{USAGE}"))),
        }
    }
    if !demo {
        return Err(it.fail(format!(
            "--demo-oob is required (the only incident source this \
             subcommand drives today)\n{USAGE}"
        )));
    }
    if window == 0 {
        return Err(it.fail("--window must be at least 1"));
    }
    let inc = pinned_demo_incident(window).map_err(|e| it.fail(e))?;
    let text = inc.put().to_pretty();
    // Self-validation: the emitted artifact must round-trip through the
    // validating reader before anything is written; every view renders
    // the parsed document.
    let doc = parse_incident(&text)
        .map_err(|e| it.fail(format!("emitted incident fails its own reader: {e}")))?;
    let view = doc.render();
    print!("{view}");
    println!("cross-tier pin: reference and compiled forensics byte-identical");
    if let Some(path) = &json {
        write_file(path, &text).map_err(|e| it.fail(e))?;
        println!("incident json written to {path}");
    }
    if let Some(path) = &ascii {
        write_file(path, &view).map_err(|e| it.fail(e))?;
        println!("incident ascii written to {path}");
    }
    if let Some(path) = &svg {
        write_file(path, &sgxs_perf::incident_svg(&doc)).map_err(|e| it.fail(e))?;
        println!("incident svg written to {path}");
    }
    Ok(if doc.verdict == "detected" { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_incident_is_detected_pinned_and_self_validating() {
        let inc = pinned_demo_incident(DEFAULT_TRACE_WINDOW).expect("cross-tier pin holds");
        assert_eq!(inc.verdict, "detected", "sgxbounds must catch the demo");
        let fault = inc.fault.as_ref().expect("detection carries a fault");
        // The demo reads one element past a 40-byte object. The ledger
        // records the *backing* allocation — 40 user bytes plus the 4-byte
        // UB footer SGXBounds appends — so the decoded fault pointer sits
        // exactly at the user upper bound, *inside* the backing object: the
        // OOB read would have landed in the bounds metadata itself.
        assert_eq!(fault.size, 8);
        assert_eq!(
            fault.ptr, fault.tag_ub,
            "load exactly at the user upper bound"
        );
        let n0 = inc
            .heap
            .neighborhood
            .first()
            .expect("the overflowed object is a neighbour");
        assert_eq!(n0.relation, "contains");
        assert_eq!(n0.distance, 0, "the fault address is inside the footer");
        assert_eq!(n0.size, 44, "40 user bytes + 4-byte UB footer");
        assert!(
            !inc.derivation.is_empty(),
            "the static lint contributes the derivation chain"
        );
        // Round trip through the validating reader.
        let doc = parse_incident(&inc.put().to_pretty()).expect("self-validates");
        assert_eq!(doc.origin, "audit");
        assert_eq!(doc.tier, "pinned");
        // Rerun stability: the artifact (id included) is byte-identical.
        let again = pinned_demo_incident(DEFAULT_TRACE_WINDOW).expect("pin holds again");
        assert_eq!(
            inc.put().to_pretty(),
            again.put().to_pretty(),
            "audit artifact is not rerun-stable"
        );
    }
}
