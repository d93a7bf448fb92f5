//! `repro lint`: the static OOB + temporal lint over workload modules.
//!
//! Builds each requested workload *uninstrumented*, runs the
//! `sgxs-analyze` classification, and reports every access the analysis
//! proves out of bounds. With `--ipa` the interprocedural tier runs too:
//! call-graph summaries are computed, facts survive call boundaries, and
//! proved temporal violations (use-after-free, double-free, leak) are
//! reported alongside the spatial findings. `--json` writes a
//! `sgxs-lint-v1` document (v2 with `--ipa`) that round-trips through the
//! validating reader in `sgxs_obs::read::parse_lint` before it is written;
//! stdout is the parsed document's text view (`LintDoc::render`): a
//! per-module summary plus one diagnostic line per finding. The exit code
//! is nonzero iff any module has a proved-OOB, proved-UAF, or
//! proved-double-free access, so the command doubles as a CI gate (leaks
//! are informational).
//!
//! Linting never executes workload code, so its output is byte-identical
//! across execution tiers by construction and the command takes no
//! `--tier` (`tests/lint_determinism.rs` locks the invariance in).

use crate::cli::Args;
use crate::scheme::RunConfig;
use sgxs_analyze::{lint_module, lint_module_ipa, LintReport, RetSummary, Summaries};
use sgxs_mir::{Module, ModuleBuilder, Operand, Ty};
use sgxs_obs::codec::Field;
use sgxs_obs::json::Json;
use sgxs_obs::read::{
    LintCgNode, LintDoc, LintFinding, LintModule, LintSummary, LintTemporal, LINT_SCHEMA,
    LINT_SCHEMA_V2,
};
use sgxs_sim::Preset;
use sgxs_workloads::SizeClass;

/// A committed, provably out-of-bounds module: a 5-element heap array
/// written in bounds, then read one element past the end. The lint must
/// flag exactly the final load — used by tests and `repro lint --demo-oob`
/// to prove the gate actually fires.
pub fn oob_demo() -> Module {
    let mut mb = ModuleBuilder::new("oob-demo");
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let p = fb.intr_ptr("malloc", &[Operand::Imm(40)]);
        fb.count_loop(0u64, 5u64, |fb, i| {
            let a = fb.gep(p, i, 8, 0);
            fb.store(Ty::I64, a, i);
        });
        // One past the end: offset 40 in a 40-byte object.
        let oob = fb.gep(p, 5u64, 8, 0);
        let v = fb.load(Ty::I64, oob);
        fb.ret(Some(v.into()));
    });
    mb.finish()
}

/// A committed, provably temporally-unsafe module: `main` allocates,
/// hands the pointer to a helper that frees it on every path, then uses
/// it again — a cross-call use-after-free only the interprocedural tier
/// can prove. Used by tests and `repro lint --demo-uaf` to prove the
/// temporal gate fires.
pub fn uaf_demo() -> Module {
    let mut mb = ModuleBuilder::new("uaf-demo");
    let release = mb.func("release", &[Ty::Ptr], None, |fb| {
        let p = fb.param(0);
        fb.intr_void("free", &[p.into()]);
        fb.ret(None);
    });
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
        fb.store(Ty::I64, p, 7u64);
        fb.call(release, &[p.into()]);
        // The helper must-frees its argument: this load is a proved UAF.
        let v = fb.load(Ty::I64, p);
        fb.ret(Some(v.into()));
    });
    mb.finish()
}

fn finding_doc(f: &sgxs_analyze::Finding) -> LintFinding {
    LintFinding {
        function: f.function.clone(),
        block: f.block.into(),
        inst: f.inst.into(),
        site: f.site.into(),
        kind: f.kind.into(),
        width: f.width.into(),
        object: f.object.clone(),
        offset_lo: f.offset.map(|o| o.0),
        offset_hi: f.offset.map(|o| o.1),
        ir: f.ir.clone(),
    }
}

fn temporal_doc(t: &sgxs_analyze::TemporalFinding) -> LintTemporal {
    LintTemporal {
        function: t.function.clone(),
        block: t.block.into(),
        inst: t.inst.into(),
        site: t.site.into(),
        kind: t.kind.into(),
        alloc_site: t.alloc_site.into(),
        object: t.object.clone(),
        ir: t.ir.clone(),
    }
}

fn interval_str(iv: &sgxs_analyze::Interval) -> String {
    if *iv == sgxs_analyze::Interval::TOP {
        "[?]".to_owned()
    } else if iv.lo == iv.hi {
        format!("[{}]", iv.lo)
    } else {
        format!("[{},{}]", iv.lo, iv.hi)
    }
}

fn ret_str(r: &RetSummary) -> String {
    match r {
        RetSummary::Top => "top".to_owned(),
        RetSummary::Num(iv) => format!("num{}", interval_str(iv)),
        RetSummary::Param { index, off } => format!("param{}+{}", index, interval_str(off)),
        RetSummary::Global { id, size, off } => {
            format!("global#{}({}B)+{}", id, size, interval_str(off))
        }
        RetSummary::FreshAlloc { size, escaped } => {
            format!("fresh({}B{})", size, if *escaped { ",escaped" } else { "" })
        }
    }
}

fn ipa_docs(m: &Module, s: &Summaries) -> (Vec<LintCgNode>, Vec<LintSummary>) {
    let name = |f: u32| m.funcs[f as usize].name.clone();
    let mut nodes = Vec::new();
    let mut sums = Vec::new();
    for fi in 0..m.funcs.len() {
        nodes.push(LintCgNode {
            func: name(fi as u32),
            callees: s.graph.callees[fi].iter().map(|c| name(*c)).collect(),
            scc: s.graph.scc_of[fi] as u64,
            unresolved: s.graph.unresolved[fi],
        });
        let f = &s.funcs[fi];
        sums.push(LintSummary {
            func: name(fi as u32),
            ret: ret_str(&f.ret),
            frees_params: f.frees_params.clone(),
            must_frees_params: f.must_frees_params.clone(),
            captures_params: f.captures_params.clone(),
            frees_unknown: f.frees_unknown,
            heap_benign: f.heap_benign(),
        });
    }
    (nodes, sums)
}

/// One module block; `ipa` carries the v2 call graph and summaries.
fn module_doc(r: &LintReport, ipa: Option<(Vec<LintCgNode>, Vec<LintSummary>)>) -> LintModule {
    let is_v2 = ipa.is_some();
    let v2 = |n: usize| is_v2.then_some(n as u64);
    let temporal = is_v2.then(|| r.temporal.iter().map(temporal_doc).collect());
    let (call_graph, summaries) = ipa.unzip();
    LintModule {
        module: r.module.clone(),
        sites: r.sites() as u64,
        proved_safe: r.proved_safe as u64,
        unknown: r.unknown as u64,
        proved_oob: r.proved_oob as u64,
        proved_uaf: v2(r.proved_uaf),
        proved_df: v2(r.proved_df),
        leaks: v2(r.leaks),
        findings: r.findings.iter().map(finding_doc).collect(),
        temporal,
        call_graph,
        summaries,
    }
}

/// Everything one lint run produces, computed purely from the modules (no
/// I/O, no clock, no tier dependence) — the unit the determinism test
/// byte-compares.
pub struct LintOutcome {
    /// The `sgxs-lint-v1`/`-v2` JSON document.
    pub doc: Json,
    /// Total proved-OOB across modules.
    pub oob: usize,
    /// Total proved use-after-free across modules.
    pub uaf: usize,
    /// Total proved double-free across modules.
    pub df: usize,
    /// Total proved leaks across modules (informational).
    pub leaks: usize,
}

impl LintOutcome {
    /// The process exit code: nonzero iff a proved violation (not a leak)
    /// exists.
    pub fn exit_code(&self) -> i32 {
        if self.oob + self.uaf + self.df > 0 {
            1
        } else {
            0
        }
    }
}

/// Lints `modules` and assembles the outcome document. With `ipa`, the
/// interprocedural tier runs and the document is `sgxs-lint-v2`.
pub fn lint_modules(modules: Vec<Module>, seed: u64, ipa: bool) -> LintOutcome {
    let mut reports = Vec::new();
    let mut blocks = Vec::new();
    for mut m in modules {
        let (r, extra) = if ipa {
            let (r, summaries) = lint_module_ipa(&mut m);
            let extra = ipa_docs(&m, &summaries);
            (r, Some(extra))
        } else {
            (lint_module(&mut m), None)
        };
        blocks.push(module_doc(&r, extra));
        reports.push(r);
    }
    let sum = |f: fn(&LintReport) -> usize| reports.iter().map(f).sum::<usize>();
    let (oob, uaf, df, leaks) = (
        sum(|r| r.proved_oob),
        sum(|r| r.proved_uaf),
        sum(|r| r.proved_df),
        sum(|r| r.leaks),
    );
    let v2 = |n: usize| ipa.then_some(n as u64);
    let doc = LintDoc {
        schema: if ipa { LINT_SCHEMA_V2 } else { LINT_SCHEMA }.into(),
        seed,
        ipa: ipa.then_some(true),
        proved_oob: oob as u64,
        proved_uaf: v2(uaf),
        proved_df: v2(df),
        leaks: v2(leaks),
        modules: blocks,
    };
    LintOutcome {
        doc: doc.put(),
        oob,
        uaf,
        df,
        leaks,
    }
}

/// `repro lint [NAMES...] [--ipa] [--demo-oob] [--demo-uaf] [--ascii]
/// [--json FILE] [--incident FILE] [--seed N]`: lints workload
/// modules (all benchmarks by default) and exits 1 on any proved-OOB,
/// proved-UAF, or proved-double-free access. `--demo-uaf` implies
/// `--ipa` (only the interprocedural tier proves it). With `--demo-oob`,
/// `--incident` additionally runs the demo under SGXBounds with the
/// forensic ledger attached and writes the detection as a
/// cross-tier-pinned `sgxs-incident-v1` artifact. `--ascii` adds each
/// module's call graph and summaries to the text view.
pub fn run_lint(args: &[String]) -> Result<i32, String> {
    let mut json: Option<String> = None;
    let mut incident: Option<String> = None;
    let mut demo = false;
    let mut demo_uaf = false;
    let mut ipa = false;
    let mut ascii = false;
    let mut names: Vec<String> = Vec::new();
    let mut seed = crate::exp::DEFAULT_SEED;
    let mut it = Args::new("lint", args);
    while let Some(a) = it.next_arg() {
        match a {
            "--json" => json = Some(it.value("--json")?),
            "--incident" => incident = Some(it.value("--incident")?),
            "--demo-oob" => demo = true,
            "--demo-uaf" => {
                demo_uaf = true;
                ipa = true;
            }
            "--ipa" => ipa = true,
            "--ascii" => ascii = true,
            "--seed" => seed = it.parse("--seed")?,
            other if !other.starts_with('-') => names.push(other.to_owned()),
            other => return Err(it.fail(format!("unknown argument '{other}'"))),
        }
    }
    if incident.is_some() && !demo {
        return Err(it.fail("--incident requires --demo-oob (the demo is the incident source)"));
    }

    // Workload modules are built exactly as the experiments build them,
    // just never instrumented: the lint sees the application IR.
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    rc.params.seed = seed;
    let mut modules: Vec<Module> = Vec::new();
    if demo {
        modules.push(oob_demo());
    }
    if demo_uaf {
        modules.push(uaf_demo());
    }
    if names.is_empty() {
        if !demo && !demo_uaf {
            for w in sgxs_workloads::all_benchmarks() {
                modules.push(w.build(&rc.params));
            }
        }
    } else {
        for name in &names {
            let Some(w) = sgxs_workloads::by_name(name) else {
                return Err(it.fail(format!("unknown workload '{name}'")));
            };
            modules.push(w.build(&rc.params));
        }
    }

    // Every emitted document must survive its own validating reader; the
    // text view renders from the parsed form, proving the round trip.
    let out = lint_modules(modules, seed, ipa);
    let parsed = sgxs_obs::read::lint_from_json(&out.doc)
        .map_err(|e| it.fail(format!("emitted document failed validation: {e}")))?;
    print!("{}", parsed.render(ascii));

    if let Some(path) = &json {
        crate::cli::write_file(path, &out.doc.to_pretty()).map_err(|e| it.fail(e))?;
        println!("lint json written to {path}");
    }
    if let Some(path) = &incident {
        let inc = crate::audit::pinned_demo_incident(sgxs_audit::DEFAULT_TRACE_WINDOW)
            .map_err(|e| it.fail(e))?;
        crate::cli::write_file(path, &inc.put().to_pretty()).map_err(|e| it.fail(e))?;
        println!("incident json written to {path} (id {})", inc.id);
    }
    Ok(out.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_module_is_provably_oob() {
        let mut m = oob_demo();
        let r = lint_module(&mut m);
        assert_eq!(r.proved_oob, 1, "{r:?}");
        assert_eq!(r.findings[0].kind, "load");
        assert_eq!(r.findings[0].offset, Some((40, 40)));
    }

    #[test]
    fn uaf_demo_is_provably_temporal_and_gates_the_exit_code() {
        let out = lint_modules(vec![uaf_demo()], 42, true);
        assert_eq!(out.uaf, 1, "{}", out.doc.to_pretty());
        assert_eq!(out.oob, 0);
        assert_eq!(out.exit_code(), 1);
        // The emitted v2 document parses through the validating reader and
        // carries the summary that proved the violation.
        let doc = sgxs_obs::read::lint_from_json(&out.doc).expect("v2 validates");
        assert_eq!(doc.schema, "sgxs-lint-v2");
        assert_eq!(doc.proved_uaf, Some(1));
        let m = &doc.modules[0];
        let summaries = m.summaries.as_ref().unwrap();
        let release = summaries.iter().find(|s| s.func == "release").unwrap();
        assert_eq!(release.must_frees_params, vec![true]);
        let call_graph = m.call_graph.as_ref().unwrap();
        let main = call_graph.iter().find(|n| n.func == "main").unwrap();
        assert_eq!(main.callees, vec!["release".to_owned()]);
        // Without the interprocedural tier the violation is invisible.
        let intra = lint_modules(vec![uaf_demo()], 42, false);
        assert_eq!(intra.exit_code(), 0);
    }

    #[test]
    fn unknown_offsets_serialize_as_null_not_full_range() {
        // A parameter-relative OOB proof has no absolute offset; make one
        // via an obviously-underflowing gep on a known allocation freed
        // of its interval... simplest path: check the JSON writer maps
        // None to null via a synthetic finding.
        let f = sgxs_analyze::Finding {
            function: "f".into(),
            block: 0,
            inst: 0,
            site: 0,
            kind: "load",
            width: 8,
            object: "?".into(),
            offset: None,
            ir: "r0 = load.i64 [r1]".into(),
        };
        let j = finding_doc(&f).put();
        assert!(j.get("offset_lo").unwrap().as_u64().is_none());
        assert!(j.to_compact().contains("\"offset_lo\":null"));
    }
}
