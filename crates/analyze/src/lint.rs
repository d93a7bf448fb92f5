//! Static lint: classifies every access site in a module, plus (with
//! interprocedural summaries) proved temporal violations.
//!
//! Each access is `proved-safe`, `proved-oob`, or `unknown` per the
//! provenance analysis. Proved-OOB sites are registered in the module's
//! check-site registry (kind `"lint_oob"`) so diagnostics share the same
//! site-id space the observability layer uses, and each finding quotes the
//! exact textual IR line of the offending instruction. [`lint_module_ipa`]
//! additionally runs the call-graph-aware analysis and reports proved
//! use-after-free (`lint_uaf`), double-free (`lint_df`), and leak
//! (`lint_leak`) findings.
//!
//! Linting is idempotent: re-running on the same module reuses the
//! already-registered `lint_*` check sites (in registration order)
//! instead of double-registering them.

use crate::ipa::{self, Summaries};
use crate::prov::{facts_for, Class, Referent, TemporalKind};
use sgxs_mir::display::print_inst;
use sgxs_mir::ir::Module;
use std::collections::{HashMap, VecDeque};

/// One diagnosed access site (always `proved-oob`).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Enclosing function name.
    pub function: String,
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
    /// Check-site id registered for this finding (kind `lint_oob`).
    pub site: u32,
    /// `"load"`, `"store"`, `"rmw"`, or `"cas"`.
    pub kind: &'static str,
    /// Access width in bytes.
    pub width: u8,
    /// Human-readable object description, e.g. `alloc#0(40B)`.
    pub object: String,
    /// Proven offset bounds `[lo, hi]` relative to the object base, when
    /// the offset interval is known (rendered `?` otherwise).
    pub offset: Option<(u64, u64)>,
    /// The textual IR of the offending instruction.
    pub ir: String,
}

/// One proved temporal violation (use-after-free, double-free, or leak).
#[derive(Debug, Clone)]
pub struct TemporalFinding {
    /// Enclosing function name.
    pub function: String,
    /// Block index within the function.
    pub block: u32,
    /// Instruction index within the block (the access for `uaf`, the
    /// second free for `df`, the allocation for `leak`).
    pub inst: u32,
    /// Check-site id registered for this finding.
    pub site: u32,
    /// `"uaf"`, `"df"`, or `"leak"`.
    pub kind: &'static str,
    /// Allocation-site number within the function.
    pub alloc_site: u32,
    /// Human-readable object description, e.g. `alloc#0(40B)`.
    pub object: String,
    /// The textual IR of the anchoring instruction.
    pub ir: String,
}

/// Lint result for one module.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Module name.
    pub module: String,
    /// Sites proven in-bounds on every execution.
    pub proved_safe: usize,
    /// Sites the analysis could not decide.
    pub unknown: usize,
    /// Sites proven out-of-bounds (also listed in `findings`).
    pub proved_oob: usize,
    /// One entry per proved-OOB site.
    pub findings: Vec<Finding>,
    /// Proved use-after-free count (interprocedural mode).
    pub proved_uaf: usize,
    /// Proved double-free count (interprocedural mode).
    pub proved_df: usize,
    /// Proved leak count (interprocedural mode; informational).
    pub leaks: usize,
    /// One entry per proved temporal violation.
    pub temporal: Vec<TemporalFinding>,
}

impl LintReport {
    /// Total classified access sites.
    pub fn sites(&self) -> usize {
        self.proved_safe + self.unknown + self.proved_oob
    }
}

fn describe(referent: &Referent) -> String {
    match referent {
        Referent::Slot { id, size } => format!("slot#{id}({size}B)"),
        Referent::Global { id, size } => format!("global#{id}({size}B)"),
        Referent::Alloc { site, size } => format!("alloc#{site}({size}B)"),
        Referent::Narrow { site, size } => format!("narrow#{site}({size}B)"),
    }
}

/// Hands out check-site ids for lint findings, reusing sites a previous
/// lint run already registered (in registration order) so repeated runs
/// are idempotent.
struct SitePool {
    existing: HashMap<(String, &'static str), VecDeque<u32>>,
}

impl SitePool {
    fn new(m: &Module, kinds: &[&'static str]) -> Self {
        let mut existing: HashMap<(String, &'static str), VecDeque<u32>> = HashMap::new();
        for (id, cs) in m.check_sites.iter().enumerate() {
            if let Some(kind) = kinds.iter().find(|k| cs.kind == **k) {
                existing
                    .entry((cs.func.clone(), kind))
                    .or_default()
                    .push_back(id as u32);
            }
        }
        SitePool { existing }
    }

    fn claim(&mut self, m: &mut Module, func: &str, kind: &'static str) -> u32 {
        if let Some(q) = self.existing.get_mut(&(func.to_owned(), kind)) {
            if let Some(id) = q.pop_front() {
                return id;
            }
        }
        m.add_check_site(func, kind)
    }
}

const LINT_KINDS: [&str; 4] = ["lint_oob", "lint_uaf", "lint_df", "lint_leak"];

/// Classifies every access site of `m` (intraprocedurally). Proved-OOB
/// sites register a `lint_oob` check site; repeated runs reuse them.
pub fn lint_module(m: &mut Module) -> LintReport {
    lint_impl(m, None)
}

/// Interprocedural lint: computes call-graph summaries, takes every
/// access classification from the facts they carry, and reports proved
/// temporal violations (kinds `lint_uaf`/`lint_df`/`lint_leak`). Leaks in
/// `main` are not reported — a top-level entry point's live-at-exit
/// objects are reclaimed wholesale. Returns the report plus the
/// summaries.
pub fn lint_module_ipa(m: &mut Module) -> (LintReport, Summaries) {
    let summaries = ipa::summarize(m);
    let report = lint_impl(m, Some(&summaries));
    (report, summaries)
}

fn lint_impl(m: &mut Module, summaries: Option<&Summaries>) -> LintReport {
    let mut report = LintReport {
        module: m.name.clone(),
        ..LintReport::default()
    };
    let mut pool = SitePool::new(m, &LINT_KINDS);
    for fi in 0..m.funcs.len() {
        let facts = facts_for(m, fi, summaries);
        for fact in &facts.access {
            match fact.class {
                Class::Safe => report.proved_safe += 1,
                Class::Unknown => report.unknown += 1,
                Class::Oob => {
                    report.proved_oob += 1;
                    let func = m.funcs[fi].name.clone();
                    let site = pool.claim(m, &func, "lint_oob");
                    let inst = &m.funcs[fi].blocks[fact.block as usize].insts[fact.inst as usize];
                    report.findings.push(Finding {
                        function: func,
                        block: fact.block,
                        inst: fact.inst,
                        site,
                        kind: fact.kind,
                        width: fact.width,
                        object: fact
                            .referent
                            .as_ref()
                            .map(describe)
                            .unwrap_or_else(|| "?".to_owned()),
                        offset: fact.offset,
                        ir: print_inst(inst),
                    });
                }
            }
        }
        for t in &facts.temporal {
            let func = m.funcs[fi].name.clone();
            let (kind, site_kind) = match t.kind {
                TemporalKind::UseAfterFree => ("uaf", "lint_uaf"),
                TemporalKind::DoubleFree => ("df", "lint_df"),
                TemporalKind::Leak => ("leak", "lint_leak"),
            };
            if t.kind == TemporalKind::Leak && func == "main" {
                continue;
            }
            match t.kind {
                TemporalKind::UseAfterFree => report.proved_uaf += 1,
                TemporalKind::DoubleFree => report.proved_df += 1,
                TemporalKind::Leak => report.leaks += 1,
            }
            let site = pool.claim(m, &func, site_kind);
            let inst = &m.funcs[fi].blocks[t.block as usize].insts[t.inst as usize];
            report.temporal.push(TemporalFinding {
                function: func,
                block: t.block,
                inst: t.inst,
                site,
                kind,
                alloc_site: t.site,
                object: format!("alloc#{}({}B)", t.site, t.size),
                ir: print_inst(inst),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::builder::ModuleBuilder;
    use sgxs_mir::ir::Operand;
    use sgxs_mir::ty::Ty;

    fn demo() -> Module {
        let mut mb = ModuleBuilder::new("demo");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(40)]);
            fb.store(Ty::I64, p, 1u64);
            let oob = fb.gep(p, 5u64, 8, 0);
            let v = fb.load(Ty::I64, oob);
            fb.ret(Some(v.into()));
        });
        mb.finish()
    }

    #[test]
    fn clean_module_has_no_findings_and_oob_is_diagnosed() {
        let mut m = demo();
        let sites_before = m.check_sites.len();
        let report = lint_module(&mut m);
        assert_eq!(report.proved_safe, 1);
        assert_eq!(report.proved_oob, 1);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.function, "main");
        assert_eq!(f.kind, "load");
        assert_eq!(f.object, "alloc#0(40B)");
        assert_eq!(f.offset, Some((40, 40)));
        assert!(f.ir.contains("load"), "ir line: {}", f.ir);
        // The finding is registered in the shared site registry.
        assert_eq!(m.check_sites.len(), sites_before + 1);
        assert_eq!(m.check_sites[f.site as usize].kind, "lint_oob");
    }

    #[test]
    fn relinting_reuses_registered_sites() {
        let mut m = demo();
        let first = lint_module(&mut m);
        let sites_after_first = m.check_sites.len();
        let second = lint_module(&mut m);
        // Identical report, no new registrations.
        assert_eq!(m.check_sites.len(), sites_after_first);
        assert_eq!(first.findings[0].site, second.findings[0].site);
        assert_eq!(first.proved_oob, second.proved_oob);
        // A third interprocedural run still registers nothing new for the
        // spatial finding (temporal kinds get their own fresh sites once).
        let (third, _) = lint_module_ipa(&mut m);
        assert_eq!(third.findings[0].site, first.findings[0].site);
        let after_ipa = m.check_sites.len();
        let (fourth, _) = lint_module_ipa(&mut m);
        assert_eq!(m.check_sites.len(), after_ipa);
        assert_eq!(fourth.findings[0].site, first.findings[0].site);
    }

    #[test]
    fn ipa_lint_reports_temporal_findings() {
        let mut mb = ModuleBuilder::new("t");
        let release = mb.func("release", &[Ty::Ptr], None, |fb| {
            let p = fb.param(0);
            fb.intr_void("free", &[p.into()]);
            fb.ret(None);
        });
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
            fb.store(Ty::I64, p, 7u64);
            fb.call(release, &[p.into()]);
            let v = fb.load(Ty::I64, p);
            fb.ret(Some(v.into()));
        });
        let mut m = mb.finish();
        let _ = release;
        let (report, summaries) = lint_module_ipa(&mut m);
        assert_eq!(report.proved_uaf, 1, "{report:?}");
        assert_eq!(report.proved_df, 0);
        let t = &report.temporal[0];
        assert_eq!(t.kind, "uaf");
        assert_eq!(t.function, "main");
        assert_eq!(t.object, "alloc#0(24B)");
        assert_eq!(m.check_sites[t.site as usize].kind, "lint_uaf");
        assert_eq!(summaries.funcs[0].must_frees_params, vec![true]);
        // Leaks in main are suppressed by policy.
        assert_eq!(report.leaks, 0);
    }

    #[test]
    fn leak_in_helper_is_reported_but_not_in_main() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("hoard", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.store(Ty::I64, p, 1u64);
            fb.ret(None);
        });
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            fb.store(Ty::I64, p, 1u64);
            fb.ret(None);
        });
        let mut m = mb.finish();
        let (report, _) = lint_module_ipa(&mut m);
        assert_eq!(report.leaks, 1, "{report:?}");
        assert_eq!(report.temporal[0].function, "hoard");
        assert_eq!(report.temporal[0].kind, "leak");
    }
}
