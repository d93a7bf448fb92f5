//! The interprocedural flow tier strictly dominates the intraprocedural
//! one on the Fig. 10 workloads, and the extra elisions are sound.
//!
//! * **dominance**: on every Phoenix/PARSEC module, the summary-driven
//!   tier (`mark_safe_flow_with`/`elide_redundant_checks_with`) proves at
//!   least as many safe accesses and elides at least as many redundant
//!   checks as the summary-free tier, and at least one workload gains
//!   strictly (a cross-call win the intraprocedural analysis cannot see);
//! * **soundness**: with the interprocedural tier enabled (the default
//!   `flow_elide` path), every Fig. 10 workload still computes the same
//!   result as the completely unoptimized SGXBounds scheme;
//! * **one solve**: the facts `summarize` carries for each function are
//!   the ones a fresh summary-aware solve produces, and
//!   `mark_safe_flow_with` marks exactly the sites they prove safe.

use sgxbounds::SbConfig;
use sgxs_analyze::{function_facts, mark_safe_flow_with, summarize, Class};
use sgxs_fuzz::gen;
use sgxs_fuzz::inject::{inject, inject_temporal, ALL_KINDS, TEMPORAL_KINDS};
use sgxs_harness::{run_one, RunConfig, Scheme};
use sgxs_mir::builder::ModuleBuilder;
use sgxs_mir::{AccessAttrs, CmpOp, Inst, Module, Operand, Ty};
use sgxs_sim::Preset;
use sgxs_workloads::SizeClass;

fn params() -> sgxs_workloads::Params {
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    rc.params
}

#[test]
fn interprocedural_tier_dominates_intraprocedural_on_fig10_modules() {
    let params = params();
    let mut strict_wins = Vec::new();
    for w in sgxs_workloads::phoenix_parsec() {
        let base = w.build(&params);

        let mut intra = base.clone();
        let marked_intra = sgxs_analyze::mark_safe_flow(&mut intra);
        let elided_intra = sgxs_analyze::elide_redundant_checks(&mut intra);

        let mut inter = base.clone();
        let summaries = sgxs_analyze::summarize(&inter);
        let marked_inter = sgxs_analyze::mark_safe_flow_with(&mut inter, Some(&summaries));
        let elided_inter = sgxs_analyze::elide_redundant_checks_with(&mut inter, Some(&summaries));

        assert!(
            marked_inter >= marked_intra && elided_inter >= elided_intra,
            "{}: summaries lost facts (marked {marked_intra}->{marked_inter}, \
             elided {elided_intra}->{elided_inter})",
            w.name()
        );
        if marked_inter > marked_intra || elided_inter > elided_intra {
            strict_wins.push(w.name().to_owned());
        }
    }
    // The spawn-aware summaries prove post-join accesses to buffers whose
    // workers are heap-benign; these three rely on it today.
    for expect in ["kmeans", "ferret", "vips"] {
        assert!(
            strict_wins.iter().any(|n| n == expect),
            "{expect} lost its cross-call elision win (wins: {strict_wins:?})"
        );
    }
}

#[test]
fn interprocedural_elision_preserves_fig10_results() {
    let off = SbConfig {
        safe_access_opt: false,
        hoist_opt: false,
        boundless: false,
        narrow_bounds: false,
        site_markers: false,
        flow_elide: false,
    };
    let flow = SbConfig {
        flow_elide: true,
        ..SbConfig::default()
    };
    let mut rc = RunConfig::new(Preset::Tiny);
    rc.params.size = SizeClass::XS;
    for w in sgxs_workloads::phoenix_parsec() {
        let noopt = run_one(w.as_ref(), Scheme::SgxBoundsCustom(off), &rc);
        let elided = run_one(w.as_ref(), Scheme::SgxBoundsCustom(flow), &rc);
        assert_eq!(
            noopt.result,
            elided.result,
            "{}: interprocedural elision changed the result",
            w.name()
        );
    }
}

/// Call-graph shapes that take the summary fixpoint off its one-round
/// path: a recursive SCC (a self edge and a two-function cycle), an
/// indirect call, a heap-benign spawn, a freeing spawn, and a direct call
/// that sits in an unreachable block and so is no call-graph edge.
fn ipa_shapes() -> Vec<Module> {
    let mut shapes = Vec::new();

    // `owner` is summarized before `make` (no edge joins them), but its
    // dead call to `make` still numbers an allocation site ahead of its
    // own leaking `malloc` once `make` is known to return a fresh object.
    let mut mb = ModuleBuilder::new("dead_call");
    let owner = mb.declare("owner", &[], None);
    let make = mb.declare("make", &[], Some(Ty::Ptr));
    mb.define(owner, |fb| {
        let (dead, live) = (fb.block(), fb.block());
        fb.jmp(live);
        fb.switch_to(dead);
        let q = fb.call(make, &[]).expect("returns");
        fb.store(Ty::I64, q, 1u64);
        fb.ret(None);
        fb.switch_to(live);
        let p = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
        fb.store(Ty::I64, p, 2u64);
        fb.ret(None);
    });
    mb.define(make, |fb| {
        let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
        fb.ret(Some(p.into()));
    });
    shapes.push(mb.finish());

    // selfrec frees its argument on the base case, so the access after the
    // recursive call is only unproven once the SCC's second round reads
    // the first round's summary.
    let mut mb = ModuleBuilder::new("selfrec");
    let selfrec = mb.declare("selfrec", &[Ty::Ptr, Ty::I64], Some(Ty::I64));
    mb.define(selfrec, |fb| {
        let p = fb.param(0);
        let n = fb.param(1);
        let (done, more) = (fb.block(), fb.block());
        let cond = fb.cmp(CmpOp::Eq, n, 0u64);
        fb.br(cond, done, more);
        fb.switch_to(done);
        fb.intr_void("free", &[p.into()]);
        fb.ret(Some(Operand::Imm(0)));
        fb.switch_to(more);
        let q = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
        let n1 = fb.sub(n, 1u64);
        fb.call(selfrec, &[q.into(), n1.into()]);
        let v = fb.load(Ty::I64, q);
        fb.ret(Some(v.into()));
    });
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let p = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
        let r = fb
            .call(selfrec, &[p.into(), Operand::Imm(3)])
            .expect("returns");
        fb.ret(Some(r.into()));
    });
    shapes.push(mb.finish());

    // ping <-> pong: a two-member SCC where only pong frees.
    let mut mb = ModuleBuilder::new("pingpong");
    let ping = mb.declare("ping", &[Ty::Ptr, Ty::I64], None);
    let pong = mb.declare("pong", &[Ty::Ptr, Ty::I64], None);
    mb.define(ping, |fb| {
        let p = fb.param(0);
        let n = fb.param(1);
        let q = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
        fb.call(pong, &[q.into(), n.into()]);
        fb.store(Ty::I64, q, 1u64);
        fb.store(Ty::I64, p, 2u64);
        fb.ret(None);
    });
    mb.define(pong, |fb| {
        let p = fb.param(0);
        let n = fb.param(1);
        let (done, more) = (fb.block(), fb.block());
        let cond = fb.cmp(CmpOp::Eq, n, 0u64);
        fb.br(cond, done, more);
        fb.switch_to(done);
        fb.intr_void("free", &[p.into()]);
        fb.ret(None);
        fb.switch_to(more);
        let n1 = fb.sub(n, 1u64);
        fb.call(ping, &[p.into(), n1.into()]);
        fb.ret(None);
    });
    shapes.push(mb.finish());

    let mut mb = ModuleBuilder::new("indirect");
    let cb = mb.func("cb", &[Ty::Ptr], Some(Ty::I64), |fb| {
        let p = fb.param(0);
        let v = fb.load(Ty::I64, p);
        fb.ret(Some(v.into()));
    });
    mb.func("main", &[], Some(Ty::I64), |fb| {
        let p = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
        let a = fb.func_addr(cb);
        let r = fb
            .call_indirect(a, &[p.into()], Some(Ty::I64))
            .expect("returns");
        fb.store(Ty::I64, p, 1u64);
        fb.ret(Some(r.into()));
    });
    shapes.push(mb.finish());

    for (name, frees) in [("benign_spawn", false), ("freeing_spawn", true)] {
        let mut mb = ModuleBuilder::new(name);
        let worker = mb.func("worker", &[Ty::Ptr], Some(Ty::I64), |fb| {
            let p = fb.param(0);
            if frees {
                fb.intr_void("free", &[p.into()]);
                fb.ret(Some(Operand::Imm(0)));
            } else {
                let v = fb.load(Ty::I64, p);
                fb.ret(Some(v.into()));
            }
        });
        mb.func("main", &[], None, |fb| {
            let buf = fb.intr_ptr("malloc", &[Operand::Imm(16)]);
            let wf = fb.func_addr(worker);
            let t = fb.intr("spawn", &[wf.into(), buf.into()]);
            fb.intr("join", &[t.into()]);
            fb.store(Ty::I64, buf, 1u64);
            fb.ret(None);
        });
        shapes.push(mb.finish());
    }
    shapes
}

/// `summarize` takes each function's facts from its SCC's final round, so
/// they equal a fresh `function_facts` against the finished summaries, and
/// `mark_safe_flow_with` marks exactly the accesses those facts prove
/// safe. A consumer that read a non-final round (for example a recursive
/// SCC cut to one round) would fail here on the recursive shapes.
#[test]
fn summaries_carry_final_round_facts() {
    let mut modules: Vec<(String, Module)> = Vec::new();
    for size in [SizeClass::XS, SizeClass::S] {
        let mut rc = RunConfig::new(Preset::Tiny);
        rc.params.size = size;
        for w in sgxs_workloads::all_benchmarks()
            .into_iter()
            .chain(sgxs_workloads::apps::all())
        {
            modules.push((format!("{} {size:?}", w.name()), w.build(&rc.params)));
        }
    }
    for m in ipa_shapes() {
        modules.push((m.name.clone(), m));
    }
    for seed in 1000..1100u64 {
        let prog = gen::generate(seed, 20);
        let kind = ALL_KINDS[(seed % ALL_KINDS.len() as u64) as usize];
        let temporal = TEMPORAL_KINDS[(seed % TEMPORAL_KINDS.len() as u64) as usize];
        modules.push((format!("seed {seed}"), gen::build(&prog)));
        modules.push((
            format!("seed {seed} {kind:?}"),
            gen::build(&inject(&prog, kind, seed).0),
        ));
        modules.push((
            format!("seed {seed} {temporal:?}"),
            gen::build(&inject_temporal(&prog, temporal, seed).0),
        ));
    }

    for (name, m) in &modules {
        let s = summarize(m);
        assert_eq!(s.facts.len(), m.funcs.len(), "{name}");
        for fi in 0..m.funcs.len() {
            assert_eq!(
                s.facts[fi],
                function_facts(m, fi, Some(&s)),
                "{name}: carried facts of {} are not its final-round facts",
                m.funcs[fi].name
            );
        }

        let mut marked = m.clone();
        let count = mark_safe_flow_with(&mut marked, Some(&s));
        let mut flipped = 0;
        for (fi, (before, after)) in m.funcs.iter().zip(&marked.funcs).enumerate() {
            for (bi, (b0, b1)) in before.blocks.iter().zip(&after.blocks).enumerate() {
                for (ii, (i0, i1)) in b0.insts.iter().zip(&b1.insts).enumerate() {
                    let (Some(a0), Some(a1)) = (access_attrs(i0), access_attrs(i1)) else {
                        continue;
                    };
                    let proved = s.facts[fi].access.iter().any(|a| {
                        (a.block, a.inst) == (bi as u32, ii as u32) && a.class == Class::Safe
                    });
                    let expect = a0.safe || (proved && !a0.lowered);
                    assert_eq!(
                        a1.safe, expect,
                        "{name}: {} b{bi} i{ii} marked {} with proved={proved}",
                        before.name, a1.safe
                    );
                    flipped += usize::from(a1.safe && !a0.safe);
                }
            }
        }
        assert_eq!(count, flipped, "{name}: reported marks");
    }
}

fn access_attrs(inst: &Inst) -> Option<AccessAttrs> {
    match inst {
        Inst::Load { attrs, .. }
        | Inst::Store { attrs, .. }
        | Inst::AtomicRmw { attrs, .. }
        | Inst::AtomicCas { attrs, .. } => Some(*attrs),
        _ => None,
    }
}
