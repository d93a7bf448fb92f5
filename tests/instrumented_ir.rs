//! Pins the IR every instrumentation pass emits, and the check-site
//! marker protocol the profiler relies on.
//!
//! The sweep is 77 modules: the 29 benchmarks and 4 applications at
//! `SizeClass::XS` (2 threads, seed 42), the 3 server modules, the 16
//! RIPE attacks, the 24 fuzz-corpus programs, and one hand-built module
//! that exercises the atomics (no other swept module contains one). Each
//! module goes through 34 hardening configurations — every combination of
//! `SbConfig`'s `safe_access_opt`, `hoist_opt`, `boundless`,
//! `narrow_bounds` and `flow_elide`, plus ASan and MPX — once with site
//! markers off and once with them on.
//!
//! * **same IR**: per configuration, an FNV-1a digest over every
//!   instrumented module's `Debug` form and the pass's report must equal
//!   the pinned constant. A pass refactor that claims "no behaviour
//!   change" proves it here; a deliberate change to a pass re-pins the
//!   constants it moves and says why.
//! * **same facts**: an FNV-1a digest over the `Debug` form of
//!   `sgxs_analyze::summarize` (call graph, summaries and per-function
//!   facts) of every uninstrumented module must equal [`PINNED_FACTS`],
//!   so a fact that moves without moving the emitted IR still fails.
//! * **site protocol**: with markers on, every registered site has
//!   exactly one `Begin` and one `End` marker, both inside the function
//!   the site names, and — for every kind but the hoisted `sb_hoist`
//!   check — the instruction right after `End` is the lowered access the
//!   site guards, so the access's own cycles count as application time.

use sgxbounds::SbConfig;
use sgxs_baselines::{instrument_asan_with, instrument_mpx_with};
use sgxs_fuzz::{gen, inject, parse_corpus};
use sgxs_mir::builder::ModuleBuilder;
use sgxs_mir::{BinOp, Inst, Module, Operand, SiteMarker, Ty};
use sgxs_workloads::apps::{self, apache, memcached, nginx, ripe};
use sgxs_workloads::{Params, SizeClass};
use std::fmt::Write;

/// Machine-scale divisor of the Tiny preset.
const TINY_SCALE: u64 = 128;

/// Per configuration: (label, digest with markers off, digest with
/// markers on). `sb:SHBNF` lists `safe_access_opt`, `hoist_opt`,
/// `boundless`, `narrow_bounds` and `flow_elide` as bits.
const PINNED: [(&str, u64, u64); 34] = [
    ("sb:00000", 0x9100c0ec66a58c22, 0x64becb32da0bf6f2),
    ("sb:00001", 0x7f32280533fa4962, 0x5f071a51ffa11499),
    ("sb:00010", 0x251ba1ad8fe7d259, 0x4aee18880ce4e931),
    ("sb:00011", 0xe6fa0a8d15f7a65b, 0x8d583bcb6f11e946),
    ("sb:00100", 0x9100c0ec66a58c22, 0x64becb32da0bf6f2),
    ("sb:00101", 0x9100c0ec66a58c22, 0x64becb32da0bf6f2),
    ("sb:00110", 0x251ba1ad8fe7d259, 0x4aee18880ce4e931),
    ("sb:00111", 0x251ba1ad8fe7d259, 0x4aee18880ce4e931),
    ("sb:01000", 0x7dbe96f8a9b04a7f, 0x2c7e969a4a4366f1),
    ("sb:01001", 0x17295c4f5dcd2e0b, 0x645c42e973bb526a),
    ("sb:01010", 0xcd799f9ea513c5c2, 0x4010beda1a6557c1),
    ("sb:01011", 0x1290c3dbea5fccb4, 0x7f0a314174c6e628),
    ("sb:01100", 0x9100c0ec66a58c22, 0x64becb32da0bf6f2),
    ("sb:01101", 0x9100c0ec66a58c22, 0x64becb32da0bf6f2),
    ("sb:01110", 0x251ba1ad8fe7d259, 0x4aee18880ce4e931),
    ("sb:01111", 0x251ba1ad8fe7d259, 0x4aee18880ce4e931),
    ("sb:10000", 0x6df3b984c3505433, 0x4dcd29ca8ae875ce),
    ("sb:10001", 0x56f8ab6ec1018d68, 0x722e2c637867b9af),
    ("sb:10010", 0x74e2a37792fe6141, 0x046917ba8bc63211),
    ("sb:10011", 0x77c340302c473171, 0x2f8cb26ea7d993cf),
    ("sb:10100", 0x6df3b984c3505433, 0x4dcd29ca8ae875ce),
    ("sb:10101", 0x6df3b984c3505433, 0x4dcd29ca8ae875ce),
    ("sb:10110", 0x74e2a37792fe6141, 0x046917ba8bc63211),
    ("sb:10111", 0x74e2a37792fe6141, 0x046917ba8bc63211),
    ("sb:11000", 0xedf5f12bec37e8fa, 0xde30841e4f3ecfd5),
    ("sb:11001", 0xecd340d321805a94, 0x8d29883da83e01a1),
    ("sb:11010", 0x10eab1001384f7b2, 0x7abaecd12f4aaa56),
    ("sb:11011", 0x8e9f8d1dd6670baa, 0x8bfb6c0a0bc6554a),
    ("sb:11100", 0x6df3b984c3505433, 0x4dcd29ca8ae875ce),
    ("sb:11101", 0x6df3b984c3505433, 0x4dcd29ca8ae875ce),
    ("sb:11110", 0x74e2a37792fe6141, 0x046917ba8bc63211),
    ("sb:11111", 0x74e2a37792fe6141, 0x046917ba8bc63211),
    ("asan", 0x0273064bd1be9632, 0xd68e34167dc61c03),
    ("mpx", 0xa43ad9eee008090b, 0x7a85f7d4c3af4409),
];

/// Digest of `summarize(m)`'s `Debug` form over the sweep's modules.
const PINNED_FACTS: u64 = 0x78be867f135771aa;

/// One hardening configuration of the sweep.
#[derive(Clone, Copy)]
enum Config {
    Sb(SbConfig),
    Asan,
    Mpx,
}

impl Config {
    fn label(&self) -> String {
        match self {
            Config::Sb(c) => {
                let bit = |b: bool| if b { '1' } else { '0' };
                format!(
                    "sb:{}{}{}{}{}",
                    bit(c.safe_access_opt),
                    bit(c.hoist_opt),
                    bit(c.boundless),
                    bit(c.narrow_bounds),
                    bit(c.flow_elide)
                )
            }
            Config::Asan => "asan".to_owned(),
            Config::Mpx => "mpx".to_owned(),
        }
    }

    /// Instruments `m` and returns the pass report's `Debug` form.
    fn instrument(&self, m: &mut Module, markers: bool) -> String {
        match self {
            Config::Sb(c) => {
                let cfg = SbConfig {
                    site_markers: markers,
                    ..*c
                };
                format!("{:?}", sgxbounds::instrument(m, &cfg).expect("sgxbounds"))
            }
            Config::Asan => format!("{:?}", instrument_asan_with(m, markers).expect("asan")),
            Config::Mpx => format!("{:?}", instrument_mpx_with(m, markers).expect("mpx")),
        }
    }
}

fn configs() -> Vec<Config> {
    let mut v: Vec<Config> = (0..32u32)
        .map(|bits| {
            let on = |i: u32| bits & (1 << (4 - i)) != 0;
            Config::Sb(SbConfig {
                safe_access_opt: on(0),
                hoist_opt: on(1),
                boundless: on(2),
                narrow_bounds: on(3),
                site_markers: false,
                flow_elide: on(4),
            })
        })
        .collect();
    v.push(Config::Asan);
    v.push(Config::Mpx);
    v
}

/// Atomic read-modify-write and compare-and-swap on a global, a stack
/// slot, a heap object, a narrowed field and a constant address, plus a
/// counted loop over the heap object.
fn atomics_module() -> Module {
    let mut mb = ModuleBuilder::new("atomics");
    let g = mb.global_zeroed("counter", 16);
    mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
        let n = fb.param(0);
        let gp = fb.global_addr(g);
        let s = fb.slot("pair", 16);
        let sp = fb.slot_addr(s);
        let hp = fb.intr_ptr("malloc", &[Operand::Imm(64)]);
        let a = fb.atomic_rmw(BinOp::Add, Ty::I64, gp, 1u64);
        let b = fb.atomic_cas(Ty::I64, sp, 0u64, a);
        let field = fb.gep_field(hp, 8, 8);
        let c = fb.atomic_rmw(BinOp::Xor, Ty::I32, field, b);
        let d = fb.atomic_cas(Ty::I64, field, c, 7u64);
        fb.count_loop(0u64, n, |fb, i| {
            let e = fb.gep(hp, i, 8, 0);
            let old = fb.atomic_rmw(BinOp::Or, Ty::I64, e, i);
            fb.atomic_cas(Ty::I8, e, old, d);
        });
        let far = fb.load(Ty::I64, 0x1000u64);
        let sum = fb.add(d, far);
        fb.intr_void("free", &[hp.into()]);
        fb.ret(Some(sum.into()));
    });
    mb.finish()
}

/// The 77 modules of the sweep, uninstrumented.
fn sweep_modules() -> Vec<Module> {
    let params = Params {
        size: SizeClass::XS,
        threads: 2,
        scale: TINY_SCALE,
        seed: 42,
    };
    let mut v: Vec<Module> = sgxs_workloads::all_benchmarks()
        .into_iter()
        .chain(apps::all())
        .map(|w| w.build(&params))
        .collect();
    v.push(nginx::server_module());
    v.push(apache::server_module());
    v.push(memcached::server_module());
    v.extend(ripe::all_attacks().iter().map(ripe::build_attack));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fuzz_seeds.txt");
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    for e in parse_corpus(&text).expect("corpus parses") {
        let prog = gen::generate(e.seed, e.max_ops);
        let prog = match e.kind {
            None => prog,
            Some(kind) => inject::inject(&prog, kind, e.seed).0,
        };
        v.push(gen::build(&prog));
    }
    v.push(atomics_module());
    assert_eq!(v.len(), 77, "the sweep changed size");
    v
}

/// FNV-1a over everything written to it, so a module's `Debug` form is
/// digested without materialising the string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

#[test]
fn every_pass_emits_the_pinned_ir() {
    let modules = sweep_modules();
    let mut bad = Vec::new();
    let mut computed = String::new();
    for cfg in configs() {
        let label = cfg.label();
        let mut got = [0u64; 2];
        let mut per_module = [Vec::new(), Vec::new()];
        for (k, markers) in [false, true].into_iter().enumerate() {
            let mut all = Fnv::new();
            for base in &modules {
                let mut m = base.clone();
                let report = cfg.instrument(&mut m, markers);
                let mut one = Fnv::new();
                write!(one, "{m:?}{report}").unwrap();
                write!(all, "{:016x}", one.0).unwrap();
                per_module[k].push(format!("{}={:#018x}", m.name, one.0));
            }
            got[k] = all.0;
        }
        writeln!(
            computed,
            "    (\"{label}\", {:#018x}, {:#018x}),",
            got[0], got[1]
        )
        .unwrap();
        match PINNED.iter().find(|(l, _, _)| *l == label) {
            Some(&(_, off, on)) if [off, on] == got => {}
            pinned => {
                for (k, markers) in ["off", "on"].into_iter().enumerate() {
                    let want = pinned.map(|p| [p.1, p.2][k]);
                    if want != Some(got[k]) {
                        bad.push(format!(
                            "{label} with markers {markers}: digest {:#018x}, pinned {}; \
                             per module: {}",
                            got[k],
                            want.map_or("nothing".to_owned(), |w| format!("{w:#018x}")),
                            per_module[k].join(" ")
                        ));
                    }
                }
            }
        }
    }
    assert!(
        bad.is_empty(),
        "instrumented IR changed:\n{}\n\ncomputed table:\n{computed}",
        bad.join("\n")
    );
}

#[test]
fn every_module_summarizes_to_the_pinned_facts() {
    let mut all = Fnv::new();
    let mut per_module = Vec::new();
    for m in &sweep_modules() {
        let mut one = Fnv::new();
        write!(one, "{:?}", sgxs_analyze::summarize(m)).unwrap();
        write!(all, "{:016x}", one.0).unwrap();
        per_module.push(format!("{}={:#018x}", m.name, one.0));
    }
    assert_eq!(
        all.0,
        PINNED_FACTS,
        "facts changed: digest {:#018x}; per module: {}",
        all.0,
        per_module.join(" ")
    );
}

#[test]
fn every_check_site_is_delimited_once_around_its_access() {
    let modules = sweep_modules();
    let mut kinds = std::collections::BTreeSet::new();
    for cfg in configs() {
        for base in &modules {
            let mut m = base.clone();
            cfg.instrument(&mut m, true);
            let ctx = format!("{} under {}", m.name, cfg.label());
            let mut seen = vec![[0u32; 2]; m.check_sites.len()];
            for f in &m.funcs {
                for b in &f.blocks {
                    for (i, inst) in b.insts.iter().enumerate() {
                        let Inst::Site { site, marker } = *inst else {
                            continue;
                        };
                        let cs = &m.check_sites[site as usize];
                        assert_eq!(
                            cs.func, f.name,
                            "{ctx}: site {site} marked outside its function"
                        );
                        let end = marker == SiteMarker::End;
                        seen[site as usize][end as usize] += 1;
                        if end && cs.kind != "sb_hoist" {
                            let next = b.insts.get(i + 1);
                            assert!(
                                matches!(
                                    next,
                                    Some(
                                        Inst::Load { attrs, .. }
                                            | Inst::Store { attrs, .. }
                                            | Inst::AtomicRmw { attrs, .. }
                                            | Inst::AtomicCas { attrs, .. }
                                    ) if attrs.lowered
                                ),
                                "{ctx}: site {site} ({}) ends before {:?}, not a lowered access",
                                cs.kind,
                                next
                            );
                        }
                    }
                }
            }
            for (site, counts) in seen.iter().enumerate() {
                assert_eq!(
                    *counts,
                    [1, 1],
                    "{ctx}: site {site} ({}) has [Begin, End] = {counts:?}",
                    m.check_sites[site].kind
                );
            }
            kinds.extend(m.check_sites.iter().map(|cs| cs.kind));
        }
    }
    let expect = ["asan", "mpx", "sb_full", "sb_hoist", "sb_safe", "sb_ub"];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), expect);
}
