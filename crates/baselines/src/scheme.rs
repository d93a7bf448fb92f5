//! The hardening registry: one instrument + boot path for every scheme.
//!
//! Every scheme key in the workspace (the harness's `Scheme`, the fuzz
//! runner's `FScheme`, the chaos tier's `RScheme`) maps to one
//! [`Hardening`], and every run hardens a module with
//! [`Hardening::instrument`] and boots the VM that runs it with
//! [`Hardening::boot`]. The decisions that used to be re-made at each call
//! site live here once: ASan's allocator options, the scale the ASan and
//! MPX runtimes are sized for, the reserve cap every heap honours, the
//! point a recorder is attached, and the execution tier, which comes from
//! the machine configuration alone.

use crate::asan::runtime::asan_alloc_opts;
use crate::{
    install_asan, install_mpx, instrument_asan_with, instrument_mpx_with, AsanConfig, MpxConfig,
    MpxRuntime,
};
use sgxbounds::{SbConfig, SbRuntime};
use sgxs_mir::{verify, Module, Vm, VmConfig};
use sgxs_rt::{install_base, AllocOpts, HeapAlloc};
use sgxs_sim::obs::Recorder;
use sgxs_sim::ExecTier;
use std::cell::RefCell;
use std::rc::Rc;

/// Reserve cap of a run that models no enclave budget: the whole 32-bit
/// address space, the [`AllocOpts`] default.
pub const ADDRESS_SPACE_CAP: u64 = u32::MAX as u64;

/// What a protection scheme does to a module and to the VM that runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hardening {
    /// Uninstrumented.
    None,
    /// SGXBounds under this configuration. Its `site_markers` field is
    /// ignored: [`Hardening::instrument`] takes markers as an argument.
    SgxBounds(SbConfig),
    /// AddressSanitizer-style shadow memory.
    Asan,
    /// Intel MPX-style bounds tables.
    Mpx,
}

/// The runtime state [`Hardening::install`] and [`Hardening::boot`] leave
/// behind.
pub struct Installed {
    /// The heap every allocation intrinsic goes through.
    pub heap: Rc<RefCell<HeapAlloc>>,
    /// The SGXBounds runtime (violation counter, boundless overlay).
    pub sgxbounds: Option<SbRuntime>,
    /// The MPX runtime (bounds tables and their statistics).
    pub mpx: Option<MpxRuntime>,
}

impl Hardening {
    /// Runs the scheme's instrumentation pass over `module`, then verifies
    /// the result. With `markers`, every inserted check is wrapped in
    /// transparent site markers and registered in the module's check-site
    /// table.
    pub fn instrument(&self, module: &mut Module, markers: bool) -> Result<(), String> {
        let already = |s| format!("module already instrumented with {s}");
        match self {
            Hardening::None => Ok(()),
            Hardening::SgxBounds(cfg) => {
                let cfg = SbConfig {
                    site_markers: markers,
                    ..*cfg
                };
                sgxbounds::instrument(module, &cfg)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }
            Hardening::Asan => instrument_asan_with(module, markers)
                .map(drop)
                .map_err(already),
            Hardening::Mpx => instrument_mpx_with(module, markers)
                .map(drop)
                .map_err(already),
        }?;
        verify(module).map_err(|e| format!("ill-formed IR: {e}"))
    }

    /// Builds the VM that runs `module` under `cfg` and readies it: routes
    /// the machine's events through `rec` (before install, so the
    /// runtimes' setup is recorded too), installs the runtimes as
    /// [`Hardening::install`] does, and attaches the compiled engine when
    /// `cfg.machine.tier` is [`ExecTier::Compiled`] (it lowers the module
    /// once the run has paid `sgxs_exec::RENT`). This is the one place
    /// a run's tier is read. Span mode stays off; a caller that wants spans
    /// turns them on.
    pub fn boot<'m>(
        &self,
        module: &'m Module,
        cfg: VmConfig,
        rec: Option<Rc<RefCell<dyn Recorder>>>,
        scale: u64,
        reserve_cap: u64,
    ) -> (Vm<'m>, Installed) {
        let mut vm = Vm::new(module, cfg);
        vm.machine.set_recorder(rec);
        let rt = self.install(&mut vm, scale, reserve_cap);
        if cfg.machine.tier == ExecTier::Compiled {
            sgxs_exec::attach(&mut vm);
        }
        (vm, rt)
    }

    /// Installs the base runtime and the scheme's runtime into `vm`. The
    /// ASan shadow and quarantine and the MPX bounds tables are sized for
    /// the machine-scale divisor `scale`; the heap traps `OutOfMemory`
    /// once its reservations would exceed `reserve_cap` bytes.
    pub fn install(&self, vm: &mut Vm<'_>, scale: u64, reserve_cap: u64) -> Installed {
        let asan_cfg = AsanConfig::for_scale(scale);
        let opts = match self {
            Hardening::Asan => asan_alloc_opts(&asan_cfg, reserve_cap),
            _ => AllocOpts {
                reserve_cap,
                ..AllocOpts::default()
            },
        };
        let heap = install_base(vm, opts);
        let mut out = Installed {
            heap: heap.clone(),
            sgxbounds: None,
            mpx: None,
        };
        match self {
            Hardening::None => {}
            Hardening::SgxBounds(cfg) => {
                out.sgxbounds = Some(sgxbounds::install_sgxbounds(vm, heap, cfg, None));
            }
            Hardening::Asan => {
                install_asan(vm, heap, &asan_cfg);
            }
            Hardening::Mpx => out.mpx = Some(install_mpx(vm, heap, MpxConfig::for_scale(scale))),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::{ModuleBuilder, Operand, Trap, Ty};
    use sgxs_sim::{MachineConfig, Mode, Preset};

    fn every() -> [Hardening; 5] {
        let d = SbConfig::default();
        [
            Hardening::None,
            Hardening::SgxBounds(d),
            Hardening::SgxBounds(SbConfig {
                boundless: true,
                ..d
            }),
            Hardening::Asan,
            Hardening::Mpx,
        ]
    }

    fn tiny(tier: ExecTier) -> VmConfig {
        let mut machine = MachineConfig::preset(Preset::Tiny, Mode::Enclave);
        machine.tier = tier;
        VmConfig::new(machine)
    }

    #[test]
    fn install_honours_the_reserve_cap_under_every_hardening() {
        const CAP: u64 = 1 << 20;
        for h in every() {
            // Sixteen 128 KB objects: 2 MB, twice the cap.
            let mut mb = ModuleBuilder::new("t");
            mb.func("main", &[], Some(Ty::I64), |fb| {
                fb.count_loop(0u64, 16u64, |fb, _| {
                    fb.intr_ptr("malloc", &[Operand::Imm(128 << 10)]);
                });
                fb.ret(Some(0u64.into()));
            });
            let mut m = mb.finish();
            h.instrument(&mut m, false)
                .expect("fresh module instruments and verifies");
            let scale = MachineConfig::scale_of(Preset::Tiny);
            let (mut vm, _) = h.boot(&m, tiny(ExecTier::Reference), None, scale, CAP);
            let out = vm.run("main", &[]);
            assert!(
                matches!(out.result, Err(Trap::OutOfMemory { .. })),
                "{h:?} must trap past a 1 MB cap, got {:?}",
                out.result
            );
        }
    }

    #[test]
    fn boot_attaches_the_engine_exactly_on_the_compiled_tier() {
        // Writes `n` slots of a 10-slot heap array of pointers, then reads
        // the last one back: in bounds for n = 10, one past the end at 11.
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[Ty::I64], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(80)]);
            let n = fb.param(0);
            fb.count_loop(0u64, n, |fb, i| {
                let a = fb.gep(p, i, 8, 0);
                fb.store(Ty::Ptr, a, p);
            });
            let last = fb.gep(p, 9u64, 8, 0);
            let v = fb.load(Ty::I64, last);
            fb.ret(Some(v.into()));
        });
        let plain = mb.finish();
        let scale = MachineConfig::scale_of(Preset::Tiny);
        for h in every() {
            let mut m = plain.clone();
            h.instrument(&mut m, false)
                .expect("instruments and verifies");
            for n in [10, 11] {
                let run = |tier, lower_after: Option<u64>| {
                    let (mut vm, _) = h.boot(&m, tiny(tier), None, scale, ADDRESS_SPACE_CAP);
                    assert_eq!(
                        vm.engine_installed(),
                        tier == ExecTier::Compiled,
                        "{h:?} on {tier:?}"
                    );
                    if let Some(k) = lower_after {
                        sgxs_exec::attach_after(&mut vm, k);
                    }
                    vm.run("main", &[n])
                };
                let r = run(ExecTier::Reference, None);
                // The attached engine never lowers a run this short (its
                // rent stays unpaid), so the comparison also forces the
                // lowering before the first quantum and after one.
                for (tier, lower_after) in [
                    (ExecTier::Compiled, None),
                    (ExecTier::Reference, Some(0)),
                    (ExecTier::Reference, Some(1)),
                ] {
                    let c = run(tier, lower_after);
                    let what = format!("{h:?} n={n} on {tier:?}, lowered after {lower_after:?}");
                    assert_eq!(
                        format!("{:?}", r.result),
                        format!("{:?}", c.result),
                        "{what}"
                    );
                    assert_eq!(r.wall_cycles, c.wall_cycles, "{what}");
                    assert_eq!(r.stats, c.stats, "{what}");
                }
            }
        }
    }
}
