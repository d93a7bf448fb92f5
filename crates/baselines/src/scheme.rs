//! The hardening registry: one instrument + install path for every scheme.
//!
//! Every scheme key in the workspace (the harness's `Scheme`, the fuzz
//! runner's `FScheme`, the chaos tier's `RScheme`) maps to one
//! [`Hardening`], and every caller hardens a module and a VM through its
//! two methods. The decisions that used to be re-made at each call site
//! live here once: ASan's allocator options, the scale the ASan and MPX
//! runtimes are sized for, and the reserve cap every heap honours.

use crate::asan::runtime::asan_alloc_opts;
use crate::{
    install_asan, install_mpx, instrument_asan_with, instrument_mpx_with, AsanConfig, MpxConfig,
    MpxRuntime,
};
use sgxbounds::{SbConfig, SbRuntime};
use sgxs_mir::{Module, Vm};
use sgxs_rt::{install_base, AllocOpts, HeapAlloc};
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

/// The runtime state [`Hardening::install`] leaves behind.
pub struct Installed {
    /// The heap every allocation intrinsic goes through.
    pub heap: Rc<RefCell<HeapAlloc>>,
    /// The SGXBounds runtime (violation counter, boundless overlay).
    pub sgxbounds: Option<SbRuntime>,
    /// The MPX runtime (bounds tables and their statistics).
    pub mpx: Option<MpxRuntime>,
}

impl Hardening {
    /// Runs the scheme's instrumentation pass over `module`. With
    /// `markers`, every inserted check is wrapped in transparent site
    /// markers and registered in the module's check-site table.
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
        }
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
    use sgxs_mir::{verify, ModuleBuilder, Operand, Trap, Ty, VmConfig};
    use sgxs_sim::{MachineConfig, Mode, Preset};

    #[test]
    fn install_honours_the_reserve_cap_under_every_hardening() {
        const CAP: u64 = 1 << 20;
        for h in [
            Hardening::None,
            Hardening::SgxBounds(SbConfig::default()),
            Hardening::Asan,
            Hardening::Mpx,
        ] {
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
                .expect("fresh module instruments");
            verify(&m).expect("instrumented module verifies");
            let mut vm = Vm::new(
                &m,
                VmConfig::new(MachineConfig::preset(Preset::Tiny, Mode::Enclave)),
            );
            h.install(&mut vm, MachineConfig::scale_of(Preset::Tiny), CAP);
            let out = vm.run("main", &[]);
            assert!(
                matches!(out.result, Err(Trap::OutOfMemory { .. })),
                "{h:?} must trap past a 1 MB cap, got {:?}",
                out.result
            );
        }
    }
}
