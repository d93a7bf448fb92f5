//! The SGXBounds run-time support library (paper §3.2, §5.1).
//!
//! Registers the `sb_*` intrinsics the instrumented code calls: tagged
//! allocation wrappers, the violation handler (fail-stop or boundless), and
//! the checking libc wrappers. Mirrors the paper's split: the compiler pass
//! emits inline extraction/check IR for ordinary accesses, while allocation
//! and libc boundaries are handled by this runtime.

use crate::boundless::{BoundlessCache, CHUNK_BYTES};
use crate::metadata::{MetadataHooks, ObjKind};
use crate::tagged::{self, LB_BYTES};
use crate::SbConfig;
use sgxs_mir::{AccessKind, IntrinsicCtx, Trap, Vm};
use sgxs_rt::HeapAlloc;
use std::cell::RefCell;
use std::rc::Rc;

/// Handle to the installed runtime, for post-run inspection.
pub struct SbRuntime {
    /// The boundless overlay cache, when boundless mode is enabled.
    pub boundless: Option<Rc<RefCell<BoundlessCache>>>,
    /// Detection counter (violations seen — in boundless mode the program
    /// keeps running, so this is how tests observe detections).
    pub violations: Rc<RefCell<u64>>,
}

fn violation_trap(addr: u64, size: u32, is_store: bool) -> Trap {
    Trap::SafetyViolation {
        scheme: "sgxbounds",
        addr,
        size,
        access: if is_store {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        msg: format!(
            "p={:#x} ub={:#x}",
            tagged::ptr_of(addr),
            tagged::ub_of(addr)
        ),
    }
}

/// The one refusal path of the checking libc wrappers: count the
/// violation, then trap in fail-stop mode, or return the 0 error indicator
/// in boundless mode so the application can drop the request (paper §5.1).
#[derive(Clone)]
struct Refusal {
    violations: Rc<RefCell<u64>>,
    fail_stop: bool,
}

impl Refusal {
    fn refuse(&self, addr: u64, size: u32, is_store: bool) -> Result<Option<u64>, Trap> {
        *self.violations.borrow_mut() += 1;
        if self.fail_stop {
            Err(violation_trap(addr, size, is_store))
        } else {
            Ok(Some(0)) // EINVAL-style refusal.
        }
    }
}

/// Reads the lower bound stored at the upper-bound address (charged).
fn load_lb(ctx: &mut IntrinsicCtx<'_>, ub: u32) -> Result<u32, Trap> {
    Ok(ctx.load(ub as u64, 4)? as u32)
}

/// Checks a `[p, p+len)` range described by tagged pointer `t`; returns the
/// plain pointer or `None` if out of bounds.
fn check_range(ctx: &mut IntrinsicCtx<'_>, t: u64, len: u32) -> Result<Option<u32>, Trap> {
    let p = tagged::ptr_of(t);
    let ub = tagged::ub_of(t);
    if ub == 0 {
        return Ok(None); // Untagged: fail closed.
    }
    let lb = load_lb(ctx, ub)?;
    ctx.charge(4);
    if tagged::violates(p, len, lb, ub) {
        Ok(None)
    } else {
        Ok(Some(p))
    }
}

/// Installs the SGXBounds runtime into `vm`.
///
/// `heap` is the shared base allocator (from [`sgxs_rt::install_base`]);
/// `hooks` optionally extends every heap object with user metadata (paper
/// §4.3).
pub fn install_sgxbounds(
    vm: &mut Vm<'_>,
    heap: Rc<RefCell<HeapAlloc>>,
    cfg: &SbConfig,
    hooks: Option<Rc<RefCell<dyn MetadataHooks>>>,
) -> SbRuntime {
    // Poison the top page of the enclave: the arithmetic-overflow guard for
    // hoisted checks (paper §4.4).
    vm.machine.mem.forbid_page(0xF_FFFF);

    let extra = hooks
        .as_ref()
        .map(|h| h.borrow().extra_bytes())
        .unwrap_or(0);

    let boundless = if cfg.boundless {
        let zero = {
            let mut out = Vec::new();
            let mut ctx = IntrinsicCtx {
                machine: &mut vm.machine,
                env: &mut vm.env,
                core: 0,
                cycles: 0,
                output: &mut out,
            };
            heap.borrow_mut()
                .malloc(&mut ctx, CHUNK_BYTES + 8)
                .expect("zero chunk allocation")
        };
        Some(Rc::new(RefCell::new(BoundlessCache::new(
            heap.clone(),
            zero,
        ))))
    } else {
        None
    };
    let violations = Rc::new(RefCell::new(0u64));

    // ---- allocation wrappers (paper §3.2 "Pointer creation") -------------

    let h = heap.clone();
    let hk = hooks.clone();
    vm.register_intrinsic("sb_malloc", move |ctx, args| {
        let size = args.first().copied().unwrap_or(0) as u32;
        let p = h.borrow_mut().malloc(ctx, size + LB_BYTES + extra)?;
        let ub = p + size;
        ctx.store(ub as u64, 4, p as u64)?; // Lower bound after the object.
        if let Some(hk) = &hk {
            hk.borrow_mut().on_create(ctx, p, size, ub, ObjKind::Heap)?;
        }
        Ok(Some(tagged::make(p, ub)))
    });

    let h = heap.clone();
    let hk = hooks.clone();
    vm.register_intrinsic("sb_calloc", move |ctx, args| {
        let n = args.first().copied().unwrap_or(0) as u32;
        let sz = args.get(1).copied().unwrap_or(0) as u32;
        let size = n.checked_mul(sz).ok_or(Trap::OutOfMemory {
            requested: n as u64 * sz as u64,
            reserved: ctx.machine.mem.reserved(),
        })?;
        let p = h.borrow_mut().malloc(ctx, size + LB_BYTES + extra)?;
        sgxs_rt::libc::memset(ctx, p, 0, size)?;
        let ub = p + size;
        ctx.store(ub as u64, 4, p as u64)?;
        if let Some(hk) = &hk {
            hk.borrow_mut().on_create(ctx, p, size, ub, ObjKind::Heap)?;
        }
        Ok(Some(tagged::make(p, ub)))
    });

    let h = heap.clone();
    let hk = hooks.clone();
    vm.register_intrinsic("sb_realloc", move |ctx, args| {
        let t = args.first().copied().unwrap_or(0);
        let size = args.get(1).copied().unwrap_or(0) as u32;
        let old_p = tagged::ptr_of(t);
        let mut heap = h.borrow_mut();
        let new_p = heap.malloc(ctx, size + LB_BYTES + extra)?;
        let new_ub = new_p + size;
        if old_p != 0 {
            let old_size = tagged::ub_of(t).saturating_sub(old_p);
            sgxs_rt::libc::memcpy(ctx, new_p, old_p, old_size.min(size))?;
            if let Some(hk) = &hk {
                hk.borrow_mut().on_delete(ctx, tagged::ub_of(t))?;
            }
            heap.free(ctx, old_p)?;
        }
        drop(heap);
        ctx.store(new_ub as u64, 4, new_p as u64)?;
        if let Some(hk) = &hk {
            hk.borrow_mut()
                .on_create(ctx, new_p, size, new_ub, ObjKind::Heap)?;
        }
        Ok(Some(tagged::make(new_p, new_ub)))
    });

    let h = heap.clone();
    let hk = hooks.clone();
    vm.register_intrinsic("sb_free", move |ctx, args| {
        let t = args.first().copied().unwrap_or(0);
        let p = tagged::ptr_of(t);
        if p == 0 {
            return Ok(None);
        }
        if let Some(hk) = &hk {
            hk.borrow_mut().on_delete(ctx, tagged::ub_of(t))?;
        }
        // The 4 metadata bytes vanish with the object — no instrumentation
        // of free beyond pointer stripping (paper §3.2).
        h.borrow_mut().free(ctx, p)?;
        Ok(None)
    });

    let h = heap.clone();
    vm.register_intrinsic("sb_mmap", move |ctx, args| {
        let bytes = args.first().copied().unwrap_or(0) as u32;
        // +4 forces a page-aligned request into one extra page — the Apache
        // memory anomaly (paper §7).
        let p = h.borrow_mut().mmap(ctx, bytes + LB_BYTES)?;
        let ub = p + bytes;
        ctx.store(ub as u64, 4, p as u64)?;
        Ok(Some(tagged::make(p, ub)))
    });

    let h = heap.clone();
    vm.register_intrinsic("sb_munmap", move |ctx, args| {
        let t = args.first().copied().unwrap_or(0);
        h.borrow_mut().munmap(ctx, tagged::ptr_of(t))?;
        Ok(None)
    });

    let h = heap.clone();
    vm.register_intrinsic("sb_malloc_usable_size", move |_ctx, args| {
        let t = args.first().copied().unwrap_or(0);
        let sz = h
            .borrow()
            .usable_size(tagged::ptr_of(t))
            .map(|s| s.saturating_sub(LB_BYTES + extra))
            .unwrap_or(0);
        Ok(Some(sz as u64))
    });

    // Bounds narrowing (paper §8): shrink the tag to the field's upper
    // bound so intra-object overflows trip the inline check. Without the
    // flag the base runtime's identity registration stays in effect.
    if cfg.narrow_bounds {
        vm.register_intrinsic("sb_narrow", move |ctx, args| {
            let t = args.first().copied().unwrap_or(0);
            let size = args.get(1).copied().unwrap_or(0) as u32;
            let p = tagged::ptr_of(t);
            let orig_ub = tagged::ub_of(t);
            let field_ub = p.saturating_add(size).min(orig_ub.max(p));
            ctx.charge(2); // Two ALU ops in the real lowering.
            Ok(Some(tagged::make(p, field_ub)))
        });
    }

    // Tags a host-staged input region of a given size (the moral equivalent
    // of the program having allocated it through an instrumented site).
    vm.register_intrinsic("tag_input", move |ctx, args| {
        let p = args.first().copied().unwrap_or(0) as u32;
        let size = args.get(1).copied().unwrap_or(0) as u32;
        let ub = p + size;
        ctx.store(ub as u64, 4, p as u64)?;
        Ok(Some(tagged::make(p, ub)))
    });

    // ---- the violation handler (fail-stop §3.2 / boundless §4.2) ---------

    let bl = boundless.clone();
    let vio = violations.clone();
    let hk = hooks.clone();
    vm.register_intrinsic("sb_violation", move |ctx, args| {
        let addr = args.first().copied().unwrap_or(0);
        let size = args.get(1).copied().unwrap_or(0) as u32;
        let is_store = args.get(2).copied().unwrap_or(0) != 0;
        *vio.borrow_mut() += 1;
        if ctx.machine.obs_enabled() {
            let site = ctx.machine.cur_site;
            ctx.machine.emit(sgxs_sim::obs::Event::CheckFail {
                site,
                addr,
                size,
                is_store,
            });
        }
        if let Some(hk) = &hk {
            hk.borrow_mut().on_access(
                ctx,
                addr,
                size,
                if is_store {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            )?;
        }
        match &bl {
            None => Err(violation_trap(addr, size, is_store)),
            Some(cache) => {
                let p = tagged::ptr_of(addr);
                let redirected = cache.borrow_mut().redirect(ctx, p, is_store)?;
                Ok(Some(redirected as u64))
            }
        }
    });

    // ---- checking libc wrappers (paper §3.2 "Function calls") ------------
    //
    // On violation these do NOT fall back to boundless redirection; they
    // refuse (see `Refusal`) so applications can drop offending requests
    // (paper §5.1). In fail-stop mode they trap like any other violation.

    let refusal = Refusal {
        violations: violations.clone(),
        fail_stop: !cfg.boundless,
    };
    // memmove is memcpy: the simulated copy is exact for overlapping
    // ranges too.
    for name in ["sb_memcpy", "sb_memmove"] {
        let no = refusal.clone();
        vm.register_intrinsic(name, move |ctx, args| {
            let (dt, st, n) = (args[0], args[1], args[2] as u32);
            let d = check_range(ctx, dt, n)?;
            let s = check_range(ctx, st, n)?;
            match (d, s) {
                (Some(d), Some(s)) => {
                    sgxs_rt::libc::memcpy(ctx, d, s, n)?;
                    Ok(Some(dt))
                }
                _ => no.refuse(if d.is_none() { dt } else { st }, n, d.is_none()),
            }
        });
    }

    let no = refusal.clone();
    vm.register_intrinsic("sb_memset", move |ctx, args| {
        let (dt, c, n) = (args[0], args[1] as u8, args[2] as u32);
        match check_range(ctx, dt, n)? {
            Some(d) => {
                sgxs_rt::libc::memset(ctx, d, c, n)?;
                Ok(Some(dt))
            }
            None => no.refuse(dt, n, true),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_memcmp", move |ctx, args| {
        let (at, bt, n) = (args[0], args[1], args[2] as u32);
        let a = check_range(ctx, at, n)?;
        let b = check_range(ctx, bt, n)?;
        match (a, b) {
            (Some(a), Some(b)) => Ok(Some(sgxs_rt::libc::memcmp(ctx, a, b, n)?)),
            _ => no.refuse(if a.is_none() { at } else { bt }, n, false),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_strlen", move |ctx, args| {
        let t = args[0];
        let p = tagged::ptr_of(t);
        let len = sgxs_rt::libc::strlen(ctx, p)?;
        // The scan itself is raw; check the discovered extent afterwards
        // (the string plus terminator must fit the referent object).
        match check_range(ctx, t, len + 1)? {
            Some(_) => Ok(Some(len as u64)),
            None => no.refuse(t, len + 1, false),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_strcpy", move |ctx, args| {
        let (dt, st) = (args[0], args[1]);
        let sp = tagged::ptr_of(st);
        let len = sgxs_rt::libc::strlen(ctx, sp)?;
        let s = check_range(ctx, st, len + 1)?;
        let d = check_range(ctx, dt, len + 1)?;
        match (d, s) {
            (Some(d), Some(s)) => {
                sgxs_rt::libc::memcpy(ctx, d, s, len + 1)?;
                Ok(Some(dt))
            }
            _ => no.refuse(if d.is_none() { dt } else { st }, len + 1, d.is_none()),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_strcmp", move |ctx, args| {
        let (at, bt) = (args[0], args[1]);
        let la = sgxs_rt::libc::strlen(ctx, tagged::ptr_of(at))?;
        let lb = sgxs_rt::libc::strlen(ctx, tagged::ptr_of(bt))?;
        let a = check_range(ctx, at, la + 1)?;
        let b = check_range(ctx, bt, lb + 1)?;
        match (a, b) {
            (Some(a), Some(b)) => Ok(Some(sgxs_rt::libc::memcmp(ctx, a, b, la.min(lb) + 1)?)),
            _ => no.refuse(if a.is_none() { at } else { bt }, 1, false),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_strncpy", move |ctx, args| {
        let (dt, st, n) = (args[0], args[1], args[2] as u32);
        // strncpy writes exactly n bytes to dst; reads len+1 from src.
        let slen = sgxs_rt::libc::strlen(ctx, tagged::ptr_of(st))?;
        let s = check_range(ctx, st, slen.min(n).max(1))?;
        let d = check_range(ctx, dt, n.max(1))?;
        match (d, s) {
            (Some(d), Some(s)) => {
                sgxs_rt::libc::strncpy(ctx, d, s, n)?;
                Ok(Some(dt))
            }
            _ => no.refuse(if d.is_none() { dt } else { st }, n, d.is_none()),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_strcat", move |ctx, args| {
        let (dt, st) = (args[0], args[1]);
        let dlen = sgxs_rt::libc::strlen(ctx, tagged::ptr_of(dt))?;
        let slen = sgxs_rt::libc::strlen(ctx, tagged::ptr_of(st))?;
        let d = check_range(ctx, dt, dlen + slen + 1)?;
        let s = check_range(ctx, st, slen + 1)?;
        match (d, s) {
            (Some(d), Some(s)) => {
                sgxs_rt::libc::memcpy(ctx, d + dlen, s, slen + 1)?;
                Ok(Some(dt))
            }
            _ => no.refuse(
                if d.is_none() { dt } else { st },
                dlen + slen + 1,
                d.is_none(),
            ),
        }
    });

    let no = refusal.clone();
    vm.register_intrinsic("sb_strchr", move |ctx, args| {
        let (t, byte) = (args[0], args[1] as u8);
        let p = tagged::ptr_of(t);
        let len = sgxs_rt::libc::strlen(ctx, p)?;
        match check_range(ctx, t, len + 1)? {
            Some(p) => {
                let found = sgxs_rt::libc::strchr(ctx, p, byte)?;
                if found == 0 {
                    Ok(Some(0))
                } else {
                    // The result inherits the argument's tag (it points into
                    // the same referent object).
                    Ok(Some(tagged::with_ptr(t, found as u64)))
                }
            }
            None => no.refuse(t, len + 1, false),
        }
    });

    let no = refusal;
    vm.register_intrinsic("sb_fmt_u64", move |ctx, args| {
        let (dt, val) = (args[0], args[1]);
        let digits = val.to_string().len() as u32 + 1;
        match check_range(ctx, dt, digits)? {
            Some(d) => Ok(Some(sgxs_rt::libc::fmt_u64(ctx, d, val)? as u64)),
            None => no.refuse(dt, digits, true),
        }
    });

    SbRuntime {
        boundless,
        violations,
    }
}
