//! Bounds narrowing: catching intra-object overflows (paper §8
//! "Catching intra-object overflows").
//!
//! The paper leaves this as ongoing work: "whenever SGXBOUNDS detects an
//! access through a struct field, it updates the current pointer bounds to
//! the bounds of this field. The main difficulty here is to keep additional
//! lower-bound metadata for each object field."
//!
//! This module implements that design. Programs mark field projections with
//! [`sgxs_mir::FuncBuilder::gep_field`], which emits an `sb_narrow(p,
//! field_size)` intrinsic after the projection. With
//! [`crate::SbConfig::narrow_bounds`] enabled:
//!
//! - the runtime replaces the tag with the *field's* upper bound
//!   (`min(orig_ub, p + field_size)`), so overflowing a buffer field into a
//!   sibling field trips the ordinary inline check;
//! - the pass marks accesses reached through a narrowed pointer as
//!   `no_lower`, sidestepping the per-field lower-bound-metadata problem
//!   the paper names (the narrowed UB points into the object, where no LB
//!   word lives). Under-flow protection within the struct is therefore not
//!   provided — matching the prototype status the paper describes.
//!
//! Without the flag, `sb_narrow` is the identity and programs behave as
//! whole-object SGXBounds (and identically under ASan/MPX/native, which
//! register the identity too).

use sgxs_mir::ir::{def_of, CastKind, Inst, Module, Operand, Reg};
use sgxs_mir::rewrite::Access;
use std::collections::HashSet;

/// Marks accesses whose address derives (block-locally, through geps and
/// bitcasts) from an `sb_narrow` result as `no_lower`. Returns how many
/// accesses were marked.
pub fn mark_narrowed_accesses(module: &mut Module) -> usize {
    let Some(id) = module.intrinsics.iter().position(|n| n == "sb_narrow") else {
        return 0;
    };
    let mut marked = 0;
    for f in &mut module.funcs {
        for b in &mut f.blocks {
            let mut narrowed: HashSet<Reg> = HashSet::new();
            for inst in &mut b.insts {
                // An `sb_narrow` result, and a gep or bitcast of a narrowed
                // pointer, is narrowed; any other definition clears its
                // register.
                let derived = match inst {
                    Inst::CallIntrinsic {
                        dst: Some(d),
                        intrinsic,
                        ..
                    } if intrinsic.0 as usize == id => Some((*d, true)),
                    Inst::Gep {
                        dst,
                        base: Operand::Reg(src),
                        ..
                    }
                    | Inst::Cast {
                        kind: CastKind::Bitcast,
                        dst,
                        src: Operand::Reg(src),
                    } => Some((*dst, narrowed.contains(src))),
                    _ => None,
                };
                if let Some((d, true)) = derived {
                    narrowed.insert(d);
                    continue;
                }
                if let Some(Access {
                    addr: Operand::Reg(a),
                    attrs,
                    ..
                }) = inst.access()
                {
                    if narrowed.contains(&a) && !attrs.no_lower {
                        inst.attrs_mut().expect("an access").no_lower = true;
                        marked += 1;
                    }
                }
                if let Some(d) = def_of(inst) {
                    narrowed.remove(&d);
                }
            }
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgxs_mir::{ModuleBuilder, Operand, Ty};

    #[test]
    fn marks_accesses_through_narrowed_pointers_only() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], Some(Ty::I64), |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(24)]);
            let field = fb.gep_field(p, 0, 16);
            fb.store(Ty::I64, field, 1u64); // Narrowed: marked.
            fb.store(Ty::I64, p, 2u64); // Whole object: untouched.
            fb.ret(Some(0u64.into()));
        });
        let mut m = mb.finish();
        assert_eq!(mark_narrowed_accesses(&mut m), 1);
    }

    #[test]
    fn no_narrow_calls_is_a_no_op() {
        let mut mb = ModuleBuilder::new("t");
        mb.func("main", &[], None, |fb| {
            let p = fb.intr_ptr("malloc", &[Operand::Imm(8)]);
            fb.store(Ty::I64, p, 1u64);
            fb.ret(None);
        });
        let mut m = mb.finish();
        assert_eq!(mark_narrowed_accesses(&mut m), 0);
    }
}
