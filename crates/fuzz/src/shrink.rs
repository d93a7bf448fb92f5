//! Disagreement minimizer: ddmin over the safe ops (the injected fault ops
//! are pinned), then structural slimming (drop object initialization and
//! the digest epilogue when the disagreement survives without them).

use crate::gen::{inst_count, Prog};
use crate::inject::Fault;
use crate::runner::{classify, exec, FScheme, Verdict, DEFAULT_BUDGET};
use sgxs_sim::ExecTier;

/// A minimized reproducer for one disagreement.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The reduced program (fault ops still spliced in).
    pub prog: Prog,
    /// The fault, with `at` adjusted to the reduced op list.
    pub fault: Option<Fault>,
    /// MIR instruction count of the built reproducer.
    pub insts: usize,
}

/// Rebuilds a faulty program from a subset of the original safe ops.
fn compose(
    orig_safe: &Prog,
    keep: &[bool],
    fault: Option<&Fault>,
    lean: bool,
) -> (Prog, Option<Fault>) {
    let mut prog = orig_safe.clone();
    prog.ops = orig_safe
        .ops
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(op, _)| op.clone())
        .collect();
    if lean {
        prog.emit_init = false;
        prog.emit_digest = false;
    }
    let fault = fault.map(|f| {
        let at = keep[..f.at].iter().filter(|&&k| k).count();
        let mut f = f.clone();
        f.at = at;
        prog.ops.splice(at..at, f.ops.clone());
        f
    });
    (prog, fault)
}

/// True when the candidate still reproduces the disagreement verdict.
fn still_fails(prog: &Prog, fault: Option<&Fault>, scheme: FScheme, want: &Verdict) -> bool {
    let run = |scheme| exec(prog, scheme, ExecTier::Reference, DEFAULT_BUDGET);
    let native = match run(FScheme::Native).result {
        Ok(d) => d,
        // A native crash means the candidate changed behavior; reject it.
        Err(_) => return fault.is_some() && matches!(want, Verdict::Crash(_)),
    };
    let v = classify(fault, native, &run(scheme));
    v.label() == want.label()
}

/// Minimizes a disagreement: `orig_safe` is the program *without* the fault
/// ops, `fault` the splice (or `None` for safe-program disagreements), and
/// `want` the verdict to preserve under `scheme`.
pub fn shrink(orig_safe: &Prog, fault: Option<&Fault>, scheme: FScheme, want: &Verdict) -> Repro {
    let n = orig_safe.ops.len();
    let mut keep = vec![true; n];

    // Digest-sensitive disagreements need the digest (and the init that
    // makes it deterministic); everything else can go lean immediately.
    let lean = !matches!(want, Verdict::DigestMismatch { .. } | Verdict::Pass);
    let try_keep = |keep: &[bool], lean: bool| {
        let (p, f) = compose(orig_safe, keep, fault, lean);
        still_fails(&p, f.as_ref(), scheme, want)
    };

    // If the lean form fails to reproduce, fall back to full emission.
    let lean = lean && try_keep(&keep, true);

    // ddmin with geometrically shrinking chunk sizes: try dropping whole
    // chunks of surviving safe ops.
    let mut chunk = n.div_ceil(2).max(1);
    while chunk >= 1 {
        let mut progress = false;
        let mut i = 0;
        while i < n {
            let window: Vec<usize> = (i..(i + chunk).min(n)).filter(|&j| keep[j]).collect();
            if !window.is_empty() {
                for &j in &window {
                    keep[j] = false;
                }
                if try_keep(&keep, lean) {
                    progress = true;
                } else {
                    for &j in &window {
                        keep[j] = true;
                    }
                }
            }
            i += chunk;
        }
        if chunk == 1 && !progress {
            break;
        }
        if chunk == 1 {
            continue; // another pass at granularity 1 while it helps
        }
        chunk /= 2;
    }

    let (prog, fault) = compose(orig_safe, &keep, fault, lean);
    let insts = inst_count(&crate::gen::build(&prog));
    Repro { prog, fault, insts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::inject::{inject, FaultKind};

    /// MPX legitimately misses a memcpy overflow; use that stable verdict
    /// to exercise the shrinker machinery end to end.
    #[test]
    fn shrinks_a_missed_wrapper_overflow_to_a_tiny_module() {
        let prog = generate(51, 24);
        let (_, fault) = inject(&prog, FaultKind::MemcpyOverflow, 0);
        let repro = shrink(&prog, Some(&fault), FScheme::Mpx, &Verdict::Missed);
        let kept = repro.fault.as_ref();
        let want = Verdict::Missed;
        assert!(still_fails(&repro.prog, kept, FScheme::Mpx, &want));
        assert!(
            repro.prog.ops.len() <= fault.ops.len() + 2,
            "kept too many safe ops: {:?}",
            repro.prog.ops
        );
        assert!(
            repro.insts <= 30,
            "reproducer has {} MIR instructions",
            repro.insts
        );
    }

    #[test]
    fn shrinking_a_detection_preserves_the_verdict() {
        let prog = generate(53, 24);
        let (_, fault) = inject(&prog, FaultKind::HeapOverflow, 1);
        let repro = shrink(&prog, Some(&fault), FScheme::SgxBounds, &Verdict::Detected);
        let kept = repro.fault.as_ref();
        let want = Verdict::Detected;
        assert!(still_fails(&repro.prog, kept, FScheme::SgxBounds, &want));
        assert!(repro.insts <= 30, "{} insts", repro.insts);
    }
}
