//! One out-of-bounds read, followed from detection to a rendered
//! forensic report.
//!
//! The walk: a committed OOB demo (a 5-element heap array read one
//! element past the end) runs under SGXBounds with the object provenance
//! ledger attached. The trap becomes a `sgxs-incident-v1` artifact that
//! joins four witnesses of the same bug:
//!
//!   - the *dynamic* fault — the tagged pointer the failed check saw,
//!     decoded into `ptr` and `tag_ub`;
//!   - the *heap neighborhood* — every ledger object near the fault
//!     address, with its birth site and liveness;
//!   - the *static derivation* — the lint finding that already proved
//!     the access out of bounds without running anything;
//!   - the *trace tail* — the last events before the trap, with
//!     absolute indices into the full stream.
//!
//! The artifact is cross-tier pinned: it is assembled independently on
//! the reference interpreter and the compiled tier and byte-compared
//! before anything is emitted.
//!
//! Run with `cargo run --example incident_forensics`.

use sgxs_harness::audit::pinned_demo_incident;
use sgxs_obs::codec::Field;
use sgxs_obs::read::parse_incident;

fn main() {
    println!("== incident forensics: one OOB read, end to end ==\n");

    // Assemble on both tiers, byte-compare, return the pinned artifact.
    let window = sgxs_audit::DEFAULT_TRACE_WINDOW;
    let inc = pinned_demo_incident(window).expect("cross-tier pin holds");
    println!(
        "verdict: {} (scheme {}, tier {})",
        inc.verdict, inc.scheme, inc.tier
    );

    if let Some(f) = &inc.fault {
        println!(
            "fault:   {} of {}B — raw addr {:#x} decodes to ptr {:#x}, tag_ub {:#x}",
            f.kind, f.size, f.raw_addr, f.ptr, f.tag_ub
        );
        println!("         the pointer sits exactly at the user upper bound: one past the end\n");
    }

    // The artifact self-validates through the reader every consumer uses,
    // and its one text view (the one `repro audit` prints) shows the
    // neighborhood, derivation and indexed trace tail.
    let text = inc.put().to_pretty();
    let doc = parse_incident(&text).expect("artifact validates");
    println!("-- the sgxs-incident-v1 document's text view --");
    print!("{}", doc.render());

    let svg = sgxs_perf::incident_svg(&doc);
    println!(
        "\nsvg heap-neighborhood view: {} bytes, self-contained (starts '<svg', ends '</svg>')",
        svg.len()
    );
    println!(
        "artifact id {} — {} bytes of JSON, byte-identical on reruns and across tiers",
        doc.id,
        text.len()
    );
}
