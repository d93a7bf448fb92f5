//! Microbenchmarks of the runtime primitives: tagged-pointer operations and
//! the per-event costs of the memory model (one cache lookup per level, one
//! EPC touch, one `Machine::load`).
//!
//! A clock read costs tens of nanoseconds on a virtual machine, more than a
//! cache lookup, so every memory-model benchmark times a seeded stream of
//! `STREAM` accesses per sample (after one untimed warm-up pass, which also
//! commits every page the stream touches) and reports the time per access.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sgxbounds::tagged;
use sgxs_sim::{cache::Cache, epc::Epc, Machine, MachineConfig, Mode, Preset, PAGE_SIZE};

/// Accesses per timed sample.
const STREAM: usize = 1 << 16;

/// `STREAM` seeded pseudo-random values in `0..span`.
fn stream(seed: u64, span: u64) -> Vec<u64> {
    let mut x = seed;
    (0..STREAM)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % span
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");

    g.bench_function("tagged/make_extract_check", |b| {
        b.iter(|| {
            let t = tagged::make(black_box(0x1000), black_box(0x2000));
            let p = tagged::ptr_of(t);
            let ub = tagged::ub_of(t);
            black_box(tagged::violates(p, 8, 0x1000, ub))
        })
    });

    g.throughput(Throughput::Elements(STREAM as u64));
    let cfg = MachineConfig::preset(Preset::Tiny, Mode::Enclave);

    // Each level of the Tiny hierarchy, on lines drawn from twice its
    // capacity: about half the lookups hit, and every miss evicts.
    for (level, bytes, assoc) in [
        ("l1", cfg.l1_bytes, cfg.l1_assoc),
        ("l2", cfg.l2_bytes, cfg.l2_assoc),
        ("l3", cfg.l3_bytes, cfg.l3_assoc),
    ] {
        let lines = stream(1, 2 * (bytes / 64) as u64);
        let mut cache = Cache::new(bytes, assoc);
        g.bench_function(format!("cache/{level}_{assoc}way_access"), |b| {
            b.iter(|| {
                for &l in &lines {
                    black_box(cache.access(l << 6));
                }
            })
        });
    }

    let pages = cfg.epc_bytes / PAGE_SIZE as u64;
    let touches = stream(2, 2 * pages);
    let mut epc = Epc::new(pages as usize);
    g.bench_function("epc/touch_2x_capacity", |b| {
        b.iter(|| {
            for &p in &touches {
                black_box(epc.touch(p as u32));
            }
        })
    });

    // 8-byte loads over half the EPC (fits; mostly cache misses that hit
    // resident pages) and over twice the EPC (thrashes).
    for (name, span) in [("fit", cfg.epc_bytes / 2), ("thrash", cfg.epc_bytes * 2)] {
        let addrs = stream(3, span / 8);
        let mut m = Machine::new(cfg);
        g.bench_function(format!("machine/load_epc_{name}"), |b| {
            b.iter(|| {
                for &a in &addrs {
                    black_box(m.load(0, a * 8, 8).expect("in range"));
                }
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
