//! Criterion bench for the Figure 2/3 trace experiment (`epic decode`
//! load/store and floating-point traces under Attack/Decay).
// The criterion_group! expansion is undocumented generated code.
#![allow(missing_docs)]
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use criterion::{criterion_group, criterion_main, Criterion};
use mcd_core::experiments::traces;

fn bench_traces(c: &mut Criterion) {
    let data = traces::run(60_000, 42);
    let (lo, hi) = data.fp_freq_range();
    println!(
        "Figure 2/3 (reduced settings): {} intervals, FP frequency range {:.2}-{:.2} GHz",
        data.points.len(),
        lo,
        hi
    );

    let mut group = c.benchmark_group("figure2_3");
    group.sample_size(10);
    group.bench_function("epic_decode_trace_30k", |b| {
        b.iter(|| traces::run(30_000, 42))
    });
    group.finish();
}

criterion_group!(benches, bench_traces);
criterion_main!(benches);
