//! Criterion bench for the sensitivity sweeps of Figures 5, 6 and 7.
// The criterion_group! expansion is undocumented generated code.
#![allow(missing_docs)]
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use criterion::{criterion_group, criterion_main, Criterion};
use mcd_bench::criterion_settings;
use mcd_core::experiments::sensitivity;

fn bench_sensitivity(c: &mut Criterion) {
    let settings = criterion_settings();
    let fig5 = sensitivity::run(&settings, &sensitivity::PERF_DEG_TARGET, &[0.0, 0.06, 0.12]);
    let fig6a = sensitivity::run(&settings, &sensitivity::DECAY, &[0.00175, 0.0075]);
    println!("Figure 5 (reduced settings)\n{}", fig5.render());
    println!("Figure 6(a)/7(a) (reduced settings)\n{}", fig6a.render());

    let mut group = c.benchmark_group("sensitivity");
    group.sample_size(10);
    group.bench_function("one_sweep_point", |b| {
        b.iter(|| sensitivity::run(&criterion_settings(), &sensitivity::DECAY, &[0.0075]))
    });
    group.finish();
}

criterion_group!(benches, bench_sensitivity);
criterion_main!(benches);
