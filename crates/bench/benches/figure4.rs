//! Criterion bench for the Figure 4 pipeline: per-application comparisons
//! against the fully synchronous processor.
// The criterion_group! expansion is undocumented generated code.
#![allow(missing_docs)]
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use criterion::{criterion_group, criterion_main, Criterion};
use mcd_bench::criterion_settings;
use mcd_core::experiments::{figure4, run_suite};

fn bench_figure4(c: &mut Criterion) {
    let settings = criterion_settings();
    let fig = figure4::from_outcomes(&run_suite(&settings));
    println!("Figure 4 (reduced settings)\n{}", fig.render());

    let mut group = c.benchmark_group("figure4");
    group.sample_size(10);
    group.bench_function("suite_two_benchmarks_20k", |b| {
        b.iter(|| run_suite(&criterion_settings()))
    });
    group.finish();
}

criterion_group!(benches, bench_figure4);
criterion_main!(benches);
