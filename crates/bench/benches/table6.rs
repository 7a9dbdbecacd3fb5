//! Criterion bench for the Table 6 pipeline: prints the regenerated table
//! once (reduced settings) and measures the cost of the per-benchmark runs
//! that feed it.
// The criterion_group! expansion is undocumented generated code.
#![allow(missing_docs)]
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use criterion::{criterion_group, criterion_main, Criterion};
use mcd_bench::criterion_settings;
use mcd_control::AttackDecayParams;
use mcd_core::experiments::{run_suite, table6};
use mcd_core::runner::{BenchmarkRunner, ConfigKind};
use mcd_workloads::Benchmark;

fn bench_table6(c: &mut Criterion) {
    // Regenerate the table once so the bench output contains the rows.
    let settings = criterion_settings();
    let rows = table6::mcd_rows(&run_suite(&settings));
    println!(
        "Table 6 (reduced settings)\n{}",
        table6::Table6 { rows }.render()
    );

    let mut group = c.benchmark_group("table6");
    group.sample_size(10);
    group.bench_function("baseline_mcd_run_20k", |b| {
        b.iter(|| {
            let runner = BenchmarkRunner::new(20_000, 1).with_interval(1_000);
            runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd)
        })
    });
    group.bench_function("attack_decay_run_20k", |b| {
        b.iter(|| {
            let runner = BenchmarkRunner::new(20_000, 1).with_interval(1_000);
            runner.run(
                Benchmark::Gzip,
                &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table6);
criterion_main!(benches);
