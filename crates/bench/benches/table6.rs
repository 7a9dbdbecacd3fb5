//! Criterion bench for the Table 6 / Figure 4 pipeline: prints the MCD
//! rows of Table 6 and Figure 4, regenerated once from one suite run
//! (reduced settings), and measures the suite and single runs of it.
// The criterion_group! expansion is undocumented generated code.
#![allow(missing_docs)]
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use criterion::{criterion_group, criterion_main, Criterion};
use mcd_bench::criterion_settings;
use mcd_control::AttackDecayParams;
use mcd_core::experiments::{figure4, run_suite, table6};
use mcd_core::runner::{BenchmarkRunner, ConfigKind};
use mcd_workloads::Benchmark;

fn bench_table6(c: &mut Criterion) {
    // Regenerate the artefacts once so the bench output contains them.
    let outcomes = run_suite(&criterion_settings());
    let rows = table6::mcd_rows(&outcomes);
    println!(
        "Table 6 (reduced settings)\n{}",
        table6::Table6 { rows }.render()
    );
    let fig = figure4::from_outcomes(&outcomes);
    println!("Figure 4 (reduced settings)\n{}", fig.render());

    let mut group = c.benchmark_group("table6");
    group.sample_size(10);
    group.bench_function("suite_two_benchmarks_20k", |b| {
        b.iter(|| run_suite(&criterion_settings()))
    });
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
