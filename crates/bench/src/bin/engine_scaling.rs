//! Measures the experiment engine's slice scheduler on a mixed-length
//! plan: the full five-configuration suite of gzip (medium), swim (short)
//! and mcf (long, memory bound), whose heterogeneous run lengths are
//! exactly the case run-granularity scheduling handles badly — a long run
//! claimed late pins one worker while the rest go idle.
//!
//! Two executions of the same plan are timed with the same worker count:
//!
//! * **sliced** — the work-stealing slice scheduler at the configured
//!   granularity (`--slice-cycles` / `MCD_SLICE_CYCLES` / default);
//! * **run-granularity** — the same scheduler with `u64::MAX` slices, so
//!   every run executes as one unpausable task (the pre-slicing engine's
//!   behaviour), serving as the control.
//!
//! Results (including per-mode wall-clock and the sliced-vs-unsliced
//! ratio) go to `results/BENCH_engine_scaling.json`.  `--jobs N` selects
//! the worker count; `MCD_FULL=1` lengthens the runs.

use mcd_bench::{settings_from_env, write_bench_json};
use mcd_core::engine::{ExperimentEngine, RunPlan};
use mcd_workloads::Benchmark;

fn main() {
    let settings =
        settings_from_env().with_benchmarks(vec![Benchmark::Gzip, Benchmark::Swim, Benchmark::Mcf]);
    let plan = RunPlan::suite(&settings.benchmarks);
    eprintln!(
        "Engine scaling: {} jobs over gzip/swim/mcf, {} instructions each, {} workers ...",
        plan.jobs.len(),
        settings.instructions,
        settings.workers()
    );

    // Run-granularity control first so the sliced measurement cannot be
    // flattered by warmed-up allocator state.
    let unsliced_engine =
        ExperimentEngine::from_settings(&settings.clone().with_slice_cycles(u64::MAX));
    let (_, unsliced) = unsliced_engine.execute_with_stats(&plan);

    let sliced_engine = ExperimentEngine::from_settings(&settings);
    let (_, sliced) = sliced_engine.execute_with_stats(&plan);

    let ratio = if sliced.wall_seconds > 0.0 {
        unsliced.wall_seconds / sliced.wall_seconds
    } else {
        0.0
    };
    println!(
        "run-granularity: {:.3}s wall ({:.2}x speedup over serial)",
        unsliced.wall_seconds,
        unsliced.cumulative_seconds / unsliced.wall_seconds.max(1e-9)
    );
    println!(
        "sliced ({} cycles): {:.3}s wall ({:.2}x speedup over serial)",
        sliced.slice_cycles,
        sliced.wall_seconds,
        sliced.cumulative_seconds / sliced.wall_seconds.max(1e-9)
    );
    println!("sliced vs run-granularity: {ratio:.3}x");

    write_bench_json(
        "engine_scaling",
        &sliced,
        &[
            ("benchmarks", (settings.benchmarks.len() as u64).into()),
            ("unsliced_wall_seconds", unsliced.wall_seconds.into()),
            (
                "unsliced_cumulative_seconds",
                unsliced.cumulative_seconds.into(),
            ),
            ("sliced_over_unsliced_speedup", ratio.into()),
        ],
    );
}
