//! Measures grid-aware batched execution on a same-workload sweep: one
//! benchmark under many configurations — the exact shape of the paper's
//! sensitivity experiments (Figures 5-7), where every cell of the grid
//! consumes the same instruction stream.
//!
//! Two layers are measured, each against its own control:
//!
//! * **Shared traces** — the sweep executed with one materialized
//!   instruction trace shared by all runs, versus per-run live
//!   generation (`--no-trace-share` behaviour).  Both passes disable
//!   result memoization so every cell really simulates;
//!   `plan_over_pergen_speedup` is the per-generation wall-clock over
//!   the shared-trace wall-clock.
//! * **Result memoization** — the same plan executed twice on one
//!   engine with the result cache enabled; the repeat is served
//!   entirely from memoized outcomes (`repeat_result_cache_hits` out of
//!   `repeat_result_cache_hits + repeat_result_cache_misses` probes)
//!   and `repeat_over_cold_speedup` reports the saved wall-clock.
//!
//! Results go to `results/BENCH_plan_scaling.json`.  `--jobs N` selects
//! the worker count; `MCD_FULL=1` lengthens the runs; `--benchmark` is
//! fixed (gzip) so the artefact is comparable across commits.

use mcd_bench::{settings_from_env, write_bench_json};
use mcd_control::AttackDecayParams;
use mcd_core::engine::{ExperimentEngine, RunPlan};
use mcd_core::runner::ConfigKind;
use mcd_workloads::Benchmark;

/// A sensitivity-style sweep: every configuration family of the paper
/// over one benchmark, so all jobs share one workload stream.
fn sweep_plan(bench: Benchmark) -> RunPlan {
    let mut plan = RunPlan::new()
        .job(bench, ConfigKind::FullySynchronous)
        .job(bench, ConfigKind::BaselineMcd);
    for decay in [0.005, 0.01, 0.015, 0.02] {
        let mut params = AttackDecayParams::paper_defaults();
        params.decay = decay;
        plan = plan.job(bench, ConfigKind::AttackDecay(params));
    }
    for target_degradation in [0.01, 0.02, 0.05] {
        plan = plan.job(bench, ConfigKind::OfflineDynamic { target_degradation });
    }
    for freq_mhz in [1000.0, 875.0, 750.0] {
        plan = plan.job(bench, ConfigKind::GlobalScaling { freq_mhz });
    }
    plan
}

fn main() {
    let bench = Benchmark::Gzip;
    let settings = settings_from_env();
    let plan = sweep_plan(bench);
    eprintln!(
        "Plan scaling: {} same-workload jobs over {:?}, {} instructions each, {} workers ...",
        plan.jobs.len(),
        bench,
        settings.instructions,
        settings.workers()
    );

    // --- A/B: shared traces vs per-run generation (no memoization, so
    // every cell simulates in both passes).  The per-generation control
    // runs first so the shared-trace measurement cannot be flattered by
    // warmed-up allocator state.
    let pergen_engine = ExperimentEngine::from_settings(
        &settings
            .clone()
            .with_share_traces(false)
            .with_result_cache(false),
    );
    let (pergen_outcomes, pergen) = pergen_engine.execute_with_stats(&plan);

    let shared_engine = ExperimentEngine::from_settings(
        &settings
            .clone()
            .with_share_traces(true)
            .with_result_cache(false),
    );
    let (shared_outcomes, shared) = shared_engine.execute_with_stats(&plan);

    for (a, b) in pergen_outcomes.iter().zip(&shared_outcomes) {
        assert_eq!(
            a.result, b.result,
            "shared traces must not change simulated results"
        );
    }
    let plan_over_pergen = if shared.wall_seconds > 0.0 {
        pergen.wall_seconds / shared.wall_seconds
    } else {
        0.0
    };
    println!(
        "per-run generation: {:.3}s wall, {} runs",
        pergen.wall_seconds, pergen.runs
    );
    println!(
        "shared trace:       {:.3}s wall, {} runs ({} materialization(s), {} trace hits, peak {} KiB)",
        shared.wall_seconds,
        shared.runs,
        shared.trace_materializations,
        shared.trace_cache_hits,
        shared.trace_peak_bytes / 1024
    );
    println!("shared vs per-run generation: {plan_over_pergen:.3}x");

    // --- Repeat plan on one engine: the second execution is served from
    // the result cache.
    let cached_engine = ExperimentEngine::from_settings(&settings.clone().with_result_cache(true));
    let (_, cold) = cached_engine.execute_with_stats(&plan);
    let (warm_outcomes, warm) = cached_engine.execute_with_stats(&plan);
    for (a, b) in shared_outcomes.iter().zip(&warm_outcomes) {
        assert_eq!(a.result, b.result, "memoized repeats must be bit-identical");
    }
    let repeat_over_cold = if warm.wall_seconds > 0.0 {
        cold.wall_seconds / warm.wall_seconds
    } else {
        0.0
    };
    println!(
        "repeat plan: cold {:.3}s -> warm {:.3}s ({repeat_over_cold:.1}x), \
         {} hits / {} misses, {} simulations",
        cold.wall_seconds,
        warm.wall_seconds,
        warm.result_cache_hits,
        warm.result_cache_misses,
        warm.runs
    );

    write_bench_json(
        "plan_scaling",
        &shared,
        &[
            ("plan_jobs", (plan.jobs.len() as u64).into()),
            ("pergen_wall_seconds", pergen.wall_seconds.into()),
            (
                "pergen_cumulative_seconds",
                pergen.cumulative_seconds.into(),
            ),
            ("plan_over_pergen_speedup", plan_over_pergen.into()),
            ("cold_wall_seconds", cold.wall_seconds.into()),
            ("repeat_wall_seconds", warm.wall_seconds.into()),
            ("repeat_over_cold_speedup", repeat_over_cold.into()),
            ("repeat_result_cache_hits", warm.result_cache_hits.into()),
            (
                "repeat_result_cache_misses",
                warm.result_cache_misses.into(),
            ),
            ("repeat_runs", (warm.runs as u64).into()),
        ],
    );
}
