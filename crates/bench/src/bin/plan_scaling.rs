//! Measures shared instruction traces on a same-workload sweep: one
//! benchmark under many configurations — the exact shape of the paper's
//! sensitivity experiments (Figures 5-7), where every cell of the grid
//! consumes the same instruction stream.
//!
//! The sweep runs with one materialized instruction trace shared by all
//! runs, and against its control, per-run live generation
//! (`--no-trace-share` behaviour); `plan_over_pergen_speedup` is the
//! per-generation wall-clock over the shared-trace wall-clock.
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

    // A/B: shared traces vs per-run generation.  The per-generation
    // control runs first so the shared-trace measurement cannot be
    // flattered by warmed-up allocator state.
    let pergen_engine = ExperimentEngine::from_settings(&settings.clone().with_share_traces(false));
    let (pergen_outcomes, pergen) = pergen_engine.execute_with_stats(&plan);

    let shared_engine = ExperimentEngine::from_settings(&settings.clone().with_share_traces(true));
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
        ],
    );
}
