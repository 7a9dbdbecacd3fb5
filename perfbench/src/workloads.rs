//! The three workloads: what one round submits, and how its cells are
//! checked.
//!
//! A round is one closed-loop batch: the process submits the whole
//! workload and waits for all of it.  Set-up work (trace
//! materialization, processor construction, engine construction) happens
//! before a round's timer starts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use mcd_clock::OperatingPointTable;
use mcd_control::{AttackDecayController, AttackDecayParams, FrequencyController};
use mcd_core::bundle::result_digest;
use mcd_core::cache::StableHasher;
use mcd_core::experiments::table6::{self, Table6Row};
use mcd_core::{ConfigKind, EngineStats, ExperimentEngine, ExperimentSettings, RunPlan};
use mcd_sim::{McdProcessor, SimConfig, SimResult, StepOutcome};
use mcd_workloads::{Benchmark, SharedTrace, WorkloadGenerator};

use crate::control::{Timed, UPDATE_SPAN};
use crate::spans::{self_times, subtree, Tracer};
use crate::stats::quantile;

/// Named metric values of one round or one set-up.
pub type Metrics = BTreeMap<String, f64>;

/// The benchmarks of the `kernel` and `sweep` workloads with their metric
/// suffixes: the cheapest (swim), a middle (gzip) and the costliest,
/// mostly idle (mcf) per-instruction host cost.
pub const KERNEL_BENCHMARKS: [(Benchmark, &str); 3] = [
    (Benchmark::Gzip, "gzip"),
    (Benchmark::Swim, "swim"),
    (Benchmark::Mcf, "mcf"),
];
/// Committed instructions per `kernel` cell.
const KERNEL_INSTRUCTIONS: u64 = 60_000;
/// Committed instructions per `table6` cell.
const TABLE6_INSTRUCTIONS: u64 = 10_000;
/// Committed instructions per `sweep` cell.
const SWEEP_INSTRUCTIONS: u64 = 20_000;
/// Committed instructions per control interval, as in the paper presets.
const INTERVAL_INSTRUCTIONS: u64 = 1_000;
/// Kernel steps per `run_for` slice on `kernel`.
const SLICE_STEPS: u64 = 50_000;
/// Rows of the reproduced Table 6.
const TABLE6_ROWS: usize = 6;

/// What one round produced.
#[derive(Debug)]
pub struct Round {
    /// Whether the round recorded spans.
    pub traced: bool,
    /// Host seconds from submission to the last result.
    pub wall_s: f64,
    /// Committed instructions delivered by the round's cells.
    pub instructions: u64,
    /// Per cell: the digest of its output, `None` when it failed.
    pub cells: Vec<Option<u128>>,
    /// Per-layer metrics (traced rounds) and simulated fidelity figures.
    pub layer: Metrics,
}

impl Round {
    /// A round whose plan panicked: every one of its `cells` failed.
    fn panicked(tracer: &Tracer, wall_s: f64, cells: usize) -> Self {
        Round {
            traced: tracer.is_on(),
            wall_s,
            instructions: 0,
            cells: vec![None; cells],
            layer: Metrics::new(),
        }
    }
}

/// A workload ready to run rounds.
pub enum Workload {
    /// The simulation kernel alone.
    Kernel(Kernel),
    /// Table 6 through `table6::run_with_stats`.
    Table6(Table6),
    /// The Figure 6/7 grid as one engine plan.
    Sweep(Sweep),
}

impl Workload {
    /// The workload names, in the order the documentation lists them.
    pub const NAMES: [&'static str; 3] = ["kernel", "table6", "sweep"];

    /// Sets `name` up for `seed` on `workers` threads; `None` for an
    /// unknown name.
    pub fn setup(
        name: &str,
        seed: u64,
        workers: usize,
        tracer: &Tracer,
    ) -> Option<(Self, Metrics)> {
        Some(match name {
            "kernel" => {
                let (kernel, metrics) = Kernel::setup(seed, tracer);
                (Workload::Kernel(kernel), metrics)
            }
            "table6" => (
                Workload::Table6(Table6::setup(seed, workers)),
                Metrics::new(),
            ),
            "sweep" => (Workload::Sweep(Sweep::setup(seed, workers)), Metrics::new()),
            _ => return None,
        })
    }

    /// Worker threads the workload runs on.
    pub fn workers(&self) -> usize {
        match self {
            Workload::Kernel(_) => 1,
            Workload::Table6(t) => t.settings.workers(),
            Workload::Sweep(s) => s.settings.workers(),
        }
    }

    /// Runs one round, recording spans into `tracer`.
    pub fn round(&mut self, tracer: &Tracer) -> Round {
        match self {
            Workload::Kernel(k) => k.round(tracer),
            Workload::Table6(t) => t.round(tracer),
            Workload::Sweep(s) => s.round(tracer),
        }
    }

    /// The digests every round's cells must equal.  `kernel` replays each
    /// cell untimed from a live generator with an unwrapped controller;
    /// the engine workloads take their first round as the reference.
    pub fn reference(&self, first: &Round) -> Vec<Option<u128>> {
        match self {
            Workload::Kernel(k) => k.reference(),
            Workload::Table6(_) | Workload::Sweep(_) => first.cells.clone(),
        }
    }
}

/// Digest of a finished cell, or `None` if it falls short of its budget
/// or has a non-finite or zero time or energy.
fn checked(result: &SimResult, budget: u64) -> Option<u128> {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let ok = result.committed_instructions >= budget
        && result.frontend_cycles > 0
        && result.elapsed_ps > 0
        && positive(result.energy.total)
        && positive(result.chip_energy());
    ok.then(|| result_digest(result))
}

/// Ratio that reads 0 when the denominator is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const MIB: f64 = 1024.0 * 1024.0;

fn attack_decay() -> Box<dyn FrequencyController> {
    Box::new(AttackDecayController::new(
        AttackDecayParams::paper_defaults(),
        &OperatingPointTable::default(),
    ))
}

/// `kernel`: gzip, swim and mcf one after another on one thread under
/// paper-default Attack/Decay on the baseline MCD configuration, each
/// replayed from a trace materialized during set-up.
pub struct Kernel {
    seed: u64,
    traces: Vec<Arc<SharedTrace>>,
    /// Processors built for the next round, wired to that round's tracer.
    ready: Vec<McdProcessor>,
}

impl Kernel {
    fn config(seed: u64) -> SimConfig {
        let mut config = SimConfig::baseline_mcd(KERNEL_INSTRUCTIONS);
        config.seed = seed;
        config.interval_instructions = INTERVAL_INSTRUCTIONS;
        config
    }

    fn setup(seed: u64, tracer: &Tracer) -> (Self, Metrics) {
        let first = tracer.len();
        let traces: Vec<Arc<SharedTrace>> = KERNEL_BENCHMARKS
            .iter()
            .map(|(b, _)| {
                let spec = b.spec();
                tracer.span("workloads.materialize", || {
                    Arc::new(SharedTrace::materialize(&spec, seed, KERNEL_INSTRUCTIONS))
                })
            })
            .collect();
        let mut kernel = Kernel {
            seed,
            traces,
            ready: Vec::new(),
        };
        kernel.prepare(tracer);
        let mut metrics = Metrics::new();
        if tracer.is_on() {
            let materialize_ns: u64 = tracer.spans()[first..]
                .iter()
                .filter(|s| s.name == "workloads.materialize")
                .map(|s| s.duration_ns())
                .sum();
            let bytes: u64 = kernel.traces.iter().map(|t| t.bytes()).sum();
            metrics.insert(
                "workloads.materialize_s".into(),
                materialize_ns as f64 * 1e-9,
            );
            metrics.insert("workloads.trace_mib".into(), bytes as f64 / MIB);
        }
        (kernel, metrics)
    }

    /// Builds and warms the processors of the next round.
    fn prepare(&mut self, tracer: &Tracer) {
        self.ready = self
            .traces
            .iter()
            .map(|trace| {
                let controller = Box::new(Timed::new(attack_decay(), tracer.clone()));
                let mut cpu = tracer.span("sim.new", || {
                    McdProcessor::new(Self::config(self.seed), controller)
                });
                tracer.span("sim.warm_caches", || cpu.warm_caches(trace.warm_regions()));
                cpu
            })
            .collect();
    }

    fn round(&mut self, tracer: &Tracer) -> Round {
        if self.ready.is_empty() {
            self.prepare(tracer);
        }
        let cpus = std::mem::take(&mut self.ready);
        let first = tracer.len();
        let started = Instant::now();
        let results: Vec<Option<SimResult>> = cpus
            .into_iter()
            .zip(&self.traces)
            .zip(KERNEL_BENCHMARKS)
            .map(|((mut cpu, trace), (_, name))| {
                catch_unwind(AssertUnwindSafe(|| {
                    tracer.span(&format!("sim.run.{name}"), || {
                        let mut cursor = trace.cursor();
                        loop {
                            let step = tracer
                                .span("sim.run_for", || cpu.run_for(&mut cursor, SLICE_STEPS));
                            if let StepOutcome::Finished(result) = step {
                                break result;
                            }
                        }
                    })
                }))
                .ok()
            })
            .collect();
        let wall_s = started.elapsed().as_secs_f64();
        let layer = if tracer.is_on() {
            Self::layer_metrics(tracer, first, &results)
        } else {
            Metrics::new()
        };
        Round {
            traced: tracer.is_on(),
            wall_s,
            instructions: results
                .iter()
                .flatten()
                .map(|r| r.committed_instructions)
                .sum(),
            cells: results
                .iter()
                .map(|r| r.as_ref().and_then(|r| checked(r, KERNEL_INSTRUCTIONS)))
                .collect(),
            layer,
        }
    }

    /// Per-layer metrics of the round whose spans start at index `first`.
    fn layer_metrics(tracer: &Tracer, first: usize, results: &[Option<SimResult>]) -> Metrics {
        let spans = tracer.spans();
        let selfs = self_times(&spans);
        let mut m = Metrics::new();
        let (mut sim_ns, mut control_ns, mut updates) = (0u64, 0u64, 0u64);
        let (mut fed, mut recomputed) = (0u64, 0u64);
        for ((_, name), result) in KERNEL_BENCHMARKS.iter().zip(results) {
            let Some(r) = result else { continue };
            let run_name = format!("sim.run.{name}");
            let Some(root) = spans[first..].iter().find(|s| s.name == run_name) else {
                continue;
            };
            let inside = subtree(&spans, root.id);
            let (mut own, mut ctrl) = (0u64, 0u64);
            for s in spans[root.id..].iter().filter(|s| inside[s.id]) {
                if s.name == UPDATE_SPAN {
                    ctrl += selfs[s.id];
                    updates += 1;
                } else if s.name.starts_with("sim.") {
                    own += selfs[s.id];
                }
            }
            sim_ns += own;
            control_ns += ctrl;
            let ev = &r.host.events;
            let own = own as f64;
            for (metric, value) in [
                ("sim.run_s", own * 1e-9),
                (
                    "sim.ns_per_inst",
                    ratio(own, r.committed_instructions as f64),
                ),
                ("sim.ns_per_cycle", ratio(own, r.frontend_cycles as f64)),
                ("sim.cpi", r.cpi()),
                ("sim.events_per_commit", r.events_per_commit()),
                (
                    "sim.lane_push_frac",
                    ratio(ev.lane_pushes as f64, ev.pushes as f64),
                ),
                (
                    "sim.overflow_spill_frac",
                    ratio(ev.overflow_spills as f64, ev.pushes as f64),
                ),
                ("sim.avg_bucket_scan", ev.avg_bucket_scan()),
            ] {
                m.insert(format!("{metric}.{name}"), value);
            }
            fed += r.host.ann_fed;
            recomputed += r.host.ann_recomputed;
        }
        let durations = |name: &str, scale: f64| -> Vec<f64> {
            spans[first..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 * scale)
                .collect()
        };
        let slices_ms = durations("sim.run_for", 1e-6);
        let updates_us = durations(UPDATE_SPAN, 1e-3);
        for (metric, values) in [
            ("sim.slice_ms", &slices_ms),
            ("control.update_us", &updates_us),
        ] {
            for (suffix, p) in [("p50", 0.5), ("p90", 0.9)] {
                if let Some(v) = quantile(values, p) {
                    m.insert(format!("{metric}.{suffix}"), v);
                }
            }
        }
        m.insert(
            "isa.ann_fed_frac".into(),
            ratio(fed as f64, (fed + recomputed) as f64),
        );
        m.insert("control.updates".into(), updates as f64);
        m.insert(
            "control.share".into(),
            ratio(control_ns as f64, sim_ns as f64),
        );
        m
    }

    /// Untimed replays of every cell from a live generator with the bare
    /// controller: the output each timed round must reproduce.
    fn reference(&self) -> Vec<Option<u128>> {
        let seed = self.seed;
        KERNEL_BENCHMARKS
            .iter()
            .map(|(b, _)| {
                let spec = b.spec();
                catch_unwind(|| {
                    let mut cpu = McdProcessor::new(Self::config(seed), attack_decay());
                    cpu.warm_caches(&WorkloadGenerator::warm_regions(&spec));
                    cpu.run(WorkloadGenerator::new(&spec, seed, KERNEL_INSTRUCTIONS))
                })
                .ok()
                .and_then(|r| checked(&r, KERNEL_INSTRUCTIONS))
            })
            .collect()
    }
}

/// Settings of the engine workloads on `workers` threads: all 30
/// benchmarks, 1 000-instruction control intervals and four Global-search
/// iterations, pinned here so that a change to a preset does not change
/// the workload.  Every layer switch is left unset, so each layer runs as
/// it does by default.
fn engine_settings(seed: u64, workers: usize, instructions: u64) -> ExperimentSettings {
    let mut settings = ExperimentSettings::paper()
        .with_benchmarks(Benchmark::ALL.to_vec())
        .with_instructions(instructions)
        .with_jobs(workers);
    settings.interval_instructions = INTERVAL_INSTRUCTIONS;
    settings.global_search_iters = 4;
    settings.seed = seed;
    settings
}

/// Engine, cache and utilization metrics of one plan execution.
fn engine_metrics(m: &mut Metrics, stats: &EngineStats) {
    let plan_s = stats.wall_seconds;
    let busy_s = stats.cumulative_seconds;
    let results = (stats.result_cache_hits + stats.result_cache_misses) as f64;
    let traces = (stats.trace_cache_hits + stats.trace_materializations) as f64;
    for (name, value) in [
        ("engine.plan_s", plan_s),
        ("engine.busy_s", busy_s),
        (
            "engine.utilization",
            ratio(busy_s, stats.workers as f64 * plan_s),
        ),
        ("engine.runs", stats.runs as f64),
        ("engine.gang_batches", stats.gang_batches as f64),
        ("engine.gang_members", stats.gang_members as f64),
        (
            "engine.checkpoint_restores",
            stats.checkpoint_restores as f64,
        ),
        (
            "engine.prefix_cycles_saved",
            stats.prefix_cycles_saved as f64,
        ),
        (
            "cache.result_hit_frac",
            ratio(stats.result_cache_hits as f64, results),
        ),
        (
            "cache.trace_hit_frac",
            ratio(stats.trace_cache_hits as f64, traces),
        ),
        (
            "cache.trace_materializations",
            stats.trace_materializations as f64,
        ),
        ("cache.trace_peak_mib", stats.trace_peak_bytes as f64 / MIB),
    ] {
        m.insert(name.into(), value);
    }
}

/// `table6`: the reproduced Table 6 over all 30 benchmarks, Global rows
/// included.
pub struct Table6 {
    settings: ExperimentSettings,
}

impl Table6 {
    fn setup(seed: u64, workers: usize) -> Self {
        Table6 {
            settings: engine_settings(seed, workers, TABLE6_INSTRUCTIONS),
        }
    }

    fn row_digest(row: &Table6Row) -> Option<u128> {
        let values = [
            row.perf_degradation,
            row.energy_savings,
            row.edp_improvement,
            row.power_savings,
        ];
        if !values.iter().all(|v| v.is_finite()) {
            return None;
        }
        let mut h = StableHasher::new();
        h.write_str(&row.algorithm);
        for v in values.into_iter().chain(row.power_perf_ratio) {
            h.write_f64(v);
        }
        Some(h.finish())
    }

    fn round(&mut self, tracer: &Tracer) -> Round {
        let settings = &self.settings;
        let started = Instant::now();
        let out =
            catch_unwind(|| tracer.span("experiments.table6", || table6::run_with_stats(settings)));
        let wall_s = started.elapsed().as_secs_f64();
        let Ok((table, stats)) = out else {
            return Round::panicked(tracer, wall_s, TABLE6_ROWS);
        };
        // Every simulation the engine ran must have committed its budget.
        let complete = stats.simulated_instructions == stats.runs as u64 * settings.instructions;
        let mut cells: Vec<Option<u128>> = table
            .rows
            .iter()
            .map(|row| Self::row_digest(row).filter(|_| complete))
            .collect();
        cells.resize(TABLE6_ROWS, None);

        let mut layer = Metrics::new();
        let row = |label: &str| table.row(label);
        if let (Some(d1), Some(d5), Some(g5)) = (
            row("Dynamic-1%"),
            row("Dynamic-5%"),
            row("Global (Dynamic-5%)"),
        ) {
            layer.insert(
                "dyn1_target_miss_pp".into(),
                (d1.perf_degradation - 0.01).abs() * 100.0,
            );
            layer.insert(
                "dyn5_target_miss_pp".into(),
                (d5.perf_degradation - 0.05).abs() * 100.0,
            );
            layer.insert(
                "mcd_over_global_energy_pp".into(),
                (d5.energy_savings - g5.energy_savings) * 100.0,
            );
        }
        if tracer.is_on() {
            let global_s = (wall_s - stats.wall_seconds).max(0.0);
            layer.insert("experiments.suite_s".into(), stats.wall_seconds);
            layer.insert("experiments.global_s".into(), global_s);
            layer.insert("experiments.global_frac".into(), ratio(global_s, wall_s));
            engine_metrics(&mut layer, &stats);
        }
        Round {
            traced: tracer.is_on(),
            wall_s,
            // The suite cells each deliver the budget; the Global rows'
            // search runs are timed but not counted.
            instructions: settings.benchmarks.len() as u64 * 5 * settings.instructions,
            cells,
            layer,
        }
    }
}

/// The 20 Attack/Decay points of the full Figure 6/7 grids: Decay,
/// ReactionChange and DeviationThreshold, each swept around its figure's
/// fixed parameters.
fn figure6_7_points() -> Vec<AttackDecayParams> {
    let base = AttackDecayParams {
        deviation_threshold: 0.015,
        reaction_change: 0.04,
        decay: 0.0,
        perf_deg_threshold: 0.03,
        endstop_count: 10,
    };
    let decay = [0.0005, 0.00175, 0.005, 0.0075, 0.010, 0.015, 0.020]
        .map(|decay| AttackDecayParams { decay, ..base });
    let reaction =
        [0.005, 0.02, 0.04, 0.06, 0.09, 0.12, 0.155].map(|reaction_change| AttackDecayParams {
            reaction_change,
            decay: 0.0075,
            ..base
        });
    let deviation =
        [0.0, 0.0025, 0.0075, 0.0125, 0.0175, 0.025].map(|deviation_threshold| AttackDecayParams {
            deviation_threshold,
            ..AttackDecayParams::paper_defaults()
        });
    decay.into_iter().chain(reaction).chain(deviation).collect()
}

/// `sweep`: gzip, swim and mcf, each under the baseline MCD and the 20
/// Figure 6/7 points, as one plan through one fresh engine per round.
pub struct Sweep {
    settings: ExperimentSettings,
    plan: RunPlan,
    /// Engine for the next round (a reused engine would serve every cell
    /// from its result cache).
    ready: Option<ExperimentEngine>,
}

impl Sweep {
    fn setup(seed: u64, workers: usize) -> Self {
        let settings = engine_settings(seed, workers, SWEEP_INSTRUCTIONS);
        let points = figure6_7_points();
        let mut plan = RunPlan::new();
        for (b, _) in KERNEL_BENCHMARKS {
            plan = plan.job(b, ConfigKind::BaselineMcd);
            for &p in &points {
                plan = plan.job(b, ConfigKind::AttackDecay(p));
            }
        }
        let ready = Some(ExperimentEngine::from_settings(&settings));
        Sweep {
            settings,
            plan,
            ready,
        }
    }

    fn round(&mut self, tracer: &Tracer) -> Round {
        let engine = self
            .ready
            .take()
            .unwrap_or_else(|| ExperimentEngine::from_settings(&self.settings));
        let plan = &self.plan;
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tracer.span("engine.execute_with_stats", || {
                engine.execute_with_stats(plan)
            })
        }));
        let wall_s = started.elapsed().as_secs_f64();
        let Ok((outcomes, stats)) = out else {
            return Round::panicked(tracer, wall_s, plan.jobs.len());
        };
        let mut cells: Vec<Option<u128>> = outcomes
            .iter()
            .map(|o| checked(&o.result, self.settings.instructions))
            .collect();
        cells.resize(plan.jobs.len(), None);
        let mut layer = Metrics::new();
        if tracer.is_on() {
            engine_metrics(&mut layer, &stats);
            let cell_s: Vec<f64> = outcomes
                .iter()
                .filter(|o| !o.result.host.result_cache_hit)
                .map(|o| o.result.host.wall_seconds)
                .collect();
            for (suffix, p) in [("p50", 0.5), ("p90", 0.9)] {
                if let Some(v) = quantile(&cell_s, p) {
                    layer.insert(format!("engine.cell_s.{suffix}"), v);
                }
            }
            let fed: u64 = outcomes.iter().map(|o| o.result.host.ann_fed).sum();
            let recomputed: u64 = outcomes.iter().map(|o| o.result.host.ann_recomputed).sum();
            layer.insert(
                "isa.ann_fed_frac".into(),
                ratio(fed as f64, (fed + recomputed) as f64),
            );
        }
        Round {
            traced: tracer.is_on(),
            wall_s,
            instructions: outcomes
                .iter()
                .map(|o| o.result.committed_instructions)
                .sum(),
            cells,
            layer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_grid_has_twenty_points() {
        let points = figure6_7_points();
        assert_eq!(points.len(), 20);
        assert!(points.iter().all(|p| p.validate().is_ok()));
    }
}
