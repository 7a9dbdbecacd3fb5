//! One entry point per table/figure of the paper's evaluation.
//!
//! | Entry point | Paper artefact |
//! |---|---|
//! | [`run_suite`] | the per-benchmark runs underlying Table 6 and Figure 4 |
//! | [`table6`] | Table 6 — algorithm comparison relative to the baseline MCD processor |
//! | [`figure4`] | Figure 4(a–c) — per-application results relative to the fully synchronous processor |
//! | [`traces`] | Figures 2 and 3 — `epic decode` load/store and floating-point traces |
//! | [`sensitivity`] | Figures 5, 6 and 7 — parameter sensitivity sweeps |
//! | [`reproduce`] | Table 6 and Figures 4–7 from one plan on one engine |

use mcd_clock::{MegaHertz, OperatingPointTable};
use mcd_control::AttackDecayParams;
use mcd_sim::SimResult;
use mcd_workloads::Benchmark;
use serde::{Deserialize, Serialize};

use crate::engine::{EngineStats, ExperimentEngine, RunPlan};
use crate::metrics::{suite_average, Comparison};
use crate::report::{pct, ratio, TextTable};
use crate::runner::{BenchmarkRunner, ConfigKind, RunOutcome};

/// Settings shared by all experiments: which benchmarks to run, how many
/// instructions per run, and how much effort to spend matching the global
/// scaling frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSettings {
    /// The benchmarks to include.
    pub benchmarks: Vec<Benchmark>,
    /// Committed instructions per run.
    pub instructions: u64,
    /// Committed instructions per control interval.  The paper uses 10 000
    /// over windows of 50M-2B instructions; the harness scales both down so
    /// that a run still spans on the order of a hundred control intervals.
    pub interval_instructions: u64,
    /// Workload / clock seed.
    pub seed: u64,
    /// Maximum rounds of the Global search that matches a global-scaling
    /// frequency to each target slowdown (see
    /// [`table6::global_matching`]; at least one round always runs).
    pub global_search_iters: usize,
    /// Worker threads of the experiment engine (None: the `MCD_JOBS`
    /// environment variable, then the host's available parallelism).
    pub jobs: Option<usize>,
}

impl ExperimentSettings {
    /// A quick configuration for tests and examples: a representative
    /// cross-suite subset and short runs.
    pub fn quick() -> Self {
        ExperimentSettings {
            benchmarks: vec![
                Benchmark::Adpcm,
                Benchmark::Epic,
                Benchmark::Gzip,
                Benchmark::Mcf,
                Benchmark::Treeadd,
                Benchmark::Swim,
            ],
            instructions: 60_000,
            interval_instructions: 1_000,
            seed: 42,
            global_search_iters: 3,
            jobs: None,
        }
    }

    /// The full-suite configuration used by the benchmark harness: all 30
    /// benchmarks of Table 5 with longer windows.
    pub fn paper() -> Self {
        ExperimentSettings {
            benchmarks: Benchmark::ALL.to_vec(),
            instructions: 400_000,
            interval_instructions: 1_000,
            seed: 42,
            global_search_iters: 4,
            jobs: None,
        }
    }

    /// Builder-style override of the instruction budget.
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        self.instructions = instructions;
        self
    }

    /// Builder-style override of the benchmark list.
    pub fn with_benchmarks(mut self, benchmarks: Vec<Benchmark>) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Builder-style override of the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// The worker count these settings resolve to.
    pub fn workers(&self) -> usize {
        crate::engine::worker_count(self.jobs)
    }
}

/// The five runs of one benchmark that Table 6 and Figure 4 are built from.
#[derive(Debug, Clone)]
pub struct BenchmarkOutcomes {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Fully synchronous processor at 1 GHz.
    pub sync: SimResult,
    /// Baseline MCD processor (all domains at maximum frequency).
    pub baseline_mcd: SimResult,
    /// MCD + Attack/Decay (paper parameters).
    pub attack_decay: SimResult,
    /// MCD + off-line Dynamic-1%.
    pub dynamic1: SimResult,
    /// MCD + off-line Dynamic-5%.
    pub dynamic5: SimResult,
}

/// Runs the five configurations of every benchmark in the settings on the
/// parallel experiment engine.
pub fn run_suite(settings: &ExperimentSettings) -> Vec<BenchmarkOutcomes> {
    run_suite_with_stats(settings).0
}

/// Runs the suite and also returns the engine's host-side statistics
/// (worker count, wall-clock, aggregate simulated MIPS) for the
/// `BENCH_*.json` artefacts.
pub fn run_suite_with_stats(
    settings: &ExperimentSettings,
) -> (Vec<BenchmarkOutcomes>, EngineStats) {
    let engine = ExperimentEngine::from_settings(settings);
    let (outcomes, stats) = engine.execute_with_stats(&RunPlan::suite(&settings.benchmarks));
    (group_suite(outcomes), stats)
}

/// Groups the outcomes of a [`RunPlan::suite`] plan by benchmark.
fn group_suite(outcomes: Vec<RunOutcome>) -> Vec<BenchmarkOutcomes> {
    // The plan lists five configurations per benchmark, in order; move
    // the results out rather than clone them.
    let mut grouped = Vec::with_capacity(outcomes.len() / 5);
    let mut runs = outcomes.into_iter();
    while let Some(sync) = runs.next() {
        let mut next = || {
            runs.next()
                .expect("plan has five configurations per benchmark")
        };
        grouped.push(BenchmarkOutcomes {
            benchmark: sync.benchmark,
            sync: sync.result,
            baseline_mcd: next().result,
            attack_decay: next().result,
            dynamic1: next().result,
            dynamic5: next().result,
        });
    }
    grouped
}

/// Table 6 — comparison of Attack/Decay, Dynamic-1%, Dynamic-5% and global
/// voltage scaling.
pub mod table6 {
    use std::rc::Rc;

    use super::*;

    /// One row of Table 6.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Table6Row {
        /// Algorithm label.
        pub algorithm: String,
        /// Average performance degradation.
        pub perf_degradation: f64,
        /// Average energy savings.
        pub energy_savings: f64,
        /// Average energy-delay-product improvement.
        pub edp_improvement: f64,
        /// Average power savings.
        pub power_savings: f64,
        /// Power-savings / performance-degradation ratio.
        pub power_perf_ratio: Option<f64>,
    }

    /// The reproduced Table 6.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Table6 {
        /// Rows in the paper's order: Attack/Decay, Dynamic-1%, Dynamic-5%,
        /// Global(Attack/Decay), Global(Dynamic-1%), Global(Dynamic-5%).
        pub rows: Vec<Table6Row>,
    }

    impl Table6 {
        /// Looks up a row by its algorithm label.
        pub fn row(&self, algorithm: &str) -> Option<&Table6Row> {
            self.rows.iter().find(|r| r.algorithm == algorithm)
        }

        /// Renders the table as text.
        pub fn render(&self) -> String {
            let mut t = TextTable::new(vec![
                "Algorithm",
                "Perf. degradation",
                "Energy savings",
                "EDP improvement",
                "Power/Perf ratio",
            ]);
            for r in &self.rows {
                t.push_row(vec![
                    r.algorithm.clone(),
                    pct(r.perf_degradation),
                    pct(r.energy_savings),
                    pct(r.edp_improvement),
                    ratio(r.power_perf_ratio),
                ]);
            }
            t.render()
        }
    }

    fn average_row(label: &str, comparisons: &[Comparison]) -> Table6Row {
        let avg = suite_average(comparisons);
        let ratio = if avg.perf_degradation > 1e-6 {
            Some(avg.power_savings / avg.perf_degradation)
        } else {
            None
        };
        Table6Row {
            algorithm: label.to_string(),
            perf_degradation: avg.perf_degradation,
            energy_savings: avg.energy_savings,
            edp_improvement: avg.edp_improvement,
            power_savings: avg.power_savings,
            power_perf_ratio: ratio,
        }
    }

    /// Builds the MCD rows of Table 6 from per-benchmark outcomes
    /// (everything is relative to the baseline MCD processor, as in the
    /// paper).
    pub fn mcd_rows(outcomes: &[BenchmarkOutcomes]) -> Vec<Table6Row> {
        let against_baseline = |pick: fn(&BenchmarkOutcomes) -> &SimResult| -> Vec<Comparison> {
            outcomes
                .iter()
                .map(|o| Comparison::vs(pick(o), &o.baseline_mcd))
                .collect()
        };
        vec![
            average_row("Attack/Decay", &against_baseline(|o| &o.attack_decay)),
            average_row("Dynamic-1%", &against_baseline(|o| &o.dynamic1)),
            average_row("Dynamic-5%", &against_baseline(|o| &o.dynamic5)),
        ]
    }

    /// Runs the full Table 6 experiment, including the `Global(...)` rows:
    /// for each algorithm, the fully synchronous processor is globally
    /// scaled until it matches that algorithm's average performance
    /// degradation, and the resulting (much smaller) energy savings are
    /// reported.
    pub fn run(settings: &ExperimentSettings) -> Table6 {
        run_with_stats(settings).0
    }

    /// Runs the Table 6 experiment, also returning the suite engine's
    /// host-side statistics (the `Global(...)` search plans are not part
    /// of the returned stats).
    pub fn run_with_stats(settings: &ExperimentSettings) -> (Table6, EngineStats) {
        let (outcomes, stats) = run_suite_with_stats(settings);
        // The search's engine is created only now, after the suite's
        // engine and its caches are dropped, so the two never hold memory
        // at the same time.
        let engine = ExperimentEngine::from_settings(settings);
        let (table, _) = from_outcomes(&engine, &outcomes, settings.global_search_iters);
        (table, stats)
    }

    /// Builds Table 6 from per-benchmark outcomes: the MCD rows, then one
    /// `Global (...)` row per MCD row from one [`global_matching`] search
    /// on `engine` over every (algorithm, benchmark) cell.  Also returns
    /// the host-side statistics of each round of the search.
    pub fn from_outcomes(
        engine: &ExperimentEngine,
        outcomes: &[BenchmarkOutcomes],
        rounds: usize,
    ) -> (Table6, Vec<EngineStats>) {
        let mut rows = mcd_rows(outcomes);
        let targets: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.algorithm.clone(), r.perf_degradation.max(0.0)))
            .collect();
        let cells: Vec<(Benchmark, f64, &SimResult)> = targets
            .iter()
            .flat_map(|&(_, target)| outcomes.iter().map(move |o| (o.benchmark, target, &o.sync)))
            .collect();
        let (scaled, stats) = global_matching(engine, &cells, rounds);

        let n = outcomes.len();
        for (k, (label, _)) in targets.iter().enumerate() {
            let comparisons: Vec<Comparison> = scaled[k * n..(k + 1) * n]
                .iter()
                .zip(outcomes)
                .map(|((_, run), o)| Comparison::vs(&run.result, &o.sync))
                .collect();
            rows.push(average_row(&format!("Global ({label})"), &comparisons));
        }

        (Table6 { rows }, stats)
    }

    /// The probes of one benchmark's Global search, shared by all of its
    /// cells: a `GlobalScaling` run depends only on the benchmark and the
    /// frequency, so every target of a benchmark lies on one curve t(f).
    struct Pool {
        bench: Benchmark,
        /// The fully synchronous run at the maximum frequency, `(f_max,
        /// elapsed ps)`: a point of the curve that costs no probe.
        anchor: (MegaHertz, f64),
        /// The largest target degradation among the benchmark's cells.
        deepest: f64,
        /// `(frequency, elapsed ps)` of every probe simulated so far.
        probes: Vec<(MegaHertz, f64)>,
    }

    impl Pool {
        fn has(&self, freq: MegaHertz) -> bool {
            self.probes.iter().any(|&(f, _)| f == freq)
        }

        /// The probes, plus the anchor unless a probe sits at its
        /// frequency.
        fn points(&self) -> Vec<(MegaHertz, f64)> {
            let mut points = self.probes.clone();
            if !self.has(self.anchor.0) {
                points.push(self.anchor);
            }
            points
        }
    }

    /// One `(target, benchmark)` cell of the Global search.
    struct Cell {
        pool: usize,
        /// Elapsed time the scaled run should reach, in picoseconds.
        target_time: f64,
        open: bool,
        /// `(|time error| in ps, frequency, run)` of the closest probe.
        best: Option<(f64, MegaHertz, Rc<RunOutcome>)>,
    }

    impl Cell {
        /// Keeps the run if it is the closest match so far; an exact tie
        /// goes to the higher frequency, so the result does not depend on
        /// the order in which probes arrive.
        fn observe(&mut self, freq: MegaHertz, time: f64, run: &Rc<RunOutcome>) {
            let err = (time - self.target_time).abs();
            let better = self
                .best
                .as_ref()
                .is_none_or(|&(e, f, _)| err.total_cmp(&e).then(f.total_cmp(&freq)).is_lt());
            if better {
                self.best = Some((err, freq, Rc::clone(run)));
            }
        }

        /// The cell's next probe, or `None` once the table point the
        /// model picks has already run.
        fn next_probe(&self, pool: &Pool, table: &OperatingPointTable) -> Option<MegaHertz> {
            let (f_min, f_max) = (table.min_point().freq_mhz, table.max_point().freq_mhz);
            let target = self.target_time;
            let points = pool.points();
            let slow = points.iter().filter(|p| p.1 > target);
            let fast = points.iter().filter(|p| p.1 <= target);
            // The bracket: the fastest too-slow and the slowest fast-enough
            // frequency, the table's ends when a side has no probe.
            let lo = slow.clone().map(|p| p.0).fold(f_min, f64::max);
            let hi = fast.clone().map(|p| p.0).fold(f_max, f64::min);
            // Fit `t = a + b/f` through the two points nearest the target
            // time, one on each side when both sides have one.
            let closest = |a: &&(f64, f64), b: &&(f64, f64)| {
                let (ea, eb) = ((a.1 - target).abs(), (b.1 - target).abs());
                ea.total_cmp(&eb).then(b.0.total_cmp(&a.0))
            };
            let pair = match (slow.clone().min_by(closest), fast.clone().min_by(closest)) {
                (Some(&s), Some(&q)) => Some((s, q)),
                _ => {
                    let mut near: Vec<_> = points.iter().collect();
                    near.sort_by(closest);
                    (near.len() >= 2).then(|| (*near[0], *near[1]))
                }
            };
            let fit = pair.and_then(|((f1, t1), (f2, t2))| {
                let b = (t1 - t2) / (1.0 / f1 - 1.0 / f2);
                (b > 0.0).then_some((t1 - b / f1, b))
            });
            // A NaN or infinite prediction is outside the bracket too.
            let predicted = fit
                .map(|(a, b)| b / (target - a))
                .filter(|f| (lo..=hi).contains(f))
                .unwrap_or((lo + hi) / 2.0);
            let freq = table.nearest(predicted).freq_mhz;
            (!pool.has(freq)).then_some(freq)
        }
    }

    /// Finds, for every `(benchmark, target_degradation, sync_reference)`
    /// cell, the global frequency at which the fully synchronous processor
    /// suffers approximately `target_degradation` relative to
    /// `sync_reference` (its own run at the maximum frequency), and returns
    /// that frequency with the matching run, in cell order.
    ///
    /// The cells of one benchmark share their probes, because a
    /// `GlobalScaling` run depends only on the benchmark and the
    /// frequency.  Round 1 probes each benchmark once, at the table point
    /// nearest `f_max / (1 + d)` for its deepest target `d`.  In each
    /// later round every open cell fits `t = a + b/f` through the two
    /// points nearest its target time (one on each side when it can; the
    /// `sync_reference` run at `f_max` is a free point) and probes the
    /// table point nearest `b / (T - a)`.  It falls back to the midpoint
    /// of its bracket when the fit does not slow down with falling
    /// frequency, cannot reach the target, or lands outside the bracket.
    /// A cell stops when that point has already run, and after `rounds`
    /// rounds (at least one) at the latest.  Each round is one
    /// [`RunPlan`] on `engine` holding every `(benchmark, frequency)` pair
    /// some cell asks for and none has run.
    ///
    /// Every cell returns the probe of its benchmark with the smallest
    /// time error, the higher frequency on a tie, so a cell's result does
    /// not depend on the order of the cells.  The host-side statistics of
    /// each round's plan come back with the matches.  At the `table6`
    /// benchmark settings (30 benchmarks, 10 000 instructions, seed 42, 4 rounds)
    /// the search's plans hold 187 probe jobs (30 / 90 / 52 / 15 per
    /// round), which the engine runs as 144 simulations because twin
    /// benchmarks ask for the same frequencies, and it matches its 90
    /// targets within a median 0.06 pp of degradation, 0.13 pp at the
    /// 90th percentile and 0.35 pp at worst.  Elapsed time moves unevenly
    /// from one table point to the next at such budgets, so a table
    /// neighbour of the chosen point can still match a little better (9
    /// of the 90 cells, by at most 0.18 pp).
    pub fn global_matching(
        engine: &ExperimentEngine,
        cells: &[(Benchmark, f64, &SimResult)],
        rounds: usize,
    ) -> (Vec<(MegaHertz, RunOutcome)>, Vec<EngineStats>) {
        let table = OperatingPointTable::default();
        let f_max = table.max_point().freq_mhz;
        let mut pools: Vec<Pool> = Vec::new();
        let mut searches: Vec<Cell> = cells
            .iter()
            .map(|&(bench, target, sync)| {
                let pool = match pools.iter().position(|p| p.bench == bench) {
                    Some(pool) => pool,
                    None => {
                        pools.push(Pool {
                            bench,
                            anchor: (f_max, sync.elapsed_ps as f64),
                            deepest: 0.0,
                            probes: Vec::new(),
                        });
                        pools.len() - 1
                    }
                };
                pools[pool].deepest = pools[pool].deepest.max(target);
                Cell {
                    pool,
                    target_time: sync.elapsed_ps as f64 * (1.0 + target),
                    open: true,
                    best: None,
                }
            })
            .collect();
        let mut stats = Vec::new();
        // Round 1: one probe per benchmark, sized for its deepest target
        // as if the workload were fully compute-bound.
        let mut probes: Vec<(usize, MegaHertz)> = pools
            .iter()
            .enumerate()
            .map(|(p, pool)| (p, table.nearest(f_max / (1.0 + pool.deepest)).freq_mhz))
            .collect();
        for round in 1..=rounds.max(1) {
            if round > 1 {
                for s in searches.iter_mut().filter(|s| s.open) {
                    match s.next_probe(&pools[s.pool], &table) {
                        Some(freq) if !probes.contains(&(s.pool, freq)) => {
                            probes.push((s.pool, freq));
                        }
                        Some(_) => {}
                        None => s.open = false,
                    }
                }
            }
            if probes.is_empty() {
                break;
            }
            let plan = probes.iter().fold(RunPlan::new(), |plan, &(p, freq_mhz)| {
                plan.job(pools[p].bench, ConfigKind::GlobalScaling { freq_mhz })
            });
            let (runs, round) = engine.execute_with_stats(&plan);
            stats.push(round);
            for ((p, freq), run) in probes.drain(..).zip(runs) {
                let time = run.result.elapsed_ps as f64;
                pools[p].probes.push((freq, time));
                // A run is kept only while it is some cell's best.
                let run = Rc::new(run);
                for s in searches.iter_mut().filter(|s| s.pool == p) {
                    s.observe(freq, time, &run);
                }
            }
        }
        let matches = searches
            .into_iter()
            .map(|s| {
                let (_, freq, run) = s.best.expect("round 1 probes every pool");
                (freq, Rc::unwrap_or_clone(run))
            })
            .collect();
        (matches, stats)
    }
}

/// Figure 4 — per-application performance degradation, energy savings and
/// EDP improvement, referenced to the fully synchronous processor.
pub mod figure4 {
    use super::*;

    /// One benchmark's comparisons against the fully synchronous processor.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Figure4Row {
        /// Benchmark name.
        pub benchmark: String,
        /// Baseline MCD vs fully synchronous.
        pub baseline_mcd: Comparison,
        /// Dynamic-1% vs fully synchronous.
        pub dynamic1: Comparison,
        /// Dynamic-5% vs fully synchronous.
        pub dynamic5: Comparison,
        /// Attack/Decay vs fully synchronous.
        pub attack_decay: Comparison,
    }

    /// The reproduced Figure 4 data set.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Figure4 {
        /// Per-benchmark rows.
        pub rows: Vec<Figure4Row>,
        /// The cross-benchmark average row (the "average" group of the
        /// paper's figures).
        pub average: Figure4Row,
    }

    impl Figure4 {
        /// Renders one of the three panels: `metric` selects performance
        /// degradation (a), energy savings (b) or EDP improvement (c).
        pub fn render_panel(&self, metric: Panel) -> String {
            let mut t = TextTable::new(vec![
                "Benchmark",
                "Baseline MCD",
                "Dynamic-1%",
                "Dynamic-5%",
                "Attack/Decay",
            ]);
            for row in self.rows.iter().chain(std::iter::once(&self.average)) {
                let get = |c: &Comparison| match metric {
                    Panel::PerformanceDegradation => c.perf_degradation,
                    Panel::EnergySavings => c.energy_savings,
                    Panel::EdpImprovement => c.edp_improvement,
                };
                t.push_row(vec![
                    row.benchmark.clone(),
                    pct(get(&row.baseline_mcd)),
                    pct(get(&row.dynamic1)),
                    pct(get(&row.dynamic5)),
                    pct(get(&row.attack_decay)),
                ]);
            }
            t.render()
        }

        /// Renders all three panels.
        pub fn render(&self) -> String {
            format!(
                "Figure 4(a) Performance degradation\n{}\nFigure 4(b) Energy savings\n{}\nFigure 4(c) Energy-delay product improvement\n{}",
                self.render_panel(Panel::PerformanceDegradation),
                self.render_panel(Panel::EnergySavings),
                self.render_panel(Panel::EdpImprovement)
            )
        }
    }

    /// Which of the three Figure 4 panels to render.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Panel {
        /// Figure 4(a).
        PerformanceDegradation,
        /// Figure 4(b).
        EnergySavings,
        /// Figure 4(c).
        EdpImprovement,
    }

    /// Builds Figure 4 from per-benchmark outcomes.
    pub fn from_outcomes(outcomes: &[BenchmarkOutcomes]) -> Figure4 {
        let rows: Vec<Figure4Row> = outcomes
            .iter()
            .map(|o| Figure4Row {
                benchmark: o.benchmark.name().to_string(),
                baseline_mcd: Comparison::vs(&o.baseline_mcd, &o.sync),
                dynamic1: Comparison::vs(&o.dynamic1, &o.sync),
                dynamic5: Comparison::vs(&o.dynamic5, &o.sync),
                attack_decay: Comparison::vs(&o.attack_decay, &o.sync),
            })
            .collect();
        let avg = |pick: fn(&Figure4Row) -> Comparison| {
            suite_average(&rows.iter().map(pick).collect::<Vec<_>>())
        };
        let average = Figure4Row {
            benchmark: "average".to_string(),
            baseline_mcd: avg(|r| r.baseline_mcd),
            dynamic1: avg(|r| r.dynamic1),
            dynamic5: avg(|r| r.dynamic5),
            attack_decay: avg(|r| r.attack_decay),
        };
        Figure4 { rows, average }
    }
}

/// Figures 2 and 3 — `epic decode` per-interval traces.
pub mod traces {
    use super::*;
    use mcd_clock::DomainId;

    /// One interval of the `epic decode` trace.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct TracePoint {
        /// Interval index.
        pub interval: u64,
        /// Cumulative committed instructions.
        pub committed: u64,
        /// Average load/store-queue occupancy over the interval.
        pub lsq_utilization: f64,
        /// Percent change in LSQ occupancy versus the previous interval
        /// (the signal of Figure 2(a)).
        pub lsq_change_pct: f64,
        /// Load/store domain frequency in GHz (Figure 2(b)).
        pub loadstore_freq_ghz: f64,
        /// Average floating-point issue-queue occupancy (Figure 3(a)).
        pub fiq_utilization: f64,
        /// Floating-point domain frequency in GHz (Figure 3(b)).
        pub fp_freq_ghz: f64,
    }

    /// The reproduced Figure 2/3 series.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct EpicDecodeTraces {
        /// Per-interval points.
        pub points: Vec<TracePoint>,
    }

    impl EpicDecodeTraces {
        /// Renders the series as CSV (one row per interval).
        pub fn to_csv(&self) -> String {
            let mut t = TextTable::new(vec![
                "interval",
                "instructions",
                "lsq_utilization",
                "lsq_change_pct",
                "loadstore_freq_ghz",
                "fiq_utilization",
                "fp_freq_ghz",
            ]);
            for p in &self.points {
                t.push_row(vec![
                    p.interval.to_string(),
                    p.committed.to_string(),
                    format!("{:.3}", p.lsq_utilization),
                    format!("{:.2}", p.lsq_change_pct),
                    format!("{:.3}", p.loadstore_freq_ghz),
                    format!("{:.3}", p.fiq_utilization),
                    format!("{:.3}", p.fp_freq_ghz),
                ]);
            }
            t.to_csv()
        }

        /// Minimum and maximum floating-point domain frequency over the
        /// trace, in GHz.
        pub fn fp_freq_range(&self) -> (f64, f64) {
            let mut min = f64::MAX;
            let mut max = f64::MIN;
            for p in &self.points {
                min = min.min(p.fp_freq_ghz);
                max = max.max(p.fp_freq_ghz);
            }
            (min, max)
        }
    }

    /// Runs the `epic decode` trace experiment with the Attack/Decay
    /// controller and trace recording enabled.
    pub fn run(instructions: u64, seed: u64) -> EpicDecodeTraces {
        // Scale the control interval with the window so the trace spans on
        // the order of 150 intervals, as the paper's multi-million
        // instruction windows do at 10 000 instructions per interval.
        let interval = (instructions / 150).clamp(500, 10_000);
        let runner = BenchmarkRunner::new(instructions, seed).with_interval(interval);
        let kind = ConfigKind::AttackDecay(AttackDecayParams::paper_defaults());
        let mut config = runner.sim_config(&kind);
        config.record_intervals = true;
        let result = runner.simulate(Benchmark::EpicDecode, &kind, config);
        let mut points = Vec::with_capacity(result.intervals.len());
        let mut prev_lsq: Option<f64> = None;
        for rec in &result.intervals {
            let lsq = rec.domain(DomainId::LoadStore);
            let fp = rec.domain(DomainId::FloatingPoint);
            let lsq_util = lsq.map(|d| d.queue_utilization).unwrap_or(0.0);
            let change = match prev_lsq {
                Some(p) if p > 0.0 => (lsq_util - p) / p * 100.0,
                _ => 0.0,
            };
            prev_lsq = Some(lsq_util);
            points.push(TracePoint {
                interval: rec.interval,
                committed: (rec.interval + 1) * rec.instructions,
                lsq_utilization: lsq_util,
                lsq_change_pct: change,
                loadstore_freq_ghz: lsq.map(|d| d.freq_mhz / 1000.0).unwrap_or(1.0),
                fiq_utilization: fp.map(|d| d.queue_utilization).unwrap_or(0.0),
                fp_freq_ghz: fp.map(|d| d.freq_mhz / 1000.0).unwrap_or(1.0),
            });
        }
        EpicDecodeTraces { points }
    }
}

/// Figures 5, 6 and 7 — sensitivity of the Attack/Decay algorithm to its
/// configuration parameters.
pub mod sensitivity {
    use super::*;

    /// One point of a parameter sweep.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct SweepPoint {
        /// The swept parameter's value (a fraction).
        pub value: f64,
        /// Average performance degradation versus the baseline MCD.
        pub perf_degradation: f64,
        /// Average energy savings versus the baseline MCD.
        pub energy_savings: f64,
        /// Average EDP improvement versus the baseline MCD.
        pub edp_improvement: f64,
        /// Power-savings / performance-degradation ratio.
        pub power_perf_ratio: Option<f64>,
    }

    /// A complete sweep of one parameter.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct SweepResult {
        /// The name of the swept parameter.
        pub parameter: String,
        /// The legend of the non-swept parameters, in the paper's
        /// `DevThr_React_Decay_PerfDeg` percent format.
        pub legend: String,
        /// Sweep points in increasing parameter order.
        pub points: Vec<SweepPoint>,
    }

    impl SweepResult {
        /// Renders the sweep as a text table.
        pub fn render(&self) -> String {
            let mut t = TextTable::new(vec![
                "value",
                "perf degradation",
                "energy savings",
                "EDP improvement",
                "power/perf ratio",
            ]);
            for p in &self.points {
                t.push_row(vec![
                    format!("{:.3}%", p.value * 100.0),
                    pct(p.perf_degradation),
                    pct(p.energy_savings),
                    pct(p.edp_improvement),
                    ratio(p.power_perf_ratio),
                ]);
            }
            format!(
                "{} sensitivity ({})\n{}",
                self.parameter,
                self.legend,
                t.render()
            )
        }
    }

    /// One parameter sweep of Figures 5–7: an Attack/Decay configuration
    /// with one parameter set to each of a list of values, every point
    /// averaged over the benchmarks against the baseline MCD.
    #[derive(Debug, Clone, Copy)]
    pub struct Sweep {
        /// The swept parameter's name.
        pub parameter: &'static str,
        /// The non-swept parameters.
        pub base: AttackDecayParams,
        /// Sets the swept parameter of a configuration to a value.
        pub apply: fn(&mut AttackDecayParams, f64),
        /// The swept values at quick settings.
        pub quick: &'static [f64],
        /// The swept values at full settings (`MCD_FULL=1`).
        pub full: &'static [f64],
    }

    /// The plan of `sweep` at `values`: every benchmark's baseline MCD
    /// followed by its Attack/Decay configuration at each value.
    pub fn plan(sweep: &Sweep, benchmarks: &[Benchmark], values: &[f64]) -> RunPlan {
        let mut plan = RunPlan::new();
        for &b in benchmarks {
            plan = plan.job(b, ConfigKind::BaselineMcd);
            for &v in values {
                let mut params = sweep.base;
                (sweep.apply)(&mut params, v);
                plan = plan.job(b, ConfigKind::AttackDecay(params));
            }
        }
        plan
    }

    /// Builds `sweep` from the outcomes of its [`plan`] at `values`, in
    /// plan order, averaging each point's comparisons against the
    /// baseline MCD over the benchmarks.
    pub fn from_outcomes(sweep: &Sweep, values: &[f64], outcomes: &[RunOutcome]) -> SweepResult {
        let per_benchmark: Vec<&[RunOutcome]> = outcomes.chunks(values.len() + 1).collect();
        let points = values
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let comparisons: Vec<Comparison> = per_benchmark
                    .iter()
                    .map(|runs| Comparison::vs(&runs[i + 1].result, &runs[0].result))
                    .collect();
                let avg = suite_average(&comparisons);
                SweepPoint {
                    value,
                    perf_degradation: avg.perf_degradation,
                    energy_savings: avg.energy_savings,
                    edp_improvement: avg.edp_improvement,
                    power_perf_ratio: (avg.perf_degradation > 1e-6)
                        .then(|| avg.power_savings / avg.perf_degradation),
                }
            })
            .collect();
        SweepResult {
            parameter: sweep.parameter.to_string(),
            legend: sweep.base.legend(),
            points,
        }
    }

    /// Figure 5: the performance-degradation threshold (target), legend
    /// `1.000_06.0_1.250_X.X`.
    pub const PERF_DEG_TARGET: Sweep = Sweep {
        parameter: "PerfDegThreshold",
        base: AttackDecayParams {
            deviation_threshold: 0.010,
            reaction_change: 0.06,
            decay: 0.0125,
            perf_deg_threshold: 0.0,
            endstop_count: 10,
        },
        apply: |p, v| p.perf_deg_threshold = v,
        quick: &[0.0, 0.025, 0.06, 0.12],
        full: &[0.0, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10, 0.12],
    };

    /// Figures 6(a)/7(a): DecayPercent, legend `1.500_04.0_X.XXX_3.0`.
    pub const DECAY: Sweep = Sweep {
        parameter: "Decay",
        base: AttackDecayParams {
            deviation_threshold: 0.015,
            reaction_change: 0.04,
            decay: 0.0,
            perf_deg_threshold: 0.03,
            endstop_count: 10,
        },
        apply: |p, v| p.decay = v,
        quick: &[0.00175, 0.0075, 0.020],
        full: &[0.0005, 0.00175, 0.005, 0.0075, 0.010, 0.015, 0.020],
    };

    /// Figures 6(b)/7(b): ReactionChangePercent, legend
    /// `1.500_XX.X_0.750_3.0`.
    pub const REACTION_CHANGE: Sweep = Sweep {
        parameter: "ReactionChange",
        base: AttackDecayParams {
            decay: 0.0075,
            ..DECAY.base
        },
        apply: |p, v| p.reaction_change = v,
        quick: &[0.01, 0.06, 0.155],
        full: &[0.005, 0.02, 0.04, 0.06, 0.09, 0.12, 0.155],
    };

    /// Figures 6(c)/7(c): DeviationThresholdPercent around the paper's
    /// defaults, legend `X.XXX_06.0_0.175_2.5`.
    pub const DEVIATION_THRESHOLD: Sweep = Sweep {
        parameter: "DeviationThreshold",
        base: AttackDecayParams::paper_defaults(),
        apply: |p, v| p.deviation_threshold = v,
        quick: &[0.0025, 0.0175, 0.025],
        full: &[0.0, 0.0025, 0.0075, 0.0125, 0.0175, 0.025],
    };

    /// Every sweep of the evaluation: Figure 5's, then Figures 6–7's.
    pub const SWEEPS: [Sweep; 4] = [PERF_DEG_TARGET, DECAY, REACTION_CHANGE, DEVIATION_THRESHOLD];

    /// Runs `sweep` at `values` over the settings' benchmarks, as one
    /// plan on its own engine.
    pub fn run(settings: &ExperimentSettings, sweep: &Sweep, values: &[f64]) -> SweepResult {
        let jobs = plan(sweep, &settings.benchmarks, values);
        let outcomes = ExperimentEngine::from_settings(settings).execute(&jobs);
        from_outcomes(sweep, values, &outcomes)
    }
}

/// Table 6 and Figures 4–7 from one reproduction pass.
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// `(name, text)` of `table6`, `figure4`, `figure5` and `figure6_7`.
    pub artefacts: [(&'static str, String); 4],
    /// Host-side statistics of the union plan.
    pub plan_stats: EngineStats,
    /// Host-side statistics of each round of the Global search.
    pub global_stats: Vec<EngineStats>,
}

/// Builds Table 6 and Figures 4–7 from one union plan, the
/// [`RunPlan::suite`] jobs and then every [`sensitivity::SWEEPS`] plan at
/// its `full` or quick values, run once on one engine (which simulates
/// identical jobs once), then the Global search on that engine.
pub fn reproduce(settings: &ExperimentSettings, full: bool) -> Reproduction {
    let benchmarks = &settings.benchmarks;
    let values = |sweep: &sensitivity::Sweep| if full { sweep.full } else { sweep.quick };
    let mut plan = RunPlan::suite(benchmarks);
    let suite_jobs = plan.jobs.len();
    for sweep in &sensitivity::SWEEPS {
        plan.jobs
            .extend(sensitivity::plan(sweep, benchmarks, values(sweep)).jobs);
    }
    let engine = ExperimentEngine::from_settings(settings);
    let (mut outcomes, plan_stats) = engine.execute_with_stats(&plan);

    // Each sweep plan holds a baseline plus one job per value for every
    // benchmark.
    let mut rest = &outcomes[suite_jobs..];
    let mut sweeps = sensitivity::SWEEPS.iter().map(|sweep| {
        let (own, tail) = rest.split_at(benchmarks.len() * (values(sweep).len() + 1));
        rest = tail;
        sensitivity::from_outcomes(sweep, values(sweep), own).render()
    });
    let figure5 = sweeps.next().expect("Figure 5's sweep comes first");
    let figures6_7: String = sweeps.map(|text| text + "\n").collect();
    outcomes.truncate(suite_jobs);
    let suite = group_suite(outcomes);
    let figure4 = figure4::from_outcomes(&suite).render();
    let (table6, global_stats) =
        table6::from_outcomes(&engine, &suite, settings.global_search_iters);
    Reproduction {
        artefacts: [
            ("table6", table6.render()),
            ("figure4", figure4),
            ("figure5", figure5),
            ("figure6_7", figures6_7),
        ],
        plan_stats,
        global_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Swim],
            instructions: 40_000,
            interval_instructions: 500,
            seed: 7,
            global_search_iters: 2,
            jobs: None,
        }
    }

    #[test]
    fn parallel_suite_is_bit_identical_to_serial() {
        // Four workers must return SimResults bit-identical to one worker
        // (same elapsed_ps, chip energy, per-domain frequency averages;
        // host throughput is excluded from SimResult equality by design).
        //
        // Mcf is included on top of the tiny suite because its long memory
        // stalls leave the issue queues and LSQ with nothing newly visible
        // for long stretches — the earliest-visible-timestamp fast path of
        // the wakeup scans — while the Attack/Decay and oracle
        // configurations exercise visibility promotion across frequency
        // ramps.
        let mut serial = tiny_settings().with_jobs(1);
        serial.benchmarks.push(Benchmark::Mcf);
        let mut parallel = tiny_settings().with_jobs(4);
        parallel.benchmarks.push(Benchmark::Mcf);
        let a = run_suite(&serial);
        let b = run_suite(&parallel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.benchmark, y.benchmark);
            assert_eq!(x.sync, y.sync);
            assert_eq!(x.baseline_mcd, y.baseline_mcd);
            assert_eq!(x.attack_decay, y.attack_decay);
            assert_eq!(x.dynamic1, y.dynamic1);
            assert_eq!(x.dynamic5, y.dynamic5);
            // Spot-check the headline fields explicitly.
            assert_eq!(x.dynamic5.elapsed_ps, y.dynamic5.elapsed_ps);
            assert_eq!(x.dynamic5.frontend_cycles, y.dynamic5.frontend_cycles);
            assert!((x.dynamic5.chip_energy() - y.dynamic5.chip_energy()).abs() < 1e-12);
            assert_eq!(
                x.dynamic5.avg_domain_freq_mhz,
                y.dynamic5.avg_domain_freq_mhz
            );
        }
    }

    #[test]
    fn suite_stats_report_host_throughput() {
        let (outcomes, stats) = run_suite_with_stats(&tiny_settings());
        assert_eq!(outcomes.len(), 3);
        assert!(stats.workers >= 1);
        // 5 configurations x 3 benchmarks, with the profiling prerequisites
        // folded into the baseline runs.
        assert_eq!(stats.runs, 15);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.aggregate_mips > 0.0);
        assert!(stats.cumulative_seconds >= stats.wall_seconds * 0.5);
    }

    #[test]
    fn suite_runs_produce_all_configurations() {
        let outcomes = run_suite(&tiny_settings());
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.sync.committed_instructions, 40_000);
            assert_eq!(o.attack_decay.committed_instructions, 40_000);
            // The baseline MCD is never faster than the synchronous machine.
            assert!(o.baseline_mcd.elapsed_ps as f64 >= o.sync.elapsed_ps as f64 * 0.99);
        }
    }

    #[test]
    fn table6_mcd_rows_show_energy_savings_with_bounded_slowdown() {
        let outcomes = run_suite(&tiny_settings());
        let rows = table6::mcd_rows(&outcomes);
        assert_eq!(rows.len(), 3);
        let ad = &rows[0];
        assert_eq!(ad.algorithm, "Attack/Decay");
        assert!(
            ad.energy_savings > 0.02,
            "Attack/Decay should save energy, got {}",
            ad.energy_savings
        );
        assert!(
            ad.perf_degradation < 0.15,
            "degradation should be bounded, got {}",
            ad.perf_degradation
        );
        // The off-line Dynamic-5% saves at least as much energy as Dynamic-1%.
        assert!(rows[2].energy_savings >= rows[1].energy_savings - 0.02);
        let rendered = table6::Table6 { rows }.render();
        assert!(rendered.contains("Attack/Decay"));
    }

    #[test]
    fn figure4_average_row_is_labelled() {
        let outcomes = run_suite(&ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Epic],
            instructions: 30_000,
            interval_instructions: 500,
            seed: 3,
            global_search_iters: 2,
            jobs: None,
        });
        let fig = figure4::from_outcomes(&outcomes);
        assert_eq!(fig.rows.len(), 2);
        assert_eq!(fig.average.benchmark, "average");
        let text = fig.render();
        assert!(text.contains("Figure 4(a)"));
        assert!(text.contains("average"));
    }

    #[test]
    fn epic_decode_traces_show_fp_phase_behaviour() {
        let traces = traces::run(120_000, 5);
        assert!(traces.points.len() >= 10);
        let (fp_min, fp_max) = traces.fp_freq_range();
        assert!(
            fp_min < fp_max,
            "the FP domain frequency must move over the epic decode phases"
        );
        // During the idle phases the controller decays the FP domain below
        // the maximum frequency.
        assert!(
            fp_min < 0.999,
            "FP domain should decay when unused, min = {fp_min}"
        );
        let csv = traces.to_csv();
        assert!(csv.lines().count() == traces.points.len() + 1);
    }

    #[test]
    fn decay_sweep_produces_monotone_value_axis() {
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Gzip],
            instructions: 30_000,
            interval_instructions: 500,
            seed: 1,
            global_search_iters: 2,
            jobs: None,
        };
        let sweep = sensitivity::run(&settings, &sensitivity::DECAY, &[0.0005, 0.0075]);
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.points[0].value < sweep.points[1].value);
        // A faster decay lowers frequencies more aggressively and therefore
        // saves at least as much energy.
        assert!(sweep.points[1].energy_savings >= sweep.points[0].energy_savings - 0.01);
        assert!(sweep.render().contains("Decay"));
    }

    #[test]
    fn global_matching_finds_a_slower_frequency() {
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm],
            instructions: 25_000,
            interval_instructions: 10_000,
            seed: 3,
            ..tiny_settings()
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let sync = engine
            .execute(&RunPlan::new().job(Benchmark::Adpcm, ConfigKind::FullySynchronous))
            .remove(0);
        let matches =
            table6::global_matching(&engine, &[(Benchmark::Adpcm, 0.05, &sync.result)], 3).0;
        let (freq, outcome) = &matches[0];
        assert!(*freq < 1000.0);
        assert_eq!(
            outcome.config,
            ConfigKind::GlobalScaling { freq_mhz: *freq }
        );
        assert!(outcome.result.elapsed_ps > sync.result.elapsed_ps);
        // The scaled run saves energy.
        assert!(outcome.result.chip_energy() < sync.result.chip_energy());
    }

    /// The fully synchronous runs of `benchmarks`.
    fn sync_runs(engine: &ExperimentEngine, benchmarks: &[Benchmark]) -> Vec<RunOutcome> {
        engine.execute(&benchmarks.iter().fold(RunPlan::new(), |plan, &b| {
            plan.job(b, ConfigKind::FullySynchronous)
        }))
    }

    /// The Global-search cells of every `(target, benchmark)` pair, target
    /// by target.
    fn search_cells<'a>(
        targets: &[f64],
        syncs: &'a [RunOutcome],
    ) -> Vec<(Benchmark, f64, &'a SimResult)> {
        targets
            .iter()
            .flat_map(|&t| syncs.iter().map(move |s| (s.benchmark, t, &s.result)))
            .collect()
    }

    #[test]
    fn global_search_ends_within_half_a_table_step_of_its_neighbours() {
        // With a generous round cap the search ends on its own stop rule,
        // and each chosen run must be exactly a fresh run at its
        // frequency.  The stop rule trusts the `a + b/f` fit to pick
        // between table points, but at these budgets elapsed time moves
        // unevenly from one point to the next (on Swim, 868 MHz even runs
        // faster than 871 MHz).  So a table neighbour may match the target
        // better, but by less than half a table step of time (the step a
        // fully compute-bound run would take, which bounds the real one).
        let settings = ExperimentSettings {
            instructions: 20_000,
            ..tiny_settings()
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let syncs = sync_runs(&engine, &settings.benchmarks);
        let cells = search_cells(&[0.01, 0.05, 0.15], &syncs);
        let (found, _) = table6::global_matching(&engine, &cells, 12);
        let table = OperatingPointTable::default();
        for (&(bench, target, sync), (freq, run)) in cells.iter().zip(&found) {
            let index = table.nearest(*freq).index;
            assert_eq!(table.point(index).freq_mhz, *freq);
            let mut plan = RunPlan::new().job(bench, ConfigKind::GlobalScaling { freq_mhz: *freq });
            for i in [index.wrapping_sub(1), index + 1] {
                if i < table.len() {
                    let freq_mhz = table.point(i).freq_mhz;
                    plan = plan.job(bench, ConfigKind::GlobalScaling { freq_mhz });
                }
            }
            let mut runs = engine.execute(&plan).into_iter();
            assert_eq!(run.result, runs.next().unwrap().result);
            let target_time = sync.elapsed_ps as f64 * (1.0 + target);
            let err = |r: &SimResult| (r.elapsed_ps as f64 - target_time).abs();
            let step = table.point(1).freq_mhz - table.point(0).freq_mhz;
            let half_step_time = 0.5 * run.result.elapsed_ps as f64 * step / freq;
            for neighbour in runs {
                assert!(
                    err(&neighbour.result) > err(&run.result) - half_step_time,
                    "{bench:?} at {target}: {:?} matches half a step better than {freq} MHz",
                    neighbour.config
                );
            }
        }
    }

    #[test]
    fn global_search_handles_zero_and_unreachable_targets() {
        // No slowdown is the table's top; a slowdown beyond what the
        // table's bottom reaches ends at the bottom, without a panic.
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Swim],
            instructions: 15_000,
            ..tiny_settings()
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let syncs = sync_runs(&engine, &settings.benchmarks);
        let table = OperatingPointTable::default();
        let (f_min, f_max) = (table.min_point().freq_mhz, table.max_point().freq_mhz);
        for targets in [&[0.0][..], &[3.0], &[0.0, 3.0]] {
            let cells = search_cells(targets, &syncs);
            for (&(bench, target, _), (freq, _)) in cells
                .iter()
                .zip(table6::global_matching(&engine, &cells, 6).0)
            {
                let expected = if target == 0.0 { f_max } else { f_min };
                assert_eq!(freq, expected, "{bench:?} at target {target}");
            }
        }
    }

    #[test]
    fn global_search_does_not_depend_on_cell_order() {
        // Cells of one benchmark share probes, so the search must treat
        // them as a set: a permuted cell list gives every cell the same
        // frequency and the same run.
        let settings = ExperimentSettings {
            instructions: 20_000,
            ..tiny_settings()
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let syncs = sync_runs(&engine, &settings.benchmarks);
        let cells = search_cells(&[0.02, 0.07, 0.2], &syncs);
        let (forward, _) = table6::global_matching(&engine, &cells, 4);
        let mut permuted: Vec<usize> = (0..cells.len()).collect();
        permuted.reverse();
        permuted.rotate_left(2);
        let shuffled: Vec<_> = permuted.iter().map(|&i| cells[i]).collect();
        let fresh = ExperimentEngine::from_settings(&settings);
        let (backward, _) = table6::global_matching(&fresh, &shuffled, 4);
        for (&i, (freq, run)) in permuted.iter().zip(&backward) {
            assert_eq!(*freq, forward[i].0);
            assert_eq!(run.result, forward[i].1.result);
        }
    }

    #[test]
    fn lock_step_global_search_matches_one_cell_at_a_time() {
        // Advancing several searches in shared plans must not change
        // any cell's outcome: each cell searched alone on a fresh engine
        // picks the same frequency and the same run.
        let settings = ExperimentSettings {
            instructions: 20_000,
            ..tiny_settings()
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let syncs = sync_runs(&engine, &[Benchmark::Adpcm, Benchmark::Swim]);
        let cells = search_cells(&[0.01, 0.05, 0.2], &syncs);
        let (together, _) = table6::global_matching(&engine, &cells, 4);
        assert_eq!(together.len(), cells.len());
        for (cell, (freq, run)) in cells.iter().zip(&together) {
            let alone = ExperimentEngine::from_settings(&settings);
            let (f, r) = table6::global_matching(&alone, std::slice::from_ref(cell), 4)
                .0
                .remove(0);
            assert_eq!((*freq, run.benchmark), (f, r.benchmark));
            assert_eq!(run.result, r.result);
        }
    }

    #[test]
    fn one_pass_matches_the_per_artefact_paths_with_fewer_simulations() {
        // The pass slices one union plan's outcomes into the suite and the
        // four sweeps.  Each artefact must read exactly as its own path
        // renders it (Table 6 and Figure 4 from the suite, each sweep on
        // its own plan and engine), at one and at two workers.  Bzip2
        // replays Gzip's stream, so two streams simulate.  Per stream the
        // separate plans take 5 suite runs plus 4 sweep baselines and 13
        // sweep points; the union shares the baselines and the
        // DeviationThreshold sweep's paper-default point with the suite.
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Bzip2],
            instructions: 10_000,
            ..tiny_settings()
        };
        let (suite, suite_stats) = run_suite_with_stats(&settings);
        let mut separate_runs = suite_stats.runs;
        let mut sweeps = Vec::new();
        for sweep in &sensitivity::SWEEPS {
            let values = sweep.quick;
            let engine = ExperimentEngine::from_settings(&settings);
            let plan = sensitivity::plan(sweep, &settings.benchmarks, values);
            let (outcomes, stats) = engine.execute_with_stats(&plan);
            separate_runs += stats.runs;
            sweeps.push(sensitivity::from_outcomes(sweep, values, &outcomes).render());
        }
        let expected = [
            table6::run(&settings).render(),
            figure4::from_outcomes(&suite).render(),
            sweeps[0].clone(),
            sweeps[1..].iter().map(|text| format!("{text}\n")).collect(),
        ];
        assert_eq!(separate_runs, 2 * (5 + 4 + 13));
        for jobs in [1, 2] {
            let pass = reproduce(&settings.clone().with_jobs(jobs), false);
            for ((name, text), want) in pass.artefacts.iter().zip(&expected) {
                assert_eq!(text, want, "{name} at {jobs} workers");
            }
            assert_eq!(pass.plan_stats.runs, 2 * (5 + 13 - 1));
            assert!(pass.plan_stats.runs < separate_runs);
            assert!(pass.global_stats.iter().all(|round| round.runs > 0));
        }
    }

    #[test]
    fn table6_and_sweeps_do_not_depend_on_the_worker_count() {
        // End to end, Global rows included: one worker and three workers
        // produce the same six rows and the same sweep.  Bzip2 replays
        // Gzip's stream, so every plan also serves twin jobs.
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Bzip2],
            instructions: 15_000,
            ..tiny_settings()
        };
        let one = settings.clone().with_jobs(1);
        let three = settings.with_jobs(3);
        let (a, b) = (table6::run(&one), table6::run(&three));
        let labels: Vec<&str> = a.rows.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(
            labels,
            [
                "Attack/Decay",
                "Dynamic-1%",
                "Dynamic-5%",
                "Global (Attack/Decay)",
                "Global (Dynamic-1%)",
                "Global (Dynamic-5%)"
            ]
        );
        assert_eq!(a, b);
        let values = [0.0005, 0.0075];
        assert_eq!(
            sensitivity::run(&one, &sensitivity::DECAY, &values),
            sensitivity::run(&three, &sensitivity::DECAY, &values)
        );
    }
}
