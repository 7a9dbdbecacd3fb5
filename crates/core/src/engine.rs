//! The parallel experiment engine: whole runs spread over a pool of
//! workers.
//!
//! Every paper artefact is built from a grid of *(benchmark,
//! configuration)* simulation jobs.  The engine turns such a grid — a
//! [`RunPlan`] — into results using a fixed-size pool of scoped worker
//! threads.  Each job is a pure function of the experiment settings, so
//! the unit of scheduling is a whole run: a worker claims the next job,
//! runs it to completion and claims again.  Jobs are claimed longest
//! first (see [`admission_priority`]), so a long run (mcf) starts in the
//! first wave instead of straggling at the plan's tail.  At most
//! `workers` runs are resident at any moment.
//!
//! The engine is the only way a plan of runs executes, whatever the
//! worker count: the Table 6 / Figure 4 suite, each round of the
//! `Global(...)` frequency search and each Figure 5–7 sweep are plans.
//!
//! The engine keeps the properties the experiments rely on:
//!
//! 1. **Deterministic results.**  Results are bit-identical regardless of
//!    worker count (host-throughput telemetry excluded; see
//!    [`mcd_sim::telemetry::HostStats`]), and are returned in plan order,
//!    never completion order.
//! 2. **Identical jobs run once.**  Two jobs are identical when their
//!    configurations are equal and their benchmarks generate the same
//!    instruction stream; the engine simulates one of them and hands the
//!    outcome to both, each under its own benchmark label.  Eight of the
//!    30 Table 6 benchmarks share another's phase spec, so their jobs
//!    cost nothing.  Profiling prerequisites fall under the same rule:
//!    the off-line oracle configurations (`Dynamic-1%`, `Dynamic-5%`)
//!    need the per-interval activity profile of a baseline-MCD run of
//!    the same stream, and the engine schedules those runs as an
//!    explicit prerequisite wave feeding a shared, locked profile cache.
//!    A plan's `BaselineMcd` job is identical to its prerequisite, so no
//!    worker ever duplicates a baseline pass.
//! 3. **One instruction stream per benchmark.**  Every run of a benchmark
//!    replays the one shared trace of the runner's
//!    [`crate::cache::TraceCache`].
//! 4. **One knob.**  `--jobs N` / `MCD_JOBS` / [`ExperimentSettings::jobs`]
//!    selects the pool size (default: the host's available parallelism).
//!    It never changes a simulated result.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use mcd_workloads::{Benchmark, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::experiments::ExperimentSettings;
use crate::runner::{BenchmarkRunner, ConfigKind, RunOutcome};

/// Resolves the number of worker threads: an explicit request wins, then
/// the `MCD_JOBS` environment variable, then the host's available
/// parallelism.  Always at least 1.
///
/// # Panics
///
/// Panics on an unparseable `MCD_JOBS` — a requested worker count must not
/// be silently replaced by the host's parallelism.
pub fn worker_count(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| jobs_from_env().unwrap_or_else(|err| panic!("{err}")))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// The worker count the `MCD_JOBS` environment variable requests;
/// `Ok(None)` when it is unset.
///
/// # Errors
///
/// As [`parse_jobs`], also for a value that is not valid Unicode.
#[expect(clippy::disallowed_methods, reason = "sets the worker count only")]
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    jobs_from_var(std::env::var_os("MCD_JOBS"))
}

/// Parses an `MCD_JOBS` value (`None` when unset).  A non-Unicode value
/// is converted lossily, so it fails to parse instead of counting as unset.
fn jobs_from_var(value: Option<OsString>) -> Result<Option<usize>, String> {
    value
        .map(|value| parse_jobs("MCD_JOBS", &value.to_string_lossy()))
        .transpose()
}

/// Parses a worker count given through `source` (a command-line flag or
/// an environment variable, named in the error).
///
/// # Errors
///
/// Returns a message when `value` is not a non-negative integer.
pub fn parse_jobs(source: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{source} needs a non-negative integer, got {value:?}"))
}

/// Estimated relative host cost of simulating `bench`, used to order the
/// jobs of a plan longest first.
///
/// All jobs of a plan share one instruction budget, so run length varies
/// only with how many *cycles* a benchmark needs per instruction — which
/// is dominated by memory behaviour: a large footprint overflows the
/// warmed caches and every pointer-chasing load serializes on the memory
/// latency.  The weight is a phase-weighted sum of a footprint term
/// (saturating at 16 MiB) and the pointer-chase fraction, scaled to an
/// integer.  The absolute value is meaningless; only the order matters,
/// and it puts the mcf-class memory-bound runs at the head of the claim
/// order so they cannot straggle at the plan's tail.
pub fn admission_priority(bench: Benchmark) -> u64 {
    let spec = bench.spec();
    let mut weight = 0.0;
    for p in &spec.phases {
        let mib = p.memory.footprint_bytes as f64 / (1024.0 * 1024.0);
        let cost = 1.0 + mib.min(16.0) / 4.0 + p.memory.pointer_chase_fraction;
        weight += p.weight * cost;
    }
    (weight * 1_000.0) as u64
}

/// Executes jobs `0..n` on `workers` scoped threads and returns the
/// outcomes **in job order**.  Workers claim jobs from one shared cursor,
/// highest `priority(slot)` first (ties in job order), and each runs
/// `run(slot)` to completion before claiming the next, so at most
/// `workers` jobs are in flight.  Nothing ever waits on another job.  Once
/// a job panics no worker claims another one; the jobs already in flight
/// finish, and the first panic's payload is then re-raised.
pub(crate) fn run_to_completion<T, R, P>(workers: usize, n: usize, priority: P, run: R) -> Vec<T>
where
    T: Send,
    R: Fn(usize) -> T + Sync,
    P: Fn(usize) -> u64,
{
    let mut order: Vec<usize> = (0..n).collect();
    // Stable sort: equal priorities keep job order.
    order.sort_by_key(|&slot| std::cmp::Reverse(priority(slot)));
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_panic = Mutex::new(None);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !failed.load(Ordering::Acquire) {
                        let Some(&slot) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        match catch_unwind(AssertUnwindSafe(|| run(slot))) {
                            Ok(outcome) => done.push((slot, outcome)),
                            Err(payload) => {
                                let mut first =
                                    first_panic.lock().unwrap_or_else(|e| e.into_inner());
                                first.get_or_insert(payload);
                                failed.store(true, Ordering::Release);
                            }
                        }
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (slot, outcome) in handle.join().expect("a worker catches its jobs' panics") {
                slots[slot] = Some(outcome);
            }
        }
    });
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// One simulation job of a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The benchmark to run.
    pub benchmark: Benchmark,
    /// The configuration to run it under.
    pub config: ConfigKind,
}

/// An ordered grid of simulation jobs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunPlan {
    /// The jobs, in result order.
    pub jobs: Vec<JobSpec>,
}

impl RunPlan {
    /// An empty plan.
    pub fn new() -> Self {
        RunPlan::default()
    }

    /// Adds one job and returns the plan for chaining.
    pub fn job(mut self, benchmark: Benchmark, config: ConfigKind) -> Self {
        self.jobs.push(JobSpec { benchmark, config });
        self
    }

    /// The five-configuration grid of Table 6 / Figure 4 over the given
    /// benchmarks: fully synchronous, baseline MCD, Attack/Decay,
    /// Dynamic-1% and Dynamic-5% per benchmark, in that order.
    pub fn suite(benchmarks: &[Benchmark]) -> Self {
        let mut plan = RunPlan::new();
        for &b in benchmarks {
            plan = plan
                .job(b, ConfigKind::FullySynchronous)
                .job(b, ConfigKind::BaselineMcd)
                .job(
                    b,
                    ConfigKind::AttackDecay(mcd_control::AttackDecayParams::paper_defaults()),
                )
                .job(
                    b,
                    ConfigKind::OfflineDynamic {
                        target_degradation: 0.01,
                    },
                )
                .job(
                    b,
                    ConfigKind::OfflineDynamic {
                        target_degradation: 0.05,
                    },
                );
        }
        plan
    }

    /// Benchmarks whose jobs require an offline profile (deduplicated, in
    /// first-appearance order).  These are the engine's prerequisite
    /// baseline runs.
    pub fn profile_prerequisites(&self) -> Vec<Benchmark> {
        let mut seen = Vec::new();
        for job in &self.jobs {
            if matches!(job.config, ConfigKind::OfflineDynamic { .. })
                && !seen.contains(&job.benchmark)
            {
                seen.push(job.benchmark);
            }
        }
        seen
    }
}

/// Host-side statistics of one plan execution, for the `BENCH_*.json`
/// artefacts.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Worker threads used.
    pub workers: usize,
    /// Simulations actually executed: one per distinct job of the plan,
    /// plus each profiling prerequisite no plan job is identical to (see
    /// [`ExperimentEngine::execute_with_stats`]).
    pub runs: usize,
    /// Plan jobs served by a simulation run for another job: a twin (an
    /// identical job of another benchmark with the same stream, or a
    /// repeat of the same job) or the profiling prerequisite of a
    /// `BaselineMcd` job.
    pub shared_jobs: usize,
    /// Always 0.  Result memoization was removed; the field stays only
    /// because the out-of-workspace benchmark package (`perfbench/`)
    /// still reads it, and goes with the next change to that package.
    pub result_cache_hits: u64,
    /// Always 0; kept for `perfbench/` like [`Self::result_cache_hits`].
    pub result_cache_misses: u64,
    /// Runs that reused an already-materialized shared trace.
    pub trace_cache_hits: u64,
    /// Instruction traces materialized (generator runs) for the plan.
    pub trace_materializations: u64,
    /// High-water mark of trace bytes the trace cache kept strongly
    /// referenced (pinned registrations plus the recent ring) over the
    /// engine's whole lifetime, not this plan alone: the cache is never
    /// reset, so a later plan on the same engine (say, a later Global
    /// search round) reports the peak of every earlier plan too.
    pub trace_peak_bytes: u64,
    /// Wall-clock time of the whole plan in seconds.
    pub wall_seconds: f64,
    /// Sum of the per-run wall-clock times (what a fully serial execution
    /// would cost; `cumulative_seconds / wall_seconds` estimates the
    /// parallel speedup).
    pub cumulative_seconds: f64,
    /// Total simulated committed instructions across all runs.
    pub simulated_instructions: u64,
    /// Simulated MIPS of the plan as a whole
    /// (`simulated_instructions / wall_seconds / 1e6`).
    pub aggregate_mips: f64,
    /// Always 0.  Gang execution was removed; the field stays only
    /// because the out-of-workspace benchmark package (`perfbench/`)
    /// still reads it, and goes with the next change to that package.
    pub gang_batches: u64,
    /// Always 0; kept for `perfbench/` like [`Self::gang_batches`].
    pub gang_members: u64,
    /// Always 0.  Warm-up prefix forking was removed; kept for
    /// `perfbench/` like [`Self::gang_batches`].
    pub checkpoint_restores: u64,
    /// Always 0; kept for `perfbench/` like [`Self::checkpoint_restores`].
    pub prefix_cycles_saved: u64,
}

/// Executes [`RunPlan`]s against one experiment configuration.
#[derive(Debug)]
pub struct ExperimentEngine {
    runner: BenchmarkRunner,
    workers: usize,
}

impl ExperimentEngine {
    /// Creates an engine for the given settings (worker count, instruction
    /// budget, control-interval length, seed) with fresh profile and trace
    /// caches.
    pub fn from_settings(settings: &ExperimentSettings) -> Self {
        ExperimentEngine {
            runner: BenchmarkRunner::new(settings.instructions, settings.seed)
                .with_interval(settings.interval_instructions),
            workers: worker_count(settings.jobs),
        }
    }

    /// The worker count the engine will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The runner backing this engine (shares its profile cache).
    pub fn runner(&self) -> &BenchmarkRunner {
        &self.runner
    }

    /// Runs each of `specs` to completion on the worker pool, claimed in
    /// [`admission_priority`] order, and returns outcomes in spec order.
    ///
    /// Every job's trace lease is registered up front, so same-workload
    /// runs share one materialization even when they do not overlap in
    /// time.
    fn execute_jobs(&self, specs: &[JobSpec]) -> Vec<RunOutcome> {
        // Registration is per call, i.e. per phase of `execute_with_stats`,
        // on purpose.  Registering the whole plan before the profiling
        // wave would let the plan wave reuse the profiling wave's traces
        // (halving `trace_materializations` on the 30-benchmark suite from
        // 44 to 22, one per distinct stream), but it pins every trace
        // across the profiling wave.  With 16-byte trace records the trace
        // cache's peak on perfbench `table6` (10 000 instructions, 30
        // traces then) grew from 0.3 MiB to 4.6 MiB; the process peak RSS
        // median moved 61 → 70 MiB over 6 runs each, inside that metric's
        // run-to-run spread.  The pin grows with the instruction budget:
        // 22 streams of 8M instructions would pin 2.8 GB.  A per-phase pin
        // holds a trace only from its first to its last lease within the
        // phase; the cache's small recent ring bridges the two waves on
        // small plans.
        for job in specs {
            self.runner.trace_cache().register(job.benchmark, 1);
        }
        run_to_completion(
            self.workers,
            specs.len(),
            |i| admission_priority(specs[i].benchmark),
            |i| self.runner.run(specs[i].benchmark, &specs[i].config),
        )
    }

    /// Executes the plan and returns its outcomes in plan order.
    pub fn execute(&self, plan: &RunPlan) -> Vec<RunOutcome> {
        self.execute_with_stats(plan).0
    }

    /// Executes the plan, also returning host-side statistics.
    ///
    /// Identical jobs run once.  Two jobs are identical when their
    /// configurations are equal and their benchmarks generate the same
    /// instruction stream ([`mcd_workloads::WorkloadSpec::same_stream`]):
    /// the runner fixes the seed, the budget and the interval for every
    /// run, so such jobs simulate bit-identically.  Each job runs as the
    /// first benchmark of the plan with its stream, and a job identical to
    /// one already simulated for this plan — a twin, or the profiling
    /// prerequisite of a `BaselineMcd` job — is served from that
    /// simulation.  Every outcome carries its own job's `benchmark` and the
    /// shared simulation's host telemetry.
    pub fn execute_with_stats(&self, plan: &RunPlan) -> (Vec<RunOutcome>, EngineStats) {
        #[expect(clippy::disallowed_types, reason = "host wall time for EngineStats")]
        let started = std::time::Instant::now();
        let traces_before = self.runner.trace_cache_stats();

        // `runs_as[b]`: the first benchmark of the plan with `b`'s stream.
        let mut streams: Vec<(Benchmark, WorkloadSpec)> = Vec::new();
        let mut runs_as: BTreeMap<Benchmark, Benchmark> = BTreeMap::new();
        for job in &plan.jobs {
            if runs_as.contains_key(&job.benchmark) {
                continue;
            }
            let spec = job.benchmark.spec();
            let first = match streams.iter().find(|(_, s)| s.same_stream(&spec)) {
                Some(&(first, _)) => first,
                None => {
                    streams.push((job.benchmark, spec));
                    job.benchmark
                }
            };
            runs_as.insert(job.benchmark, first);
        }
        let distinct = |benchmark: Benchmark, config: &ConfigKind| JobSpec {
            benchmark: runs_as[&benchmark],
            config: config.clone(),
        };

        // Phase 1 — prerequisite profiling runs.  These must complete
        // before phase 2 can *construct* the off-line oracle controllers,
        // so they form their own scheduling wave.  Each caches the profile
        // of the benchmark the plan's oracle jobs of that stream run as.
        let mut ran: Vec<(JobSpec, RunOutcome)> = Vec::new();
        let prerequisites = plan
            .profile_prerequisites()
            .into_iter()
            .map(|b| distinct(b, &ConfigKind::BaselineMcd))
            .filter(|job| !self.runner.has_profile(job.benchmark));
        self.run_new(prerequisites, &mut ran);

        // Phase 2 — the plan itself, less every job phase 1 or an
        // identical plan job already covers.
        let plan_runs = self.run_new(
            plan.jobs.iter().map(|j| distinct(j.benchmark, &j.config)),
            &mut ran,
        );

        let wall_seconds = started.elapsed().as_secs_f64();
        let traces_after = self.runner.trace_cache_stats();
        // Each run's host stats cover the whole run, so the plan-level
        // cumulative cost is a plain sum.
        let cumulative_seconds: f64 = ran.iter().map(|(_, o)| o.result.host.wall_seconds).sum();
        let simulated_instructions: u64 = ran
            .iter()
            .map(|(_, o)| o.result.committed_instructions)
            .sum();
        let stats = EngineStats {
            workers: self.workers,
            runs: ran.len(),
            shared_jobs: plan.jobs.len() - plan_runs,
            result_cache_hits: 0,
            result_cache_misses: 0,
            trace_cache_hits: traces_after.hits - traces_before.hits,
            trace_materializations: traces_after.materializations - traces_before.materializations,
            trace_peak_bytes: traces_after.peak_resident_bytes,
            wall_seconds,
            cumulative_seconds,
            simulated_instructions,
            aggregate_mips: if wall_seconds > 0.0 {
                simulated_instructions as f64 / wall_seconds / 1e6
            } else {
                0.0
            },
            gang_batches: 0,
            gang_members: 0,
            checkpoint_restores: 0,
            prefix_cycles_saved: 0,
        };

        // Each simulated outcome moves into the last plan job it serves;
        // only the earlier sharers get clones.
        let served: Vec<usize> = plan
            .jobs
            .iter()
            .map(|job| {
                let key = distinct(job.benchmark, &job.config);
                ran.iter()
                    .position(|(r, _)| *r == key)
                    .expect("every distinct job ran")
            })
            .collect();
        let mut uses = vec![0usize; ran.len()];
        for &i in &served {
            uses[i] += 1;
        }
        let mut ran: Vec<Option<RunOutcome>> = ran.into_iter().map(|(_, o)| Some(o)).collect();
        let outcomes = plan
            .jobs
            .iter()
            .zip(served)
            .map(|(job, i)| {
                uses[i] -= 1;
                let outcome = if uses[i] == 0 {
                    ran[i].take()
                } else {
                    ran[i].clone()
                };
                RunOutcome {
                    benchmark: job.benchmark,
                    ..outcome.expect("a run's outcome moves out at its last use")
                }
            })
            .collect();
        (outcomes, stats)
    }

    /// Runs every job of `jobs` that is neither in `ran` nor earlier in
    /// `jobs`, appends each with its outcome to `ran`, and returns how
    /// many ran.
    fn run_new(
        &self,
        jobs: impl IntoIterator<Item = JobSpec>,
        ran: &mut Vec<(JobSpec, RunOutcome)>,
    ) -> usize {
        let mut fresh: Vec<JobSpec> = Vec::new();
        for job in jobs {
            if !fresh.contains(&job) && !ran.iter().any(|(r, _)| *r == job) {
                fresh.push(job);
            }
        }
        let outcomes = self.execute_jobs(&fresh);
        let n = fresh.len();
        ran.extend(fresh.into_iter().zip(outcomes));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::McdProcessor;
    use mcd_workloads::WorkloadGenerator;

    #[test]
    fn worker_count_resolution_order() {
        // Explicit request always wins and is floored at 1.
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(0)), 1);
        assert!(worker_count(None) >= 1);
    }

    #[test]
    fn jobs_values_parse_strictly() {
        assert_eq!(parse_jobs("MCD_JOBS", "4"), Ok(4));
        assert_eq!(parse_jobs("--jobs", "0"), Ok(0));
        // A bad value is an error naming where it came from, never a
        // silent fallback to the host's parallelism.
        assert_eq!(
            parse_jobs("MCD_JOBS", "four"),
            Err("MCD_JOBS needs a non-negative integer, got \"four\"".to_string())
        );
        assert!(parse_jobs("--jobs", "-1").is_err());
        assert!(parse_jobs("MCD_JOBS", "").is_err());
    }

    #[test]
    #[cfg(unix)]
    fn a_non_unicode_mcd_jobs_is_rejected_not_ignored() {
        use std::os::unix::ffi::OsStringExt;
        assert_eq!(jobs_from_var(None), Ok(None));
        assert_eq!(jobs_from_var(Some("3".into())), Ok(Some(3)));
        assert_eq!(
            jobs_from_var(Some(OsString::from_vec(b"\xff".to_vec()))),
            Err("MCD_JOBS needs a non-negative integer, got \"\u{fffd}\"".to_string())
        );
    }

    #[test]
    fn at_most_workers_runs_are_resident() {
        // Six jobs on two workers: each run is begun, stepped to the end
        // and finished by one worker, so no more than two runs are ever
        // begun-but-unfinished, and each matches a direct run.
        let runner = BenchmarkRunner::new(5_000, 11);
        let benches = [
            Benchmark::Adpcm,
            Benchmark::Gzip,
            Benchmark::Gsm,
            Benchmark::Epic,
            Benchmark::Adpcm,
            Benchmark::Gzip,
        ];
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let outcomes = run_to_completion(
            2,
            benches.len(),
            |_| 0,
            |i| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let outcome = runner.run(benches[i], &ConfigKind::BaselineMcd);
                live.fetch_sub(1, Ordering::SeqCst);
                outcome
            },
        );
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak residency {} exceeded the worker count",
            peak.load(Ordering::SeqCst)
        );
        for (bench, outcome) in benches.iter().zip(&outcomes) {
            assert_eq!(outcome.benchmark, *bench);
            let direct = runner.run(*bench, &ConfigKind::BaselineMcd);
            assert_eq!(outcome.result, direct.result);
        }
    }

    #[test]
    fn a_panicking_job_fails_the_plan_without_hanging() {
        // The failing job is claimed first; every other job takes long
        // enough that the failure is recorded while at most the one job
        // the second worker already claimed is in flight.
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            run_to_completion(
                2,
                64,
                |i| u64::from(i == 7),
                |i| {
                    if i == 7 {
                        panic!("job 7 failed");
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    finished.fetch_add(1, Ordering::Relaxed);
                    i
                },
            )
        });
        let payload = result.expect_err("the job's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 7 failed"));
        // Only jobs already in flight finish; nobody claims the rest of
        // the plan after the failure.
        let finished = finished.load(Ordering::Relaxed);
        assert!(finished <= 2, "{finished} jobs ran after the failure");
    }

    #[test]
    fn suite_plan_has_five_jobs_per_benchmark_and_profile_prereqs() {
        let plan = RunPlan::suite(&[Benchmark::Adpcm, Benchmark::Gzip]);
        assert_eq!(plan.jobs.len(), 10);
        assert_eq!(
            plan.profile_prerequisites(),
            vec![Benchmark::Adpcm, Benchmark::Gzip]
        );
        let no_oracle = RunPlan::new()
            .job(Benchmark::Adpcm, ConfigKind::BaselineMcd)
            .job(Benchmark::Adpcm, ConfigKind::FullySynchronous);
        assert!(no_oracle.profile_prerequisites().is_empty());
    }

    #[test]
    fn engine_reuses_prerequisite_baseline_runs() {
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm],
            instructions: 20_000,
            interval_instructions: 1_000,
            seed: 5,
            global_search_iters: 1,
            jobs: Some(2),
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let plan = RunPlan::suite(&[Benchmark::Adpcm]);
        let (outcomes, stats) = engine.execute_with_stats(&plan);
        assert_eq!(outcomes.len(), 5);
        // 5 plan jobs, but only 5 simulations in total: the baseline job
        // reused the phase-1 profiling run.
        assert_eq!(stats.runs, 5 + 1 - 1);
        assert_eq!(stats.workers, 2);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.cumulative_seconds > 0.0);
        assert!(stats.aggregate_mips > 0.0);
        assert_eq!(
            stats.simulated_instructions,
            5 * settings.instructions,
            "one simulation per distinct job"
        );
    }

    #[test]
    fn twins_run_once_and_match_direct_runs() {
        // Gzip and Bzip2 share a stream, Adpcm has none to share; Vpr's
        // oracle job runs as Parser, which appears first and has no oracle
        // job of its own.
        let settings = ExperimentSettings {
            benchmarks: Vec::new(),
            instructions: 5_000,
            interval_instructions: 500,
            seed: 3,
            global_search_iters: 1,
            jobs: Some(2),
        };
        let configs = [
            ConfigKind::FullySynchronous,
            ConfigKind::BaselineMcd,
            ConfigKind::AttackDecay(mcd_control::AttackDecayParams::paper_defaults()),
            ConfigKind::OfflineDynamic {
                target_degradation: 0.01,
            },
            ConfigKind::OfflineDynamic {
                target_degradation: 0.05,
            },
            ConfigKind::GlobalScaling { freq_mhz: 800.0 },
        ];
        let mut plan = RunPlan::new();
        for bench in [Benchmark::Gzip, Benchmark::Bzip2, Benchmark::Adpcm] {
            for config in &configs {
                plan = plan.job(bench, config.clone());
            }
        }
        let plan = plan
            .job(Benchmark::Parser, ConfigKind::FullySynchronous)
            .job(Benchmark::Vpr, configs[4].clone());
        let engine = ExperimentEngine::from_settings(&settings);
        let (outcomes, stats) = engine.execute_with_stats(&plan);

        let direct = BenchmarkRunner::new(settings.instructions, settings.seed)
            .with_interval(settings.interval_instructions);
        assert_eq!(outcomes.len(), plan.jobs.len());
        for (job, outcome) in plan.jobs.iter().zip(&outcomes) {
            assert_eq!(outcome.benchmark, job.benchmark);
            assert_eq!(outcome.config, job.config);
            let fresh = direct.run(job.benchmark, &job.config);
            assert_eq!(
                outcome.result, fresh.result,
                "{} under {:?}",
                job.benchmark, job.config
            );
        }
        // Distinct simulations: 6 for the Gzip stream, 6 for Adpcm, and
        // Parser's fully synchronous, oracle and profiling runs.  Bzip2's
        // six jobs and the Gzip and Adpcm baselines are shared.
        assert_eq!(stats.runs, 15);
        assert_eq!(stats.shared_jobs, 8);
        assert_eq!(stats.simulated_instructions, 15 * settings.instructions);
    }

    #[test]
    fn a_twin_suite_simulates_each_distinct_job_once() {
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Gzip, Benchmark::Bzip2],
            instructions: 5_000,
            interval_instructions: 500,
            seed: 3,
            global_search_iters: 1,
            jobs: Some(2),
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let plan = RunPlan::suite(&settings.benchmarks);
        let (outcomes, stats) = engine.execute_with_stats(&plan);
        assert_eq!(stats.runs, 5, "not 10: Bzip2 replays Gzip's stream");
        assert_eq!(stats.shared_jobs, 6);
        assert_eq!(stats.simulated_instructions, 5 * settings.instructions);
        // Only Gzip's trace is built (once: the cache's recent ring
        // carries it from the profiling wave to the plan wave).
        assert_eq!(stats.trace_materializations, 1);
        let (gzip, bzip2) = outcomes.split_at(5);
        for (g, b) in gzip.iter().zip(bzip2) {
            assert_eq!(
                (g.benchmark, b.benchmark),
                (Benchmark::Gzip, Benchmark::Bzip2)
            );
            assert_eq!(g.config, b.config);
            assert_eq!(g.result, b.result);
        }
    }

    #[test]
    fn admission_priority_ranks_memory_bound_benchmarks_first() {
        // mcf is the paper's memory-bound straggler: large footprint,
        // heavy pointer chasing.  It must land at the head of the
        // admission queue, ahead of the small-footprint kernels.
        let mcf = admission_priority(Benchmark::Mcf);
        assert!(mcf > admission_priority(Benchmark::Gzip));
        assert!(mcf > admission_priority(Benchmark::Adpcm));
        assert!(mcf > admission_priority(Benchmark::Epic));
    }

    #[test]
    fn one_worker_claims_longest_first_without_reordering_results() {
        // One worker serializes the plan, so the run order *is* the claim
        // order.
        let runner = BenchmarkRunner::new(3_000, 13);
        let benches = [Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Gsm];
        let priorities = [1u64, 3, 2];
        let begun: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let outcomes = run_to_completion(
            1,
            benches.len(),
            |i| priorities[i],
            |i| {
                begun.lock().unwrap().push(i);
                runner.run(benches[i], &ConfigKind::BaselineMcd)
            },
        );
        assert_eq!(
            *begun.lock().unwrap(),
            vec![1, 2, 0],
            "jobs must be claimed in descending priority"
        );
        // Results stay in job order regardless of claim order.
        for (bench, outcome) in benches.iter().zip(&outcomes) {
            assert_eq!(outcome.benchmark, *bench);
        }
    }

    #[test]
    fn repeat_plan_resimulates_bit_identically() {
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm],
            instructions: 15_000,
            interval_instructions: 1_000,
            seed: 5,
            global_search_iters: 1,
            jobs: Some(2),
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let plan = RunPlan::suite(&[Benchmark::Adpcm]);

        // First pass: the profiling wave runs BaselineMcd once and the
        // plan's baseline job reuses it; the other four jobs simulate.
        assert!(!engine.runner().has_profile(Benchmark::Adpcm));
        let (first, cold) = engine.execute_with_stats(&plan);
        assert_eq!(cold.runs, 5);
        // All five runs of the benchmark shared one materialized trace.
        assert_eq!(cold.trace_materializations, 1);
        assert_eq!(cold.trace_cache_hits, 4);
        assert!(cold.trace_peak_bytes > 0);

        // Second pass: the profile is already cached, so no profiling wave
        // runs and BaselineMcd simulates inside the plan like every other
        // job.
        assert!(engine.runner().has_profile(Benchmark::Adpcm));
        let (second, warm) = engine.execute_with_stats(&plan);
        assert_eq!(warm.runs, 5, "every plan job simulates again");
        assert_eq!(warm.simulated_instructions, 5 * settings.instructions);
        assert_eq!(second.len(), first.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.result, b.result, "a repeated plan must be bit-identical");
        }
    }

    #[test]
    fn disabling_the_caches_reproduces_identical_results() {
        // The reference for every plan outcome is a run with no engine
        // cache at all: the live generator feeding `McdProcessor::run`
        // directly, under the same config, seed and warm regions.
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Gzip],
            instructions: 10_000,
            interval_instructions: 1_000,
            seed: 9,
            global_search_iters: 1,
            jobs: Some(2),
        };
        let engine = ExperimentEngine::from_settings(&settings);
        let plan = RunPlan::suite(&[Benchmark::Gzip]);
        let (outcomes, stats) = engine.execute_with_stats(&plan);
        assert_eq!(stats.trace_materializations, 1);
        let spec = Benchmark::Gzip.spec();
        let runner = engine.runner();
        for (job, outcome) in plan.jobs.iter().zip(&outcomes) {
            let mut cpu = McdProcessor::new(
                runner.sim_config(&job.config),
                runner.controller(job.benchmark, &job.config),
            );
            cpu.warm_caches(&WorkloadGenerator::warm_regions(&spec));
            let live = cpu.run(WorkloadGenerator::new(
                &spec,
                settings.seed,
                settings.instructions,
            ));
            assert_eq!(
                outcome.result, live,
                "trace replay must never change results ({:?})",
                job.config
            );
        }
    }
}
