//! The parallel experiment engine: a work-stealing slice scheduler.
//!
//! Every paper artefact is built from a grid of *(benchmark,
//! configuration)* simulation jobs.  The engine turns such a grid — a
//! [`RunPlan`] — into results using a fixed-size pool of scoped worker
//! threads.  The unit of scheduling is **not** a whole run but a
//! *slice* of one: each job becomes a [`PausableRun`] whose boxed state
//! flows through a shared deque as a chain of `RunSlice` tasks, each
//! executing at most [`ExperimentEngine::slice_cycles`] kernel steps
//! before the run is parked back on the deque.  Any idle worker picks up
//! the next slice of any live run, so a long run (mcf) no longer pins one
//! worker while the others drain the queue and idle — every live run
//! makes continuous progress from the start of the plan, and the plan's
//! wall-clock approaches `max(total_work / workers, longest_run)` instead
//! of `queue_delay + longest_run`.
//!
//! The engine is the only way a plan of runs executes, whatever the
//! worker count: the Table 6 / Figure 4 suite, each round of the
//! `Global(...)` frequency search and each Figure 5–7 sweep are plans.
//!
//! The scheduler keeps the properties the experiments rely on:
//!
//! 1. **Deterministic results.**  Each job is a pure function of the
//!    experiment settings, and a slice boundary is invisible to the
//!    simulated machine (see [`mcd_sim::StepOutcome`]), so results are
//!    bit-identical regardless of worker count *and* slice length
//!    (host-throughput telemetry excluded; see
//!    [`mcd_sim::telemetry::HostStats`]).  Results are returned in plan
//!    order, never completion order.
//! 2. **Profile prerequisites run exactly once.**  The off-line oracle
//!    configurations (`Dynamic-1%`, `Dynamic-5%`) need the per-interval
//!    activity profile of a baseline-MCD run of the same benchmark.  The
//!    engine schedules those profiling runs as an explicit prerequisite
//!    phase feeding a shared, locked profile cache, so no worker ever
//!    duplicates a baseline pass.
//! 3. **Tunable knobs.**  `--jobs N` / `MCD_JOBS` /
//!    [`ExperimentSettings::jobs`] select the pool size (default: the
//!    host's available parallelism); `--slice-cycles N` /
//!    `MCD_SLICE_CYCLES` / [`ExperimentSettings::slice_cycles`] select the
//!    slice granularity (default [`DEFAULT_SLICE_CYCLES`]); and
//!    `--max-live-runs N` / `MCD_MAX_LIVE_RUNS` /
//!    [`ExperimentSettings::max_live_runs`] cap how many runs may be
//!    resident at once (default `4 * workers`; `0` = unbounded), bounding
//!    the scheduler's peak memory.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use mcd_workloads::Benchmark;
use serde::{Deserialize, Serialize};

use crate::experiments::ExperimentSettings;
use crate::runner::{BenchmarkRunner, ConfigKind, PausableRun, RunOutcome};

/// Resolves the number of worker threads: an explicit request wins, then
/// the `MCD_JOBS` environment variable, then the host's available
/// parallelism.  Always at least 1.
pub fn worker_count(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| std::env::var("MCD_JOBS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Default slice granularity of the work-stealing scheduler, in kernel
/// steps (domain-clock edges).  At current kernel throughput one slice is
/// on the order of 100 ms of host time — coarse enough that the per-slice
/// deque round-trip is unmeasurable, fine enough that a plan's runs
/// interleave freely across workers.
pub const DEFAULT_SLICE_CYCLES: u64 = 250_000;

/// Resolves the scheduler's slice length in kernel steps: an explicit
/// request wins, then the `MCD_SLICE_CYCLES` environment variable, then
/// [`DEFAULT_SLICE_CYCLES`].
///
/// # Panics
///
/// Panics on a zero slice length or an unparseable `MCD_SLICE_CYCLES` —
/// whichever way it was requested, an invalid granularity must not be
/// silently rewritten, or a run meant to force a particular slice length
/// (such as CI's small-slice test pass) would quietly certify a path it
/// never took.  This matches `MCD_GOLDEN_SLICE` in
/// `examples/golden_dump.rs`.
pub fn slice_cycles(explicit: Option<u64>) -> u64 {
    let resolved = explicit
        .or_else(|| {
            std::env::var("MCD_SLICE_CYCLES").ok().map(|v| {
                v.parse().unwrap_or_else(|_| {
                    panic!("MCD_SLICE_CYCLES must be a positive integer, got {v:?}")
                })
            })
        })
        .unwrap_or(DEFAULT_SLICE_CYCLES);
    assert!(resolved > 0, "slice granularity must be positive, got 0");
    resolved
}

/// Resolves the scheduler's admission cap — the maximum number of runs
/// begun but not yet finished, i.e. the bound on resident simulator state:
/// an explicit request wins, then the `MCD_MAX_LIVE_RUNS` environment
/// variable, then the default of `4 * workers`.  `0` means unbounded (the
/// pre-cap behaviour: every job of the plan is admitted up front and kept
/// resident until it finishes).
///
/// The default keeps peak memory at `O(workers)` instead of `O(jobs)`
/// while still over-admitting enough (4x) that a long run admitted within
/// the first wave cannot serialize the plan's tail.  Admission order is
/// cost-estimate order (see [`admission_priority`]); see `run_sliced` for
/// the rotation policy.
///
/// # Panics
///
/// Panics on an unparseable `MCD_MAX_LIVE_RUNS` (matching
/// [`slice_cycles`]: a requested cap must not be silently rewritten).
pub fn max_live_runs(explicit: Option<usize>, workers: usize) -> usize {
    explicit
        .or_else(|| {
            std::env::var("MCD_MAX_LIVE_RUNS").ok().map(|v| {
                v.parse().unwrap_or_else(|_| {
                    panic!("MCD_MAX_LIVE_RUNS must be a non-negative integer, got {v:?}")
                })
            })
        })
        .unwrap_or(4 * workers.max(1))
}

/// Resolves whether same-workload runs share one materialized
/// instruction trace: an explicit request wins, then the
/// `MCD_NO_TRACE_SHARE` environment variable (`1` disables, `0` leaves
/// sharing on), then enabled.
///
/// # Panics
///
/// Panics on any other `MCD_NO_TRACE_SHARE` value — a requested escape
/// hatch must not be silently ignored (matching [`slice_cycles`]'s
/// strictness), or an A/B run with a typoed `MCD_NO_TRACE_SHARE=yes`
/// would measure the shared path twice.
pub fn trace_sharing_enabled(explicit: Option<bool>) -> bool {
    explicit
        .or_else(|| {
            std::env::var("MCD_NO_TRACE_SHARE")
                .ok()
                .map(|v| match v.as_str() {
                    "0" => true,
                    "1" => false,
                    _ => panic!("MCD_NO_TRACE_SHARE must be 0 or 1, got {v:?}"),
                })
        })
        .unwrap_or(true)
}

/// Estimated relative host cost of simulating `bench`, used to order
/// admission under a bounded [`max_live_runs`] cap (longest runs first).
///
/// All jobs of a plan share one instruction budget, so run length varies
/// only with how many *cycles* a benchmark needs per instruction — which
/// is dominated by memory behaviour: a large footprint overflows the
/// warmed caches and every pointer-chasing load serializes on the memory
/// latency.  The weight is a phase-weighted sum of a footprint term
/// (saturating at 16 MiB) and the pointer-chase fraction, scaled to an
/// integer.  The absolute value is meaningless; only the order matters,
/// and it puts the mcf-class memory-bound runs at the head of the
/// admission queue so they cannot straggle behind the cap at the plan's
/// tail.
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

/// Shared state of one [`run_sliced`] execution: the admission queue and
/// the deque of parked runs, plus the liveness bookkeeping the workers
/// block on.
struct SliceQueue {
    state: Mutex<SliceState>,
    ready: Condvar,
    /// Maximum runs begun-but-unfinished at any moment (`usize::MAX` for
    /// unbounded — the resolved form of the `0` knob value).
    max_live: usize,
}

struct SliceState {
    /// Jobs not yet begun, in admission-priority order (see
    /// [`run_sliced`]); the claiming worker constructs the simulator, so
    /// construction parallelizes across workers.
    pending: VecDeque<usize>,
    /// Paused runs, each tagged with its job slot.  `pop_front` /
    /// `push_back` rotates fairly through the admitted runs, so every
    /// admitted run makes continuous progress while any worker is free.
    parked: VecDeque<(usize, Box<PausableRun>)>,
    /// Runs begun but not yet finished (parked or currently stepped) —
    /// the quantity the admission cap bounds.
    admitted: usize,
    /// Jobs not yet finished (pending, parked or currently stepped).
    live: usize,
    /// Set when a worker unwound mid-slice, so blocked workers exit
    /// instead of waiting for a task that will never finish.
    poisoned: bool,
}

impl SliceQueue {
    /// Blocks until a task can be claimed; `None` once no live jobs
    /// remain (or a sibling worker panicked).  Admission-first under the
    /// cap: while fewer than `max_live` runs are resident, new jobs are
    /// claimed in admission-priority order (incrementing `admitted`);
    /// otherwise workers rotate through the parked runs.  With an
    /// unbounded cap this reproduces the historical single-deque FIFO
    /// exactly: all jobs begin before any paused run is resumed.
    fn claim(&self) -> Option<(usize, Option<Box<PausableRun>>)> {
        let mut state = self.state.lock().expect("slice queue poisoned");
        loop {
            if state.poisoned || state.live == 0 {
                return None;
            }
            if state.admitted < self.max_live {
                if let Some(slot) = state.pending.pop_front() {
                    state.admitted += 1;
                    return Some((slot, None));
                }
            }
            if let Some((slot, run)) = state.parked.pop_front() {
                return Some((slot, Some(run)));
            }
            state = self.ready.wait(state).expect("slice queue poisoned");
        }
    }

    /// Parks a paused run at the back of the deque for any worker to pick
    /// up.
    fn park(&self, slot: usize, run: Box<PausableRun>) {
        let mut state = self.state.lock().expect("slice queue poisoned");
        state.parked.push_back((slot, run));
        drop(state);
        self.ready.notify_one();
    }

    /// Marks one run finished; opens an admission slot, and wakes every
    /// blocked worker when it was the last.
    fn retire(&self) {
        let mut state = self.state.lock().expect("slice queue poisoned");
        state.live -= 1;
        state.admitted -= 1;
        let all_done = state.live == 0;
        let admission_opened = !state.pending.is_empty();
        drop(state);
        if all_done {
            self.ready.notify_all();
        } else if admission_opened {
            // A worker may be blocked waiting for the admission slot this
            // retirement just opened.
            self.ready.notify_one();
        }
    }

    /// Marks the queue dead so blocked workers exit; used when a worker
    /// unwinds (e.g. a simulator watchdog panic), letting the scope join
    /// and propagate the panic instead of deadlocking.
    fn poison(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.poisoned = true;
        }
        self.ready.notify_all();
    }
}

/// Unwinding guard: a worker that panics mid-slice poisons the queue on
/// the way out.
struct PoisonOnPanic<'a>(&'a SliceQueue);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Executes jobs `0..n` to completion on `workers` scoped threads,
/// `slice_cycles` kernel steps at a time, and returns the outcomes **in
/// job order**.  Each run's boxed state flows through a shared deque: a
/// worker claims a task — constructing the simulator via `begin(slot)` on
/// the job's first claim, so construction parallelizes across workers and
/// overlaps with other runs' slices — steps one slice, then either parks
/// the run again (paused) or retires it (finished), recording the outcome
/// and calling `on_finish`.  A panic in any slice propagates.
///
/// `max_live` bounds residency: at most that many runs are begun but
/// unfinished at any moment, with `0` meaning unbounded.  Unbounded
/// admission reproduces the historical behaviour — every run starts at
/// plan start and rotates fairly, so the plan's wall-clock approaches
/// `max(total_work / workers, longest_run)` at the cost of O(jobs) peak
/// memory.  A bounded cap admits runs as residency slots free up, cutting
/// peak memory; the default of `4 * workers` (see [`max_live_runs`])
/// over-admits enough that a long run in the first admission wave cannot
/// recreate the late-long-run tail for typical plans.  Admitted runs
/// always rotate fairly regardless of the cap.
///
/// `priority(slot)` orders *admission*: jobs are begun highest priority
/// first (ties in plan order), so expensive runs (see
/// [`admission_priority`]) enter in the first wave instead of landing
/// behind the cap at the plan's tail and serializing it.  Priority never
/// affects results — outcomes stay in job order and each run is a pure
/// function of its inputs.
pub(crate) fn run_sliced<B, F, P>(
    workers: usize,
    slice_cycles: u64,
    max_live: usize,
    n: usize,
    priority: P,
    begin: B,
    on_finish: F,
) -> Vec<RunOutcome>
where
    B: Fn(usize) -> PausableRun + Sync,
    F: Fn(&RunOutcome) + Sync,
    P: Fn(usize) -> u64,
{
    if n == 0 {
        return Vec::new();
    }
    let mut admission_order: Vec<usize> = (0..n).collect();
    // Stable sort: equal priorities keep plan order.
    admission_order.sort_by_key(|&slot| std::cmp::Reverse(priority(slot)));
    let queue = SliceQueue {
        state: Mutex::new(SliceState {
            pending: admission_order.into(),
            parked: VecDeque::new(),
            admitted: 0,
            live: n,
            poisoned: false,
        }),
        ready: Condvar::new(),
        max_live: if max_live == 0 { usize::MAX } else { max_live },
    };
    let slots: Mutex<Vec<Option<RunOutcome>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n) {
            scope.spawn(|| {
                let _guard = PoisonOnPanic(&queue);
                while let Some((slot, run)) = queue.claim() {
                    let mut run = run.unwrap_or_else(|| Box::new(begin(slot)));
                    match run.step(slice_cycles) {
                        None => queue.park(slot, run),
                        Some(outcome) => {
                            on_finish(&outcome);
                            slots.lock().expect("result slots poisoned")[slot] = Some(outcome);
                            queue.retire();
                        }
                    }
                }
            });
        }
    });

    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every run finished"))
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
    /// Slice granularity the plan executed with, in kernel steps
    /// (`u64::MAX` means run-at-a-time).
    pub slice_cycles: u64,
    /// Simulations actually executed (including prerequisite profiling
    /// runs).
    pub runs: usize,
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
    /// referenced (pinned registrations plus the recent ring) — the
    /// plan's peak trace-memory cost.
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
    slice_cycles: u64,
    max_live_runs: usize,
}

impl ExperimentEngine {
    /// Creates an engine for the given settings (worker count, slice
    /// granularity, instruction budget, control-interval length, seed)
    /// with a fresh profile cache.
    pub fn from_settings(settings: &ExperimentSettings) -> Self {
        let workers = worker_count(settings.jobs);
        ExperimentEngine {
            runner: BenchmarkRunner::new(settings.instructions, settings.seed)
                .with_interval(settings.interval_instructions)
                .with_trace_sharing(trace_sharing_enabled(settings.share_traces)),
            workers,
            slice_cycles: slice_cycles(settings.slice_cycles),
            max_live_runs: max_live_runs(settings.max_live_runs, workers),
        }
    }

    /// The worker count the engine will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The slice granularity (kernel steps per scheduling quantum) the
    /// engine will use.
    pub fn slice_cycles(&self) -> u64 {
        self.slice_cycles
    }

    /// The admission cap (maximum begun-but-unfinished runs) the engine
    /// will use; `0` means unbounded.
    pub fn max_live_runs(&self) -> usize {
        self.max_live_runs
    }

    /// The runner backing this engine (shares its profile cache).
    pub fn runner(&self) -> &BenchmarkRunner {
        &self.runner
    }

    /// Executes `specs` to completion through the work-stealing slice
    /// scheduler (one worker included) and returns outcomes in spec
    /// order.
    ///
    /// Each job is its own run, admitted in [`admission_priority`] order,
    /// with its trace lease registered up front so same-workload runs
    /// share one materialization even when the admission cap keeps them
    /// from overlapping.
    fn execute_jobs(&self, specs: &[JobSpec]) -> Vec<RunOutcome> {
        // Registration is per call, i.e. per phase of `execute_with_stats`,
        // on purpose.  Registering the whole plan before the profiling
        // wave would let the plan wave reuse the profiling wave's traces
        // (halving `trace_materializations` on a 30-benchmark suite), but
        // it pins every trace across the profiling wave: the trace cache's
        // peak grows from ~2 MiB to ~26 MiB there and the process peak RSS
        // by about a third.  A per-phase pin holds a trace only from its
        // first to its last lease within the phase; the cache's small
        // recent ring bridges the two waves on small plans.
        if let Some(cache) = self.runner.trace_cache() {
            for job in specs {
                cache.register(self.runner.trace_key(job.benchmark), 1);
            }
        }
        run_sliced(
            self.workers,
            self.slice_cycles,
            self.max_live_runs,
            specs.len(),
            |i| admission_priority(specs[i].benchmark),
            |i| self.runner.begin(specs[i].benchmark, &specs[i].config),
            |outcome| self.runner.note_outcome(outcome),
        )
    }

    /// Executes the plan and returns its outcomes in plan order.
    pub fn execute(&self, plan: &RunPlan) -> Vec<RunOutcome> {
        self.execute_with_stats(plan).0
    }

    /// Executes the plan, also returning host-side statistics.
    pub fn execute_with_stats(&self, plan: &RunPlan) -> (Vec<RunOutcome>, EngineStats) {
        let started = Instant::now();
        let traces_before = self.runner.trace_cache_stats();

        // Phase 1 — prerequisite profiling runs, deduplicated through the
        // shared cache.  The baseline outcome itself is kept so that a
        // BaselineMcd job of the same benchmark in the plan does not run
        // the simulation twice.  These must complete before phase 2 can
        // *construct* the off-line oracle controllers, so they form their
        // own scheduling wave.
        let prerequisites: Vec<JobSpec> = plan
            .profile_prerequisites()
            .into_iter()
            .filter(|b| !self.runner.has_profile(*b))
            .map(|benchmark| JobSpec {
                benchmark,
                config: ConfigKind::BaselineMcd,
            })
            .collect();
        let baseline_outcomes: BTreeMap<Benchmark, RunOutcome> = self
            .execute_jobs(&prerequisites)
            .into_iter()
            .map(|o| (o.benchmark, o))
            .collect();

        // Phase 2 — the plan itself; baseline jobs covered by phase 1
        // reuse the prerequisite outcome, everything else becomes a chain
        // of slices on the shared deque.
        let reused = |job: &JobSpec| {
            job.config == ConfigKind::BaselineMcd && baseline_outcomes.contains_key(&job.benchmark)
        };
        let fresh: Vec<JobSpec> = plan.jobs.iter().filter(|j| !reused(j)).cloned().collect();
        let mut fresh_outcomes = self.execute_jobs(&fresh).into_iter();
        let outcomes: Vec<RunOutcome> = plan
            .jobs
            .iter()
            .map(|job| {
                if reused(job) {
                    baseline_outcomes[&job.benchmark].clone()
                } else {
                    fresh_outcomes
                        .next()
                        .expect("one fresh outcome per non-reused job")
                }
            })
            .collect();

        let wall_seconds = started.elapsed().as_secs_f64();
        // Count each simulation once: plan outcomes that reused a phase-1
        // baseline run are clones, not fresh runs.
        let fresh_plan_outcomes = plan
            .jobs
            .iter()
            .zip(outcomes.iter())
            .filter(|(job, _)| !reused(job))
            .map(|(_, o)| o);
        let simulated: Vec<&RunOutcome> = baseline_outcomes
            .values()
            .chain(fresh_plan_outcomes)
            .collect();
        let runs = simulated.len();
        let traces_after = self.runner.trace_cache_stats();
        // Per-run host stats already aggregate across each run's slices
        // (regardless of which workers executed them), so the plan-level
        // cumulative cost is a plain sum.
        let cumulative_seconds: f64 = simulated.iter().map(|o| o.result.host.wall_seconds).sum();
        let simulated_instructions: u64 = simulated
            .iter()
            .map(|o| o.result.committed_instructions)
            .sum();
        let stats = EngineStats {
            workers: self.workers,
            slice_cycles: self.slice_cycles,
            runs,
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
        (outcomes, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn worker_count_resolution_order() {
        // Explicit request always wins and is floored at 1.
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(0)), 1);
        assert!(worker_count(None) >= 1);
    }

    #[test]
    fn slice_cycles_resolution_order() {
        // Explicit request wins; the default applies when neither the
        // request nor the environment decide.  (The MCD_SLICE_CYCLES
        // branch is covered by the CI workflow, which forces a small slice
        // for the whole suite; the env-free default branch is covered by
        // CI's separate clean-environment mcd-core pass.)
        assert_eq!(slice_cycles(Some(123)), 123);
        if std::env::var("MCD_SLICE_CYCLES").is_err() {
            assert_eq!(slice_cycles(None), DEFAULT_SLICE_CYCLES);
        }
    }

    #[test]
    #[should_panic(expected = "slice granularity must be positive")]
    fn zero_slice_length_is_rejected() {
        let _ = slice_cycles(Some(0));
    }

    #[test]
    fn run_sliced_interleaves_runs_and_preserves_input_order() {
        let runner = BenchmarkRunner::new(6_000, 9);
        let specs = [
            (Benchmark::Adpcm, ConfigKind::BaselineMcd),
            (Benchmark::Gzip, ConfigKind::BaselineMcd),
            (Benchmark::Adpcm, ConfigKind::FullySynchronous),
        ];
        let begun = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        // A small slice forces every run through many park/claim cycles;
        // construction happens lazily on each job's first claim.
        let outcomes = run_sliced(
            2,
            2_000,
            0, // unbounded residency
            specs.len(),
            |_| 0,
            |i| {
                begun.fetch_add(1, Ordering::Relaxed);
                let (b, c) = &specs[i];
                runner.begin(*b, c)
            },
            |_| {
                finished.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(
            begun.load(Ordering::Relaxed),
            3,
            "each job begun exactly once"
        );
        assert_eq!(finished.load(Ordering::Relaxed), 3);
        assert_eq!(outcomes.len(), 3);
        for ((bench, config), outcome) in specs.iter().zip(&outcomes) {
            assert_eq!(outcome.benchmark, *bench);
            assert_eq!(outcome.config, *config);
            assert_eq!(outcome.result.committed_instructions, 6_000);
        }
        // Sliced scheduling must not change simulated results.
        let direct = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        assert_eq!(outcomes[1].result, direct.result);
    }

    #[test]
    fn admission_cap_bounds_peak_residency_with_identical_results() {
        // Six jobs, two workers, a cap of two: at most two runs may be
        // begun-but-unfinished at any instant, and the capped schedule
        // must produce exactly the outcomes of the unbounded one.
        let runner = BenchmarkRunner::new(5_000, 11);
        let specs: Vec<(Benchmark, ConfigKind)> = [
            Benchmark::Adpcm,
            Benchmark::Gzip,
            Benchmark::Gsm,
            Benchmark::Epic,
            Benchmark::Adpcm,
            Benchmark::Gzip,
        ]
        .iter()
        .map(|&b| (b, ConfigKind::BaselineMcd))
        .collect();
        let cap = 2usize;
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let capped = run_sliced(
            2,
            1_000,
            cap,
            specs.len(),
            |_| 0,
            |i| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let (b, c) = &specs[i];
                runner.begin(*b, c)
            },
            |_| {
                live.fetch_sub(1, Ordering::SeqCst);
            },
        );
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "peak residency {} exceeded the cap {cap}",
            peak.load(Ordering::SeqCst)
        );
        let unbounded = run_sliced(
            2,
            1_000,
            0,
            specs.len(),
            |_| 0,
            |i| {
                let (b, c) = &specs[i];
                runner.begin(*b, c)
            },
            |_| {},
        );
        for (a, b) in capped.iter().zip(&unbounded) {
            assert_eq!(a.result, b.result, "admission cap changed a result");
        }
    }

    #[test]
    fn max_live_runs_resolution_order() {
        // Explicit request wins (including the explicit 0 = unbounded);
        // the 4x-workers default applies otherwise (the MCD_MAX_LIVE_RUNS
        // branch would be order-dependent with other env-reading tests, so
        // it is exercised via the engine-level knob in CI instead).
        assert_eq!(max_live_runs(Some(7), 4), 7);
        assert_eq!(max_live_runs(Some(0), 4), 0);
        if std::env::var("MCD_MAX_LIVE_RUNS").is_err() {
            assert_eq!(max_live_runs(None, 3), 12);
            assert_eq!(max_live_runs(None, 0), 4);
        }
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
            slice_cycles: Some(3_000),
            max_live_runs: None,
            share_traces: None,
        };
        let engine = ExperimentEngine::from_settings(&settings);
        assert_eq!(engine.slice_cycles(), 3_000);
        let plan = RunPlan::suite(&[Benchmark::Adpcm]);
        let (outcomes, stats) = engine.execute_with_stats(&plan);
        assert_eq!(outcomes.len(), 5);
        // 5 plan jobs, but only 5 simulations in total: the baseline job
        // reused the phase-1 profiling run.
        assert_eq!(stats.runs, 5 + 1 - 1);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.slice_cycles, 3_000);
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
    fn run_sliced_admits_by_priority_without_reordering_results() {
        // One worker and a cap of one serialize admission completely, so
        // the begin order *is* the admission order.
        let runner = BenchmarkRunner::new(3_000, 13);
        let specs = [
            (Benchmark::Adpcm, ConfigKind::BaselineMcd),
            (Benchmark::Gzip, ConfigKind::BaselineMcd),
            (Benchmark::Gsm, ConfigKind::BaselineMcd),
        ];
        let priorities = [1u64, 3, 2];
        let begun: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let outcomes = run_sliced(
            1,
            1_000,
            1,
            specs.len(),
            |i| priorities[i],
            |i| {
                begun.lock().unwrap().push(i);
                let (b, c) = &specs[i];
                runner.begin(*b, c)
            },
            |_| {},
        );
        assert_eq!(
            *begun.lock().unwrap(),
            vec![1, 2, 0],
            "admission must follow descending priority"
        );
        // Results stay in job order regardless of admission order.
        for ((bench, config), outcome) in specs.iter().zip(&outcomes) {
            assert_eq!(outcome.benchmark, *bench);
            assert_eq!(outcome.config, *config);
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
            slice_cycles: Some(3_000),
            max_live_runs: None,
            share_traces: None,
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
        let base = ExperimentSettings {
            benchmarks: vec![Benchmark::Gzip],
            instructions: 10_000,
            interval_instructions: 1_000,
            seed: 9,
            global_search_iters: 1,
            jobs: Some(2),
            slice_cycles: Some(2_000),
            max_live_runs: None,
            share_traces: None,
        };
        let shared = ExperimentEngine::from_settings(&base);
        let live = ExperimentEngine::from_settings(&base.clone().with_share_traces(false));
        let plan = RunPlan::suite(&[Benchmark::Gzip]);
        let (a, with_traces) = shared.execute_with_stats(&plan);
        let (b, stats) = live.execute_with_stats(&plan);
        assert_eq!(with_traces.trace_materializations, 1);
        assert_eq!(stats.trace_materializations, 0, "sharing was disabled");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result, y.result, "trace replay must never change results");
        }
    }
}
