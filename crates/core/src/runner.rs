//! Running one benchmark under one configuration.
//!
//! The runner knows how to build the simulator for each of the paper's
//! configurations, including the two-pass flow required by the off-line
//! oracle (profile at maximum frequency, then re-run with the per-interval
//! schedule).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mcd_clock::{MegaHertz, OperatingPointTable};
use mcd_control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
    GlobalScalingController, OfflineController, OfflineProfile,
};
use mcd_isa::{DynInst, InstructionStream};
use mcd_sim::{McdProcessor, SimConfig, SimResult, StepOutcome};
use mcd_workloads::{Benchmark, TraceCursor, WorkloadGenerator};
use serde::{Deserialize, Serialize};

use crate::cache::{TraceCache, TraceCacheStats, TraceKey};
use crate::engine::trace_sharing_enabled;

/// Which of the paper's configurations to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConfigKind {
    /// Conventional fully synchronous processor at 1 GHz / 1.2 V.
    FullySynchronous,
    /// Baseline MCD processor: four domains, all at maximum frequency.
    BaselineMcd,
    /// MCD processor driven by the Attack/Decay on-line algorithm.
    AttackDecay(AttackDecayParams),
    /// MCD processor driven by the off-line oracle with the given
    /// performance-degradation target (0.01 and 0.05 reproduce Dynamic-1%
    /// and Dynamic-5%).
    OfflineDynamic {
        /// Degradation target as a fraction.
        target_degradation: f64,
    },
    /// Fully synchronous processor globally scaled to the given frequency.
    GlobalScaling {
        /// The global frequency in MHz.
        freq_mhz: MegaHertz,
    },
}

impl ConfigKind {
    /// Label used in reports (matches the paper's terminology).
    pub fn label(&self) -> String {
        match self {
            ConfigKind::FullySynchronous => "Fully synchronous".to_string(),
            ConfigKind::BaselineMcd => "Baseline MCD".to_string(),
            ConfigKind::AttackDecay(_) => "Attack/Decay".to_string(),
            ConfigKind::OfflineDynamic { target_degradation } => {
                format!("Dynamic-{}%", (target_degradation * 100.0).round() as u32)
            }
            ConfigKind::GlobalScaling { freq_mhz } => format!("Global ({freq_mhz:.0} MHz)"),
        }
    }
}

/// The instruction source of one run: a live generator, or a cursor
/// over a shared materialized trace.  The two are bit-identical by
/// construction ([`mcd_workloads::SharedTrace`] records a generator run
/// to completion), so which variant a run uses never affects its
/// [`SimResult`].
#[derive(Debug, Clone)]
pub enum RunStream {
    /// Generate the stream on the fly (trace sharing disabled).
    Live(WorkloadGenerator),
    /// Replay a shared trace (the plan's same-workload runs hold cursors
    /// into one `Arc<SharedTrace>`).
    Trace(TraceCursor),
}

impl InstructionStream for RunStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        match self {
            RunStream::Live(g) => g.next_inst(),
            RunStream::Trace(c) => c.next_inst(),
        }
    }

    fn remaining_hint(&self) -> Option<u64> {
        match self {
            RunStream::Live(g) => g.remaining_hint(),
            RunStream::Trace(c) => c.remaining_hint(),
        }
    }

    fn annotations(&self) -> Option<&mcd_isa::TraceAnnotations> {
        match self {
            // Live generation carries no precomputed sidecar; the
            // frontend re-derives dependences from the rename map.
            RunStream::Live(_) => None,
            RunStream::Trace(c) => c.annotations(),
        }
    }
}

/// A simulation run that can execute in bounded slices.
///
/// Produced by [`BenchmarkRunner::begin`]; the owner repeatedly calls
/// [`PausableRun::step`] until it yields the outcome.  All of the run's
/// state — the processor (with its controller, clocks, event queues and
/// telemetry) *and* the instruction stream — is owned here, so the value
/// can move freely between worker threads across pauses.  The sequence of
/// slice boundaries does not affect the result: stepping in slices of any
/// size yields a [`SimResult`] bit-identical to one unbounded run.
pub struct PausableRun {
    pub(crate) benchmark: Benchmark,
    pub(crate) config: ConfigKind,
    pub(crate) cpu: McdProcessor,
    pub(crate) stream: RunStream,
    /// Bytes of the shared trace backing `stream` (0 for live
    /// generation); stamped into the outcome's host stats at finish.
    pub(crate) trace_bytes: u64,
}

impl std::fmt::Debug for PausableRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PausableRun")
            .field("benchmark", &self.benchmark)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl PausableRun {
    /// The benchmark this run executes.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The configuration this run executes under.
    pub fn config(&self) -> &ConfigKind {
        &self.config
    }

    /// Committed instructions so far.
    pub fn committed_instructions(&self) -> u64 {
        self.cpu.committed_instructions()
    }

    /// Whether the run has finished (a finished run must not be stepped
    /// or snapshotted).
    pub fn is_done(&self) -> bool {
        self.cpu.is_done()
    }

    /// Runs at most `max_cycles` kernel steps.  Returns `None` when the
    /// run paused (call again to continue) and the outcome when it
    /// finished.  A finished run must not be stepped again.
    pub fn step(&mut self, max_cycles: u64) -> Option<RunOutcome> {
        match self.cpu.run_for(&mut self.stream, max_cycles) {
            StepOutcome::Paused => None,
            StepOutcome::Finished(mut result) => {
                result.host.trace_bytes = self.trace_bytes;
                Some(RunOutcome {
                    benchmark: self.benchmark,
                    config: self.config.clone(),
                    result,
                })
            }
        }
    }
}

/// A completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The benchmark that was run.
    pub benchmark: Benchmark,
    /// The configuration it ran under.
    pub config: ConfigKind,
    /// The simulation telemetry.
    pub result: SimResult,
}

/// A profile cache shareable between runners and the parallel experiment
/// engine's workers.  Ordered (`BTreeMap`) per the workspace's
/// hash-iteration lint: only keyed lookups happen today, but nothing on
/// a result-affecting path may carry unordered iteration order.
pub type SharedProfileCache = Arc<Mutex<BTreeMap<Benchmark, OfflineProfile>>>;

/// Runs benchmarks under the paper's configurations, caching the profiling
/// runs needed by the off-line oracle.
///
/// The cache sits behind a shared lock so that the parallel experiment
/// engine's workers all see the same profiles; `run` itself takes `&self`
/// and is safe to call from many threads at once.
#[derive(Debug)]
pub struct BenchmarkRunner {
    /// Committed instructions per run.
    pub instructions: u64,
    /// Seed for workload generation and clock phases/jitter.
    pub seed: u64,
    /// Record per-interval traces (needed for the Figure 2/3 experiment).
    pub record_traces: bool,
    /// Committed instructions per control interval.  The paper uses 10 000;
    /// the experiment harness scales this down together with the simulation
    /// window so that short runs still contain enough control intervals for
    /// the algorithms to act (see DESIGN.md, "Substitutions").
    pub interval_instructions: u64,
    profiles: SharedProfileCache,
    /// Shared-trace cache; `None` generates streams live
    /// (`MCD_NO_TRACE_SHARE=1` or [`Self::with_trace_sharing`]).
    traces: Option<Arc<TraceCache>>,
}

impl BenchmarkRunner {
    /// Creates a runner with the given per-run instruction budget.  Trace
    /// sharing defaults to the `MCD_NO_TRACE_SHARE` environment knob
    /// (enabled when unset).
    pub fn new(instructions: u64, seed: u64) -> Self {
        BenchmarkRunner {
            instructions,
            seed,
            record_traces: false,
            interval_instructions: 10_000,
            profiles: Arc::default(),
            traces: trace_sharing_enabled(None).then(Arc::default),
        }
    }

    /// Builder-style override of the control-interval length.
    pub fn with_interval(mut self, interval_instructions: u64) -> Self {
        self.interval_instructions = interval_instructions;
        self
    }

    /// Builder-style enable/disable of shared-trace streams.
    pub fn with_trace_sharing(mut self, enabled: bool) -> Self {
        self.traces = match (enabled, self.traces.take()) {
            (true, Some(cache)) => Some(cache),
            (true, None) => Some(Arc::default()),
            (false, _) => None,
        };
        self
    }

    /// The trace cache, when trace sharing is enabled.
    pub fn trace_cache(&self) -> Option<&Arc<TraceCache>> {
        self.traces.as_ref()
    }

    /// Counters of the trace cache (zeros when sharing is disabled).
    pub fn trace_cache_stats(&self) -> TraceCacheStats {
        self.traces.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The trace-cache key of `bench` under this runner's settings.
    pub fn trace_key(&self, bench: Benchmark) -> TraceKey {
        TraceKey::of(&bench.spec(), self.seed, self.instructions)
    }

    /// Whether the profile of `bench` is already cached.
    pub fn has_profile(&self, bench: Benchmark) -> bool {
        self.profiles
            .lock()
            .expect("profile cache poisoned")
            .contains_key(&bench)
    }

    fn sim_config(&self, kind: &ConfigKind) -> SimConfig {
        let mut cfg = match kind {
            ConfigKind::FullySynchronous | ConfigKind::GlobalScaling { .. } => {
                SimConfig::fully_synchronous(self.instructions)
            }
            _ => SimConfig::baseline_mcd(self.instructions),
        };
        cfg.seed = self.seed;
        cfg.record_traces = self.record_traces;
        cfg.interval_instructions = self.interval_instructions;
        cfg
    }

    fn controller(&self, bench: Benchmark, kind: &ConfigKind) -> Box<dyn FrequencyController> {
        let table = OperatingPointTable::default();
        match kind {
            ConfigKind::FullySynchronous | ConfigKind::BaselineMcd => {
                Box::new(FixedController::at_max())
            }
            ConfigKind::AttackDecay(params) => {
                Box::new(AttackDecayController::new(*params, &table))
            }
            ConfigKind::OfflineDynamic { target_degradation } => {
                let profile = self.profile_for(bench);
                Box::new(OfflineController::from_profile(
                    profile,
                    *target_degradation,
                    &table,
                ))
            }
            ConfigKind::GlobalScaling { freq_mhz } => {
                Box::new(GlobalScalingController::new(*freq_mhz))
            }
        }
    }

    /// The per-interval activity profile of `bench` gathered from a
    /// baseline-MCD run at maximum frequency (cached across calls; this is
    /// the "first pass" of the off-line algorithm).
    pub fn profile_for(&self, bench: Benchmark) -> OfflineProfile {
        if let Some(p) = self
            .profiles
            .lock()
            .expect("profile cache poisoned")
            .get(&bench)
        {
            return p.clone();
        }
        // The baseline run below re-checks and fills the cache.
        let result = self.run(bench, &ConfigKind::BaselineMcd);
        result.result.profile
    }

    /// Builds (but does not start) the simulation of `bench` under `kind`:
    /// the processor with its controller, warmed caches and the workload
    /// stream, packaged as a [`PausableRun`].
    ///
    /// For [`ConfigKind::OfflineDynamic`] this gathers the profiling pass
    /// first (through the shared cache) — the experiment engine schedules
    /// those as explicit prerequisites so `begin` finds the cache warm.
    pub fn begin(&self, bench: Benchmark, kind: &ConfigKind) -> PausableRun {
        let spec = bench.spec();
        let (stream, warm_regions, trace_bytes) = match &self.traces {
            Some(cache) => {
                let trace = cache.lease(&spec, self.seed, self.instructions);
                let bytes = trace.bytes();
                let regions = trace.warm_regions().to_vec();
                (RunStream::Trace(trace.cursor()), regions, bytes)
            }
            None => (
                RunStream::Live(WorkloadGenerator::new(&spec, self.seed, self.instructions)),
                WorkloadGenerator::warm_regions(&spec),
                0,
            ),
        };
        let controller = self.controller(bench, kind);
        let config = self.sim_config(kind);
        let mut cpu = McdProcessor::new(config, controller);
        cpu.warm_caches(&warm_regions);
        PausableRun {
            benchmark: bench,
            config: kind.clone(),
            cpu,
            stream,
            trace_bytes,
        }
    }

    /// Records a finished outcome: baseline-MCD runs cache their activity
    /// profile for the off-line oracle.  Called by `run`; a caller that
    /// steps a [`PausableRun`] itself calls it when the run completes.
    pub fn note_outcome(&self, outcome: &RunOutcome) {
        if matches!(outcome.config, ConfigKind::BaselineMcd) {
            self.profiles
                .lock()
                .expect("profile cache poisoned")
                .entry(outcome.benchmark)
                .or_insert_with(|| outcome.result.profile.clone());
        }
    }

    /// Runs `bench` under `kind` to completion and returns the outcome.
    /// Takes `&self`: runs are pure functions of the runner's settings, so
    /// it is safe to call from many threads at once.
    pub fn run(&self, bench: Benchmark, kind: &ConfigKind) -> RunOutcome {
        let mut run = self.begin(bench, kind);
        let outcome = run
            .step(u64::MAX)
            .expect("an unbounded slice runs to completion");
        self.note_outcome(&outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(ConfigKind::BaselineMcd.label(), "Baseline MCD");
        assert_eq!(
            ConfigKind::OfflineDynamic {
                target_degradation: 0.05
            }
            .label(),
            "Dynamic-5%"
        );
        assert_eq!(
            ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()).label(),
            "Attack/Decay"
        );
        assert!(ConfigKind::GlobalScaling { freq_mhz: 875.0 }
            .label()
            .contains("875"));
    }

    #[test]
    fn runner_runs_and_caches_profiles() {
        let runner = BenchmarkRunner::new(25_000, 7);
        let baseline = runner.run(Benchmark::Adpcm, &ConfigKind::BaselineMcd);
        assert_eq!(baseline.result.committed_instructions, 25_000);
        // The profile is now cached: the offline configuration reuses it.
        let profile = runner.profile_for(Benchmark::Adpcm);
        assert_eq!(profile.len(), baseline.result.profile.len());
        let offline = runner.run(
            Benchmark::Adpcm,
            &ConfigKind::OfflineDynamic {
                target_degradation: 0.05,
            },
        );
        assert_eq!(offline.result.committed_instructions, 25_000);
    }

    #[test]
    fn pausable_run_is_bit_identical_to_the_one_shot_run() {
        let runner = BenchmarkRunner::new(10_000, 7);
        let whole = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        let mut sliced = runner.begin(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        assert_eq!(sliced.benchmark(), Benchmark::Gzip);
        assert_eq!(sliced.config(), &ConfigKind::BaselineMcd);
        let mut pauses = 0;
        let outcome = loop {
            match sliced.step(3_000) {
                None => pauses += 1,
                Some(o) => break o,
            }
        };
        assert!(pauses > 0, "a 3k-step slice must pause a 10k-inst run");
        assert_eq!(outcome.result, whole.result);
        // note_outcome caches baseline profiles exactly like run() does.
        let fresh = BenchmarkRunner::new(10_000, 7);
        assert!(!fresh.has_profile(Benchmark::Gzip));
        fresh.note_outcome(&outcome);
        assert!(fresh.has_profile(Benchmark::Gzip));
        assert_eq!(
            fresh.profile_for(Benchmark::Gzip).len(),
            whole.result.profile.len()
        );
    }

    #[test]
    fn attack_decay_run_saves_energy_vs_baseline_on_integer_code() {
        let runner = BenchmarkRunner::new(60_000, 11);
        let baseline = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        let ad = runner.run(
            Benchmark::Gzip,
            &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
        );
        assert!(
            ad.result.chip_energy() < baseline.result.chip_energy(),
            "Attack/Decay must save energy on a workload with an idle FP domain"
        );
    }
}
