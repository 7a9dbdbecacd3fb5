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
use mcd_sim::{McdProcessor, SimConfig, SimResult};
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
enum RunStream {
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

    /// Runs `bench` under `kind` to completion and returns the outcome.
    /// Takes `&self`: runs are pure functions of the runner's settings, so
    /// it is safe to call from many threads at once.
    ///
    /// For [`ConfigKind::OfflineDynamic`] this gathers the profiling pass
    /// first (through the shared cache); the experiment engine schedules
    /// those as explicit prerequisites so the cache is already warm.
    /// Baseline-MCD runs cache their activity profile for the off-line
    /// oracle.
    pub fn run(&self, bench: Benchmark, kind: &ConfigKind) -> RunOutcome {
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
        let mut cpu = McdProcessor::new(self.sim_config(kind), controller);
        cpu.warm_caches(&warm_regions);
        let mut result = cpu.run(stream);
        result.host.trace_bytes = trace_bytes;
        if matches!(kind, ConfigKind::BaselineMcd) {
            self.profiles
                .lock()
                .expect("profile cache poisoned")
                .entry(bench)
                .or_insert_with(|| result.profile.clone());
        }
        RunOutcome {
            benchmark: bench,
            config: kind.clone(),
            result,
        }
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
