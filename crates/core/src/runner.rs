//! Running one benchmark under one configuration.
//!
//! The runner knows how to build the simulator for each of the paper's
//! configurations, including the two-pass flow required by the off-line
//! oracle (profile at maximum frequency, then re-run with the per-interval
//! schedule).  Every run of a benchmark replays the same materialized
//! instruction trace from the runner's [`TraceCache`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mcd_clock::{MegaHertz, OperatingPointTable};
use mcd_control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
    GlobalScalingController, IntervalSample, OfflineController,
};
use mcd_sim::{McdProcessor, SimConfig, SimResult};
use mcd_workloads::Benchmark;
use serde::{Deserialize, Serialize};

use crate::cache::{TraceCache, TraceCacheStats};

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

/// Runs benchmarks under the paper's configurations, caching the profiling
/// runs needed by the off-line oracle.
///
/// The cache sits behind a shared lock so that the parallel experiment
/// engine's workers all see the same profiles; `run` itself takes `&self`
/// and is safe to call from many threads at once.
#[derive(Debug)]
pub struct BenchmarkRunner {
    /// Committed instructions per run; fixed for the runner's lifetime,
    /// like `seed`, because its traces are keyed by benchmark alone.
    instructions: u64,
    /// Seed for workload generation and clock phases/jitter.
    seed: u64,
    /// Committed instructions per control interval.  The paper uses 10 000;
    /// the experiment harness scales this down together with the simulation
    /// window so that short runs still contain enough control intervals for
    /// the algorithms to act (see docs/ARCHITECTURE.md, "Substitutions").
    interval_instructions: u64,
    /// The off-line oracle's profile cache: each benchmark's baseline-MCD
    /// interval record, shared by every oracle built from it.  Ordered
    /// (`BTreeMap`; `clippy.toml` disallows `HashMap`): only keyed lookups
    /// happen today, but nothing on a result-affecting path may carry
    /// unordered iteration order.
    profiles: Mutex<BTreeMap<Benchmark, Arc<[IntervalSample]>>>,
    /// The instruction stream of every run: one shared trace per
    /// benchmark.
    traces: TraceCache,
}

impl BenchmarkRunner {
    /// Creates a runner with the given per-run instruction budget and
    /// seed.
    pub fn new(instructions: u64, seed: u64) -> Self {
        BenchmarkRunner {
            instructions,
            seed,
            interval_instructions: 10_000,
            profiles: Mutex::default(),
            traces: TraceCache::new(seed, instructions),
        }
    }

    /// Builder-style override of the control-interval length.
    pub fn with_interval(mut self, interval_instructions: u64) -> Self {
        self.interval_instructions = interval_instructions;
        self
    }

    /// The runner's trace cache.
    pub(crate) fn trace_cache(&self) -> &TraceCache {
        &self.traces
    }

    /// Counters of the trace cache.
    pub fn trace_cache_stats(&self) -> TraceCacheStats {
        self.traces.stats()
    }

    /// Whether the profile of `bench` is already cached.
    pub fn has_profile(&self, bench: Benchmark) -> bool {
        self.profiles
            .lock()
            .expect("profile cache poisoned")
            .contains_key(&bench)
    }

    /// The simulator configuration of a run under `kind`.  Only the
    /// off-line oracle's profile source, `BaselineMcd`, records its
    /// intervals.
    pub(crate) fn sim_config(&self, kind: &ConfigKind) -> SimConfig {
        let mut cfg = match kind {
            ConfigKind::FullySynchronous | ConfigKind::GlobalScaling { .. } => {
                SimConfig::fully_synchronous(self.instructions)
            }
            _ => SimConfig::baseline_mcd(self.instructions),
        };
        cfg.seed = self.seed;
        cfg.record_intervals = matches!(kind, ConfigKind::BaselineMcd);
        cfg.interval_instructions = self.interval_instructions;
        cfg
    }

    /// The frequency controller of a run of `bench` under `kind`.
    pub(crate) fn controller(
        &self,
        bench: Benchmark,
        kind: &ConfigKind,
    ) -> Box<dyn FrequencyController> {
        let table = OperatingPointTable::default();
        match kind {
            ConfigKind::FullySynchronous | ConfigKind::BaselineMcd => {
                Box::new(FixedController::at_max())
            }
            ConfigKind::AttackDecay(params) => {
                Box::new(AttackDecayController::new(*params, &table))
            }
            ConfigKind::OfflineDynamic { target_degradation } => {
                Box::new(OfflineController::from_profile(
                    &self.profile_for(bench),
                    *target_degradation,
                    &table,
                ))
            }
            ConfigKind::GlobalScaling { freq_mhz } => {
                Box::new(GlobalScalingController::new(*freq_mhz))
            }
        }
    }

    /// The interval record of a baseline-MCD run of `bench` at maximum
    /// frequency (cached across calls; this is the "first pass" of the
    /// off-line algorithm).
    fn profile_for(&self, bench: Benchmark) -> Arc<[IntervalSample]> {
        if let Some(p) = self
            .profiles
            .lock()
            .expect("profile cache poisoned")
            .get(&bench)
        {
            return Arc::clone(p);
        }
        // The baseline run below re-checks and fills the cache.
        self.run(bench, &ConfigKind::BaselineMcd)
            .result
            .intervals
            .into()
    }

    /// Runs `bench` under `kind` to completion and returns the outcome.
    /// Takes `&self`: runs are pure functions of the runner's settings, so
    /// it is safe to call from many threads at once.  The instruction
    /// stream is a cursor over the benchmark's shared trace, materialized
    /// on its first lease.
    ///
    /// For [`ConfigKind::OfflineDynamic`] this gathers the profiling pass
    /// first (through the shared cache); the experiment engine schedules
    /// those as explicit prerequisites so the cache is already warm.
    /// Baseline-MCD runs carry their interval record and cache it for the
    /// off-line oracle.
    pub fn run(&self, bench: Benchmark, kind: &ConfigKind) -> RunOutcome {
        let result = self.simulate(bench, kind, self.sim_config(kind));
        if matches!(kind, ConfigKind::BaselineMcd) {
            self.profiles
                .lock()
                .expect("profile cache poisoned")
                .entry(bench)
                .or_insert_with(|| result.intervals.as_slice().into());
        }
        RunOutcome {
            benchmark: bench,
            config: kind.clone(),
            result,
        }
    }

    /// Simulates `bench` under `kind`'s controller with `config`,
    /// replaying the benchmark's shared trace.
    pub(crate) fn simulate(
        &self,
        bench: Benchmark,
        kind: &ConfigKind,
        config: SimConfig,
    ) -> SimResult {
        let trace = self.traces.lease(bench);
        let mut cpu = McdProcessor::new(config, self.controller(bench, kind));
        cpu.warm_caches(trace.warm_regions());
        let mut result = cpu.run(trace.cursor());
        result.host.trace_bytes = trace.bytes();
        result
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
        // The record is now cached: the offline configuration reuses it.
        assert!(runner.has_profile(Benchmark::Adpcm));
        let profile = runner.profile_for(Benchmark::Adpcm);
        assert_eq!(profile[..], baseline.result.intervals[..]);
        let offline = runner.run(
            Benchmark::Adpcm,
            &ConfigKind::OfflineDynamic {
                target_degradation: 0.05,
            },
        );
        assert_eq!(offline.result.committed_instructions, 25_000);
    }

    #[test]
    fn only_baseline_runs_record_and_the_cached_record_feeds_the_oracle() {
        let runner = BenchmarkRunner::new(20_000, 3).with_interval(1_000);
        let dynamic5 = ConfigKind::OfflineDynamic {
            target_degradation: 0.05,
        };
        for kind in [
            ConfigKind::FullySynchronous,
            ConfigKind::BaselineMcd,
            ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
            dynamic5.clone(),
            ConfigKind::GlobalScaling { freq_mhz: 875.0 },
        ] {
            let outcome = runner.run(Benchmark::Gzip, &kind);
            let recorded = matches!(kind, ConfigKind::BaselineMcd);
            assert_eq!(
                outcome.result.intervals.len(),
                if recorded { 20 } else { 0 }
            );
        }

        // The reference oracle is built from a fresh runner's baseline
        // record, outside the profile cache.
        let cached = runner.run(Benchmark::Gzip, &dynamic5).result;
        let fresh = BenchmarkRunner::new(20_000, 3).with_interval(1_000);
        let baseline = fresh.run(Benchmark::Gzip, &ConfigKind::BaselineMcd).result;
        let oracle = OfflineController::from_profile(
            &baseline.intervals,
            0.05,
            &OperatingPointTable::default(),
        );
        let trace = fresh.traces.lease(Benchmark::Gzip);
        let mut cpu = McdProcessor::new(fresh.sim_config(&dynamic5), Box::new(oracle));
        cpu.warm_caches(trace.warm_regions());
        assert_eq!(cached, cpu.run(trace.cursor()));
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
