//! Run results and per-interval telemetry.

use std::ops::{Deref, DerefMut};

use mcd_clock::{DomainId, MegaHertz, TimePs};
use mcd_control::IntervalSample;
use mcd_microarch::{BranchStats, CacheStats};
use mcd_power::EnergyBreakdown;
use serde::{Deserialize, Serialize};

pub use mcd_microarch::bpred::BranchStats as BranchStatistics;

/// Event-queue traffic of one run: how hard the kernel's per-domain
/// timelines (`sim/src/events.rs`) worked.
///
/// These counters give the push/pop volume the queues carry and how much
/// of it the monotone lane absorbed, so a queue pathology (e.g. a workload
/// whose pushes mostly miss the lane) is visible in the
/// `BENCH_kernel_micro.json` artefact instead of silently degrading
/// throughput.  Host-side telemetry only: like the rest of [`HostStats`],
/// excluded from [`SimResult`] equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTrafficStats {
    /// Events scheduled (completions + wakeups, all domains).
    pub pushes: u64,
    /// Events delivered by timeline drains.
    pub pops: u64,
    /// Always 0: the timelines have no overflow list since the bucket ring
    /// was replaced by a plain heap.  Kept until the benchmark harness
    /// stops reading it.
    pub overflow_spills: u64,
    /// Always 0, for the same reason as `overflow_spills`.
    pub bucket_scans: u64,
    /// Timeline drain passes (one or more per domain cycle).
    pub drains: u64,
    /// Pushes absorbed by the monotone lane — the per-domain sorted fast
    /// path that accepts an event in O(1) when it is not earlier than the
    /// lane's tail; the rest go to the domain's heap.
    pub lane_pushes: u64,
}

impl EventTrafficStats {
    /// Always 0.0 (see `bucket_scans`).  Kept until the benchmark harness
    /// stops reading it.
    pub fn avg_bucket_scan(&self) -> f64 {
        0.0
    }
}

/// Host-side (simulator, not simulated) throughput of one run.
///
/// These numbers describe how fast the simulation itself executed, so the
/// experiment engine can report wall-clock cost and simulated MIPS in its
/// `BENCH_*.json` artefacts.  They are intentionally *excluded* from
/// [`SimResult`]'s equality: two runs of the same configuration are equal
/// when their simulated behaviour is identical, regardless of how long the
/// host took.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct HostStats {
    /// Host wall-clock time of the whole `McdProcessor::run` call, in
    /// seconds.
    pub wall_seconds: f64,
    /// Simulated millions of committed instructions per wall-clock second.
    pub simulated_mips: f64,
    /// Event-timeline traffic counters of the run.
    pub events: EventTrafficStats,
    /// Bytes of the shared, materialized instruction trace backing this
    /// run's stream (`0` when the stream was generated live).  Summing
    /// over the distinct traces of a plan's runs accounts for the peak
    /// memory the trace-sharing layer adds.
    pub trace_bytes: u64,
    /// Always `false`.  Result memoization was removed; the field stays
    /// only because the out-of-workspace benchmark package (`perfbench/`)
    /// still reads it, and goes with the next change to that package.
    pub result_cache_hit: bool,
    /// Always `0`.  Every run dispatches from the rename map since the
    /// trace-annotation sidecar was removed; the field stays only because
    /// the out-of-workspace benchmark package (`perfbench/`) still reads
    /// it, and goes with the next change to that package.
    pub ann_fed: u64,
    /// Always `0`, for the same reason as `ann_fed`.
    pub ann_recomputed: u64,
    /// Kernel steps (clock edges) per on-chip domain, indexed by
    /// `DomainId::index`: the clocks' edge counts.
    pub domain_steps: [u64; 4],
    /// Per on-chip domain, the steps whose handler only did bookkeeping:
    /// front end — nothing retired, fetched or dispatched; integer,
    /// floating point and load/store — no event due and nothing issued.
    pub idle_steps: [u64; 4],
    /// Per on-chip domain, the idle steps the quiet-time catch-up stepped
    /// in its tight per-domain loop instead of through the tournament (a
    /// subset of `idle_steps`).
    pub skipped_steps: [u64; 4],
    /// Quiet-time catch-ups that skipped at least one edge.
    pub quiet_skips: u64,
}

impl HostStats {
    /// Kernel steps over all on-chip domains.
    pub fn total_steps(&self) -> u64 {
        self.domain_steps.iter().sum()
    }

    /// Share of kernel steps whose handler only did bookkeeping.
    pub fn idle_step_fraction(&self) -> f64 {
        ratio(self.idle_steps.iter().sum(), self.total_steps())
    }

    /// Share of kernel steps the quiet-time catch-up stepped.
    pub fn skipped_step_fraction(&self) -> f64 {
        ratio(self.skipped_steps.iter().sum(), self.total_steps())
    }

    /// Derives the throughput numbers from a run's committed-instruction
    /// count and wall-clock duration.  Plan-level aggregation in the
    /// experiment engine is a plain sum of these per-run wall times.
    pub fn from_run(committed_instructions: u64, wall_seconds: f64) -> Self {
        let simulated_mips = if wall_seconds > 0.0 {
            committed_instructions as f64 / wall_seconds / 1e6
        } else {
            0.0
        };
        HostStats {
            wall_seconds,
            simulated_mips,
            events: EventTrafficStats::default(),
            trace_bytes: 0,
            result_cache_hit: false,
            ann_fed: 0,
            ann_recomputed: 0,
            domain_steps: [0; 4],
            idle_steps: [0; 4],
            skipped_steps: [0; 4],
            quiet_skips: 0,
        }
    }
}

/// `num / den`, or zero for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A field that equality ignores: any two values compare equal.
///
/// Wrapping a field in `NotCompared` keeps it out of a derived
/// `PartialEq` by construction, so every other field of the struct is
/// compared without a hand-written impl to keep in step.  `Deref` and
/// `DerefMut` reach the wrapped value directly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NotCompared<T>(pub T);

impl<T> PartialEq for NotCompared<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Deref for NotCompared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for NotCompared<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// The result of one simulation run.
///
/// Equality covers the *simulated* outcome only: the host throughput
/// varies run to run and sits behind [`NotCompared`], so serial and
/// parallel executions of the same job compare bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Committed instructions.
    pub committed_instructions: u64,
    /// Front-end clock cycles elapsed.
    pub frontend_cycles: u64,
    /// Wall-clock simulated time from the first to the last committed
    /// instruction, in picoseconds.
    pub elapsed_ps: TimePs,
    /// Energy breakdown (model units).
    pub energy: EnergyBreakdown,
    /// Branch predictor statistics.
    pub branch_stats: BranchStats,
    /// L1 instruction cache statistics.
    pub l1i_stats: CacheStats,
    /// L1 data cache statistics.
    pub l1d_stats: CacheStats,
    /// L2 cache statistics.
    pub l2_stats: CacheStats,
    /// Main-memory accesses.
    pub memory_accesses: u64,
    /// Branch mispredictions that caused a front-end redirect.
    pub mispredict_redirects: u64,
    /// Every control interval's sample, in order, when the configuration
    /// set `record_intervals`; empty otherwise.  Each sample covers a full
    /// interval, so interval `i` ends at `(i + 1) * instructions`
    /// committed instructions.
    pub intervals: Vec<IntervalSample>,
    /// Average frequency of each controllable domain over the run, in MHz
    /// (cycle-weighted).
    pub avg_domain_freq_mhz: Vec<(DomainId, MegaHertz)>,
    /// Host-side throughput of the run (excluded from equality).
    pub host: NotCompared<HostStats>,
}

impl SimResult {
    /// Cycles per committed instruction (front-end cycles).
    pub fn cpi(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.frontend_cycles as f64 / self.committed_instructions as f64
        }
    }

    /// Instructions per front-end cycle.
    pub fn ipc(&self) -> f64 {
        let cpi = self.cpi();
        if cpi == 0.0 {
            0.0
        } else {
            1.0 / cpi
        }
    }

    /// Simulated execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed_ps as f64 * 1e-12
    }

    /// Energy per committed instruction (chip energy only, model units),
    /// the paper's EPI metric.
    pub fn epi(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.chip_energy() / self.committed_instructions as f64
        }
    }

    /// Total on-chip energy (excludes main memory), model units.
    pub fn chip_energy(&self) -> f64 {
        self.energy.total - self.energy.structure(mcd_power::Structure::MainMemory)
    }

    /// Energy-delay product (chip energy times execution time).
    pub fn energy_delay_product(&self) -> f64 {
        self.chip_energy() * self.seconds()
    }

    /// Average chip power (energy / time), model units per second.
    pub fn avg_power(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            0.0
        } else {
            self.chip_energy() / s
        }
    }

    /// Timeline events pushed per committed instruction — the kernel's
    /// event-traffic intensity.  Host telemetry (the simulated outcome is
    /// unaffected), but the single best indicator of where event-queue
    /// structural cuts should land.
    pub fn events_per_commit(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.host.events.pushes as f64 / self.committed_instructions as f64
        }
    }

    /// Kernel steps (clock edges, all on-chip domains) per committed
    /// instruction — how many edges the kernel steps for each commit.
    pub fn steps_per_commit(&self) -> f64 {
        ratio(self.host.total_steps(), self.committed_instructions)
    }

    /// The average frequency of one domain over the run.
    pub fn avg_freq(&self, domain: DomainId) -> Option<MegaHertz> {
        self.avg_domain_freq_mhz
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, f)| *f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::{EnergyAccount, EnergyParams, Structure};

    fn result(instructions: u64, cycles: u64, elapsed_ps: u64) -> SimResult {
        let params = EnergyParams::default();
        let mut acct = EnergyAccount::new(params.clone());
        acct.record_access(Structure::IntAlu, instructions, params.voltage_scale(1.2));
        acct.record_memory_access();
        SimResult {
            committed_instructions: instructions,
            frontend_cycles: cycles,
            elapsed_ps,
            energy: acct.breakdown(),
            branch_stats: BranchStats::default(),
            l1i_stats: CacheStats::default(),
            l1d_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
            memory_accesses: 1,
            mispredict_redirects: 0,
            intervals: vec![],
            avg_domain_freq_mhz: vec![(DomainId::Integer, 900.0)],
            host: NotCompared(HostStats::from_run(instructions, 0.5)),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = result(10_000, 12_500, 12_500_000);
        assert!((r.cpi() - 1.25).abs() < 1e-12);
        assert!((r.ipc() - 0.8).abs() < 1e-12);
        assert!((r.seconds() - 12.5e-6).abs() < 1e-18);
        assert!(r.epi() > 0.0);
        assert!(r.energy_delay_product() > 0.0);
        assert!(r.avg_power() > 0.0);
        assert_eq!(r.avg_freq(DomainId::Integer), Some(900.0));
        assert_eq!(r.avg_freq(DomainId::FloatingPoint), None);
    }

    #[test]
    fn host_stats_are_excluded_from_equality() {
        let mut a = result(10_000, 12_500, 12_500_000);
        let b = result(10_000, 12_500, 12_500_000);
        *a.host = HostStats::from_run(10_000, 2.0);
        assert!((a.host.simulated_mips - 0.005).abs() < 1e-12);
        assert_ne!(a.host.wall_seconds, b.host.wall_seconds);
        assert_eq!(a, b, "differing host throughput must not break equality");
    }

    #[test]
    fn chip_energy_excludes_main_memory() {
        let r = result(100, 100, 100_000);
        assert!(r.chip_energy() < r.energy.total);
        assert!(
            (r.energy.total - r.chip_energy() - EnergyParams::default().main_memory_access_energy)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn zero_instruction_result_has_zero_rates() {
        let r = result(0, 0, 0);
        assert_eq!(r.cpi(), 0.0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.epi(), 0.0);
        assert_eq!(r.avg_power(), 0.0);
    }
}
