//! Simulator configuration: architectural parameters (paper Table 4) and
//! the clocking mode.

use mcd_clock::McdClockParams;
use mcd_microarch::{BranchPredictorConfig, CacheConfig};
use mcd_power::EnergyParams;
use serde::{Deserialize, Serialize};

/// Whether the chip is clocked as an MCD design or fully synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockingMode {
    /// Four independent domain clocks with jitter, synchronization windows
    /// and the MCD clock-energy overhead.
    Mcd,
    /// A single global clock: no jitter penalty, no synchronization
    /// windows, no extra clock energy.  Used for the conventional-processor
    /// baseline and the global-scaling comparison.
    FullySynchronous,
}

/// Architectural parameters of the simulated core (paper Table 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchParams {
    /// Instructions decoded/renamed/dispatched per front-end cycle (4).
    pub decode_width: usize,
    /// Integer-domain issue width per cycle (4 ALUs).
    pub int_issue_width: usize,
    /// Floating-point-domain issue width per cycle (2 ALUs).
    pub fp_issue_width: usize,
    /// Load/store-domain issue width per cycle (2 cache ports).
    pub mem_issue_width: usize,
    /// Instructions retired per front-end cycle (11).
    pub retire_width: usize,
    /// Reorder-buffer entries (80).
    pub rob_size: usize,
    /// Integer issue-queue entries (20).
    pub int_iq_size: usize,
    /// Floating-point issue-queue entries (15).
    pub fp_iq_size: usize,
    /// Load/store-queue entries (64).
    pub lsq_size: usize,
    /// Integer physical registers (72).
    pub int_phys_regs: usize,
    /// Floating-point physical registers (72).
    pub fp_phys_regs: usize,
    /// Branch mispredict penalty in front-end cycles (7).
    pub mispredict_penalty: u32,
    /// Branch predictor configuration.
    pub branch_predictor: BranchPredictorConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Size of the fetch buffer between fetch and rename.
    pub fetch_buffer_size: usize,
}

impl Default for ArchParams {
    fn default() -> Self {
        ArchParams {
            decode_width: 4,
            int_issue_width: 4,
            fp_issue_width: 2,
            mem_issue_width: 2,
            retire_width: 11,
            rob_size: 80,
            int_iq_size: 20,
            fp_iq_size: 15,
            lsq_size: 64,
            int_phys_regs: 72,
            fp_phys_regs: 72,
            mispredict_penalty: 7,
            branch_predictor: BranchPredictorConfig::default(),
            l1i: CacheConfig::l1_64k_2way(),
            l1d: CacheConfig::l1_64k_2way(),
            l2: CacheConfig::l2_1m_direct(),
            fetch_buffer_size: 16,
        }
    }
}

impl ArchParams {
    /// Validates that the parameters are internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("decode_width", self.decode_width),
            ("int_issue_width", self.int_issue_width),
            ("fp_issue_width", self.fp_issue_width),
            ("mem_issue_width", self.mem_issue_width),
            ("retire_width", self.retire_width),
            ("rob_size", self.rob_size),
            ("int_iq_size", self.int_iq_size),
            ("fp_iq_size", self.fp_iq_size),
            ("lsq_size", self.lsq_size),
            ("fetch_buffer_size", self.fetch_buffer_size),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.int_phys_regs <= 32 || self.fp_phys_regs <= 32 {
            return Err("physical register files must exceed 32 architectural registers".into());
        }
        self.branch_predictor.validate()?;
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2.validate()?;
        Ok(())
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Architectural parameters (Table 4).
    pub arch: ArchParams,
    /// Clock/DVFS parameters (Table 1).
    pub clock: McdClockParams,
    /// Energy-model parameters.
    pub energy: EnergyParams,
    /// MCD or fully synchronous clocking.
    pub clocking: ClockingMode,
    /// Committed instructions per control interval (10 000).
    pub interval_instructions: u64,
    /// Stop after committing this many instructions.
    pub max_instructions: u64,
    /// Seed for clock phases, jitter and any stochastic tie-breaks.
    pub seed: u64,
    /// Record every control interval's `IntervalSample` into
    /// `SimResult::intervals`: the off-line oracle's profile and the
    /// Figure 2/3 traces.  Off, nothing is recorded per interval; on, the
    /// record grows with run length.  Never changes the simulation.
    pub record_intervals: bool,
}

impl SimConfig {
    /// The baseline MCD configuration of the paper: all domains at maximum
    /// frequency, MCD clocking (jitter, synchronization windows, clock
    /// energy overhead).
    pub fn baseline_mcd(max_instructions: u64) -> Self {
        SimConfig {
            arch: ArchParams::default(),
            clock: McdClockParams::default(),
            energy: EnergyParams::default(),
            clocking: ClockingMode::Mcd,
            interval_instructions: 10_000,
            max_instructions,
            seed: 0xC0FFEE,
            record_intervals: false,
        }
    }

    /// The conventional fully synchronous processor: a single 1 GHz / 1.2 V
    /// clock, no synchronization penalties, no MCD clock-energy overhead.
    pub fn fully_synchronous(max_instructions: u64) -> Self {
        let mut cfg = SimConfig::baseline_mcd(max_instructions);
        cfg.clocking = ClockingMode::FullySynchronous;
        cfg.clock = cfg.clock.fully_synchronous();
        cfg
    }

    /// Validates all nested parameter sets.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.arch.validate()?;
        self.clock.validate()?;
        self.energy.validate()?;
        if self.interval_instructions == 0 {
            return Err("interval length must be positive".into());
        }
        if self.max_instructions == 0 {
            return Err("instruction budget must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_arch_matches_table4() {
        let a = ArchParams::default();
        assert_eq!(a.decode_width, 4);
        assert_eq!(a.retire_width, 11);
        assert_eq!(a.rob_size, 80);
        assert_eq!(a.int_iq_size, 20);
        assert_eq!(a.fp_iq_size, 15);
        assert_eq!(a.lsq_size, 64);
        assert_eq!(a.int_phys_regs, 72);
        assert_eq!(a.fp_phys_regs, 72);
        assert_eq!(a.mispredict_penalty, 7);
        assert_eq!(
            a.int_issue_width + a.fp_issue_width,
            6,
            "issue width 6 (4 int + 2 fp)"
        );
        a.validate().unwrap();
    }

    #[test]
    fn preset_configs_validate() {
        SimConfig::baseline_mcd(100_000).validate().unwrap();
        SimConfig::fully_synchronous(100_000).validate().unwrap();
    }

    #[test]
    fn fully_synchronous_preset_strips_mcd_penalties() {
        let cfg = SimConfig::fully_synchronous(1_000);
        assert_eq!(cfg.clocking, ClockingMode::FullySynchronous);
        assert_eq!(cfg.clock.sync_window_ps, 0);
        assert_eq!(cfg.clock.jitter_sigma_ps, 0.0);
        assert_eq!(cfg.clock.mcd_clock_energy_overhead, 0.0);
    }

    /// The clock parameter `name` of `c`.
    fn clock_field<'a>(c: &'a mut McdClockParams, name: &str) -> &'a mut f64 {
        match name {
            "min_voltage" => &mut c.min_voltage,
            "max_voltage" => &mut c.max_voltage,
            "min_freq_mhz" => &mut c.min_freq_mhz,
            "max_freq_mhz" => &mut c.max_freq_mhz,
            "freq_change_rate_ns_per_mhz" => &mut c.freq_change_rate_ns_per_mhz,
            "external_freq_mhz" => &mut c.external_freq_mhz,
            "main_memory_latency_ns" => &mut c.main_memory_latency_ns,
            _ => unreachable!("unknown clock field {name}"),
        }
    }

    #[test]
    fn non_finite_clock_parameters_fail_validation_instead_of_construction() {
        // Regression: NaN or infinite slew rates, external frequencies and
        // frequency ranges used to validate and then panic in
        // `McdProcessor::new`; a NaN or infinite memory latency built a
        // processor with a garbage latency.
        let fields = [
            "min_voltage",
            "max_voltage",
            "min_freq_mhz",
            "max_freq_mhz",
            "freq_change_rate_ns_per_mhz",
            "external_freq_mhz",
            "main_memory_latency_ns",
        ];
        for base in [
            SimConfig::baseline_mcd(500),
            SimConfig::fully_synchronous(500),
        ] {
            for name in fields {
                for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                    let mut cfg = base.clone();
                    *clock_field(&mut cfg.clock, name) = value;
                    if cfg.validate().is_err() {
                        continue;
                    }
                    // An instantaneous slew is the one value here that is
                    // valid; it must build and run.
                    assert!(
                        name == "freq_change_rate_ns_per_mhz" && value == 0.0,
                        "{name} = {value} validated ({:?})",
                        base.clocking
                    );
                    let mut cpu = crate::McdProcessor::new(
                        cfg,
                        Box::new(mcd_control::FixedController::at_max()),
                    );
                    let stream = mcd_workloads::WorkloadGenerator::new(
                        &mcd_workloads::Benchmark::Gzip.spec(),
                        1,
                        500,
                    );
                    assert_eq!(cpu.run(stream).committed_instructions, 500);
                }
            }
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = SimConfig::baseline_mcd(1_000);
        cfg.interval_instructions = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::baseline_mcd(1_000);
        cfg.max_instructions = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::baseline_mcd(1_000);
        cfg.arch.rob_size = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::baseline_mcd(1_000);
        cfg.arch.int_phys_regs = 16;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::baseline_mcd(1_000);
        cfg.arch.l2.size_bytes = 768 * 1024; // 12 288 direct-mapped sets
        assert!(cfg.validate().is_err());

        // Each of these passed validation once and then panicked in the
        // run (a remainder by zero, an empty BTB set, a history-mask
        // shift overflow).
        let edits: [fn(&mut BranchPredictorConfig); 4] = [
            |bp| bp.bimodal_entries = 0,
            |bp| bp.btb_sets = 0,
            |bp| bp.btb_ways = 0,
            |bp| bp.history_bits = 70,
        ];
        for edit in edits {
            let mut cfg = SimConfig::baseline_mcd(1_000);
            edit(&mut cfg.arch.branch_predictor);
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("branch predictor"), "{err}");
        }
    }
}
