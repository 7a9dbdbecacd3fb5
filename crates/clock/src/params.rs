//! MCD clocking configuration parameters (paper Table 1).

use serde::{Deserialize, Serialize};

use crate::clockgen::{valid_jitter_sigma, MAX_JITTER_SIGMA_PS};
use crate::{MegaHertz, TimePs};

/// MCD-specific processor configuration parameters.
///
/// These are the values of Table 1 in the paper:
///
/// | Parameter | Value |
/// |---|---|
/// | Domain voltage | 0.65 V – 1.20 V |
/// | Domain frequency | 250 MHz – 1.0 GHz |
/// | Frequency change rate | 49.1 ns/MHz |
/// | Domain clock jitter | 110 ps, normally distributed about zero |
/// | Synchronization window | 30% of the 1.0 GHz clock (300 ps) |
///
/// Additionally, Section 4 specifies 320 discrete operating points spanning
/// the frequency range linearly, with voltage tracking frequency linearly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McdClockParams {
    /// Minimum domain supply voltage in volts (0.65 V).
    pub min_voltage: f64,
    /// Maximum domain supply voltage in volts (1.20 V).
    pub max_voltage: f64,
    /// Minimum domain frequency in MHz (250 MHz).
    pub min_freq_mhz: MegaHertz,
    /// Maximum domain frequency in MHz (1000 MHz).
    pub max_freq_mhz: MegaHertz,
    /// Number of discrete operating points spanning the frequency range
    /// (320, per Section 4, approximating the smooth XScale transition).
    pub num_operating_points: usize,
    /// Frequency change (slew) rate in nanoseconds per MHz of change
    /// (49.1 ns/MHz, from the XScale circuit design).
    pub freq_change_rate_ns_per_mhz: f64,
    /// Standard deviation of the per-edge clock jitter in picoseconds
    /// (110 ps total: 100 ps external PLL + 10 ps internal).
    pub jitter_sigma_ps: f64,
    /// Synchronization window in picoseconds (30% of the 1 GHz period).
    pub sync_window_ps: TimePs,
    /// Frequency of the external main-memory domain in MHz.  The paper
    /// treats main memory as an independently clocked domain that always
    /// runs at its maximum (we model a 100 MHz memory bus, i.e. the L2-miss
    /// latency is dominated by the fixed access time below).
    pub external_freq_mhz: MegaHertz,
    /// Main-memory access latency in nanoseconds (fixed, frequency
    /// independent; roughly 80 ns for a 2002-era SDRAM system so that an
    /// L2 miss costs on the order of 80–100 processor cycles at 1 GHz).
    pub main_memory_latency_ns: f64,
    /// Additional clock-distribution energy of the MCD design relative to a
    /// single global clock (the paper conservatively assumes the separate
    /// PLLs/drivers/grids add 10% clock energy, i.e. +2.9% total energy).
    pub mcd_clock_energy_overhead: f64,
}

impl Default for McdClockParams {
    fn default() -> Self {
        McdClockParams {
            min_voltage: 0.65,
            max_voltage: 1.20,
            min_freq_mhz: 250.0,
            max_freq_mhz: 1000.0,
            num_operating_points: 320,
            freq_change_rate_ns_per_mhz: 49.1,
            jitter_sigma_ps: 110.0,
            sync_window_ps: 300,
            external_freq_mhz: 100.0,
            main_memory_latency_ns: 80.0,
            mcd_clock_energy_overhead: 0.10,
        }
    }
}

impl McdClockParams {
    /// Validates that the parameter set is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found (inverted or unbounded ranges, negative, non-finite or
    /// non-positive rates, fewer than two operating points).
    pub fn validate(&self) -> Result<(), String> {
        // Every `!(x > 0.0 ...)` form also rejects NaN.
        if !(self.min_voltage > 0.0
            && self.max_voltage > self.min_voltage
            && self.max_voltage.is_finite())
        {
            return Err(format!(
                "voltage range invalid: {} .. {}",
                self.min_voltage, self.max_voltage
            ));
        }
        if !(self.min_freq_mhz > 0.0
            && self.max_freq_mhz > self.min_freq_mhz
            && self.max_freq_mhz.is_finite())
        {
            return Err(format!(
                "frequency range invalid: {} .. {} MHz",
                self.min_freq_mhz, self.max_freq_mhz
            ));
        }
        if self.num_operating_points < 2 {
            return Err("at least two operating points are required".to_string());
        }
        if !(self.freq_change_rate_ns_per_mhz >= 0.0
            && self.freq_change_rate_ns_per_mhz.is_finite())
        {
            return Err("frequency change rate must be finite and non-negative".to_string());
        }
        if !valid_jitter_sigma(self.jitter_sigma_ps) {
            return Err(format!(
                "jitter sigma must be in 0..={MAX_JITTER_SIGMA_PS} ps, got {}",
                self.jitter_sigma_ps
            ));
        }
        if !(self.external_freq_mhz > 0.0
            && self.external_freq_mhz.is_finite()
            && self.main_memory_latency_ns > 0.0
            && self.main_memory_latency_ns.is_finite())
        {
            return Err("external memory parameters must be finite and positive".to_string());
        }
        if !(0.0..1.0).contains(&self.mcd_clock_energy_overhead) {
            return Err("MCD clock energy overhead must be in [0, 1)".to_string());
        }
        Ok(())
    }

    /// The maximum-frequency clock period in picoseconds (1000 ps at 1 GHz).
    pub fn max_freq_period_ps(&self) -> TimePs {
        crate::freq_mhz_to_period_ps(self.max_freq_mhz)
    }

    /// The synchronization window expressed as a fraction of the
    /// maximum-frequency period (0.30 for the default parameters).
    pub fn sync_window_fraction(&self) -> f64 {
        self.sync_window_ps as f64 / self.max_freq_period_ps() as f64
    }

    /// Main-memory access latency in picoseconds.
    pub fn main_memory_latency_ps(&self) -> TimePs {
        (self.main_memory_latency_ns * 1000.0).round() as TimePs
    }

    /// Time (in picoseconds) needed to ramp the frequency by `delta_mhz`
    /// megahertz at the configured slew rate.
    pub fn ramp_time_ps(&self, delta_mhz: f64) -> TimePs {
        (delta_mhz.abs() * self.freq_change_rate_ns_per_mhz * 1000.0).round() as TimePs
    }

    /// A parameter set describing a conventional, fully synchronous
    /// processor: same frequency/voltage envelope but no jitter penalty
    /// modelling, no synchronization window and no MCD clock energy
    /// overhead.  Used for the baseline and global-scaling configurations.
    pub fn fully_synchronous(&self) -> Self {
        McdClockParams {
            jitter_sigma_ps: 0.0,
            sync_window_ps: 0,
            mcd_clock_energy_overhead: 0.0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table1() {
        let p = McdClockParams::default();
        assert_eq!(p.min_voltage, 0.65);
        assert_eq!(p.max_voltage, 1.20);
        assert_eq!(p.min_freq_mhz, 250.0);
        assert_eq!(p.max_freq_mhz, 1000.0);
        assert_eq!(p.num_operating_points, 320);
        assert_eq!(p.freq_change_rate_ns_per_mhz, 49.1);
        assert_eq!(p.jitter_sigma_ps, 110.0);
        assert_eq!(p.sync_window_ps, 300);
        assert!((p.sync_window_fraction() - 0.30).abs() < 1e-9);
        p.validate().unwrap();
    }

    #[test]
    fn max_period_is_1000ps() {
        assert_eq!(McdClockParams::default().max_freq_period_ps(), 1000);
    }

    #[test]
    fn ramp_time_matches_slew_rate() {
        let p = McdClockParams::default();
        // Full-range change: 750 MHz * 49.1 ns/MHz = 36.825 us.
        assert_eq!(p.ramp_time_ps(750.0), 36_825_000);
        assert_eq!(p.ramp_time_ps(-750.0), 36_825_000);
        assert_eq!(p.ramp_time_ps(0.0), 0);
    }

    #[test]
    fn fully_synchronous_strips_mcd_penalties() {
        let p = McdClockParams::default().fully_synchronous();
        assert_eq!(p.jitter_sigma_ps, 0.0);
        assert_eq!(p.sync_window_ps, 0);
        assert_eq!(p.mcd_clock_energy_overhead, 0.0);
        assert_eq!(p.max_freq_mhz, 1000.0);
        p.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let p = McdClockParams {
            max_voltage: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = McdClockParams {
            min_freq_mhz: 2000.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = McdClockParams {
            num_operating_points: 1,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = McdClockParams {
            mcd_clock_energy_overhead: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        // Jitter sigma is capped so that its offset table stays bounded.
        for (sigma, ok) in [(10_000.0, true), (10_000.5, false), (f64::NAN, false)] {
            let p = McdClockParams {
                jitter_sigma_ps: sigma,
                ..Default::default()
            };
            assert_eq!(p.validate().is_ok(), ok, "sigma {sigma}");
        }
    }

    #[test]
    fn memory_latency_conversion() {
        let p = McdClockParams::default();
        assert_eq!(p.main_memory_latency_ps(), 80_000);
    }
}
