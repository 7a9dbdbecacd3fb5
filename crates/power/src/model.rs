//! Energy-model parameters: per-access energies, clock-grid energies,
//! gating behaviour and voltage scaling.

use serde::{Deserialize, Serialize};

use crate::structures::Structure;

/// Parameters of the energy model.
///
/// Energies are expressed in arbitrary consistent units ("pJ-like") at the
/// nominal (maximum) supply voltage; every access is scaled by
/// `(V / V_nominal)^2` at accounting time.  The defaults are calibrated so
/// that, for a typical workload running at the maximum frequency, the clock
/// network contributes roughly 30% of total chip energy (the Wattch
/// Alpha-like breakdown the paper relies on: a 10% clock-energy increase
/// equals a 2.9% total-energy increase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Nominal (maximum) supply voltage in volts; accesses at other
    /// voltages are scaled by `(v / nominal)^2`.
    pub nominal_voltage: f64,
    /// Per-access energies at nominal voltage, indexed by structure.
    pub access_energy: Vec<(Structure, f64)>,
    /// Per-domain-cycle clock-grid energies at nominal voltage (the four
    /// `Clock*` structures).
    pub clock_energy_per_cycle: Vec<(Structure, f64)>,
    /// Fraction of a structure's per-access energy charged per cycle when
    /// the structure is clock-gated (idle): Wattch's "cc3" style gating
    /// (10%).
    pub gating_floor: f64,
    /// Energy of one main-memory access (fixed; external memory does not
    /// scale with the chip's voltage).
    pub main_memory_access_energy: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        use Structure::*;
        EnergyParams {
            nominal_voltage: 1.2,
            access_energy: vec![
                (BranchPredictor, 2.0),
                (L1ICache, 5.0),
                (Rename, 2.5),
                (Rob, 2.0),
                (IntIssueQueue, 4.0),
                (IntRegFile, 2.0),
                (IntAlu, 4.5),
                (FpIssueQueue, 4.0),
                (FpRegFile, 2.5),
                (FpAlu, 9.0),
                (Lsq, 3.5),
                (L1DCache, 6.5),
                (L2Cache, 22.0),
                (ResultBus, 2.0),
            ],
            clock_energy_per_cycle: vec![
                (ClockFrontEnd, 3.2),
                (ClockInteger, 2.6),
                (ClockFloatingPoint, 2.2),
                (ClockLoadStore, 3.0),
            ],
            gating_floor: 0.10,
            main_memory_access_energy: 60.0,
        }
    }
}

impl EnergyParams {
    /// Per-access energy of a structure at nominal voltage.
    ///
    /// # Panics
    ///
    /// Panics if the structure has no per-access entry (clock structures
    /// and main memory are charged through their dedicated methods).
    pub fn access_energy(&self, s: Structure) -> f64 {
        self.access_energy
            .iter()
            .find(|(st, _)| *st == s)
            .map(|(_, e)| *e)
            .unwrap_or_else(|| panic!("structure {s} has no per-access energy"))
    }

    /// Per-cycle clock energy of a domain clock structure at nominal
    /// voltage.
    ///
    /// # Panics
    ///
    /// Panics if the structure is not one of the clock structures.
    pub fn clock_energy(&self, s: Structure) -> f64 {
        self.clock_energy_per_cycle
            .iter()
            .find(|(st, _)| *st == s)
            .map(|(_, e)| *e)
            .unwrap_or_else(|| panic!("structure {s} is not a clock structure"))
    }

    /// The `(v / nominal)^2` voltage scaling factor.
    #[inline]
    pub fn voltage_scale(&self, voltage: f64) -> f64 {
        let r = voltage / self.nominal_voltage;
        r * r
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found (non-positive
    /// energies, gating floor outside `[0, 1]`, missing structures).
    pub fn validate(&self) -> Result<(), String> {
        if self.nominal_voltage <= 0.0 {
            return Err("nominal voltage must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.gating_floor) {
            return Err("gating floor must lie in [0, 1]".into());
        }
        for (s, e) in &self.access_energy {
            if *e <= 0.0 {
                return Err(format!("access energy of {s} must be positive"));
            }
        }
        for (s, e) in &self.clock_energy_per_cycle {
            if *e <= 0.0 {
                return Err(format!("clock energy of {s} must be positive"));
            }
            if !s.is_clock() {
                return Err(format!("{s} is not a clock structure"));
            }
        }
        if self.main_memory_access_energy <= 0.0 {
            return Err("main memory access energy must be positive".into());
        }
        // Every non-clock, non-memory structure needs a per-access energy.
        for s in Structure::ALL {
            if s.is_clock() || s == Structure::MainMemory {
                continue;
            }
            if !self.access_energy.iter().any(|(st, _)| *st == s) {
                return Err(format!("missing per-access energy for {s}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_complete() {
        let p = EnergyParams::default();
        p.validate().unwrap();
        assert_eq!(p.nominal_voltage, 1.2);
        assert_eq!(p.gating_floor, 0.10);
        // Clock energies exist for all four domains.
        assert_eq!(p.clock_energy_per_cycle.len(), 4);
    }

    #[test]
    fn voltage_scaling_is_quadratic() {
        let p = EnergyParams::default();
        assert!((p.voltage_scale(1.2) - 1.0).abs() < 1e-12);
        assert!((p.voltage_scale(0.6) - 0.25).abs() < 1e-12);
        let r = 0.65f64 / 1.2;
        assert!((p.voltage_scale(0.65) - r * r).abs() < 1e-12);
    }

    #[test]
    fn lookup_accessors_work() {
        let p = EnergyParams::default();
        assert!(p.access_energy(Structure::L2Cache) > p.access_energy(Structure::L1DCache));
        assert!(p.clock_energy(Structure::ClockFrontEnd) > 0.0);
    }

    #[test]
    #[should_panic(expected = "no per-access energy")]
    fn clock_structure_has_no_access_energy() {
        let _ = EnergyParams::default().access_energy(Structure::ClockInteger);
    }

    #[test]
    #[should_panic(expected = "not a clock structure")]
    fn non_clock_structure_has_no_clock_energy() {
        let _ = EnergyParams::default().clock_energy(Structure::IntAlu);
    }

    #[test]
    fn validation_catches_problems() {
        let p = EnergyParams {
            gating_floor: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let mut p = EnergyParams::default();
        p.access_energy.retain(|(s, _)| *s != Structure::Lsq);
        assert!(p.validate().is_err());

        let mut p = EnergyParams::default();
        p.access_energy[0].1 = -1.0;
        assert!(p.validate().is_err());

        let mut p = EnergyParams::default();
        p.clock_energy_per_cycle.push((Structure::IntAlu, 1.0));
        assert!(p.validate().is_err());
    }

    #[test]
    fn fp_alu_costs_more_than_int_alu() {
        let p = EnergyParams::default();
        assert!(p.access_energy(Structure::FpAlu) > p.access_energy(Structure::IntAlu));
    }
}
