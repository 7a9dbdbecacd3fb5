//! Discrete frequency/voltage operating points.
//!
//! Section 4 of the paper: "we use 320 frequency points spanning a linear
//! range from 1.0 GHz down to 250 MHz.  Corresponding to these frequency
//! points is a linear voltage range from 1.2 V down to 0.65 V."

use serde::{Deserialize, Serialize};

use crate::params::McdClockParams;
use crate::{MegaHertz, TimePs};

/// A single frequency/voltage operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Index within the operating-point table (0 = lowest frequency).
    pub index: usize,
    /// Clock frequency in MHz.
    pub freq_mhz: MegaHertz,
    /// Supply voltage in volts.
    pub voltage: f64,
}

impl OperatingPoint {
    /// Clock period in picoseconds at this operating point.
    pub fn period_ps(&self) -> TimePs {
        crate::freq_mhz_to_period_ps(self.freq_mhz)
    }

    /// Relative dynamic power of this point compared to another, following
    /// the P proportional to V^2 * f law.
    pub fn relative_power(&self, reference: &OperatingPoint) -> f64 {
        (self.voltage * self.voltage * self.freq_mhz)
            / (reference.voltage * reference.voltage * reference.freq_mhz)
    }

    /// Relative dynamic energy *per operation* of this point compared to
    /// another (E proportional to V^2; frequency cancels for a fixed amount
    /// of work).
    pub fn relative_energy(&self, reference: &OperatingPoint) -> f64 {
        (self.voltage * self.voltage) / (reference.voltage * reference.voltage)
    }
}

/// The table of discrete operating points available to each domain.
///
/// Frequencies are spaced linearly between the minimum and maximum; the
/// voltage at each point is the linear interpolation between the minimum
/// and maximum voltage.  Index 0 is the lowest frequency; the last index is
/// the highest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatingPointTable {
    points: Vec<OperatingPoint>,
}

impl OperatingPointTable {
    /// Builds the table from MCD clock parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`McdClockParams::validate`].
    pub fn from_params(params: &McdClockParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid clock parameters: {e}"));
        let n = params.num_operating_points;
        let points = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                OperatingPoint {
                    index: i,
                    freq_mhz: params.min_freq_mhz + t * (params.max_freq_mhz - params.min_freq_mhz),
                    voltage: params.min_voltage + t * (params.max_voltage - params.min_voltage),
                }
            })
            .collect();
        OperatingPointTable { points }
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: the table has at least two points by construction.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The operating point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn point(&self, index: usize) -> OperatingPoint {
        self.points[index]
    }

    /// The lowest-frequency operating point.
    pub fn min_point(&self) -> OperatingPoint {
        self.points[0]
    }

    /// The highest-frequency operating point.
    pub fn max_point(&self) -> OperatingPoint {
        *self.points.last().expect("table is never empty")
    }

    /// The operating point whose frequency is closest to `freq_mhz`,
    /// clamped to the table range.
    pub fn nearest(&self, freq_mhz: MegaHertz) -> OperatingPoint {
        let min = self.min_point().freq_mhz;
        let max = self.max_point().freq_mhz;
        let clamped = freq_mhz.clamp(min, max);
        let step = (max - min) / (self.len() - 1) as f64;
        let idx = ((clamped - min) / step).round() as usize;
        self.points[idx.min(self.len() - 1)]
    }

    /// The lowest operating point whose frequency is greater than or equal
    /// to `freq_mhz` (clamped to the maximum point).  This is the point a
    /// controller should select when it needs *at least* `freq_mhz`.
    pub fn at_least(&self, freq_mhz: MegaHertz) -> OperatingPoint {
        let min = self.min_point().freq_mhz;
        let max = self.max_point().freq_mhz;
        if freq_mhz <= min {
            return self.min_point();
        }
        if freq_mhz >= max {
            return self.max_point();
        }
        let step = (max - min) / (self.len() - 1) as f64;
        let idx = ((freq_mhz - min) / step).ceil() as usize;
        self.points[idx.min(self.len() - 1)]
    }

    /// The voltage the supply must provide for a given frequency (linear
    /// interpolation, not snapped to a discrete point).  Used by the ramp
    /// model while a transition is in flight.
    #[inline]
    pub fn voltage_for_freq(&self, freq_mhz: MegaHertz) -> f64 {
        let min = self.min_point();
        let max = self.max_point();
        let f = freq_mhz.clamp(min.freq_mhz, max.freq_mhz);
        let t = (f - min.freq_mhz) / (max.freq_mhz - min.freq_mhz);
        min.voltage + t * (max.voltage - min.voltage)
    }

    /// Iterator over all operating points from lowest to highest frequency.
    pub fn iter(&self) -> impl Iterator<Item = &OperatingPoint> {
        self.points.iter()
    }
}

impl Default for OperatingPointTable {
    fn default() -> Self {
        OperatingPointTable::from_params(&McdClockParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OperatingPointTable {
        OperatingPointTable::default()
    }

    #[test]
    fn table_has_320_points_with_correct_endpoints() {
        let t = table();
        assert_eq!(t.len(), 320);
        assert!(!t.is_empty());
        let lo = t.min_point();
        let hi = t.max_point();
        assert!((lo.freq_mhz - 250.0).abs() < 1e-9);
        assert!((lo.voltage - 0.65).abs() < 1e-9);
        assert!((hi.freq_mhz - 1000.0).abs() < 1e-9);
        assert!((hi.voltage - 1.20).abs() < 1e-9);
        assert_eq!(hi.index, 319);
    }

    #[test]
    fn points_are_monotonically_increasing() {
        let t = table();
        for w in t.points.windows(2) {
            assert!(w[1].freq_mhz > w[0].freq_mhz);
            assert!(w[1].voltage > w[0].voltage);
            assert_eq!(w[1].index, w[0].index + 1);
        }
    }

    #[test]
    fn voltage_tracks_frequency_linearly() {
        let t = table();
        // Midpoint of the frequency range should be the midpoint of the
        // voltage range.
        let v = t.voltage_for_freq(625.0);
        assert!((v - 0.925).abs() < 1e-9);
        // Out-of-range frequencies clamp.
        assert!((t.voltage_for_freq(100.0) - 0.65).abs() < 1e-9);
        assert!((t.voltage_for_freq(2000.0) - 1.20).abs() < 1e-9);
    }

    #[test]
    fn nearest_is_inverse_of_point_lookup() {
        let t = table();
        for i in (0..t.len()).step_by(17) {
            let p = t.point(i);
            assert_eq!(t.nearest(p.freq_mhz).index, i);
        }
    }

    #[test]
    fn nearest_clamps_out_of_range() {
        let t = table();
        assert_eq!(t.nearest(0.0).index, 0);
        assert_eq!(t.nearest(5000.0).index, 319);
    }

    #[test]
    fn at_least_never_returns_lower_frequency() {
        let t = table();
        for f in [250.0, 251.0, 300.0, 437.5, 999.0, 1000.0] {
            let p = t.at_least(f);
            assert!(
                p.freq_mhz + 1e-9 >= f,
                "at_least({f}) returned {}",
                p.freq_mhz
            );
        }
        assert_eq!(t.at_least(0.0).index, 0);
        assert_eq!(t.at_least(1e6).index, 319);
    }

    #[test]
    fn relative_power_and_energy_laws() {
        let t = table();
        let hi = t.max_point();
        let lo = t.min_point();
        // P ~ V^2 f: (0.65/1.2)^2 * (250/1000) = 0.0733...
        let rel_p = lo.relative_power(&hi);
        assert!((rel_p - (0.65f64 / 1.2).powi(2) * 0.25).abs() < 1e-9);
        // E ~ V^2: (0.65/1.2)^2 = 0.2934
        let rel_e = lo.relative_energy(&hi);
        assert!((rel_e - (0.65f64 / 1.2).powi(2)).abs() < 1e-9);
        assert!((hi.relative_power(&hi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_scaling_power_slope_is_about_two() {
        // The paper notes that with this table, conventional global scaling
        // yields a power-savings / performance-degradation ratio of about 2
        // near the top of the range: one step of frequency reduction changes
        // frequency by 0.23% and power by ~0.52%.
        let t = table();
        let hi = t.max_point();
        let next = t.point(t.len() - 2);
        let d_perf = 1.0 - next.freq_mhz / hi.freq_mhz;
        let d_power = 1.0 - next.relative_power(&hi);
        let ratio = d_power / d_perf;
        assert!(
            ratio > 1.8 && ratio < 2.5,
            "expected a global-scaling ratio near 2, got {ratio}"
        );
    }

    #[test]
    fn period_of_max_point_is_1ns() {
        assert_eq!(table().max_point().period_ps(), 1000);
    }
}
