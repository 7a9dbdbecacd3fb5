//! XScale-style frequency/voltage transition model.
//!
//! The paper adopts the Intel XScale DVFS model because "it allows the
//! processor to execute through the frequency/voltage change".  Frequency
//! changes therefore do not stall the domain; instead the clock frequency
//! slews toward the target at 49.1 ns/MHz (Table 1), and the voltage tracks
//! the instantaneous frequency.
//!
//! A [`FrequencyRamp`] models one domain's instantaneous frequency as a
//! piecewise-linear function of time: constant while no change is pending,
//! and linear at the configured slew rate while a transition is in flight.
//! Retargeting mid-ramp is allowed (the ramp restarts from the instantaneous
//! frequency at the time of the request), which is exactly what happens when
//! the control algorithm issues a new command every 10 000 instructions.

use serde::{Deserialize, Serialize};

use crate::{MegaHertz, TimePs};

/// Instantaneous frequency model for one clock domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyRamp {
    /// Frequency at `start_ps`, in MHz.
    start_freq: MegaHertz,
    /// Target frequency in MHz.
    target_freq: MegaHertz,
    /// Time at which the current transition began.
    start_ps: TimePs,
    /// Slew rate in nanoseconds per MHz of change (0 = instantaneous).
    rate_ns_per_mhz: f64,
}

impl FrequencyRamp {
    /// Creates a ramp resting at `freq_mhz` with the given slew rate.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not positive or the rate is negative.
    pub fn new(freq_mhz: MegaHertz, rate_ns_per_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        assert!(rate_ns_per_mhz >= 0.0, "slew rate must be non-negative");
        FrequencyRamp {
            start_freq: freq_mhz,
            target_freq: freq_mhz,
            start_ps: 0,
            rate_ns_per_mhz,
        }
    }

    /// The target frequency of the ramp (equal to the current frequency
    /// once the transition completes).
    pub fn target(&self) -> MegaHertz {
        self.target_freq
    }

    /// The slew rate in ns/MHz.
    pub fn rate_ns_per_mhz(&self) -> f64 {
        self.rate_ns_per_mhz
    }

    /// Requests a transition to `target_mhz` beginning at time `now_ps`.
    ///
    /// The ramp restarts from the instantaneous frequency at `now_ps`, so
    /// retargeting mid-transition behaves like a real PLL retune.
    ///
    /// # Panics
    ///
    /// Panics if `target_mhz` is not positive.
    pub fn set_target(&mut self, target_mhz: MegaHertz, now_ps: TimePs) {
        assert!(target_mhz > 0.0, "target frequency must be positive");
        let current = self.freq_at(now_ps);
        self.start_freq = current;
        self.start_ps = now_ps;
        self.target_freq = target_mhz;
    }

    /// The instantaneous frequency at time `now_ps`.
    ///
    /// Times before the start of the current transition return the
    /// transition's starting frequency.
    pub fn freq_at(&self, now_ps: TimePs) -> MegaHertz {
        if self.rate_ns_per_mhz == 0.0 || (self.target_freq - self.start_freq).abs() < f64::EPSILON
        {
            return self.target_freq;
        }
        let elapsed_ps = now_ps.saturating_sub(self.start_ps) as f64;
        let slew_mhz = elapsed_ps / (self.rate_ns_per_mhz * 1000.0);
        let delta = self.target_freq - self.start_freq;
        if delta > 0.0 {
            (self.start_freq + slew_mhz).min(self.target_freq)
        } else {
            (self.start_freq - slew_mhz).max(self.target_freq)
        }
    }

    /// Whether a transition is still in flight at time `now_ps`.
    pub fn is_ramping(&self, now_ps: TimePs) -> bool {
        (self.freq_at(now_ps) - self.target_freq).abs() > 1e-9
    }

    /// The absolute time at which the current transition completes (equal
    /// to the request time if no transition is in flight).
    pub fn settle_time_ps(&self) -> TimePs {
        let delta = (self.target_freq - self.start_freq).abs();
        self.start_ps + (delta * self.rate_ns_per_mhz * 1000.0).round() as TimePs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resting_ramp_is_constant() {
        let r = FrequencyRamp::new(1000.0, 49.1);
        assert_eq!(r.freq_at(0), 1000.0);
        assert_eq!(r.freq_at(1_000_000_000), 1000.0);
        assert!(!r.is_ramping(12345));
        assert_eq!(r.target(), 1000.0);
    }

    #[test]
    fn downward_ramp_follows_slew_rate() {
        let mut r = FrequencyRamp::new(1000.0, 49.1);
        r.set_target(900.0, 0);
        // After 49.1 ns the frequency has fallen by exactly 1 MHz.
        let f = r.freq_at(49_100);
        assert!((f - 999.0).abs() < 1e-6, "expected 999 MHz, got {f}");
        // Halfway through the 100 MHz change: 100 * 49.1 ns / 2 = 2.455 us.
        let f = r.freq_at(2_455_000);
        assert!((f - 950.0).abs() < 1e-6);
        // After the full ramp time it settles at the target and stays there.
        let f = r.freq_at(4_910_000);
        assert!((f - 900.0).abs() < 1e-9);
        assert!(!r.is_ramping(4_910_000));
        assert_eq!(r.settle_time_ps(), 4_910_000);
        assert_eq!(r.freq_at(10_000_000), 900.0);
    }

    #[test]
    fn upward_ramp_is_symmetric() {
        let mut r = FrequencyRamp::new(250.0, 49.1);
        r.set_target(350.0, 1_000);
        assert!(r.is_ramping(1_001));
        let mid = r.freq_at(1_000 + 2_455_000);
        assert!((mid - 300.0).abs() < 1e-6);
        assert!((r.freq_at(1_000 + 4_910_000) - 350.0).abs() < 1e-9);
    }

    #[test]
    fn retargeting_mid_ramp_restarts_from_instantaneous_freq() {
        let mut r = FrequencyRamp::new(1000.0, 49.1);
        r.set_target(500.0, 0);
        // At 2.455 us we are at 950 MHz; reverse direction.
        r.set_target(1000.0, 2_455_000);
        let f = r.freq_at(2_455_000);
        assert!((f - 950.0).abs() < 1e-6);
        // 1 MHz per 49.1 ns upward from there.
        let f = r.freq_at(2_455_000 + 491_000);
        assert!((f - 960.0).abs() < 1e-6);
    }

    #[test]
    fn zero_rate_changes_instantaneously() {
        let mut r = FrequencyRamp::new(1000.0, 0.0);
        r.set_target(250.0, 5_000);
        assert_eq!(r.freq_at(5_000), 250.0);
        assert_eq!(r.freq_at(5_001), 250.0);
        assert!(!r.is_ramping(5_000));
    }

    #[test]
    fn times_before_transition_return_start_frequency() {
        let mut r = FrequencyRamp::new(800.0, 49.1);
        r.set_target(600.0, 1_000_000);
        assert_eq!(r.freq_at(0), 800.0);
        assert_eq!(r.freq_at(999_999), 800.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_target_panics() {
        let mut r = FrequencyRamp::new(800.0, 49.1);
        r.set_target(0.0, 0);
    }
}
