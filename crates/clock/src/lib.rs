//! # mcd-clock
//!
//! Clock-domain and DVFS substrate for the Multiple Clock Domain (MCD)
//! microarchitecture reproduction (Semeraro et al., MICRO 2002).
//!
//! This crate provides everything related to *time, frequency and voltage*:
//!
//! * [`DomainId`] — the four on-chip clock domains plus the external main
//!   memory domain (paper Figure 1).
//! * [`McdClockParams`] — the MCD-specific configuration constants of paper
//!   Table 1 (voltage and frequency ranges, frequency change rate, jitter,
//!   synchronization window).
//! * [`OperatingPointTable`] — the 320 discrete, linearly spaced
//!   frequency/voltage operating points between 250 MHz / 0.65 V and
//!   1.0 GHz / 1.2 V used for dynamic scaling (paper Section 4).
//! * [`FrequencyRamp`] — the XScale-style "execute through the change"
//!   frequency/voltage transition model with a 49.1 ns/MHz slew rate.
//! * [`DomainClock`] — a jittered clock generator producing the edge
//!   schedule of one domain (normally distributed jitter, sigma = 110 ps).
//! * [`SyncWindow`] — the Sjogren–Myers style synchronization-window test
//!   used to charge inter-domain synchronization penalties.
//!
//! ```
//! use mcd_clock::{McdClockParams, OperatingPointTable};
//!
//! let params = McdClockParams::default();
//! let table = OperatingPointTable::from_params(&params);
//! assert_eq!(table.len(), 320);
//! let top = table.max_point();
//! assert!((top.freq_mhz - 1000.0).abs() < 1e-9);
//! assert!((top.voltage - 1.2).abs() < 1e-9);
//! ```

pub mod clockgen;
pub mod domain;
pub mod oppoint;
pub mod params;
pub mod ramp;
pub mod sync;

pub use clockgen::{DomainClock, JitterModel};
pub use domain::{DomainId, CONTROLLABLE_DOMAINS, ON_CHIP_DOMAINS};
pub use oppoint::{OperatingPoint, OperatingPointTable};
pub use params::McdClockParams;
pub use ramp::FrequencyRamp;
pub use sync::SyncWindow;

/// Simulation time in picoseconds.
///
/// A `u64` picosecond counter covers about 213 days of simulated time,
/// vastly more than any run in this workspace.
pub type TimePs = u64;

/// Frequency in megahertz.
pub type MegaHertz = f64;

/// Converts a frequency in MHz to the corresponding clock period in
/// picoseconds (rounded to the nearest picosecond).
///
/// ```
/// assert_eq!(mcd_clock::freq_mhz_to_period_ps(1000.0), 1000);
/// assert_eq!(mcd_clock::freq_mhz_to_period_ps(250.0), 4000);
/// ```
///
/// # Panics
///
/// Panics if `freq_mhz` is not strictly positive.
pub fn freq_mhz_to_period_ps(freq_mhz: MegaHertz) -> TimePs {
    assert!(freq_mhz > 0.0, "frequency must be positive");
    round_pos(1_000_000.0 / freq_mhz)
}

/// Rounds a non-negative `x` to the nearest integer, ties away from zero:
/// bit-for-bit `x.round() as TimePs` for every `x` in `[0, 2^63)`.
///
/// `f64::round` is an out-of-line software routine on targets without
/// SSE4.1, and every clock edge rounds.  This version is one truncating
/// conversion plus a compare: `x - trunc(x)` is exact, so it is `>= 0.5`
/// exactly when `round` goes up.
///
/// ```
/// use mcd_clock::round_pos;
/// assert_eq!(round_pos(2.5), 3);
/// assert_eq!(round_pos(2.499_999), 2);
/// assert_eq!(round_pos(0.0), 0);
/// ```
#[inline]
pub fn round_pos(x: f64) -> TimePs {
    debug_assert!(
        (0.0..9_223_372_036_854_775_808.0).contains(&x),
        "round_pos argument {x} outside [0, 2^63)"
    );
    let t = x as i64;
    (t + i64::from(x - t as f64 >= 0.5)) as TimePs
}

/// Converts a clock period in picoseconds to a frequency in MHz.
///
/// # Panics
///
/// Panics if `period_ps` is zero.
pub fn period_ps_to_freq_mhz(period_ps: TimePs) -> MegaHertz {
    assert!(period_ps > 0, "period must be positive");
    1_000_000.0 / period_ps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_period_roundtrip() {
        for f in [250.0, 333.0, 500.0, 750.0, 1000.0] {
            let p = freq_mhz_to_period_ps(f);
            let back = period_ps_to_freq_mhz(p);
            assert!(
                (back - f).abs() / f < 0.01,
                "{f} MHz -> {p} ps -> {back} MHz"
            );
        }
    }

    #[test]
    fn round_pos_matches_round_on_its_domain() {
        let mut x = 0.0f64;
        while x < 10.0 {
            assert_eq!(round_pos(x), x.round() as TimePs, "x = {x}");
            x += 0.125;
        }
        for x in [
            0.499_999_999_999_999_94,
            0.5,
            1e6 / 3.0,
            2_251_799_813_685_247.5,
            4_503_599_627_370_495.0,
            4_611_686_018_427_387_904.0,
        ] {
            assert_eq!(round_pos(x), x.round() as TimePs, "x = {x}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = freq_mhz_to_period_ps(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = period_ps_to_freq_mhz(0);
    }
}
