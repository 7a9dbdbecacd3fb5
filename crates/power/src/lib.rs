//! # mcd-power
//!
//! Wattch-style architectural energy model for the MCD DVFS reproduction.
//!
//! The original study uses Wattch (Brooks et al., ISCA 2000) on top of
//! SimpleScalar: per-structure, capacitance-derived energies per access,
//! scaled by the supply voltage squared, with aggressive conditional clock
//! gating (unused structures still dissipate a fraction of their active
//! power).  Wattch's CACTI-derived capacitances cannot be re-extracted
//! here, so this crate substitutes *relative* per-access energies
//! calibrated to Wattch's published Alpha 21264-like breakdown (clock tree
//! ~30% of chip power, instruction window + rename ~15%, caches ~20%, and
//! so on).  Because every result in the paper is a ratio between two
//! configurations evaluated under the same model, only these proportions
//! and the V²/V²f scaling laws matter; both are preserved.
//!
//! The model also charges the MCD configuration an extra 10% of clock
//! energy (separate PLLs, drivers and grids per domain), which the paper
//! conservatively assumes and reports as a 2.9% total-energy overhead.
//!
//! ```
//! use mcd_power::{EnergyAccount, EnergyParams, Structure};
//!
//! let mut acct = EnergyAccount::new(EnergyParams::default());
//! acct.record_access(Structure::IntAlu, 2, 1.2);
//! acct.record_access(Structure::IntAlu, 2, 0.65);
//! assert!(acct.total_energy() > 0.0);
//! // The low-voltage accesses cost (0.65/1.2)^2 of the nominal energy.
//! ```

pub mod account;
pub mod model;
pub mod structures;

pub use account::{EnergyAccount, EnergyBreakdown, IdleSums};
pub use model::EnergyParams;
pub use structures::Structure;
