//! # mcd-control
//!
//! Frequency/voltage control algorithms for the Multiple Clock Domain (MCD)
//! microarchitecture reproduction (Semeraro et al., MICRO 2002).
//!
//! The paper's contribution is the **Attack/Decay** on-line algorithm
//! ([`AttackDecayController`], Listing 1 of the paper): an envelope-follower
//! over per-domain issue-queue occupancy, sampled every 10 000 committed
//! instructions, that raises a domain's frequency sharply when queue
//! occupancy rises (attack) and lets it drift down slowly otherwise
//! (decay).
//!
//! The crate also provides the comparison points used in the paper's
//! evaluation:
//!
//! * [`FixedController`] — all domains pinned at chosen frequencies; with
//!   every domain at the maximum this is the *baseline MCD* configuration,
//!   and on a synchronous machine it is the conventional processor.
//! * [`OfflineController`] — an approximation of the off-line
//!   *Dynamic-1% / Dynamic-5%* algorithms of the authors' earlier HPCA 2002
//!   paper: per-interval frequencies chosen with full knowledge of a
//!   profiling run and applied without reaction lag.
//! * [`GlobalScalingController`] — conventional global DVFS: a single
//!   frequency/voltage applied to the whole (fully synchronous) chip.
//!
//! Finally, [`hardware`] reproduces the paper's Table 3 estimate of the
//! gate count needed to implement Attack/Decay in hardware.
//!
//! ```
//! use mcd_control::{AttackDecayController, AttackDecayParams, FrequencyController};
//! use mcd_clock::OperatingPointTable;
//!
//! let table = OperatingPointTable::default();
//! let ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table);
//! assert_eq!(ctrl.name(), "attack-decay");
//! ```

pub mod attack_decay;
pub mod controller;
pub mod fixed;
pub mod global;
pub mod hardware;
pub mod offline;
pub mod sample;

pub use attack_decay::{AttackDecayController, AttackDecayParams, ParamRanges};
pub use controller::{ControllerKind, FrequencyController};
pub use fixed::FixedController;
pub use global::GlobalScalingController;
pub use hardware::{HardwareComponent, HardwareEstimate};
pub use offline::OfflineController;
pub use sample::{DomainSample, FrequencyCommand, IntervalSample, INTERVAL_INSTRUCTIONS};
