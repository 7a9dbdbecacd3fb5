//! # mcd-sim
//!
//! The Multiple Clock Domain (MCD) out-of-order processor simulator.
//!
//! This crate assembles the substrates of the workspace into the machine
//! the paper evaluates: an Alpha 21264-like dynamically scheduled processor
//! partitioned into four clock domains (front end, integer, floating point,
//! load/store) plus externally clocked main memory (paper Figure 1), with:
//!
//! * per-domain clocks with independent jitter and XScale-style
//!   frequency/voltage ramps (`mcd-clock`),
//! * synchronization-window penalties on every cross-domain transfer
//!   (dispatch, cross-domain register wakeup, completion reports to the
//!   ROB, cache-miss traffic to main memory),
//! * Wattch-style energy accounting with conditional clock gating and the
//!   MCD clock-energy overhead (`mcd-power`),
//! * a pluggable frequency controller invoked every 10 000 committed
//!   instructions (`mcd-control`), and
//! * stream-driven execution of synthetic workloads (`mcd-workloads`).
//!
//! The simulator is *trace driven*: it executes the committed path of the
//! workload.  Branch mispredictions are modelled by stalling fetch from the
//! mispredicted branch until its resolution becomes visible to the front
//! end plus the 7-cycle redirect penalty, which charges the same timing
//! cost as wrong-path fetch-and-flush without simulating wrong-path
//! instructions.
//!
//! ```
//! use mcd_sim::{McdProcessor, SimConfig};
//! use mcd_control::FixedController;
//! use mcd_workloads::{Benchmark, WorkloadGenerator};
//!
//! let config = SimConfig::baseline_mcd(20_000);
//! let stream = WorkloadGenerator::new(&Benchmark::Adpcm.spec(), 1, 20_000);
//! let mut cpu = McdProcessor::new(config, Box::new(FixedController::at_max()));
//! let result = cpu.run(stream);
//! assert_eq!(result.committed_instructions, 20_000);
//! assert!(result.cpi() > 0.1);
//! ```

pub mod config;
pub mod events;
mod exec;
mod frontend;
mod inflight;
mod lsq;
pub mod processor;
pub mod telemetry;

pub use config::{ArchParams, ClockingMode, SimConfig};
pub use events::{DomainTimeline, EventKind, TimelineEvent};
pub use processor::{McdProcessor, StepOutcome};
pub use telemetry::{
    DomainTrace, EventTrafficStats, HostStats, IntervalRecord, NotCompared, SimResult,
};
