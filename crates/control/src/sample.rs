//! Interval telemetry exchanged between the simulator and the controllers.
//!
//! The Attack/Decay algorithm (paper Section 3.1) samples the processor
//! every 10 000 committed instructions.  For each controllable domain the
//! hardware provides the accumulated issue-queue occupancy over the
//! interval; the only global signal is the IPC performance counter.

use mcd_clock::{DomainId, MegaHertz};
use serde::{Deserialize, Serialize};

/// Number of committed instructions per control interval (paper: 10 000,
/// "approximately 10x longer than the loop delay").
pub const INTERVAL_INSTRUCTIONS: u64 = 10_000;

/// Per-domain measurements gathered over one control interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainSample {
    /// Domain the sample describes.
    pub domain: DomainId,
    /// Average number of valid entries in the domain's input queue per
    /// domain cycle over the interval (the paper's `QueueUtilization`).
    ///
    /// As in the paper, the accumulation is per *cycle*, so when the 10 000
    /// instructions take more than 10 000 cycles the average can exceed the
    /// physical queue size when normalised per instruction; here we
    /// normalise per cycle, so the value is bounded by the queue capacity.
    pub queue_utilization: f64,
    /// Number of domain clock cycles elapsed during the interval.
    pub domain_cycles: u64,
    /// Number of domain cycles in which the domain issued at least one
    /// instruction (used only by the off-line oracle, not by Attack/Decay).
    pub busy_cycles: u64,
    /// Number of instructions the domain issued during the interval.
    pub issued_instructions: u64,
    /// The domain's target frequency, in MHz.  A controller receives the
    /// target in force during the interval; a recorded sample
    /// (`SimResult::intervals`) holds the target the controller set at
    /// the interval's end.  No controller reads this field, and a
    /// profiling run holds every domain at maximum, where the two agree.
    pub freq_mhz: MegaHertz,
}

impl DomainSample {
    /// Fraction of domain cycles with at least one issue.
    pub fn busy_fraction(&self) -> f64 {
        if self.domain_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.domain_cycles as f64
        }
    }
}

/// Measurements for one control interval across the whole processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSample {
    /// Zero-based interval index.
    pub interval: u64,
    /// Committed instructions in the interval: always the configured
    /// interval length (normally [`INTERVAL_INSTRUCTIONS`]).  An interval
    /// ends only when the committed count reaches a multiple of it, so a
    /// trailing partial interval is never sampled.
    pub instructions: u64,
    /// Front-end clock cycles elapsed during the interval.
    pub frontend_cycles: u64,
    /// Instructions per front-end cycle over the interval (the global IPC
    /// performance counter of the paper).
    pub ipc: f64,
    /// Per-domain samples for the controllable domains (integer,
    /// floating-point, load/store), in [`DomainId`] index order.
    pub domains: Vec<DomainSample>,
}

impl IntervalSample {
    /// Looks up the sample for a particular domain.
    pub fn domain(&self, domain: DomainId) -> Option<&DomainSample> {
        self.domains.iter().find(|d| d.domain == domain)
    }
}

/// A frequency change requested by a controller for one domain.
///
/// The simulator translates the command into an XScale-style ramp toward
/// the nearest discrete operating point at or above the requested
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyCommand {
    /// Domain whose clock should change.
    pub domain: DomainId,
    /// Requested frequency in MHz.
    pub target_freq_mhz: MegaHertz,
}

impl FrequencyCommand {
    /// Creates a new command.
    pub fn new(domain: DomainId, target_freq_mhz: MegaHertz) -> Self {
        FrequencyCommand {
            domain,
            target_freq_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(domain: DomainId, util: f64) -> DomainSample {
        DomainSample {
            domain,
            queue_utilization: util,
            domain_cycles: 10_000,
            busy_cycles: 4_000,
            issued_instructions: 6_000,
            freq_mhz: 1000.0,
        }
    }

    #[test]
    fn busy_fraction_is_ratio() {
        let d = sample(DomainId::Integer, 5.0);
        assert!((d.busy_fraction() - 0.4).abs() < 1e-12);
        let empty = DomainSample {
            domain_cycles: 0,
            ..d
        };
        assert_eq!(empty.busy_fraction(), 0.0);
    }

    #[test]
    fn interval_lookup_by_domain() {
        let s = IntervalSample {
            interval: 3,
            instructions: INTERVAL_INSTRUCTIONS,
            frontend_cycles: 12_000,
            ipc: 0.83,
            domains: vec![
                sample(DomainId::Integer, 8.0),
                sample(DomainId::FloatingPoint, 0.5),
                sample(DomainId::LoadStore, 20.0),
            ],
        };
        assert_eq!(
            s.domain(DomainId::FloatingPoint).unwrap().queue_utilization,
            0.5
        );
        assert!(s.domain(DomainId::FrontEnd).is_none());
    }

    #[test]
    fn interval_constant_matches_paper() {
        assert_eq!(INTERVAL_INSTRUCTIONS, 10_000);
    }

    #[test]
    fn command_constructor() {
        let c = FrequencyCommand::new(DomainId::LoadStore, 612.5);
        assert_eq!(c.domain, DomainId::LoadStore);
        assert_eq!(c.target_freq_mhz, 612.5);
    }
}
