//! Conventional global dynamic voltage scaling.
//!
//! The paper compares the MCD + Attack/Decay approach against the
//! traditional technique of commercial processors (Transmeta LongRun,
//! Intel XScale): a *single* frequency/voltage applied to the entire,
//! fully synchronous chip.  The `Global(...)` rows of Table 6 pick the
//! global frequency so that the resulting performance degradation matches
//! the degradation of the respective MCD algorithm, then report how much
//! energy that saves (the answer: a power-savings to
//! performance-degradation ratio of only about 2).
//!
//! [`GlobalScalingController`] pins every domain to one frequency.  The
//! search for the frequency that matches a target degradation lives in
//! `mcd-core` (`experiments::table6::global_matching`), because it
//! requires running the simulator repeatedly.

use mcd_clock::{DomainId, MegaHertz};

use crate::controller::FrequencyController;
use crate::sample::{FrequencyCommand, IntervalSample};

/// Applies one global frequency to every domain of a (synchronous) chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalScalingController {
    freq_mhz: MegaHertz,
}

impl GlobalScalingController {
    /// Creates a controller that runs the whole chip at `freq_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not positive.
    pub fn new(freq_mhz: MegaHertz) -> Self {
        assert!(freq_mhz > 0.0, "global frequency must be positive");
        GlobalScalingController { freq_mhz }
    }

    /// The configured global frequency.
    pub fn freq_mhz(&self) -> MegaHertz {
        self.freq_mhz
    }
}

impl FrequencyController for GlobalScalingController {
    fn name(&self) -> &str {
        "global-scaling"
    }

    fn initial_freq_mhz(&self, domain: DomainId) -> Option<MegaHertz> {
        // Every on-chip domain, including the front end, runs at the global
        // frequency; external memory is never controllable.
        if domain == DomainId::External {
            None
        } else {
            Some(self.freq_mhz)
        }
    }

    fn interval_update(&mut self, _sample: &IntervalSample) -> Vec<FrequencyCommand> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_same_frequency_to_all_on_chip_domains() {
        let c = GlobalScalingController::new(812.5);
        for d in [
            DomainId::FrontEnd,
            DomainId::Integer,
            DomainId::FloatingPoint,
            DomainId::LoadStore,
        ] {
            assert_eq!(c.initial_freq_mhz(d), Some(812.5));
        }
        assert_eq!(c.initial_freq_mhz(DomainId::External), None);
        assert_eq!(c.freq_mhz(), 812.5);
    }

    #[test]
    fn never_issues_interval_commands() {
        let mut c = GlobalScalingController::new(600.0);
        let sample = IntervalSample {
            interval: 5,
            instructions: 10_000,
            frontend_cycles: 9_000,
            ipc: 1.1,
            domains: vec![],
        };
        assert!(c.interval_update(&sample).is_empty());
        assert_eq!(c.name(), "global-scaling");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_frequency() {
        let _ = GlobalScalingController::new(0.0);
    }
}
