//! Approximation of the off-line Dynamic-1% / Dynamic-5% algorithms.
//!
//! The paper compares Attack/Decay against the authors' earlier *off-line*
//! algorithm (Semeraro et al., HPCA 2002), which analyses a complete
//! execution trace, finds slack, and schedules per-interval domain
//! frequencies that cap the performance degradation at 1% or 5% over the
//! baseline MCD processor.  Two properties distinguish it from the on-line
//! algorithm:
//!
//! 1. it has **global knowledge** of the whole run (it is re-executed on
//!    the same input), and
//! 2. it schedules frequency changes **ahead of time**, so the ramp slew
//!    rate introduces no reaction error.
//!
//! The full shaker algorithm operates on multi-hundred-million instruction
//! dependence graphs and is out of scope; this module implements a
//! profile-driven oracle that preserves those two properties (see
//! docs/ARCHITECTURE.md, "Substitutions"): a profiling run at maximum
//! frequency records per-interval, per-domain utilization; the oracle then
//! chooses each interval's frequency from the *actual* upcoming interval
//! profile, with a slack cushion that shrinks as the degradation target
//! grows.

use mcd_clock::{DomainId, MegaHertz, OperatingPointTable, CONTROLLABLE_DOMAINS};
use serde::{Deserialize, Serialize};

use crate::controller::FrequencyController;
use crate::sample::{DomainSample, FrequencyCommand, IntervalSample};

/// Per-interval, per-domain activity profile recorded during a
/// maximum-frequency run, used to build the off-line schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OfflineProfile {
    /// `intervals[i]` holds the samples of interval `i` for the
    /// controllable domains.
    pub intervals: Vec<Vec<DomainSample>>,
}

impl OfflineProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        OfflineProfile {
            intervals: Vec::new(),
        }
    }

    /// Appends one interval's domain samples (called by the simulator's
    /// telemetry when profiling is enabled).
    pub fn push_interval(&mut self, samples: Vec<DomainSample>) {
        self.intervals.push(samples);
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The sample of `domain` in interval `i`, if recorded.
    pub fn sample(&self, interval: usize, domain: DomainId) -> Option<&DomainSample> {
        self.intervals
            .get(interval)
            .and_then(|v| v.iter().find(|s| s.domain == domain))
    }
}

/// Tuning constants mapping a degradation target to the slack cushion of
/// the oracle's frequency formula.
///
/// For a domain whose profiled *activity ratio* in an interval is `rho`
/// (issued instructions per maximum-frequency cycle, normalised by the
/// domain's sustainable issue rate), the oracle selects
///
/// ```text
/// f = f_max * clamp(rho + cushion, f_min/f_max, 1.0)
/// cushion = base_cushion - slope * target_degradation   (floored)
/// ```
///
/// A tighter (smaller) cushion saves more energy but risks more slowdown,
/// which is exactly the Dynamic-1% versus Dynamic-5% trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OfflineTuning {
    /// Cushion at a 0% degradation target.
    pub base_cushion: f64,
    /// How quickly the cushion shrinks per unit of degradation target.
    pub cushion_slope: f64,
    /// Minimum cushion.
    pub min_cushion: f64,
}

impl Default for OfflineTuning {
    fn default() -> Self {
        OfflineTuning {
            base_cushion: 0.40,
            cushion_slope: 4.0,
            min_cushion: 0.12,
        }
    }
}

impl OfflineTuning {
    /// The cushion for a given degradation target.
    pub fn cushion(&self, target_degradation: f64) -> f64 {
        (self.base_cushion - self.cushion_slope * target_degradation).max(self.min_cushion)
    }
}

/// The off-line oracle controller (Dynamic-1%, Dynamic-5%, ... depending on
/// the degradation target).
#[derive(Debug, Clone)]
pub struct OfflineController {
    profile: OfflineProfile,
    target_degradation: f64,
    tuning: OfflineTuning,
    min_freq: MegaHertz,
    max_freq: MegaHertz,
    name: String,
    /// Precomputed schedule: `schedule[i][d]` is the frequency for
    /// controllable domain `d` during interval `i`.
    schedule: Vec<Vec<(DomainId, MegaHertz)>>,
}

impl OfflineController {
    /// Builds the oracle from a profile gathered at maximum frequency.
    ///
    /// `target_degradation` is the performance-degradation cap as a
    /// fraction (0.01 reproduces Dynamic-1%, 0.05 Dynamic-5%).
    ///
    /// # Panics
    ///
    /// Panics if `target_degradation` is negative.
    pub fn from_profile(
        profile: OfflineProfile,
        target_degradation: f64,
        table: &OperatingPointTable,
    ) -> Self {
        Self::with_tuning(profile, target_degradation, OfflineTuning::default(), table)
    }

    /// Builds the oracle with explicit tuning constants.
    ///
    /// # Panics
    ///
    /// Panics if `target_degradation` is negative.
    pub fn with_tuning(
        profile: OfflineProfile,
        target_degradation: f64,
        tuning: OfflineTuning,
        table: &OperatingPointTable,
    ) -> Self {
        assert!(
            target_degradation >= 0.0,
            "degradation target must be non-negative"
        );
        let min_freq = table.min_point().freq_mhz;
        let max_freq = table.max_point().freq_mhz;
        let cushion = tuning.cushion(target_degradation);

        let schedule = profile
            .intervals
            .iter()
            .map(|samples| {
                CONTROLLABLE_DOMAINS
                    .iter()
                    .map(|&domain| {
                        let f = match samples.iter().find(|s| s.domain == domain) {
                            Some(s) => {
                                let rho = Self::activity_ratio(s);
                                let scale = (rho + cushion).clamp(min_freq / max_freq, 1.0);
                                table.at_least(max_freq * scale).freq_mhz
                            }
                            None => max_freq,
                        };
                        (domain, f)
                    })
                    .collect()
            })
            .collect();

        let name = format!("dynamic-{}pct", (target_degradation * 100.0).round() as u32);
        OfflineController {
            profile,
            target_degradation,
            tuning,
            min_freq,
            max_freq,
            name,
            schedule,
        }
    }

    /// The activity ratio of a domain in one profiled interval: how much of
    /// the domain's capacity the interval actually needed.  Domains that
    /// issued nothing get 0 (and will be parked at the minimum frequency);
    /// domains saturating their issue bandwidth or whose input queue is
    /// backing up get 1.
    ///
    /// Three signals are combined (the maximum wins), mirroring the slack
    /// criteria of the off-line algorithm: the issue-bandwidth utilisation,
    /// the fraction of busy cycles, and the input-queue occupancy pressure
    /// (a queue holding a sizeable backlog means the domain is on the
    /// critical path even when its raw issue rate is low, e.g. a load/store
    /// queue full of outstanding misses).
    fn activity_ratio(sample: &DomainSample) -> f64 {
        if sample.domain_cycles == 0 {
            return 0.0;
        }
        let issue_rate = sample.issued_instructions as f64 / sample.domain_cycles as f64;
        let (issue_capacity, queue_capacity) = match sample.domain {
            DomainId::Integer => (4.0, 20.0),
            DomainId::FloatingPoint => (2.0, 15.0),
            DomainId::LoadStore => (2.0, 64.0),
            _ => (4.0, 20.0),
        };
        // A queue at 40% of its capacity (or more) marks the domain as fully
        // needed; below that, pressure scales linearly.
        let queue_pressure = sample.queue_utilization / (0.4 * queue_capacity);
        (issue_rate / issue_capacity)
            .max(sample.busy_fraction())
            .max(queue_pressure)
            .min(1.0)
    }

    /// The degradation target this oracle was built for.
    pub fn target_degradation(&self) -> f64 {
        self.target_degradation
    }

    /// The tuning constants in use.
    pub fn tuning(&self) -> OfflineTuning {
        self.tuning
    }

    /// The precomputed frequency for `domain` in interval `i` (clamped to
    /// the last scheduled interval when the re-run executes longer than the
    /// profiling run).
    pub fn scheduled_freq(&self, interval: usize, domain: DomainId) -> MegaHertz {
        if self.schedule.is_empty() {
            return self.max_freq;
        }
        let idx = interval.min(self.schedule.len() - 1);
        self.schedule[idx]
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, f)| *f)
            .unwrap_or(self.max_freq)
    }

    /// The profile the oracle was built from.
    pub fn profile(&self) -> &OfflineProfile {
        &self.profile
    }

    /// Minimum frequency of the operating-point table.
    pub fn min_freq(&self) -> MegaHertz {
        self.min_freq
    }
}

impl FrequencyController for OfflineController {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_freq_mhz(&self, domain: DomainId) -> Option<MegaHertz> {
        if domain.is_controllable() {
            Some(self.scheduled_freq(0, domain))
        } else {
            None
        }
    }

    fn interval_update(&mut self, sample: &IntervalSample) -> Vec<FrequencyCommand> {
        // The off-line algorithm schedules the *next* interval's frequencies
        // ahead of time (no reaction lag, no ramp error): when interval `i`
        // ends we immediately command the frequencies planned for `i + 1`.
        let next = sample.interval as usize + 1;
        CONTROLLABLE_DOMAINS
            .iter()
            .map(|&d| FrequencyCommand::new(d, self.scheduled_freq(next, d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(domain: DomainId, issued: u64, busy: u64, cycles: u64) -> DomainSample {
        DomainSample {
            domain,
            queue_utilization: issued as f64 / 1000.0,
            domain_cycles: cycles,
            busy_cycles: busy,
            issued_instructions: issued,
            freq_mhz: 1000.0,
        }
    }

    fn profile_with(intervals: Vec<[(u64, u64); 3]>) -> OfflineProfile {
        let mut p = OfflineProfile::new();
        for [int, fp, ls] in intervals {
            p.push_interval(vec![
                sample(DomainId::Integer, int.0, int.1, 10_000),
                sample(DomainId::FloatingPoint, fp.0, fp.1, 10_000),
                sample(DomainId::LoadStore, ls.0, ls.1, 10_000),
            ]);
        }
        p
    }

    #[test]
    fn empty_profile_defaults_to_max_frequency() {
        let table = OperatingPointTable::default();
        let ctrl = OfflineController::from_profile(OfflineProfile::new(), 0.01, &table);
        assert_eq!(ctrl.scheduled_freq(0, DomainId::Integer), 1000.0);
        assert_eq!(ctrl.scheduled_freq(99, DomainId::LoadStore), 1000.0);
        assert!(ctrl.profile().is_empty());
    }

    #[test]
    fn idle_domain_is_parked_near_minimum() {
        let table = OperatingPointTable::default();
        // FP completely idle, integer busy.
        let profile = profile_with(vec![[(30_000, 9_000), (0, 0), (5_000, 4_000)]]);
        let ctrl = OfflineController::from_profile(profile, 0.05, &table);
        let fp = ctrl.scheduled_freq(0, DomainId::FloatingPoint);
        let int = ctrl.scheduled_freq(0, DomainId::Integer);
        assert!(fp < 400.0, "idle FP domain should be parked low, got {fp}");
        assert!(
            int > 900.0,
            "busy integer domain should stay fast, got {int}"
        );
    }

    #[test]
    fn higher_degradation_target_selects_lower_frequencies() {
        let table = OperatingPointTable::default();
        let profile = profile_with(vec![[(20_000, 6_000), (4_000, 2_500), (8_000, 5_000)]; 4]);
        let d1 = OfflineController::from_profile(profile.clone(), 0.01, &table);
        let d5 = OfflineController::from_profile(profile, 0.05, &table);
        for domain in CONTROLLABLE_DOMAINS {
            assert!(
                d5.scheduled_freq(0, domain) <= d1.scheduled_freq(0, domain),
                "Dynamic-5% must be at least as aggressive as Dynamic-1% for {domain}"
            );
        }
        // And strictly lower for at least one domain.
        assert!(CONTROLLABLE_DOMAINS
            .iter()
            .any(|&d| d5.scheduled_freq(0, d) < d1.scheduled_freq(0, d)));
    }

    #[test]
    fn schedule_follows_phases() {
        let table = OperatingPointTable::default();
        // Interval 0: FP idle.  Interval 1: FP burst.  Interval 2: idle again.
        let profile = profile_with(vec![
            [(20_000, 6_000), (0, 0), (6_000, 4_000)],
            [(20_000, 6_000), (15_000, 9_000), (6_000, 4_000)],
            [(20_000, 6_000), (0, 0), (6_000, 4_000)],
        ]);
        let ctrl = OfflineController::from_profile(profile, 0.01, &table);
        let f0 = ctrl.scheduled_freq(0, DomainId::FloatingPoint);
        let f1 = ctrl.scheduled_freq(1, DomainId::FloatingPoint);
        let f2 = ctrl.scheduled_freq(2, DomainId::FloatingPoint);
        assert!(f1 > f0, "FP burst interval must run faster ({f1} <= {f0})");
        assert!(f2 < f1);
    }

    #[test]
    fn interval_update_preschedules_the_next_interval() {
        let table = OperatingPointTable::default();
        let profile = profile_with(vec![
            [(20_000, 6_000), (0, 0), (6_000, 4_000)],
            [(20_000, 6_000), (18_000, 9_500), (6_000, 4_000)],
        ]);
        let mut ctrl = OfflineController::from_profile(profile, 0.01, &table);
        let sample0 = IntervalSample {
            interval: 0,
            instructions: 10_000,
            frontend_cycles: 10_000,
            ipc: 1.0,
            domains: vec![],
        };
        let cmds = ctrl.interval_update(&sample0);
        let fp_cmd = cmds
            .iter()
            .find(|c| c.domain == DomainId::FloatingPoint)
            .unwrap();
        assert_eq!(
            fp_cmd.target_freq_mhz,
            ctrl.scheduled_freq(1, DomainId::FloatingPoint)
        );
        // Past the end of the schedule, the last interval's plan repeats.
        let sample9 = IntervalSample {
            interval: 9,
            ..sample0
        };
        let cmds = ctrl.interval_update(&sample9);
        let fp_cmd = cmds
            .iter()
            .find(|c| c.domain == DomainId::FloatingPoint)
            .unwrap();
        assert_eq!(
            fp_cmd.target_freq_mhz,
            ctrl.scheduled_freq(1, DomainId::FloatingPoint)
        );
    }

    #[test]
    fn initial_frequency_comes_from_interval_zero() {
        let table = OperatingPointTable::default();
        let profile = profile_with(vec![[(30_000, 9_500), (0, 0), (2_000, 1_500)]]);
        let ctrl = OfflineController::from_profile(profile, 0.05, &table);
        assert_eq!(
            ctrl.initial_freq_mhz(DomainId::FloatingPoint),
            Some(ctrl.scheduled_freq(0, DomainId::FloatingPoint))
        );
        assert_eq!(ctrl.initial_freq_mhz(DomainId::FrontEnd), None);
    }

    #[test]
    fn names_match_paper_configurations() {
        let table = OperatingPointTable::default();
        let p = OfflineProfile::new();
        assert_eq!(
            OfflineController::from_profile(p.clone(), 0.01, &table).name(),
            "dynamic-1pct"
        );
        assert_eq!(
            OfflineController::from_profile(p, 0.05, &table).name(),
            "dynamic-5pct"
        );
    }

    #[test]
    fn cushion_shrinks_with_target_but_is_floored() {
        let t = OfflineTuning::default();
        assert!(t.cushion(0.01) > t.cushion(0.05));
        assert!(t.cushion(10.0) >= t.min_cushion);
    }

    #[test]
    fn activity_ratio_bounds() {
        let s = sample(DomainId::Integer, 0, 0, 10_000);
        assert_eq!(OfflineController::activity_ratio(&s), 0.0);
        let s = sample(DomainId::Integer, 80_000, 10_000, 10_000);
        assert_eq!(OfflineController::activity_ratio(&s), 1.0);
        let s = sample(DomainId::FloatingPoint, 10_000, 5_000, 0);
        assert_eq!(OfflineController::activity_ratio(&s), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_target_panics() {
        let table = OperatingPointTable::default();
        let _ = OfflineController::from_profile(OfflineProfile::new(), -0.1, &table);
    }
}
