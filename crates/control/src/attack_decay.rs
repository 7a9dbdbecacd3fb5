//! The Attack/Decay on-line frequency-control algorithm (paper Section 3.1,
//! Listing 1).
//!
//! Each controllable domain is driven independently by the same state
//! machine:
//!
//! * **Attack** — if the domain's issue-queue utilization changed by more
//!   than `DeviationThreshold` (relative to the previous interval), the
//!   clock period is scaled sharply by `ReactionChange` in the direction
//!   that counteracts the change (utilization up → frequency up,
//!   utilization down → frequency down).
//! * **Decay** — if nothing significant happened, the period is stretched
//!   by the small `Decay` factor, slowly reclaiming energy.
//! * **PerfDegThreshold** — frequency decreases (both attack-down and
//!   decay) are suppressed when IPC fell by more than this threshold since
//!   the previous interval, so that the algorithm does not chase
//!   performance losses that are unrelated to the domain frequency.
//! * **Endstop forcing** — if a domain has sat at either frequency extreme
//!   for `EndstopCount` consecutive intervals, an attack in the opposite
//!   direction is forced so the algorithm cannot get stuck at a local
//!   minimum.
//!
//! The only global input is the IPC counter; everything else is local to
//! the domain, which is what makes the hardware cost of Table 3 so small.

use mcd_clock::{DomainId, MegaHertz, OperatingPointTable, CONTROLLABLE_DOMAINS};
use serde::{Deserialize, Serialize};

use crate::controller::FrequencyController;
use crate::sample::{FrequencyCommand, IntervalSample};

/// Configuration parameters of the Attack/Decay algorithm.
///
/// The paper's Table 2 gives the ranges explored in the sensitivity study
/// (available as [`ParamRanges`]); the headline results use
/// [`AttackDecayParams::paper_defaults`]: DeviationThreshold = 1.75%,
/// ReactionChange = 6.0%, Decay = 0.175%, PerfDegThreshold = 2.5%,
/// EndstopCount = 10 intervals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackDecayParams {
    /// Relative change in queue utilization considered "significant"
    /// (fraction, e.g. 0.0175 for 1.75%).
    pub deviation_threshold: f64,
    /// Attack step: the fractional change applied to the clock *period*
    /// when a significant utilization change is detected (e.g. 0.06).
    pub reaction_change: f64,
    /// Decay step: the fractional period stretch applied when nothing
    /// significant happened (e.g. 0.00175).
    pub decay: f64,
    /// Maximum tolerated interval-to-interval IPC drop (fraction, e.g.
    /// 0.025) below which frequency decreases are still allowed.
    pub perf_deg_threshold: f64,
    /// Number of consecutive intervals at a frequency extreme after which
    /// an attack away from the extreme is forced (paper: 10).
    pub endstop_count: u32,
}

impl AttackDecayParams {
    /// The configuration used for the paper's headline results
    /// (Section 5): 1.75% / 6.0% / 0.175% / 2.5%, endstop 10.
    pub const fn paper_defaults() -> Self {
        AttackDecayParams {
            deviation_threshold: 0.0175,
            reaction_change: 0.06,
            decay: 0.00175,
            perf_deg_threshold: 0.025,
            endstop_count: 10,
        }
    }

    /// Validates that every parameter lies inside the ranges of Table 2
    /// (slightly widened to admit the end-points used in the sensitivity
    /// sweeps).
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        let ranges = ParamRanges::paper_table2();
        let checks = [
            (
                "DeviationThreshold",
                self.deviation_threshold,
                ranges.deviation_threshold,
            ),
            (
                "ReactionChange",
                self.reaction_change,
                ranges.reaction_change,
            ),
            ("Decay", self.decay, ranges.decay),
            (
                "PerfDegThreshold",
                self.perf_deg_threshold,
                ranges.perf_deg_threshold,
            ),
        ];
        for (name, value, (lo, hi)) in checks {
            if !(lo..=hi).contains(&value) {
                return Err(format!(
                    "{name} = {value} outside the supported range [{lo}, {hi}]"
                ));
            }
        }
        let (lo, hi) = ranges.endstop_count;
        if !(lo..=hi).contains(&self.endstop_count) {
            return Err(format!(
                "EndstopCount = {} outside the supported range [{lo}, {hi}]",
                self.endstop_count
            ));
        }
        Ok(())
    }

    /// The compact `D.DDD_RR.R_d.ddd_P.P` label the paper uses in its
    /// sensitivity-figure legends (DeviationThreshold, ReactionChange,
    /// Decay and PerfDegThreshold, all in percent).
    pub fn legend(&self) -> String {
        format!(
            "{:.3}_{:04.1}_{:.3}_{:.1}",
            self.deviation_threshold * 100.0,
            self.reaction_change * 100.0,
            self.decay * 100.0,
            self.perf_deg_threshold * 100.0
        )
    }
}

impl Default for AttackDecayParams {
    fn default() -> Self {
        AttackDecayParams::paper_defaults()
    }
}

/// The parameter ranges of the paper's Table 2, used by the sensitivity
/// sweeps (Figures 5–7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamRanges {
    /// DeviationThreshold range (fractions).
    pub deviation_threshold: (f64, f64),
    /// ReactionChange range (fractions).
    pub reaction_change: (f64, f64),
    /// Decay range (fractions).
    pub decay: (f64, f64),
    /// PerfDegThreshold range (fractions).
    pub perf_deg_threshold: (f64, f64),
    /// EndstopCount range (intervals).
    pub endstop_count: (u32, u32),
}

impl ParamRanges {
    /// Table 2 of the paper: DeviationThreshold 0–2.5%, ReactionChange
    /// 0.5–15.5%, Decay 0–2%, PerfDegThreshold 0–12%, EndstopCount 1–25.
    pub fn paper_table2() -> Self {
        ParamRanges {
            deviation_threshold: (0.0, 0.025),
            reaction_change: (0.005, 0.155),
            decay: (0.0, 0.02),
            perf_deg_threshold: (0.0, 0.12),
            endstop_count: (1, 25),
        }
    }

    /// `n` evenly spaced values spanning a closed range; used to build the
    /// sensitivity sweeps.
    pub fn linspace(range: (f64, f64), n: usize) -> Vec<f64> {
        assert!(n >= 2, "need at least two sweep points");
        (0..n)
            .map(|i| range.0 + (range.1 - range.0) * i as f64 / (n - 1) as f64)
            .collect()
    }
}

/// Per-domain controller state (the registers of the paper's Figure/Table 3
/// hardware: previous utilization, previous IPC and the two endstop
/// counters).
#[derive(Debug, Clone)]
struct DomainState {
    domain: DomainId,
    freq_mhz: MegaHertz,
    prev_queue_utilization: f64,
    prev_ipc: f64,
    lower_endstop: u32,
    upper_endstop: u32,
    /// Decision taken in the last interval (for traces/tests).
    last_decision: Decision,
}

/// The decision the algorithm made for a domain in one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// No change (initial state, or decrease suppressed by the
    /// performance-degradation guard).
    Hold,
    /// Attack upward (frequency increase).
    AttackUp,
    /// Attack downward (frequency decrease).
    AttackDown,
    /// Slow decay (small frequency decrease).
    Decay,
    /// Forced attack because the domain sat at an endstop.
    ForcedFromEndstop,
}

/// The Attack/Decay on-line controller (paper Listing 1), one independent
/// instance of the state machine per controllable domain.
#[derive(Debug, Clone)]
pub struct AttackDecayController {
    params: AttackDecayParams,
    min_freq_mhz: MegaHertz,
    max_freq_mhz: MegaHertz,
    domains: Vec<DomainState>,
}

impl AttackDecayController {
    /// Creates a controller for the three controllable domains, starting at
    /// the maximum frequency of the operating-point table.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`AttackDecayParams::validate`].
    pub fn new(params: AttackDecayParams, table: &OperatingPointTable) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid Attack/Decay parameters: {e}"));
        let max = table.max_point().freq_mhz;
        let min = table.min_point().freq_mhz;
        let domains = CONTROLLABLE_DOMAINS
            .iter()
            .map(|&d| DomainState {
                domain: d,
                freq_mhz: max,
                prev_queue_utilization: 0.0,
                prev_ipc: 0.0,
                lower_endstop: 0,
                upper_endstop: 0,
                last_decision: Decision::Hold,
            })
            .collect();
        AttackDecayController {
            params,
            min_freq_mhz: min,
            max_freq_mhz: max,
            domains,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &AttackDecayParams {
        &self.params
    }

    /// The frequency the controller currently believes `domain` should run
    /// at, in MHz.
    pub fn domain_freq_mhz(&self, domain: DomainId) -> Option<MegaHertz> {
        self.domains
            .iter()
            .find(|d| d.domain == domain)
            .map(|d| d.freq_mhz)
    }

    /// The decision taken for `domain` in the most recent interval.
    pub fn last_decision(&self, domain: DomainId) -> Option<Decision> {
        self.domains
            .iter()
            .find(|d| d.domain == domain)
            .map(|d| d.last_decision)
    }

    /// One step of the Listing 1 state machine for a single domain.
    ///
    /// Returns the new frequency.  `queue_utilization` is the interval's
    /// average queue occupancy and `ipc` the global IPC counter.
    fn step_domain(
        state: &mut DomainState,
        params: &AttackDecayParams,
        min_freq: MegaHertz,
        max_freq: MegaHertz,
        queue_utilization: f64,
        ipc: f64,
    ) -> MegaHertz {
        // Interpretation of the paper's `(PrevIPC / IPC) >= PerfDegThreshold`
        // guard (Listing 1 lines 19 & 25): the prose states that frequency
        // decreases are suppressed when the IPC drop since the previous
        // interval exceeds the threshold, "to catch natural decreases in
        // performance that are unrelated to the domain frequency".  We
        // implement exactly that intent: a decrease is allowed only when
        // the relative IPC drop is at most `perf_deg_threshold`.
        let ipc_drop = if state.prev_ipc > 0.0 {
            (state.prev_ipc - ipc) / state.prev_ipc
        } else {
            0.0
        };
        let decrease_allowed = ipc_drop <= params.perf_deg_threshold;

        let mut period_scale = 1.0;
        let mut decision = Decision::Hold;

        if state.upper_endstop >= params.endstop_count {
            // Sat at the maximum frequency too long: force a decrease.
            period_scale = 1.0 + params.reaction_change;
            decision = Decision::ForcedFromEndstop;
        } else if state.lower_endstop >= params.endstop_count {
            // Sat at the minimum frequency too long: force an increase.
            period_scale = 1.0 - params.reaction_change;
            decision = Decision::ForcedFromEndstop;
        } else {
            let delta = queue_utilization - state.prev_queue_utilization;
            let threshold = state.prev_queue_utilization * params.deviation_threshold;
            if delta > threshold {
                // Significant increase in occupancy: the consumer is falling
                // behind, raise the frequency (shrink the period).
                period_scale = 1.0 - params.reaction_change;
                decision = Decision::AttackUp;
            } else if -delta > threshold && decrease_allowed {
                // Significant decrease in occupancy: lower the frequency.
                period_scale = 1.0 + params.reaction_change;
                decision = Decision::AttackDown;
            } else if decrease_allowed {
                // Nothing significant: slow decay.
                period_scale = 1.0 + params.decay;
                decision = Decision::Decay;
            }
        }

        // Apply the period scale factor: f = 1 / (period * scale).
        let mut new_freq = state.freq_mhz / period_scale;
        // Range check (the paper performs this after the listing).
        new_freq = new_freq.clamp(min_freq, max_freq);

        // Book-keeping for the next interval.
        state.prev_ipc = ipc;
        state.prev_queue_utilization = queue_utilization;
        state.last_decision = decision;
        state.freq_mhz = new_freq;

        // Endstop counters (Listing 1 lines 38-47).
        if new_freq <= min_freq + f64::EPSILON && state.lower_endstop < params.endstop_count {
            state.lower_endstop += 1;
        } else {
            state.lower_endstop = 0;
        }
        if new_freq >= max_freq - f64::EPSILON && state.upper_endstop < params.endstop_count {
            state.upper_endstop += 1;
        } else {
            state.upper_endstop = 0;
        }

        new_freq
    }
}

impl FrequencyController for AttackDecayController {
    fn name(&self) -> &str {
        "attack-decay"
    }

    fn interval_update(&mut self, sample: &IntervalSample) -> Vec<FrequencyCommand> {
        let mut commands = Vec::with_capacity(self.domains.len());
        for state in &mut self.domains {
            let Some(ds) = sample.domains.iter().find(|d| d.domain == state.domain) else {
                continue;
            };
            let new_freq = Self::step_domain(
                state,
                &self.params,
                self.min_freq_mhz,
                self.max_freq_mhz,
                ds.queue_utilization,
                sample.ipc,
            );
            commands.push(FrequencyCommand::new(state.domain, new_freq));
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::DomainSample;

    fn table() -> OperatingPointTable {
        OperatingPointTable::default()
    }

    fn make_sample(interval: u64, util: [f64; 3], ipc: f64) -> IntervalSample {
        let mk = |domain, queue_utilization| DomainSample {
            domain,
            queue_utilization,
            domain_cycles: 10_000,
            busy_cycles: 5_000,
            issued_instructions: 8_000,
            freq_mhz: 1000.0,
        };
        IntervalSample {
            interval,
            instructions: 10_000,
            frontend_cycles: 12_000,
            ipc,
            domains: vec![
                mk(DomainId::Integer, util[0]),
                mk(DomainId::FloatingPoint, util[1]),
                mk(DomainId::LoadStore, util[2]),
            ],
        }
    }

    #[test]
    fn paper_defaults_are_table2_consistent() {
        let p = AttackDecayParams::paper_defaults();
        p.validate().unwrap();
        assert_eq!(p.deviation_threshold, 0.0175);
        assert_eq!(p.reaction_change, 0.06);
        assert_eq!(p.decay, 0.00175);
        assert_eq!(p.perf_deg_threshold, 0.025);
        assert_eq!(p.endstop_count, 10);
        assert_eq!(p.legend(), "1.750_06.0_0.175_2.5");
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = AttackDecayParams::paper_defaults();
        p.reaction_change = 0.5; // above the 15.5% Table 2 maximum
        assert!(p.validate().is_err());
        let mut p = AttackDecayParams::paper_defaults();
        p.endstop_count = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid Attack/Decay parameters")]
    fn constructor_panics_on_invalid_params() {
        let mut p = AttackDecayParams::paper_defaults();
        p.decay = 0.5;
        let _ = AttackDecayController::new(p, &table());
    }

    #[test]
    fn stable_utilization_causes_decay() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        let f0 = ctrl.domain_freq_mhz(DomainId::Integer).unwrap();
        // Same utilization and IPC every interval: the controller should
        // decay all domains slowly.
        for i in 0..20 {
            let cmds = ctrl.interval_update(&make_sample(i, [8.0, 8.0, 8.0], 1.0));
            assert_eq!(cmds.len(), 3);
        }
        let f = ctrl.domain_freq_mhz(DomainId::Integer).unwrap();
        assert!(f < f0, "decay must lower the frequency ({f} >= {f0})");
        assert_eq!(ctrl.last_decision(DomainId::Integer), Some(Decision::Decay));
        // 20 decays of 0.175% each is a little over 3%.
        assert!(f > f0 * 0.95);
    }

    #[test]
    fn utilization_increase_triggers_attack_up() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        // Establish a baseline utilization.
        ctrl.interval_update(&make_sample(0, [8.0, 8.0, 8.0], 1.0));
        // Drive the frequency down first so there is headroom to move up.
        for i in 1..40 {
            ctrl.interval_update(&make_sample(i, [8.0, 8.0, 8.0], 1.0));
        }
        let f_before = ctrl.domain_freq_mhz(DomainId::Integer).unwrap();
        // Large occupancy jump -> attack up.
        ctrl.interval_update(&make_sample(40, [16.0, 8.0, 8.0], 1.0));
        let f_after = ctrl.domain_freq_mhz(DomainId::Integer).unwrap();
        assert!(f_after > f_before);
        assert_eq!(
            ctrl.last_decision(DomainId::Integer),
            Some(Decision::AttackUp)
        );
        // Other domains were stable and should have kept decaying.
        assert_eq!(
            ctrl.last_decision(DomainId::LoadStore),
            Some(Decision::Decay)
        );
    }

    #[test]
    fn utilization_decrease_triggers_attack_down() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        ctrl.interval_update(&make_sample(0, [12.0, 12.0, 12.0], 1.0));
        let f_before = ctrl.domain_freq_mhz(DomainId::FloatingPoint).unwrap();
        ctrl.interval_update(&make_sample(1, [12.0, 2.0, 12.0], 1.0));
        let f_after = ctrl.domain_freq_mhz(DomainId::FloatingPoint).unwrap();
        assert_eq!(
            ctrl.last_decision(DomainId::FloatingPoint),
            Some(Decision::AttackDown)
        );
        // One attack step: period * 1.06 => frequency / 1.06.
        assert!((f_after - f_before / 1.06).abs() < 1e-6);
    }

    #[test]
    fn ipc_drop_suppresses_decrease() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        ctrl.interval_update(&make_sample(0, [12.0, 12.0, 12.0], 1.0));
        let f_before = ctrl.domain_freq_mhz(DomainId::LoadStore).unwrap();
        // Occupancy drops sharply but IPC also dropped by 20% (natural
        // program slowdown): the decrease must be suppressed.
        ctrl.interval_update(&make_sample(1, [12.0, 12.0, 2.0], 0.8));
        let f_after = ctrl.domain_freq_mhz(DomainId::LoadStore).unwrap();
        assert_eq!(f_after, f_before);
        assert_eq!(
            ctrl.last_decision(DomainId::LoadStore),
            Some(Decision::Hold)
        );
    }

    #[test]
    fn ipc_drop_also_suppresses_decay() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        ctrl.interval_update(&make_sample(0, [8.0, 8.0, 8.0], 1.0));
        let f_before = ctrl.domain_freq_mhz(DomainId::Integer).unwrap();
        ctrl.interval_update(&make_sample(1, [8.0, 8.0, 8.0], 0.5));
        assert_eq!(ctrl.domain_freq_mhz(DomainId::Integer).unwrap(), f_before);
    }

    #[test]
    fn attack_up_is_never_suppressed_by_ipc() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        for i in 0..30 {
            ctrl.interval_update(&make_sample(i, [8.0, 8.0, 8.0], 1.0));
        }
        let f_before = ctrl.domain_freq_mhz(DomainId::Integer).unwrap();
        // IPC collapse together with an occupancy spike: must still attack up.
        ctrl.interval_update(&make_sample(30, [18.0, 8.0, 8.0], 0.4));
        assert!(ctrl.domain_freq_mhz(DomainId::Integer).unwrap() > f_before);
    }

    #[test]
    fn frequencies_stay_within_range() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        // Alternate extreme utilization patterns for a long time.
        for i in 0..500 {
            let util = if i % 2 == 0 {
                [0.0, 0.0, 0.0]
            } else {
                [20.0, 15.0, 64.0]
            };
            let cmds = ctrl.interval_update(&make_sample(i, util, 1.0));
            for c in cmds {
                assert!(c.target_freq_mhz >= 250.0 - 1e-9);
                assert!(c.target_freq_mhz <= 1000.0 + 1e-9);
            }
        }
    }

    #[test]
    fn endstop_forces_attack_off_the_maximum() {
        let params = AttackDecayParams {
            // Disable decay so the domain genuinely sits at the maximum.
            decay: 0.0,
            ..AttackDecayParams::paper_defaults()
        };
        let mut ctrl = AttackDecayController::new(params, &table());
        // Keep utilization rising so the controller stays pinned at max.
        let mut forced_seen = false;
        for i in 0..20 {
            let util = 1.0 + i as f64;
            ctrl.interval_update(&make_sample(i as u64, [util, util, util], 1.0));
            if ctrl.last_decision(DomainId::Integer) == Some(Decision::ForcedFromEndstop) {
                forced_seen = true;
                break;
            }
        }
        assert!(forced_seen, "endstop forcing never triggered");
        assert!(ctrl.domain_freq_mhz(DomainId::Integer).unwrap() < 1000.0);
    }

    #[test]
    fn endstop_forces_attack_off_the_minimum() {
        let params = AttackDecayParams {
            reaction_change: 0.155,
            decay: 0.02,
            ..AttackDecayParams::paper_defaults()
        };
        let mut ctrl = AttackDecayController::new(params, &table());
        // Zero utilization forever drives every domain to the minimum, where
        // the endstop eventually forces a step back up.
        let mut forced_up = false;
        for i in 0..400 {
            ctrl.interval_update(&make_sample(i, [0.0, 0.0, 0.0], 1.0));
            if ctrl.last_decision(DomainId::FloatingPoint) == Some(Decision::ForcedFromEndstop)
                && ctrl.domain_freq_mhz(DomainId::FloatingPoint).unwrap() > 250.0
            {
                forced_up = true;
                break;
            }
        }
        assert!(forced_up, "lower endstop forcing never triggered");
    }

    #[test]
    fn linspace_spans_range() {
        let v = ParamRanges::linspace((0.0, 0.02), 5);
        assert_eq!(v.len(), 5);
        assert_eq!(v[0], 0.0);
        assert!((v[4] - 0.02).abs() < 1e-12);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn controller_ignores_domains_missing_from_sample() {
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table());
        let sample = IntervalSample {
            interval: 0,
            instructions: 10_000,
            frontend_cycles: 11_000,
            ipc: 0.9,
            domains: vec![DomainSample {
                domain: DomainId::Integer,
                queue_utilization: 4.0,
                domain_cycles: 10_000,
                busy_cycles: 3_000,
                issued_instructions: 5_000,
                freq_mhz: 1000.0,
            }],
        };
        let cmds = ctrl.interval_update(&sample);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].domain, DomainId::Integer);
    }
}
