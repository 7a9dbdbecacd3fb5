//! The controller abstraction shared by all frequency-control algorithms.

use mcd_clock::{DomainId, MegaHertz};
use serde::codec::{ByteReader, ByteWriter, Result as CodecResult};
use serde::{Deserialize, Serialize};

use crate::sample::{FrequencyCommand, IntervalSample};

/// A dynamic frequency/voltage control algorithm.
///
/// The simulator invokes [`FrequencyController::interval_update`] at every
/// control-interval boundary (every 10 000 committed instructions) with the
/// telemetry of the interval that just finished, and applies the returned
/// frequency commands to the domain clocks.  Commands are clamped to the
/// operating-point table by the simulator.
pub trait FrequencyController: Send {
    /// Short machine-readable name used in reports (for example
    /// `"attack-decay"`).
    fn name(&self) -> &str;

    /// Initial frequency for `domain` at the start of a run, in MHz.
    /// Defaults to the maximum frequency for every domain.
    fn initial_freq_mhz(&self, domain: DomainId) -> Option<MegaHertz> {
        let _ = domain;
        None
    }

    /// Called at the end of each control interval; returns the frequency
    /// changes to apply for the next interval.
    fn interval_update(&mut self, sample: &IntervalSample) -> Vec<FrequencyCommand>;

    /// Called once when a run finishes (for controllers that keep
    /// statistics).  Default: no-op.
    fn finish(&mut self) {}

    /// Always a no-op: no controller state is serialized.  The method
    /// stays only because the out-of-workspace benchmark package
    /// (`perfbench/`) still forwards it, and goes with the next change to
    /// that package.
    fn save_state(&self, w: &mut ByteWriter) {
        let _ = w;
    }

    /// Always a no-op returning `Ok(())`; kept for `perfbench/` like
    /// [`FrequencyController::save_state`].
    ///
    /// # Errors
    ///
    /// Never.
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        let _ = r;
        Ok(())
    }
}

/// A serializable description of which controller to instantiate, used by
/// the experiment harness (`mcd-core`) for configuration files and sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerKind {
    /// All domains fixed at the maximum frequency (baseline MCD, or the
    /// conventional processor when combined with a synchronous clock
    /// configuration).
    Fixed,
    /// The paper's Attack/Decay on-line algorithm with the given
    /// parameters.
    AttackDecay(crate::attack_decay::AttackDecayParams),
    /// The off-line oracle with a performance-degradation target expressed
    /// as a fraction (0.01 or 0.05 reproduce Dynamic-1% and Dynamic-5%).
    OfflineDynamic {
        /// Performance-degradation target (fraction, e.g. 0.01).
        target_degradation: f64,
    },
    /// Conventional global DVFS: a single frequency applied to every
    /// domain of a fully synchronous processor.
    GlobalScaling {
        /// The global frequency in MHz.
        freq_mhz: MegaHertz,
    },
}

impl ControllerKind {
    /// Human-readable label matching the paper's terminology.
    pub fn label(&self) -> String {
        match self {
            ControllerKind::Fixed => "baseline".to_string(),
            ControllerKind::AttackDecay(_) => "Attack/Decay".to_string(),
            ControllerKind::OfflineDynamic { target_degradation } => {
                format!("Dynamic-{}%", (target_degradation * 100.0).round() as u32)
            }
            ControllerKind::GlobalScaling { freq_mhz } => {
                format!("Global({freq_mhz:.0} MHz)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack_decay::AttackDecayParams;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(ControllerKind::Fixed.label(), "baseline");
        assert_eq!(
            ControllerKind::AttackDecay(AttackDecayParams::paper_defaults()).label(),
            "Attack/Decay"
        );
        assert_eq!(
            ControllerKind::OfflineDynamic {
                target_degradation: 0.01
            }
            .label(),
            "Dynamic-1%"
        );
        assert_eq!(
            ControllerKind::OfflineDynamic {
                target_degradation: 0.05
            }
            .label(),
            "Dynamic-5%"
        );
        assert_eq!(
            ControllerKind::GlobalScaling { freq_mhz: 970.0 }.label(),
            "Global(970 MHz)"
        );
    }

    #[test]
    fn controller_kind_clones_and_compares() {
        let kinds = vec![
            ControllerKind::Fixed,
            ControllerKind::AttackDecay(AttackDecayParams::paper_defaults()),
            ControllerKind::OfflineDynamic {
                target_degradation: 0.05,
            },
            ControllerKind::GlobalScaling { freq_mhz: 800.0 },
        ];
        for k in &kinds {
            assert_eq!(k, &k.clone());
            assert!(!k.label().is_empty());
            assert!(!format!("{k:?}").is_empty());
        }
    }
}
