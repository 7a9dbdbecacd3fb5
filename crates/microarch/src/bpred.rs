//! Combining (tournament) branch predictor with BTB and return-address
//! stack, modelled on the Alpha 21264 predictor described by the paper's
//! Table 4:
//!
//! * level 1: 1024-entry per-branch history table, 10 bits of history;
//! * level 2: 1024-entry global pattern history table of 2-bit counters;
//! * bimodal predictor: 1024 2-bit counters;
//! * combining (chooser) predictor: 4096 2-bit counters;
//! * BTB: 4096 sets, 2-way associative;
//! * branch mispredict penalty: 7 cycles (charged by the front end).

use mcd_isa::OpClass;
use serde::{Deserialize, Serialize};

/// Configuration of the combining predictor (defaults reproduce Table 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchPredictorConfig {
    /// Entries in the level-1 (per-branch history) table.
    pub l1_entries: usize,
    /// History length in bits.
    pub history_bits: u32,
    /// Entries in the level-2 pattern history table.
    pub l2_entries: usize,
    /// Entries in the bimodal predictor.
    pub bimodal_entries: usize,
    /// Entries in the combining (chooser) predictor.
    pub chooser_entries: usize,
    /// Number of BTB sets.
    pub btb_sets: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        BranchPredictorConfig {
            l1_entries: 1024,
            history_bits: 10,
            l2_entries: 1024,
            bimodal_entries: 1024,
            chooser_entries: 4096,
            btb_sets: 4096,
            btb_ways: 2,
            ras_depth: 16,
        }
    }
}

/// The outcome of a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional transfers).
    pub taken: bool,
    /// Predicted target, if the BTB (or RAS) produced one.
    pub target: Option<u64>,
}

/// Running accuracy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Conditional-branch direction predictions made.
    pub direction_predictions: u64,
    /// Conditional-branch direction mispredictions.
    pub direction_mispredictions: u64,
    /// Target lookups that missed in the BTB/RAS for taken branches.
    pub target_misses: u64,
}

impl BranchStats {
    /// Direction-prediction accuracy in [0, 1].
    pub fn accuracy(&self) -> f64 {
        if self.direction_predictions == 0 {
            1.0
        } else {
            1.0 - self.direction_mispredictions as f64 / self.direction_predictions as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    target: u64,
    lru: u8,
}

/// The combining branch predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    bimodal: Vec<u8>,
    l1_history: Vec<u16>,
    l2_pht: Vec<u8>,
    chooser: Vec<u8>,
    btb: Vec<BtbEntry>,
    ras: Vec<u64>,
    stats: BranchStats,
}

fn saturating_update(counter: &mut u8, taken: bool) {
    if taken {
        if *counter < 3 {
            *counter += 1;
        }
    } else if *counter > 0 {
        *counter -= 1;
    }
}

impl BranchPredictor {
    /// Creates a predictor with the given configuration.  All counters are
    /// initialised to weakly-taken, histories to zero.
    pub fn new(config: BranchPredictorConfig) -> Self {
        let btb = vec![BtbEntry::default(); config.btb_sets * config.btb_ways];
        BranchPredictor {
            bimodal: vec![2; config.bimodal_entries],
            l1_history: vec![0; config.l1_entries],
            l2_pht: vec![2; config.l2_entries],
            chooser: vec![2; config.chooser_entries],
            btb,
            ras: Vec::with_capacity(config.ras_depth),
            config,
            stats: BranchStats::default(),
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &BranchPredictorConfig {
        &self.config
    }

    /// Accuracy statistics accumulated so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.config.bimodal_entries
    }

    fn l1_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.config.l1_entries
    }

    fn l2_index(&self, pc: u64) -> usize {
        let hist = self.l1_history[self.l1_index(pc)] as usize;
        hist % self.config.l2_entries
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.config.chooser_entries
    }

    fn btb_slot(&self, pc: u64) -> (usize, u64) {
        let set = ((pc >> 2) as usize) % self.config.btb_sets;
        let tag = pc >> 2;
        (set, tag)
    }

    fn btb_lookup(&self, pc: u64) -> Option<u64> {
        let (set, tag) = self.btb_slot(pc);
        let base = set * self.config.btb_ways;
        self.btb[base..base + self.config.btb_ways]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.target)
    }

    fn btb_insert(&mut self, pc: u64, target: u64) {
        let (set, tag) = self.btb_slot(pc);
        let base = set * self.config.btb_ways;
        let ways = &mut self.btb[base..base + self.config.btb_ways];
        // Hit: refresh.
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.lru = 0;
            return;
        }
        // Miss: replace invalid or LRU way.
        let victim = ways
            .iter_mut()
            .max_by_key(|e| if e.valid { e.lru } else { u8::MAX })
            .expect("btb has at least one way");
        *victim = BtbEntry {
            valid: true,
            tag,
            target,
            lru: 0,
        };
        // Age the others.
        for e in self.btb[base..base + self.config.btb_ways].iter_mut() {
            if e.valid && e.tag != tag {
                e.lru = e.lru.saturating_add(1);
            }
        }
    }

    /// Predicts the direction and target of a control-transfer instruction
    /// at `pc`.
    pub fn predict(&mut self, pc: u64, op: OpClass) -> Prediction {
        debug_assert!(op.is_branch());
        let target = match op {
            OpClass::Return => self.ras.last().copied(),
            _ => self.btb_lookup(pc),
        };
        let taken = if op.is_cond_branch() {
            let bimodal_taken = self.bimodal[self.bimodal_index(pc)] >= 2;
            let twolevel_taken = self.l2_pht[self.l2_index(pc)] >= 2;
            let use_twolevel = self.chooser[self.chooser_index(pc)] >= 2;
            if use_twolevel {
                twolevel_taken
            } else {
                bimodal_taken
            }
        } else {
            true
        };
        Prediction { taken, target }
    }

    /// Trains the predictor with the actual outcome of a branch and returns
    /// whether the earlier prediction (recomputed internally) was correct in
    /// both direction and target.
    ///
    /// The front end calls [`BranchPredictor::predict`] at fetch time and
    /// this method at resolve time with the actual outcome.
    pub fn update(
        &mut self,
        pc: u64,
        op: OpClass,
        prediction: Prediction,
        taken: bool,
        target: u64,
    ) -> bool {
        debug_assert!(op.is_branch());
        let mut correct = true;

        if op.is_cond_branch() {
            self.stats.direction_predictions += 1;
            if prediction.taken != taken {
                self.stats.direction_mispredictions += 1;
                correct = false;
            }
            // Train the component predictors and the chooser.
            let bimodal_idx = self.bimodal_index(pc);
            let l2_idx = self.l2_index(pc);
            let chooser_idx = self.chooser_index(pc);
            let bimodal_correct = (self.bimodal[bimodal_idx] >= 2) == taken;
            let twolevel_correct = (self.l2_pht[l2_idx] >= 2) == taken;
            if bimodal_correct != twolevel_correct {
                saturating_update(&mut self.chooser[chooser_idx], twolevel_correct);
            }
            saturating_update(&mut self.bimodal[bimodal_idx], taken);
            saturating_update(&mut self.l2_pht[l2_idx], taken);
            // Update the per-branch history register.
            let l1_idx = self.l1_index(pc);
            let mask = (1u16 << self.config.history_bits) - 1;
            self.l1_history[l1_idx] = ((self.l1_history[l1_idx] << 1) | u16::from(taken)) & mask;
        }

        if taken {
            let target_predicted = prediction.target == Some(target);
            if !target_predicted {
                self.stats.target_misses += 1;
                correct = false;
            }
            if op != OpClass::Return {
                self.btb_insert(pc, target);
            }
        }

        // Maintain the return-address stack.
        match op {
            OpClass::Call => {
                if self.ras.len() == self.config.ras_depth {
                    self.ras.remove(0);
                }
                self.ras.push(pc + 4);
            }
            OpClass::Return => {
                self.ras.pop();
            }
            _ => {}
        }

        correct
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new(BranchPredictorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern<F: Fn(u64) -> bool>(bp: &mut BranchPredictor, pc: u64, n: u64, f: F) -> f64 {
        let mut correct = 0;
        for i in 0..n {
            let taken = f(i);
            let pred = bp.predict(pc, OpClass::BranchCond);
            if bp.update(pc, OpClass::BranchCond, pred, taken, pc + 64) && pred.taken == taken {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }

    #[test]
    fn default_config_matches_table4() {
        let c = BranchPredictorConfig::default();
        assert_eq!(c.l1_entries, 1024);
        assert_eq!(c.history_bits, 10);
        assert_eq!(c.l2_entries, 1024);
        assert_eq!(c.bimodal_entries, 1024);
        assert_eq!(c.chooser_entries, 4096);
        assert_eq!(c.btb_sets, 4096);
        assert_eq!(c.btb_ways, 2);
    }

    #[test]
    fn always_taken_branch_is_learned() {
        let mut bp = BranchPredictor::default();
        let acc = run_pattern(&mut bp, 0x1000, 200, |_| true);
        assert!(acc > 0.95, "always-taken accuracy {acc}");
        assert!(bp.stats().accuracy() > 0.95);
    }

    #[test]
    fn always_not_taken_branch_is_learned() {
        let mut bp = BranchPredictor::default();
        // Warm up, then measure: a never-taken branch needs no BTB entry.
        let acc = run_pattern(&mut bp, 0x2000, 200, |_| false);
        assert!(acc > 0.95, "never-taken accuracy {acc}");
    }

    #[test]
    fn alternating_pattern_is_learned_by_history_predictor() {
        let mut bp = BranchPredictor::default();
        // Warm-up phase for history + chooser training.
        run_pattern(&mut bp, 0x3000, 200, |i| i % 2 == 0);
        let acc = run_pattern(&mut bp, 0x3000, 400, |i| i % 2 == 0);
        assert!(
            acc > 0.9,
            "two-level predictor should learn an alternating pattern, accuracy {acc}"
        );
    }

    #[test]
    fn loop_pattern_is_mostly_predictable() {
        // Taken 15 times then not taken once (a 16-iteration loop).
        let mut bp = BranchPredictor::default();
        run_pattern(&mut bp, 0x4000, 320, |i| i % 16 != 15);
        let acc = run_pattern(&mut bp, 0x4000, 640, |i| i % 16 != 15);
        assert!(acc > 0.85, "loop-branch accuracy {acc}");
    }

    #[test]
    fn random_pattern_accuracy_is_near_chance() {
        let mut bp = BranchPredictor::default();
        // Pseudo-random but deterministic pattern with ~50% taken rate,
        // produced by a bit-mixing finaliser so no short cycle exists for
        // the history predictor to latch onto.
        let mix = |mut x: u64| {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        };
        let acc = run_pattern(&mut bp, 0x5000, 2_000, |i| mix(i) % 2 == 0);
        assert!(
            acc < 0.75,
            "random branches should not be highly predictable, got {acc}"
        );
    }

    #[test]
    fn btb_provides_targets_after_first_taken_execution() {
        let mut bp = BranchPredictor::default();
        let pc = 0x6000;
        let pred = bp.predict(pc, OpClass::BranchUncond);
        assert_eq!(pred.target, None, "cold BTB cannot know the target");
        assert!(pred.taken);
        bp.update(pc, OpClass::BranchUncond, pred, true, 0x9000);
        let pred = bp.predict(pc, OpClass::BranchUncond);
        assert_eq!(pred.target, Some(0x9000));
        assert_eq!(bp.stats().target_misses, 1);
    }

    #[test]
    fn btb_conflict_evicts_lru_way() {
        let cfg = BranchPredictorConfig {
            btb_sets: 2,
            btb_ways: 2,
            ..Default::default()
        };
        let mut bp = BranchPredictor::new(cfg);
        // Three branches mapping to the same set (stride = 2 sets * 4 bytes).
        let pcs = [0x1000u64, 0x1008, 0x1010];
        for (i, &pc) in pcs.iter().enumerate() {
            let pred = bp.predict(pc, OpClass::BranchUncond);
            bp.update(
                pc,
                OpClass::BranchUncond,
                pred,
                true,
                0x100 * (i as u64 + 1),
            );
        }
        // The first PC should have been evicted by the third.
        let pred = bp.predict(pcs[0], OpClass::BranchUncond);
        assert_eq!(pred.target, None);
        // The most recent one is present.
        let pred = bp.predict(pcs[2], OpClass::BranchUncond);
        assert_eq!(pred.target, Some(0x300));
    }

    #[test]
    fn return_address_stack_pairs_calls_and_returns() {
        let mut bp = BranchPredictor::default();
        // call at 0x7000 -> return address 0x7004.
        let pred = bp.predict(0x7000, OpClass::Call);
        bp.update(0x7000, OpClass::Call, pred, true, 0x8000);
        let pred = bp.predict(0x8100, OpClass::Return);
        assert_eq!(pred.target, Some(0x7004));
        bp.update(0x8100, OpClass::Return, pred, true, 0x7004);
        // Stack is now empty again.
        let pred = bp.predict(0x8200, OpClass::Return);
        assert_eq!(pred.target, None);
    }

    #[test]
    fn ras_overflow_drops_oldest_entry() {
        let cfg = BranchPredictorConfig {
            ras_depth: 2,
            ..Default::default()
        };
        let mut bp = BranchPredictor::new(cfg);
        for pc in [0x100u64, 0x200, 0x300] {
            let pred = bp.predict(pc, OpClass::Call);
            bp.update(pc, OpClass::Call, pred, true, 0x1000);
        }
        let pred = bp.predict(0x1000, OpClass::Return);
        assert_eq!(pred.target, Some(0x304));
        bp.update(0x1000, OpClass::Return, pred, true, 0x304);
        let pred = bp.predict(0x1010, OpClass::Return);
        assert_eq!(pred.target, Some(0x204));
    }

    #[test]
    fn stats_accuracy_with_no_predictions_is_one() {
        let bp = BranchPredictor::default();
        assert_eq!(bp.stats().accuracy(), 1.0);
    }
}
