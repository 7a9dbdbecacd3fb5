//! Deterministic expansion of a [`WorkloadSpec`] into a dynamic instruction
//! stream.
//!
//! The generator produces instructions one phase at a time.  Within a
//! phase it draws the operation class from the phase's instruction mix,
//! assigns destination registers round-robin within each register class,
//! and picks source registers so that the register dependency *distance*
//! (how many dynamic instructions back the producer is) follows a geometric
//! distribution with the phase's configured mean — this is what controls
//! the exploitable ILP and therefore each domain's queue occupancy.
//! Memory addresses follow the phase's hot-set / streaming / pointer-chase
//! model and branch outcomes follow the per-PC bias model, so the cache and
//! branch-predictor substrates see realistic locality and predictability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mcd_isa::{BranchInfo, DynInst, InstructionStream, MemInfo, OpClass, Reg, SeqNum};

use crate::spec::{Phase, WorkloadSpec};

/// Base address of the synthetic data segment.
pub const DATA_BASE: u64 = 0x1000_0000;
/// Base address of the synthetic code segment.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Size of the synthetic code segment (see `next_inst`'s PC wrap-around).
pub const CODE_BYTES: u64 = 16 * 1024;
/// Distance from an odd (forward) branch site to its target.
pub(crate) const BRANCH_FORWARD_BYTES: u64 = 512;
/// Number of distinct integer destination registers used by the generator
/// (r1..=r28; r0, r29, r30 are treated as stable inputs, r31 is the zero
/// register).
const INT_DST_REGS: u8 = 28;
/// Number of distinct FP destination registers used by the generator.
const FP_DST_REGS: u8 = 28;

/// A deterministic, phase-structured instruction-stream generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    phases: Vec<(Phase, u64)>,
    /// Per phase, the log of the geometric dependency-distance draw's
    /// continuation probability (see [`WorkloadGenerator::dep_distance`]).
    dep_ln_q: Vec<f64>,
    phase_idx: usize,
    emitted_in_phase: u64,
    total_instructions: u64,
    emitted: u64,
    rng: StdRng,
    seq: SeqNum,
    pc: u64,
    /// Recent integer producers, indexed by how many instructions ago they
    /// were emitted (ring buffer of destination registers).
    recent_int_dst: Vec<Reg>,
    recent_fp_dst: Vec<Reg>,
    next_int_dst: u8,
    next_fp_dst: u8,
    /// Streaming pointer for sequential accesses.
    stream_addr: u64,
    /// Last load destination register (for pointer chasing).
    last_load_dst: Option<Reg>,
}

impl WorkloadGenerator {
    /// Creates a generator that will produce exactly `total_instructions`
    /// instructions for `spec`, deterministically derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation or `total_instructions` is zero.
    pub fn new(spec: &WorkloadSpec, seed: u64, total_instructions: u64) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid workload spec: {e}"));
        assert!(
            total_instructions > 0,
            "instruction budget must be positive"
        );
        let total_weight = spec.total_weight();
        let mut phases: Vec<(Phase, u64)> = Vec::with_capacity(spec.phases.len());
        let mut assigned = 0u64;
        for (i, p) in spec.phases.iter().enumerate() {
            let count = if i + 1 == spec.phases.len() {
                total_instructions - assigned
            } else {
                ((p.weight / total_weight) * total_instructions as f64).round() as u64
            };
            let count = count.min(total_instructions - assigned);
            assigned += count;
            phases.push((*p, count));
        }
        // Rounding may leave a remainder; give it to the last phase.
        if assigned < total_instructions {
            if let Some(last) = phases.last_mut() {
                last.1 += total_instructions - assigned;
            }
        }

        let dep_ln_q = phases
            .iter()
            .map(|(p, _)| {
                let mean = p.mean_dep_distance.max(1.0);
                (1.0 - 1.0 / mean).max(1e-9).ln()
            })
            .collect();

        WorkloadGenerator {
            phases,
            dep_ln_q,
            phase_idx: 0,
            emitted_in_phase: 0,
            total_instructions,
            emitted: 0,
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
            pc: CODE_BASE,
            recent_int_dst: Vec::with_capacity(64),
            recent_fp_dst: Vec::with_capacity(64),
            next_int_dst: 1,
            next_fp_dst: 1,
            stream_addr: DATA_BASE,
            last_load_dst: None,
        }
    }

    /// Memory regions `(base, length)` that a mid-execution simulation
    /// window would find resident in the cache hierarchy: the code segment
    /// and the first phase's hot data set (capped at 1 MiB, the L2
    /// capacity).  The experiment runner warms the simulator's caches with
    /// these regions so that short simulation windows are not dominated by
    /// cold-start misses the paper's long windows do not see.
    pub fn warm_regions(spec: &WorkloadSpec) -> Vec<(u64, u64)> {
        let mut regions = vec![(CODE_BASE, CODE_BYTES)];
        if let Some(first) = spec.phases.first() {
            let hot = first.memory.hot_set_bytes.min(1024 * 1024);
            regions.push((DATA_BASE, hot));
        }
        regions
    }

    /// Total instructions this generator will produce.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Index of the phase currently being generated.
    pub fn current_phase(&self) -> usize {
        self.phase_idx.min(self.phases.len().saturating_sub(1))
    }

    fn current_phase_spec(&self) -> &Phase {
        &self.phases[self.current_phase()].0
    }

    fn pick_op(&mut self) -> OpClass {
        let mix = self.current_phase_spec().mix;
        let total = mix.total();
        let mut x: f64 = self.rng.gen_range(0.0..total);
        let entries = [
            (OpClass::IntAlu, mix.int_alu),
            (OpClass::IntMult, mix.int_mul),
            (OpClass::FpAdd, mix.fp_add),
            (OpClass::FpMult, mix.fp_mul),
            (OpClass::FpDiv, mix.fp_div),
            (OpClass::Load, mix.load),
            (OpClass::Store, mix.store),
            (OpClass::BranchCond, mix.branch),
        ];
        for (op, w) in entries {
            if x < w {
                return op;
            }
            x -= w;
        }
        OpClass::IntAlu
    }

    /// Draws a dependency distance with approximately the configured mean
    /// (geometric distribution, minimum 1).
    fn dep_distance(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        ceil_distance(u.ln() / self.dep_ln_q[self.current_phase()])
    }

    /// Picks a source register from the recent producers of the given
    /// class, honouring the dependency-distance model.  Falls back to a
    /// stable input register when no producer exists yet.
    fn pick_src(&mut self, fp: bool) -> Reg {
        let dist = self.dep_distance();
        let recent = if fp {
            &self.recent_fp_dst
        } else {
            &self.recent_int_dst
        };
        if recent.is_empty() {
            return if fp { Reg::fp(29) } else { Reg::int(29) };
        }
        let idx = recent.len().saturating_sub(dist.min(recent.len()));
        recent[idx]
    }

    fn alloc_dst(&mut self, fp: bool) -> Reg {
        if fp {
            let r = Reg::fp(self.next_fp_dst);
            self.next_fp_dst = if self.next_fp_dst >= FP_DST_REGS {
                1
            } else {
                self.next_fp_dst + 1
            };
            if self.recent_fp_dst.len() == 64 {
                self.recent_fp_dst.remove(0);
            }
            self.recent_fp_dst.push(r);
            r
        } else {
            let r = Reg::int(self.next_int_dst);
            self.next_int_dst = if self.next_int_dst >= INT_DST_REGS {
                1
            } else {
                self.next_int_dst + 1
            };
            if self.recent_int_dst.len() == 64 {
                self.recent_int_dst.remove(0);
            }
            self.recent_int_dst.push(r);
            r
        }
    }

    fn pick_address(&mut self) -> (u64, bool) {
        let mem = self.current_phase_spec().memory;
        let r: f64 = self.rng.gen();
        let pointer_chase = self.rng.gen_bool(mem.pointer_chase_fraction);
        let addr = if r < mem.streaming_fraction {
            // Sequential streaming through the footprint at word granularity
            // (consecutive accesses share a cache line, as array walks do).
            self.stream_addr += 8;
            if self.stream_addr >= DATA_BASE + mem.footprint_bytes {
                self.stream_addr = DATA_BASE;
            }
            self.stream_addr
        } else if r < mem.streaming_fraction + mem.hot_fraction * (1.0 - mem.streaming_fraction) {
            // Hot-set access.
            DATA_BASE + self.rng.gen_range(0..mem.hot_set_bytes / 8) * 8
        } else {
            // Cold access anywhere in the footprint.
            DATA_BASE + self.rng.gen_range(0..mem.footprint_bytes / 8) * 8
        };
        (addr, pointer_chase)
    }

    fn gen_branch(&mut self, seq: SeqNum, pc: u64) -> DynInst {
        let b = self.current_phase_spec().branches;
        // Map this dynamic branch onto one of the static branch sites so the
        // predictor sees recurring PCs.
        let site = self.rng.gen_range(0..b.static_branches as u64);
        let branch_pc = CODE_BASE + site * 4;
        // Each static site has a fixed, deterministic direction; `taken_bias`
        // controls what fraction of the sites are taken-biased.  The per-site
        // direction comes from a hash of the site index so that sites which
        // alias in the predictor tables have uncorrelated biases.  With
        // probability `1 - predictability` the outcome is data dependent and
        // effectively random, so a trained predictor achieves roughly
        // `predictability + (1 - predictability) / 2` accuracy.
        let mut h = site.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 31;
        let site_bias = (h % 1000) as f64 / 1000.0 <= b.taken_bias;
        let taken = if self.rng.gen_bool(b.predictability) {
            site_bias
        } else {
            self.rng.gen_bool(0.5)
        };
        // Backward target for even sites (loops), forward for odd sites.
        let target = if site % 2 == 0 {
            branch_pc.saturating_sub(256)
        } else {
            branch_pc + BRANCH_FORWARD_BYTES
        };
        let src = self.pick_src(false);
        let _ = pc;
        DynInst::new(seq, branch_pc, OpClass::BranchCond)
            .with_srcs(&[src])
            .with_branch(BranchInfo::new(taken, target))
    }

    fn advance_phase(&mut self) {
        while self.phase_idx < self.phases.len()
            && self.emitted_in_phase >= self.phases[self.phase_idx].1
        {
            self.phase_idx += 1;
            self.emitted_in_phase = 0;
        }
    }
}

impl InstructionStream for WorkloadGenerator {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.emitted >= self.total_instructions {
            return None;
        }
        self.advance_phase();
        if self.phase_idx >= self.phases.len() {
            return None;
        }

        let seq = self.seq;
        let pc = self.pc;
        self.pc += 4;
        if self.pc >= CODE_BASE + 16 * 1024 {
            self.pc = CODE_BASE;
        }

        let op = self.pick_op();
        let inst = match op {
            OpClass::IntAlu | OpClass::IntMult => {
                let s1 = self.pick_src(false);
                let s2 = self.pick_src(false);
                let dst = self.alloc_dst(false);
                DynInst::new(seq, pc, op).with_dst(dst).with_srcs(&[s1, s2])
            }
            OpClass::FpAdd | OpClass::FpMult | OpClass::FpDiv => {
                let s1 = self.pick_src(true);
                let s2 = self.pick_src(true);
                let dst = self.alloc_dst(true);
                DynInst::new(seq, pc, op).with_dst(dst).with_srcs(&[s1, s2])
            }
            OpClass::Load => {
                let (addr, chase) = self.pick_address();
                // Pointer chasing: the address depends on the previous load.
                let addr_src = if chase {
                    self.last_load_dst.unwrap_or(Reg::int(29))
                } else {
                    self.pick_src(false)
                };
                // Roughly a quarter of loads feed the FP register file in FP
                // phases.
                let fp_dest =
                    self.current_phase_spec().mix.fp_fraction() > 0.05 && self.rng.gen_bool(0.4);
                let dst = self.alloc_dst(fp_dest);
                if !fp_dest {
                    self.last_load_dst = Some(dst);
                }
                DynInst::new(seq, pc, OpClass::Load)
                    .with_dst(dst)
                    .with_srcs(&[addr_src])
                    .with_mem(MemInfo::new(addr, 8))
            }
            OpClass::Store => {
                let (addr, _) = self.pick_address();
                let addr_src = self.pick_src(false);
                let data_src = self.pick_src(false);
                DynInst::new(seq, pc, OpClass::Store)
                    .with_srcs(&[addr_src, data_src])
                    .with_mem(MemInfo::new(addr, 8))
            }
            OpClass::BranchCond => self.gen_branch(seq, pc),
            _ => DynInst::new(seq, pc, OpClass::IntAlu).with_dst(self.alloc_dst(false)),
        };

        self.seq += 1;
        self.emitted += 1;
        self.emitted_in_phase += 1;
        Some(inst)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.total_instructions - self.emitted)
    }
}

/// `(x.ceil().max(1.0) as usize).min(64)` without `f64::ceil`, which is
/// an out-of-line call on the default x86-64 target: below 64 the
/// truncation plus one when it dropped a fraction is exact, and NaN or
/// anything not above zero yields 1.
fn ceil_distance(x: f64) -> usize {
    if x >= 64.0 {
        return 64;
    }
    let t = x as usize;
    (t + usize::from((t as f64) < x)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BranchBehavior, InstructionMix, MemoryBehavior, WorkloadSpec};
    use mcd_isa::StreamStats;

    fn simple_spec(mix: InstructionMix) -> WorkloadSpec {
        WorkloadSpec::new("unit", "test", vec![Phase::new(1.0, mix)], 1.0)
    }

    #[test]
    fn produces_exactly_the_requested_count_with_increasing_seqs() {
        let spec = simple_spec(InstructionMix::integer_code());
        let mut g = WorkloadGenerator::new(&spec, 1, 5_000);
        assert_eq!(g.total_instructions(), 5_000);
        let mut prev: Option<SeqNum> = None;
        let mut count = 0u64;
        while let Some(i) = g.next_inst() {
            i.validate().unwrap();
            if let Some(p) = prev {
                assert_eq!(i.seq, p + 1);
            }
            prev = Some(i.seq);
            count += 1;
        }
        assert_eq!(count, 5_000);
        assert!(g.next_inst().is_none());
        assert_eq!(g.remaining_hint(), Some(0));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = simple_spec(InstructionMix::integer_code());
        let mut a = WorkloadGenerator::new(&spec, 7, 2_000);
        let mut b = WorkloadGenerator::new(&spec, 7, 2_000);
        for _ in 0..2_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
        let mut c = WorkloadGenerator::new(&spec, 8, 2_000);
        let differs = (0..100).any(|_| {
            let mut a2 = WorkloadGenerator::new(&spec, 7, 100);
            let x = (0..50).map(|_| a2.next_inst()).last();
            let y = (0..50).map(|_| c.next_inst()).last();
            x != y
        });
        assert!(differs, "different seeds should give different streams");
    }

    #[test]
    fn mix_statistics_match_the_spec() {
        let spec = simple_spec(InstructionMix::integer_code());
        let mut g = WorkloadGenerator::new(&spec, 3, 50_000);
        let stats = StreamStats::gather(&mut g, u64::MAX);
        assert_eq!(stats.total, 50_000);
        // 26% loads, 12% stores, 18% branches with some tolerance.
        assert!((stats.loads as f64 / 50_000.0 - 0.26).abs() < 0.02);
        assert!((stats.stores as f64 / 50_000.0 - 0.12).abs() < 0.02);
        assert!((stats.cond_branches as f64 / 50_000.0 - 0.18).abs() < 0.02);
        assert_eq!(stats.fp_ops, 0);
    }

    #[test]
    fn fp_mix_produces_fp_operations() {
        let spec = simple_spec(InstructionMix::fp_code());
        let mut g = WorkloadGenerator::new(&spec, 3, 20_000);
        let stats = StreamStats::gather(&mut g, u64::MAX);
        assert!(
            stats.fp_fraction() > 0.2,
            "fp fraction {}",
            stats.fp_fraction()
        );
    }

    #[test]
    fn phases_change_behaviour_over_time() {
        // Phase 1: integer only.  Phase 2: FP burst.
        let spec = WorkloadSpec::new(
            "phased",
            "test",
            vec![
                Phase::new(0.5, InstructionMix::integer_code()),
                Phase::new(0.5, InstructionMix::fp_code()),
            ],
            1.0,
        );
        let mut g = WorkloadGenerator::new(&spec, 11, 20_000);
        let first_half = StreamStats::gather(&mut g, 10_000);
        let second_half = StreamStats::gather(&mut g, 10_000);
        assert_eq!(first_half.fp_ops, 0);
        assert!(second_half.fp_ops > 1_000);
    }

    #[test]
    fn memory_bound_spec_touches_many_more_lines() {
        let small = simple_spec(InstructionMix::integer_code());
        let mut big_phase = Phase::new(1.0, InstructionMix::pointer_chasing())
            .with_memory(MemoryBehavior::memory_bound());
        big_phase.branches = BranchBehavior::irregular();
        let big = WorkloadSpec::new("big", "test", vec![big_phase], 1.0);
        let mut gs = WorkloadGenerator::new(&small, 5, 20_000);
        let mut gb = WorkloadGenerator::new(&big, 5, 20_000);
        let ss = StreamStats::gather(&mut gs, u64::MAX);
        let sb = StreamStats::gather(&mut gb, u64::MAX);
        assert!(
            sb.distinct_lines > ss.distinct_lines * 3,
            "memory-bound workload should touch many more lines ({} vs {})",
            sb.distinct_lines,
            ss.distinct_lines
        );
    }

    #[test]
    fn branch_outcomes_follow_the_bias() {
        // Fully predictable branches with every site biased taken: every
        // conditional branch must be taken.
        let mut phase = Phase::new(1.0, InstructionMix::integer_code());
        phase.branches = BranchBehavior {
            predictability: 1.0,
            taken_bias: 1.0,
            static_branches: 4,
        };
        let spec = WorkloadSpec::new("biased", "test", vec![phase], 1.0);
        let mut g = WorkloadGenerator::new(&spec, 2, 20_000);
        let stats = StreamStats::gather(&mut g, u64::MAX);
        assert!(stats.cond_branches > 2_000);
        assert_eq!(stats.taken_cond_branches, stats.cond_branches);

        // With a 50% site bias the taken rate sits near one half.
        let mut phase = Phase::new(1.0, InstructionMix::integer_code());
        phase.branches = BranchBehavior {
            predictability: 1.0,
            taken_bias: 0.5,
            static_branches: 64,
        };
        let spec = WorkloadSpec::new("mixed", "test", vec![phase], 1.0);
        let mut g = WorkloadGenerator::new(&spec, 2, 20_000);
        let stats = StreamStats::gather(&mut g, u64::MAX);
        let rate = stats.taken_cond_branches as f64 / stats.cond_branches as f64;
        assert!(rate > 0.3 && rate < 0.7, "taken rate {rate}");
    }

    #[test]
    fn single_instruction_budget_works() {
        let spec = simple_spec(InstructionMix::integer_code());
        let mut g = WorkloadGenerator::new(&spec, 1, 1);
        assert!(g.next_inst().is_some());
        assert!(g.next_inst().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics() {
        let spec = simple_spec(InstructionMix::integer_code());
        let _ = WorkloadGenerator::new(&spec, 1, 0);
    }

    #[test]
    #[should_panic(expected = "invalid workload spec")]
    fn invalid_spec_panics() {
        let spec = WorkloadSpec::new("bad", "test", vec![], 0.0);
        let _ = WorkloadGenerator::new(&spec, 1, 10);
    }

    #[test]
    fn all_instructions_validate() {
        let spec = WorkloadSpec::new(
            "mixed",
            "test",
            vec![
                Phase::new(1.0, InstructionMix::fp_code())
                    .with_memory(MemoryBehavior::memory_bound()),
                Phase::new(1.0, InstructionMix::pointer_chasing())
                    .with_memory(MemoryBehavior::streaming()),
            ],
            1.0,
        );
        let mut g = WorkloadGenerator::new(&spec, 9, 10_000);
        while let Some(i) = g.next_inst() {
            i.validate().unwrap();
        }
    }

    #[test]
    fn ceil_distance_matches_the_ceil_formula() {
        let reference = |x: f64| (x.ceil().max(1.0) as usize).min(64);
        let mut inputs = vec![
            -0.0,
            f64::MIN_POSITIVE,
            -1.5,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in 0..=65 {
            let x = f64::from(k);
            inputs.extend([x, x.next_down(), x.next_up()]);
        }
        for x in inputs {
            assert_eq!(ceil_distance(x), reference(x), "x = {x:e}");
        }
    }
}
