//! Workload specifications: the parameterised description of a benchmark's
//! dynamic behaviour.

use serde::{Deserialize, Serialize};

use crate::generator::{BRANCH_FORWARD_BYTES, CODE_BASE, DATA_BASE};

/// Largest accepted [`MemoryBehavior::footprint_bytes`] (3.75 GiB).  The
/// generator draws every data address below `DATA_BASE + footprint_bytes`,
/// so with this cap each address fits the 32 bits a shared trace stores.
pub const MAX_FOOTPRINT_BYTES: u64 = (1 << 32) - DATA_BASE;

/// Largest accepted [`BranchBehavior::static_branches`] (about 2^30).
/// Branch site `i` sits at `CODE_BASE + 4 i`, and an odd site's target
/// lies `BRANCH_FORWARD_BYTES` beyond it, so with this cap every branch PC
/// and target fits the 32 bits a shared trace stores.
pub const MAX_STATIC_BRANCHES: usize =
    ((u32::MAX as u64 - CODE_BASE - BRANCH_FORWARD_BYTES) / 4 + 1) as usize;

/// Fractions of each instruction class in the dynamic stream of a phase.
/// The fields need not sum exactly to one; they are normalised by the
/// generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// Integer ALU operations.
    pub int_alu: f64,
    /// Integer multiply/divide.
    pub int_mul: f64,
    /// Floating-point add/compare.
    pub fp_add: f64,
    /// Floating-point multiply.
    pub fp_mul: f64,
    /// Floating-point divide/sqrt.
    pub fp_div: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Conditional branches.
    pub branch: f64,
}

impl InstructionMix {
    /// A typical integer-code mix (no floating point).
    pub fn integer_code() -> Self {
        InstructionMix {
            int_alu: 0.42,
            int_mul: 0.02,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.26,
            store: 0.12,
            branch: 0.18,
        }
    }

    /// A floating-point-heavy loop-nest mix.
    pub fn fp_code() -> Self {
        InstructionMix {
            int_alu: 0.22,
            int_mul: 0.01,
            fp_add: 0.18,
            fp_mul: 0.14,
            fp_div: 0.01,
            load: 0.26,
            store: 0.10,
            branch: 0.08,
        }
    }

    /// A pointer-chasing mix (loads dominate, few stores, moderate
    /// branches).
    pub fn pointer_chasing() -> Self {
        InstructionMix {
            int_alu: 0.34,
            int_mul: 0.01,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.36,
            store: 0.09,
            branch: 0.20,
        }
    }

    /// The sum of all fractions (used for normalisation).
    pub fn total(&self) -> f64 {
        self.int_alu
            + self.int_mul
            + self.fp_add
            + self.fp_mul
            + self.fp_div
            + self.load
            + self.store
            + self.branch
    }

    /// The floating-point fraction after normalisation.
    pub fn fp_fraction(&self) -> f64 {
        (self.fp_add + self.fp_mul + self.fp_div) / self.total()
    }

    /// The memory fraction after normalisation.
    pub fn mem_fraction(&self) -> f64 {
        (self.load + self.store) / self.total()
    }

    /// Validates that all fractions are non-negative and at least one is
    /// positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            self.int_alu,
            self.int_mul,
            self.fp_add,
            self.fp_mul,
            self.fp_div,
            self.load,
            self.store,
            self.branch,
        ];
        if parts.iter().any(|p| *p < 0.0) {
            return Err("instruction mix fractions must be non-negative".into());
        }
        if self.total() <= 0.0 {
            return Err("instruction mix must have a positive total".into());
        }
        Ok(())
    }
}

/// Memory-access behaviour of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    /// Total data footprint in bytes (addresses are drawn from this range).
    pub footprint_bytes: u64,
    /// Size of the "hot" subset that captures most accesses.
    pub hot_set_bytes: u64,
    /// Fraction of accesses that go to the hot set (temporal locality).
    pub hot_fraction: f64,
    /// Fraction of accesses that continue a sequential stride through the
    /// footprint (spatial locality / streaming).
    pub streaming_fraction: f64,
    /// Fraction of loads whose address depends on the value of the previous
    /// load (pointer chasing); these are generated with a load-to-load
    /// dependence.
    pub pointer_chase_fraction: f64,
}

impl MemoryBehavior {
    /// Cache-friendly behaviour: everything fits in the L1.
    pub fn cache_resident() -> Self {
        MemoryBehavior {
            footprint_bytes: 32 * 1024,
            hot_set_bytes: 16 * 1024,
            hot_fraction: 0.9,
            streaming_fraction: 0.3,
            pointer_chase_fraction: 0.0,
        }
    }

    /// Memory-bound behaviour: a multi-megabyte footprint with poor
    /// locality.
    pub fn memory_bound() -> Self {
        MemoryBehavior {
            footprint_bytes: 16 * 1024 * 1024,
            hot_set_bytes: 256 * 1024,
            hot_fraction: 0.5,
            streaming_fraction: 0.1,
            pointer_chase_fraction: 0.35,
        }
    }

    /// Streaming behaviour: a working set walked sequentially (fits in the
    /// L2, as the multimedia kernels of MediaBench do).
    pub fn streaming() -> Self {
        MemoryBehavior {
            footprint_bytes: 512 * 1024,
            hot_set_bytes: 64 * 1024,
            hot_fraction: 0.5,
            streaming_fraction: 0.8,
            pointer_chase_fraction: 0.0,
        }
    }

    /// Validates ranges (fractions in [0, 1], a hot set of at least 8
    /// bytes within the footprint, footprint at most
    /// [`MAX_FOOTPRINT_BYTES`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        // The generator draws 8-byte-aligned addresses from both ranges,
        // so each must hold at least one word.
        if self.footprint_bytes < 8 || self.hot_set_bytes < 8 {
            return Err("memory footprint and hot set must be at least 8 bytes".into());
        }
        if self.hot_set_bytes > self.footprint_bytes {
            return Err("hot set cannot exceed the footprint".into());
        }
        if self.footprint_bytes > MAX_FOOTPRINT_BYTES {
            return Err(format!(
                "memory footprint cannot exceed {MAX_FOOTPRINT_BYTES} bytes"
            ));
        }
        for (name, f) in [
            ("hot_fraction", self.hot_fraction),
            ("streaming_fraction", self.streaming_fraction),
            ("pointer_chase_fraction", self.pointer_chase_fraction),
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{name} must lie in [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Branch behaviour of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchBehavior {
    /// Fraction of conditional branches whose outcome follows the branch's
    /// fixed per-PC bias (the rest are effectively random).
    pub predictability: f64,
    /// Probability that a biased branch is taken.
    pub taken_bias: f64,
    /// Number of distinct static branches (code footprint); affects
    /// predictor aliasing.
    pub static_branches: usize,
}

impl BranchBehavior {
    /// Highly predictable loop-dominated code (multimedia kernels).
    pub fn predictable() -> Self {
        BranchBehavior {
            predictability: 0.97,
            taken_bias: 0.75,
            static_branches: 64,
        }
    }

    /// Data-dependent control flow (e.g. compression, compilers).
    pub fn irregular() -> Self {
        BranchBehavior {
            predictability: 0.80,
            taken_bias: 0.6,
            static_branches: 512,
        }
    }

    /// Validates ranges (probabilities in [0, 1], between one and
    /// [`MAX_STATIC_BRANCHES`] static branches).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.predictability) || !(0.0..=1.0).contains(&self.taken_bias) {
            return Err("branch probabilities must lie in [0, 1]".into());
        }
        if self.static_branches == 0 {
            return Err("at least one static branch is required".into());
        }
        if self.static_branches > MAX_STATIC_BRANCHES {
            return Err(format!(
                "at most {MAX_STATIC_BRANCHES} static branches are allowed"
            ));
        }
        Ok(())
    }
}

/// One phase of a workload: a contiguous stretch of execution with uniform
/// statistical behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Relative weight (fraction of the total instruction count; weights
    /// are normalised).
    pub weight: f64,
    /// Instruction mix of the phase.
    pub mix: InstructionMix,
    /// Memory behaviour of the phase.
    pub memory: MemoryBehavior,
    /// Branch behaviour of the phase.
    pub branches: BranchBehavior,
    /// Mean register dependency distance: how many instructions back the
    /// average source operand's producer is (small = serial, large =
    /// abundant ILP).
    pub mean_dep_distance: f64,
}

impl Phase {
    /// A generic compute phase with the given mix.
    pub fn new(weight: f64, mix: InstructionMix) -> Self {
        Phase {
            weight,
            mix,
            memory: MemoryBehavior::cache_resident(),
            branches: BranchBehavior::predictable(),
            mean_dep_distance: 6.0,
        }
    }

    /// Builder-style memory behaviour setter.
    pub fn with_memory(mut self, memory: MemoryBehavior) -> Self {
        self.memory = memory;
        self
    }

    /// Builder-style branch behaviour setter.
    pub fn with_branches(mut self, branches: BranchBehavior) -> Self {
        self.branches = branches;
        self
    }

    /// Builder-style dependency-distance setter.
    pub fn with_dep_distance(mut self, mean: f64) -> Self {
        self.mean_dep_distance = mean;
        self
    }

    /// Validates all sub-specifications.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.weight <= 0.0 {
            return Err("phase weight must be positive".into());
        }
        if self.mean_dep_distance < 1.0 {
            return Err("mean dependency distance must be at least 1".into());
        }
        self.mix.validate()?;
        self.memory.validate()?;
        self.branches.validate()
    }
}

/// A complete workload specification: an ordered list of phases plus
/// identification metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name (e.g. `"epic decode"`).
    pub name: String,
    /// Suite name (e.g. `"MediaBench"`).
    pub suite: String,
    /// Ordered phases.
    pub phases: Vec<Phase>,
    /// The simulation-window length the paper uses for this benchmark
    /// (informational; runs may use any instruction budget).
    pub paper_window_minstr: f64,
}

impl WorkloadSpec {
    /// Creates a spec.
    pub fn new(
        name: impl Into<String>,
        suite: impl Into<String>,
        phases: Vec<Phase>,
        paper_window_minstr: f64,
    ) -> Self {
        WorkloadSpec {
            name: name.into(),
            suite: suite.into(),
            phases,
            paper_window_minstr,
        }
    }

    /// Validates the spec (at least one phase, all phases valid).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("workload {} has no phases", self.name));
        }
        for (i, p) in self.phases.iter().enumerate() {
            p.validate()
                .map_err(|e| format!("workload {} phase {i}: {e}", self.name))?;
        }
        Ok(())
    }

    /// Whether `self` and `other` generate the same instruction stream for
    /// any seed and budget: their phases are equal.
    ///
    /// [`crate::WorkloadGenerator::new`] and
    /// [`crate::WorkloadGenerator::warm_regions`] read nothing of a spec
    /// but its phases (the name appears only in validation messages), so
    /// `name`, `suite` and `paper_window_minstr` never change a trace or
    /// a run.
    pub fn same_stream(&self, other: &WorkloadSpec) -> bool {
        self.phases == other.phases
    }

    /// Total phase weight (for normalisation).
    pub fn total_weight(&self) -> f64 {
        self.phases.iter().map(|p| p.weight).sum()
    }

    /// The average FP fraction across phases, weighted by phase length.
    pub fn avg_fp_fraction(&self) -> f64 {
        let tw = self.total_weight();
        self.phases
            .iter()
            .map(|p| p.weight / tw * p.mix.fp_fraction())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_mixes_are_valid_and_distinct() {
        for mix in [
            InstructionMix::integer_code(),
            InstructionMix::fp_code(),
            InstructionMix::pointer_chasing(),
        ] {
            mix.validate().unwrap();
            assert!(mix.total() > 0.9 && mix.total() < 1.1);
        }
        assert_eq!(InstructionMix::integer_code().fp_fraction(), 0.0);
        assert!(InstructionMix::fp_code().fp_fraction() > 0.25);
        assert!(InstructionMix::pointer_chasing().mem_fraction() > 0.4);
    }

    #[test]
    fn invalid_mix_is_rejected() {
        let mut m = InstructionMix::integer_code();
        m.load = -0.1;
        assert!(m.validate().is_err());
        let zero = InstructionMix {
            int_alu: 0.0,
            int_mul: 0.0,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.0,
            store: 0.0,
            branch: 0.0,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn memory_presets_are_valid() {
        for m in [
            MemoryBehavior::cache_resident(),
            MemoryBehavior::memory_bound(),
            MemoryBehavior::streaming(),
        ] {
            m.validate().unwrap();
        }
        assert!(MemoryBehavior::memory_bound().footprint_bytes > 4 * 1024 * 1024);
    }

    #[test]
    fn invalid_memory_behaviour_is_rejected() {
        let mut m = MemoryBehavior::cache_resident();
        m.hot_set_bytes = m.footprint_bytes * 2;
        assert!(m.validate().is_err());
        let mut m = MemoryBehavior::cache_resident();
        m.hot_fraction = 1.5;
        assert!(m.validate().is_err());
        let mut m = MemoryBehavior::cache_resident();
        m.footprint_bytes = 0;
        assert!(m.validate().is_err());
        // A range below one 8-byte word leaves the generator nothing to draw.
        let mut m = MemoryBehavior::cache_resident();
        m.hot_set_bytes = 7;
        assert!(m.validate().is_err());
        m.hot_set_bytes = 8;
        m.validate().unwrap();
        m.footprint_bytes = 8;
        m.validate().unwrap();
    }

    #[test]
    fn footprint_cap_accepts_its_limit_and_rejects_one_past() {
        let mut m = MemoryBehavior::cache_resident();
        m.footprint_bytes = MAX_FOOTPRINT_BYTES;
        m.validate().unwrap();
        assert_eq!(DATA_BASE + MAX_FOOTPRINT_BYTES - 1, u32::MAX as u64);
        m.footprint_bytes = MAX_FOOTPRINT_BYTES + 1;
        assert!(m.validate().unwrap_err().contains("footprint"));
        m.footprint_bytes = u64::MAX;
        assert!(m.validate().is_err());
    }

    #[test]
    fn static_branch_cap_accepts_its_limit_and_rejects_one_past() {
        let mut b = BranchBehavior::irregular();
        b.static_branches = MAX_STATIC_BRANCHES;
        b.validate().unwrap();
        let last_pc = CODE_BASE + 4 * (MAX_STATIC_BRANCHES as u64 - 1);
        assert!(last_pc + BRANCH_FORWARD_BYTES <= u32::MAX as u64);
        assert!(last_pc + 4 + BRANCH_FORWARD_BYTES > u32::MAX as u64);
        b.static_branches = MAX_STATIC_BRANCHES + 1;
        assert!(b.validate().unwrap_err().contains("static branches"));
        b.static_branches = usize::MAX;
        assert!(b.validate().is_err());
    }

    #[test]
    fn caps_sit_well_above_every_preset() {
        for bench in crate::Benchmark::ALL {
            for p in &bench.spec().phases {
                assert!(p.memory.footprint_bytes * 64 <= MAX_FOOTPRINT_BYTES);
                assert!(p.branches.static_branches * 1024 <= MAX_STATIC_BRANCHES);
            }
        }
    }

    #[test]
    fn branch_presets_are_valid() {
        BranchBehavior::predictable().validate().unwrap();
        BranchBehavior::irregular().validate().unwrap();
        let mut b = BranchBehavior::predictable();
        b.predictability = -0.1;
        assert!(b.validate().is_err());
        b = BranchBehavior::predictable();
        b.static_branches = 0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn phase_builder_and_validation() {
        let p = Phase::new(1.0, InstructionMix::fp_code())
            .with_memory(MemoryBehavior::streaming())
            .with_branches(BranchBehavior::predictable())
            .with_dep_distance(10.0);
        p.validate().unwrap();
        assert_eq!(p.mean_dep_distance, 10.0);
        let bad = Phase::new(0.0, InstructionMix::integer_code());
        assert!(bad.validate().is_err());
        let bad = Phase::new(1.0, InstructionMix::integer_code()).with_dep_distance(0.5);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn workload_spec_validation_and_aggregates() {
        let spec = WorkloadSpec::new(
            "test",
            "unit",
            vec![
                Phase::new(1.0, InstructionMix::integer_code()),
                Phase::new(1.0, InstructionMix::fp_code()),
            ],
            10.0,
        );
        spec.validate().unwrap();
        assert!((spec.total_weight() - 2.0).abs() < 1e-12);
        let fp = spec.avg_fp_fraction();
        assert!(fp > 0.1 && fp < 0.3, "average of 0 and ~0.33, got {fp}");

        let empty = WorkloadSpec::new("empty", "unit", vec![], 0.0);
        assert!(empty.validate().is_err());
    }
}
