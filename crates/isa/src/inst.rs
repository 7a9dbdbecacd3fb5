//! Dynamic instruction records.
//!
//! A [`DynInst`] is one element of the dynamic instruction stream consumed
//! by the simulator: it corresponds to one *executed* instruction of the
//! workload, in program order, annotated with everything the timing model
//! needs (register dependences, memory address, branch outcome).

use serde::{Deserialize, Serialize};

use crate::op::OpClass;
use crate::reg::Reg;

/// Program-order sequence number of a dynamic instruction (0-based).
pub type SeqNum = u64;

/// Memory access annotation carried by loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemInfo {
    /// Effective (virtual = physical in this model) byte address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
}

impl MemInfo {
    /// Creates a new memory annotation.
    pub fn new(addr: u64, size: u8) -> Self {
        MemInfo { addr, size }
    }

    /// The cache-line address for a given line size (power of two).
    pub fn line_addr(&self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.addr & !(line_bytes - 1)
    }

    /// Log2 of the store address-match filter granule in bytes (8-byte
    /// granules: the widest access size, so any byte overlap implies a
    /// shared granule).  Canonical here so the LSQ's filter and the trace
    /// annotations compute identical masks.
    pub const FILTER_GRANULE_SHIFT: u64 = 3;

    /// The 64-bucket address-filter mask of this access: bit `b` is set
    /// exactly when the access's byte range covers filter bucket `b`
    /// (granule `g` maps to bucket `g % 64`).  An access of at most 255
    /// bytes covers at most 33 granules — fewer than the 64 buckets — so
    /// the covered bucket set is contiguous modulo 64 and no bucket is
    /// covered twice.
    #[inline]
    pub fn filter_mask64(&self) -> u64 {
        let first = self.addr >> Self::FILTER_GRANULE_SHIFT;
        let last = (self.addr + self.size.max(1) as u64 - 1) >> Self::FILTER_GRANULE_SHIFT;
        let width = last - first + 1;
        if width >= 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1).rotate_left((first % 64) as u32)
        }
    }

    /// Whether two accesses overlap in memory (byte granularity).
    pub fn overlaps(&self, other: &MemInfo) -> bool {
        let a0 = self.addr;
        let a1 = self.addr + self.size as u64;
        let b0 = other.addr;
        let b1 = other.addr + other.size as u64;
        a0 < b1 && b0 < a1
    }
}

/// Branch annotation carried by control-transfer instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Actual outcome: taken or not taken (always true for unconditional
    /// branches, calls and returns).
    pub taken: bool,
    /// Target program counter if taken.
    pub target: u64,
}

impl BranchInfo {
    /// Creates a new branch annotation.
    pub fn new(taken: bool, target: u64) -> Self {
        BranchInfo { taken, target }
    }
}

/// One dynamic (executed) instruction of the workload.
///
/// Instructions carry at most one destination register and up to three
/// source registers (stores use one source for data and address sources).
///
/// ```
/// use mcd_isa::{DynInst, OpClass, Reg, MemInfo};
///
/// let ld = DynInst::load(3, 0x400100, Reg::int(4), &[Reg::int(9)], MemInfo::new(0x8000, 8));
/// assert!(ld.is_mem());
/// assert_eq!(ld.mem.unwrap().addr, 0x8000);
/// assert_eq!(ld.sources().count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynInst {
    /// Program-order sequence number.
    pub seq: SeqNum,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers (unused slots are `None`).
    pub srcs: [Option<Reg>; 3],
    /// Memory annotation for loads/stores.
    pub mem: Option<MemInfo>,
    /// Branch annotation for control transfers.
    pub branch: Option<BranchInfo>,
}

impl DynInst {
    /// Creates a generic instruction record.  Prefer the specialised
    /// constructors ([`DynInst::alu`], [`DynInst::load`], ...) where
    /// possible.
    pub fn new(seq: SeqNum, pc: u64, op: OpClass) -> Self {
        DynInst {
            seq,
            pc,
            op,
            dst: None,
            srcs: [None; 3],
            mem: None,
            branch: None,
        }
    }

    /// Builder-style destination register setter.
    pub fn with_dst(mut self, dst: Reg) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Builder-style source register setter (sources beyond the third are
    /// ignored; the zero register is dropped as it never creates a
    /// dependence).
    pub fn with_srcs(mut self, srcs: &[Reg]) -> Self {
        let mut slot = 0;
        for &s in srcs {
            if s.is_zero() {
                continue;
            }
            if slot < 3 {
                self.srcs[slot] = Some(s);
                slot += 1;
            }
        }
        self
    }

    /// Builder-style memory annotation setter.
    pub fn with_mem(mut self, mem: MemInfo) -> Self {
        self.mem = Some(mem);
        self
    }

    /// Builder-style branch annotation setter.
    pub fn with_branch(mut self, branch: BranchInfo) -> Self {
        self.branch = Some(branch);
        self
    }

    /// Convenience constructor for an integer ALU operation.
    pub fn alu(seq: SeqNum, pc: u64, dst: Reg, srcs: &[Reg]) -> Self {
        DynInst::new(seq, pc, OpClass::IntAlu)
            .with_dst(dst)
            .with_srcs(srcs)
    }

    /// Convenience constructor for a floating-point add.
    pub fn fp_add(seq: SeqNum, pc: u64, dst: Reg, srcs: &[Reg]) -> Self {
        DynInst::new(seq, pc, OpClass::FpAdd)
            .with_dst(dst)
            .with_srcs(srcs)
    }

    /// Convenience constructor for a load.
    pub fn load(seq: SeqNum, pc: u64, dst: Reg, srcs: &[Reg], mem: MemInfo) -> Self {
        DynInst::new(seq, pc, OpClass::Load)
            .with_dst(dst)
            .with_srcs(srcs)
            .with_mem(mem)
    }

    /// Convenience constructor for a store.
    pub fn store(seq: SeqNum, pc: u64, srcs: &[Reg], mem: MemInfo) -> Self {
        DynInst::new(seq, pc, OpClass::Store)
            .with_srcs(srcs)
            .with_mem(mem)
    }

    /// Convenience constructor for a conditional branch.
    pub fn branch(seq: SeqNum, pc: u64, srcs: &[Reg], taken: bool, target: u64) -> Self {
        DynInst::new(seq, pc, OpClass::BranchCond)
            .with_srcs(srcs)
            .with_branch(BranchInfo::new(taken, target))
    }

    /// Iterator over the (non-zero) source registers.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// True for loads and stores.
    pub fn is_mem(&self) -> bool {
        self.op.is_mem()
    }

    /// True for loads.
    pub fn is_load(&self) -> bool {
        self.op == OpClass::Load
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        self.op == OpClass::Store
    }

    /// True for all control transfers.
    pub fn is_branch(&self) -> bool {
        self.op.is_branch()
    }

    /// True for floating-point operations.
    pub fn is_fp(&self) -> bool {
        self.op.is_fp()
    }

    /// True for integer (and branch) operations.
    pub fn is_int(&self) -> bool {
        self.op.is_int()
    }

    /// The fall-through program counter (next sequential instruction,
    /// assuming 4-byte fixed-width encoding).
    pub fn next_pc(&self) -> u64 {
        self.pc + 4
    }

    /// The actual next program counter considering the branch outcome.
    pub fn actual_next_pc(&self) -> u64 {
        match self.branch {
            Some(b) if b.taken => b.target,
            _ => self.next_pc(),
        }
    }

    /// Checks internal consistency of the record: memory annotation iff
    /// memory op, branch annotation iff branch op, loads have destinations,
    /// stores do not.
    pub fn validate(&self) -> Result<(), InstValidationError> {
        if self.is_mem() != self.mem.is_some() {
            return Err(InstValidationError::MemAnnotation(self.seq));
        }
        if self.is_branch() != self.branch.is_some() {
            return Err(InstValidationError::BranchAnnotation(self.seq));
        }
        if self.is_load() && self.dst.is_none() {
            return Err(InstValidationError::LoadWithoutDest(self.seq));
        }
        if self.is_store() && self.dst.is_some() {
            return Err(InstValidationError::StoreWithDest(self.seq));
        }
        if let Some(dst) = self.dst {
            let fp_dst = dst.class() == crate::reg::RegClass::Fp;
            if self.op.is_fp() && !fp_dst && !self.is_load() {
                return Err(InstValidationError::DestClassMismatch(self.seq));
            }
        }
        Ok(())
    }
}

/// Validation error produced by [`DynInst::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstValidationError {
    /// Memory annotation present/absent inconsistently with the op class.
    MemAnnotation(SeqNum),
    /// Branch annotation present/absent inconsistently with the op class.
    BranchAnnotation(SeqNum),
    /// A load without a destination register.
    LoadWithoutDest(SeqNum),
    /// A store with a destination register.
    StoreWithDest(SeqNum),
    /// Destination register class inconsistent with the op class.
    DestClassMismatch(SeqNum),
}

impl std::fmt::Display for InstValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstValidationError::MemAnnotation(s) => {
                write!(
                    f,
                    "instruction {s}: memory annotation inconsistent with op class"
                )
            }
            InstValidationError::BranchAnnotation(s) => {
                write!(
                    f,
                    "instruction {s}: branch annotation inconsistent with op class"
                )
            }
            InstValidationError::LoadWithoutDest(s) => {
                write!(f, "instruction {s}: load without destination register")
            }
            InstValidationError::StoreWithDest(s) => {
                write!(f, "instruction {s}: store with destination register")
            }
            InstValidationError::DestClassMismatch(s) => {
                write!(f, "instruction {s}: destination register class mismatch")
            }
        }
    }
}

impl std::error::Error for InstValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    #[test]
    fn builders_produce_valid_instructions() {
        let a = DynInst::alu(0, 0x1000, Reg::int(1), &[Reg::int(2), Reg::int(3)]);
        a.validate().unwrap();
        let l = DynInst::load(1, 0x1004, Reg::int(4), &[Reg::int(1)], MemInfo::new(64, 8));
        l.validate().unwrap();
        let s = DynInst::store(2, 0x1008, &[Reg::int(4), Reg::int(1)], MemInfo::new(64, 8));
        s.validate().unwrap();
        let b = DynInst::branch(3, 0x100c, &[Reg::int(4)], true, 0x1000);
        b.validate().unwrap();
        let f = DynInst::fp_add(4, 0x1010, Reg::fp(2), &[Reg::fp(0), Reg::fp(1)]);
        f.validate().unwrap();
    }

    #[test]
    fn zero_register_sources_are_dropped() {
        let a = DynInst::alu(0, 0, Reg::int(1), &[Reg::int(31), Reg::int(2)]);
        let srcs: Vec<_> = a.sources().collect();
        assert_eq!(srcs, vec![Reg::int(2)]);
    }

    #[test]
    fn more_than_three_sources_are_truncated() {
        let a = DynInst::new(0, 0, OpClass::IntAlu)
            .with_dst(Reg::int(1))
            .with_srcs(&[Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4)]);
        assert_eq!(a.sources().count(), 3);
    }

    #[test]
    fn validation_catches_missing_mem_annotation() {
        let bad = DynInst::new(9, 0, OpClass::Load).with_dst(Reg::int(1));
        assert_eq!(bad.validate(), Err(InstValidationError::MemAnnotation(9)));
    }

    #[test]
    fn validation_catches_store_with_dest() {
        let bad = DynInst::new(7, 0, OpClass::Store)
            .with_dst(Reg::int(1))
            .with_mem(MemInfo::new(0, 8));
        assert_eq!(bad.validate(), Err(InstValidationError::StoreWithDest(7)));
    }

    #[test]
    fn validation_catches_fp_dest_class_mismatch() {
        let bad = DynInst::new(5, 0, OpClass::FpMult)
            .with_dst(Reg::int(3))
            .with_srcs(&[Reg::fp(1)]);
        assert_eq!(
            bad.validate(),
            Err(InstValidationError::DestClassMismatch(5))
        );
        assert_eq!(Reg::int(3).class(), RegClass::Int);
    }

    #[test]
    fn next_pc_follows_branch_outcome() {
        let taken = DynInst::branch(0, 0x2000, &[], true, 0x3000);
        assert_eq!(taken.actual_next_pc(), 0x3000);
        let not_taken = DynInst::branch(1, 0x2000, &[], false, 0x3000);
        assert_eq!(not_taken.actual_next_pc(), 0x2004);
        let plain = DynInst::alu(2, 0x2004, Reg::int(1), &[]);
        assert_eq!(plain.actual_next_pc(), 0x2008);
    }

    #[test]
    fn mem_line_addr_and_overlap() {
        let m = MemInfo::new(0x1234, 8);
        assert_eq!(m.line_addr(64), 0x1200);
        assert!(m.overlaps(&MemInfo::new(0x1238, 4)));
        assert!(!m.overlaps(&MemInfo::new(0x123c, 4)));
        assert!(MemInfo::new(0x100, 4).overlaps(&MemInfo::new(0x102, 1)));
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = InstValidationError::LoadWithoutDest(3);
        assert!(e.to_string().contains("load"));
    }
}
