//! Operation classes of the synthetic ISA.
//!
//! The classes mirror the functional-unit mix of the simulated Alpha
//! 21264-like processor (paper Table 4): four integer ALUs plus an integer
//! multiply/divide unit, two floating-point ALUs plus a floating-point
//! multiply/divide/square-root unit, and a load/store unit.

use serde::{Deserialize, Serialize};

/// The operation class of a dynamic instruction.
///
/// Each class maps to an execution resource class ([`ExecClass`]) and a
/// default execution latency expressed in cycles of the *executing* domain.
///
/// ```
/// use mcd_isa::OpClass;
/// assert_eq!(OpClass::IntAlu.latency(), 1);
/// assert!(OpClass::FpDiv.latency() > OpClass::FpAdd.latency());
/// assert!(OpClass::Load.is_mem());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer arithmetic / logic / shift / compare.
    IntAlu,
    /// Integer multiply.
    IntMult,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/subtract/compare/convert.
    FpAdd,
    /// Floating-point multiply.
    FpMult,
    /// Floating-point divide.
    FpDiv,
    /// Floating-point square root.
    FpSqrt,
    /// Memory load (integer or floating-point destination).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    BranchCond,
    /// Unconditional branch / jump.
    BranchUncond,
    /// Subroutine call.
    Call,
    /// Subroutine return.
    Return,
    /// No-operation (still occupies front-end and ROB resources).
    Nop,
}

/// Broad execution-resource class used by the issue and functional-unit
/// models to decide which queue an instruction is dispatched to and which
/// functional-unit pool executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecClass {
    /// Executed by the integer ALU pool (integer domain).
    IntAlu,
    /// Executed by the integer multiply/divide unit (integer domain).
    IntMultDiv,
    /// Executed by the floating-point ALU pool (floating-point domain).
    FpAlu,
    /// Executed by the floating-point multiply/divide/sqrt unit.
    FpMultDiv,
    /// Executed by the load/store unit (load/store domain).
    Mem,
    /// Branches execute on the integer ALU pool but additionally interact
    /// with the front end (resolution / redirect).
    Branch,
    /// No execution resource (NOPs complete immediately after dispatch).
    None,
}

impl OpClass {
    /// All operation classes, useful for exhaustive iteration in tests and
    /// in the power model.
    pub const ALL: [OpClass; 14] = [
        OpClass::IntAlu,
        OpClass::IntMult,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMult,
        OpClass::FpDiv,
        OpClass::FpSqrt,
        OpClass::Load,
        OpClass::Store,
        OpClass::BranchCond,
        OpClass::BranchUncond,
        OpClass::Call,
        OpClass::Return,
        OpClass::Nop,
    ];

    /// The execution-resource class of this operation.
    pub fn exec_class(self) -> ExecClass {
        match self {
            OpClass::IntAlu => ExecClass::IntAlu,
            OpClass::IntMult | OpClass::IntDiv => ExecClass::IntMultDiv,
            OpClass::FpAdd => ExecClass::FpAlu,
            OpClass::FpMult | OpClass::FpDiv | OpClass::FpSqrt => ExecClass::FpMultDiv,
            OpClass::Load | OpClass::Store => ExecClass::Mem,
            OpClass::BranchCond | OpClass::BranchUncond | OpClass::Call | OpClass::Return => {
                ExecClass::Branch
            }
            OpClass::Nop => ExecClass::None,
        }
    }

    /// Default execution latency in executing-domain cycles.
    ///
    /// Latencies follow the Alpha 21264 pipeline used as the model in the
    /// paper (integer ALU 1, integer multiply 7, FP add 4, FP multiply 4,
    /// divides and square roots are long and unpipelined).  Memory
    /// operations do not use this latency: their latency is determined by
    /// the cache hierarchy.
    pub fn latency(self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMult => 7,
            OpClass::IntDiv => 20,
            OpClass::FpAdd => 4,
            OpClass::FpMult => 4,
            OpClass::FpDiv => 12,
            OpClass::FpSqrt => 18,
            OpClass::Load => 1,
            OpClass::Store => 1,
            OpClass::BranchCond | OpClass::BranchUncond | OpClass::Call | OpClass::Return => 1,
            OpClass::Nop => 1,
        }
    }

    /// Whether the functional unit executing this operation is pipelined
    /// (can accept a new operation each cycle).  Divides and square roots
    /// are not pipelined, matching the 21264.
    pub fn pipelined(self) -> bool {
        !matches!(self, OpClass::IntDiv | OpClass::FpDiv | OpClass::FpSqrt)
    }

    /// True for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// True for all control-transfer instructions.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            OpClass::BranchCond | OpClass::BranchUncond | OpClass::Call | OpClass::Return
        )
    }

    /// True for conditional branches only (the ones the direction predictor
    /// must predict).
    pub fn is_cond_branch(self) -> bool {
        matches!(self, OpClass::BranchCond)
    }

    /// True if the operation executes in the floating-point domain.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMult | OpClass::FpDiv | OpClass::FpSqrt
        )
    }

    /// True if the operation executes in the integer domain (ALU and
    /// multiply/divide operations as well as branches, which resolve on the
    /// integer ALUs).
    pub fn is_int(self) -> bool {
        matches!(self, OpClass::IntAlu | OpClass::IntMult | OpClass::IntDiv) || self.is_branch()
    }

    /// A short lower-case mnemonic for reports and traces.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpClass::IntAlu => "alu",
            OpClass::IntMult => "mul",
            OpClass::IntDiv => "div",
            OpClass::FpAdd => "fadd",
            OpClass::FpMult => "fmul",
            OpClass::FpDiv => "fdiv",
            OpClass::FpSqrt => "fsqrt",
            OpClass::Load => "ld",
            OpClass::Store => "st",
            OpClass::BranchCond => "br",
            OpClass::BranchUncond => "jmp",
            OpClass::Call => "call",
            OpClass::Return => "ret",
            OpClass::Nop => "nop",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_class_partitions_ops() {
        for op in OpClass::ALL {
            let ec = op.exec_class();
            match ec {
                ExecClass::IntAlu | ExecClass::IntMultDiv => assert!(op.is_int()),
                ExecClass::FpAlu | ExecClass::FpMultDiv => assert!(op.is_fp()),
                ExecClass::Mem => assert!(op.is_mem()),
                ExecClass::Branch => assert!(op.is_branch()),
                ExecClass::None => assert_eq!(op, OpClass::Nop),
            }
        }
    }

    #[test]
    fn latencies_are_positive_and_ordered() {
        for op in OpClass::ALL {
            assert!(op.latency() >= 1, "{op} must have at least 1 cycle latency");
        }
        assert!(OpClass::IntMult.latency() > OpClass::IntAlu.latency());
        assert!(OpClass::IntDiv.latency() > OpClass::IntMult.latency());
        assert!(OpClass::FpDiv.latency() > OpClass::FpAdd.latency());
        assert!(OpClass::FpSqrt.latency() > OpClass::FpMult.latency());
    }

    #[test]
    fn unpipelined_ops_are_the_dividers() {
        let unpipelined: Vec<_> = OpClass::ALL.iter().filter(|o| !o.pipelined()).collect();
        assert_eq!(
            unpipelined,
            vec![&OpClass::IntDiv, &OpClass::FpDiv, &OpClass::FpSqrt]
        );
    }

    #[test]
    fn branch_classification() {
        assert!(OpClass::BranchCond.is_cond_branch());
        assert!(!OpClass::BranchUncond.is_cond_branch());
        assert!(OpClass::Call.is_branch());
        assert!(OpClass::Return.is_branch());
        assert!(!OpClass::Load.is_branch());
    }

    #[test]
    fn fp_and_int_are_disjoint() {
        for op in OpClass::ALL {
            assert!(
                !(op.is_fp() && op.is_int()),
                "{op} cannot be both integer and floating point"
            );
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in OpClass::ALL {
            assert!(
                seen.insert(op.mnemonic()),
                "duplicate mnemonic {}",
                op.mnemonic()
            );
        }
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(format!("{}", OpClass::FpSqrt), "fsqrt");
        assert_eq!(OpClass::Load.to_string(), "ld");
    }
}
