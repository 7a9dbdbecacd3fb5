//! Architectural registers of the synthetic ISA.
//!
//! The machine has 32 integer and 32 floating-point architectural
//! registers, as in the Alpha ISA simulated by the paper.  Register `r31`
//! / `f31` is the hard-wired zero register and never creates a dependence.

use serde::{Deserialize, Serialize};

/// Number of integer architectural registers.
pub const NUM_ARCH_INT_REGS: u8 = 32;
/// Number of floating-point architectural registers.
pub const NUM_ARCH_FP_REGS: u8 = 32;

/// Register class: integer or floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RegClass {
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

impl RegClass {
    /// Number of architectural registers in this class.
    pub fn arch_count(self) -> u8 {
        match self {
            RegClass::Int => NUM_ARCH_INT_REGS,
            RegClass::Fp => NUM_ARCH_FP_REGS,
        }
    }
}

/// An architectural register reference.
///
/// ```
/// use mcd_isa::{Reg, RegClass};
/// let r = Reg::int(5);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.index(), 5);
/// assert!(!r.is_zero());
/// assert!(Reg::int(31).is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reg {
    class: RegClass,
    index: u8,
}

impl Reg {
    /// Creates an integer register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn int(index: u8) -> Self {
        assert!(
            index < NUM_ARCH_INT_REGS,
            "integer register index out of range"
        );
        Reg {
            class: RegClass::Int,
            index,
        }
    }

    /// Creates a floating-point register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn fp(index: u8) -> Self {
        assert!(
            index < NUM_ARCH_FP_REGS,
            "floating-point register index out of range"
        );
        Reg {
            class: RegClass::Fp,
            index,
        }
    }

    /// The register class.
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The register index within its class.
    pub fn index(self) -> u8 {
        self.index
    }

    /// Whether this is the hard-wired zero register of its class
    /// (`r31`/`f31`), which never participates in dependences.
    pub fn is_zero(self) -> bool {
        self.index == 31
    }

    /// A dense index over both register files (0..64), useful for
    /// scoreboard arrays.
    pub fn dense_index(self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_ARCH_INT_REGS as usize + self.index as usize,
        }
    }

    /// Total number of dense indices ([`Reg::dense_index`] range).
    pub const DENSE_COUNT: usize = NUM_ARCH_INT_REGS as usize + NUM_ARCH_FP_REGS as usize;
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Fp => write!(f, "f{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let r = Reg::int(7);
        assert_eq!(r.class(), RegClass::Int);
        assert_eq!(r.index(), 7);
        let f = Reg::fp(12);
        assert_eq!(f.class(), RegClass::Fp);
        assert_eq!(f.index(), 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_index_out_of_range_panics() {
        let _ = Reg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_index_out_of_range_panics() {
        let _ = Reg::fp(40);
    }

    #[test]
    fn zero_registers() {
        assert!(Reg::int(31).is_zero());
        assert!(Reg::fp(31).is_zero());
        assert!(!Reg::int(0).is_zero());
    }

    #[test]
    fn dense_indices_are_unique_and_in_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..NUM_ARCH_INT_REGS {
            assert!(seen.insert(Reg::int(i).dense_index()));
        }
        for i in 0..NUM_ARCH_FP_REGS {
            assert!(seen.insert(Reg::fp(i).dense_index()));
        }
        assert_eq!(seen.len(), Reg::DENSE_COUNT);
        assert!(seen.iter().all(|&d| d < Reg::DENSE_COUNT));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg::int(3).to_string(), "r3");
        assert_eq!(Reg::fp(30).to_string(), "f30");
    }

    #[test]
    fn class_arch_counts() {
        assert_eq!(RegClass::Int.arch_count(), 32);
        assert_eq!(RegClass::Fp.arch_count(), 32);
    }

    #[test]
    fn ordering_is_total() {
        let a = Reg::int(1);
        let b = Reg::fp(0);
        assert!(a < b || b < a);
    }
}
