//! The microarchitectural structures tracked by the energy model and their
//! assignment to clock domains.

use mcd_clock::DomainId;
use serde::{Deserialize, Serialize};

/// A power-modelled hardware structure.
///
/// The list follows Wattch's breakdown of an Alpha 21264-like core, grouped
/// by the MCD domain each structure belongs to (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Structure {
    // Front-end domain.
    /// Branch predictor (direction tables + BTB).
    BranchPredictor,
    /// L1 instruction cache.
    L1ICache,
    /// Register rename logic.
    Rename,
    /// Reorder buffer.
    Rob,
    // Integer domain.
    /// Integer issue queue (wakeup + select).
    IntIssueQueue,
    /// Integer register file.
    IntRegFile,
    /// Integer ALUs and multiplier.
    IntAlu,
    // Floating-point domain.
    /// Floating-point issue queue.
    FpIssueQueue,
    /// Floating-point register file.
    FpRegFile,
    /// Floating-point ALUs and multiplier/divider.
    FpAlu,
    // Load/store domain.
    /// Load/store queue.
    Lsq,
    /// L1 data cache.
    L1DCache,
    /// Unified L2 cache.
    L2Cache,
    /// Result/bypass buses (charged per completed instruction).
    ResultBus,
    // Per-domain clock distribution (charged per domain cycle).
    /// Front-end clock grid and drivers.
    ClockFrontEnd,
    /// Integer-domain clock grid and drivers.
    ClockInteger,
    /// Floating-point-domain clock grid and drivers.
    ClockFloatingPoint,
    /// Load/store-domain clock grid and drivers.
    ClockLoadStore,
    /// External main memory (fixed voltage and frequency; excluded from the
    /// chip's voltage scaling).
    MainMemory,
}

impl Structure {
    /// All structures, in a stable order (used for reports).
    pub const ALL: [Structure; 19] = [
        Structure::BranchPredictor,
        Structure::L1ICache,
        Structure::Rename,
        Structure::Rob,
        Structure::IntIssueQueue,
        Structure::IntRegFile,
        Structure::IntAlu,
        Structure::FpIssueQueue,
        Structure::FpRegFile,
        Structure::FpAlu,
        Structure::Lsq,
        Structure::L1DCache,
        Structure::L2Cache,
        Structure::ResultBus,
        Structure::ClockFrontEnd,
        Structure::ClockInteger,
        Structure::ClockFloatingPoint,
        Structure::ClockLoadStore,
        Structure::MainMemory,
    ];

    /// Dense index of the structure (its position in [`Structure::ALL`]);
    /// `ALL` lists the variants in declaration order, so the cast is exact.
    /// Used by the energy account for O(1) table lookups on the simulator's
    /// hot path.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The clock domain the structure belongs to (determines which voltage
    /// scales its energy).
    pub fn domain(self) -> DomainId {
        match self {
            Structure::BranchPredictor
            | Structure::L1ICache
            | Structure::Rename
            | Structure::Rob
            | Structure::ClockFrontEnd => DomainId::FrontEnd,
            Structure::IntIssueQueue
            | Structure::IntRegFile
            | Structure::IntAlu
            | Structure::ClockInteger => DomainId::Integer,
            Structure::FpIssueQueue
            | Structure::FpRegFile
            | Structure::FpAlu
            | Structure::ClockFloatingPoint => DomainId::FloatingPoint,
            Structure::Lsq
            | Structure::L1DCache
            | Structure::L2Cache
            | Structure::ClockLoadStore => DomainId::LoadStore,
            // The result bus spans domains; we charge it to the front end
            // (it is clocked with completion traffic arriving at the ROB).
            Structure::ResultBus => DomainId::FrontEnd,
            Structure::MainMemory => DomainId::External,
        }
    }

    /// Whether this structure is part of the clock-distribution network
    /// (the part the MCD design makes 10% more expensive).
    pub fn is_clock(self) -> bool {
        matches!(
            self,
            Structure::ClockFrontEnd
                | Structure::ClockInteger
                | Structure::ClockFloatingPoint
                | Structure::ClockLoadStore
        )
    }

    /// The clock structure of a given on-chip domain.
    pub fn clock_of(domain: DomainId) -> Option<Structure> {
        match domain {
            DomainId::FrontEnd => Some(Structure::ClockFrontEnd),
            DomainId::Integer => Some(Structure::ClockInteger),
            DomainId::FloatingPoint => Some(Structure::ClockFloatingPoint),
            DomainId::LoadStore => Some(Structure::ClockLoadStore),
            DomainId::External => None,
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Structure::BranchPredictor => "bpred",
            Structure::L1ICache => "l1i",
            Structure::Rename => "rename",
            Structure::Rob => "rob",
            Structure::IntIssueQueue => "int-iq",
            Structure::IntRegFile => "int-regfile",
            Structure::IntAlu => "int-alu",
            Structure::FpIssueQueue => "fp-iq",
            Structure::FpRegFile => "fp-regfile",
            Structure::FpAlu => "fp-alu",
            Structure::Lsq => "lsq",
            Structure::L1DCache => "l1d",
            Structure::L2Cache => "l2",
            Structure::ResultBus => "result-bus",
            Structure::ClockFrontEnd => "clock-fe",
            Structure::ClockInteger => "clock-int",
            Structure::ClockFloatingPoint => "clock-fp",
            Structure::ClockLoadStore => "clock-ls",
            Structure::MainMemory => "main-memory",
        }
    }
}

impl std::fmt::Display for Structure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_structure_has_a_domain_and_unique_name() {
        let mut names = std::collections::BTreeSet::new();
        for s in Structure::ALL {
            let _ = s.domain();
            assert!(names.insert(s.name()), "duplicate name {}", s.name());
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(names.len(), Structure::ALL.len());
    }

    #[test]
    fn clock_structures_cover_all_on_chip_domains() {
        for d in mcd_clock::ON_CHIP_DOMAINS {
            let c = Structure::clock_of(d).unwrap();
            assert!(c.is_clock());
            assert_eq!(c.domain(), d);
        }
        assert_eq!(Structure::clock_of(DomainId::External), None);
        assert_eq!(Structure::ALL.iter().filter(|s| s.is_clock()).count(), 4);
    }

    #[test]
    fn all_lists_variants_in_declaration_order() {
        // `Structure::index()` is the enum discriminant; the energy
        // account indexes its dense arrays with it while `breakdown()`
        // zips them against `ALL` order.  These stay interchangeable only
        // while `ALL` lists the variants in declaration order — this test
        // pins that invariant so inserting a variant mid-enum (or
        // reordering `ALL`) fails loudly instead of silently
        // misattributing energy.
        for (position, s) in Structure::ALL.iter().enumerate() {
            assert_eq!(
                s.index(),
                position,
                "Structure::ALL[{position}] = {s} is out of declaration order"
            );
        }
    }

    #[test]
    fn domain_assignment_matches_figure_1() {
        assert_eq!(Structure::L1ICache.domain(), DomainId::FrontEnd);
        assert_eq!(Structure::BranchPredictor.domain(), DomainId::FrontEnd);
        assert_eq!(Structure::Rob.domain(), DomainId::FrontEnd);
        assert_eq!(Structure::IntIssueQueue.domain(), DomainId::Integer);
        assert_eq!(Structure::FpAlu.domain(), DomainId::FloatingPoint);
        assert_eq!(Structure::L1DCache.domain(), DomainId::LoadStore);
        assert_eq!(Structure::L2Cache.domain(), DomainId::LoadStore);
        assert_eq!(Structure::MainMemory.domain(), DomainId::External);
    }
}
