//! Clock-domain identifiers.
//!
//! The MCD processor of the paper (Figure 1) is partitioned into four
//! on-chip domains plus the externally clocked main memory:
//!
//! * **Front end** — L1 I-cache, branch prediction, rename, dispatch, ROB.
//! * **Integer** — integer issue queue, integer ALUs and register file.
//! * **Floating point** — FP issue queue, FP ALUs and register file.
//! * **Load/store** — load/store queue, L1 D-cache, unified L2 cache.
//! * **External** — main memory; independently clocked but *not*
//!   controllable by the processor (always at its maximum frequency).

use serde::{Deserialize, Serialize};

/// Identifier of a clock domain in the MCD processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DomainId {
    /// Front end: fetch, branch prediction, rename, dispatch, ROB/commit.
    FrontEnd,
    /// Integer issue/execute core.
    Integer,
    /// Floating-point issue/execute core.
    FloatingPoint,
    /// Load/store unit, L1 D-cache and L2 cache.
    LoadStore,
    /// External main memory (fixed frequency, not controllable).
    External,
}

/// The four on-chip domains, in canonical order.
pub const ON_CHIP_DOMAINS: [DomainId; 4] = [
    DomainId::FrontEnd,
    DomainId::Integer,
    DomainId::FloatingPoint,
    DomainId::LoadStore,
];

/// The domains whose frequency/voltage the control algorithm may adjust.
///
/// The paper fixes the front end at the maximum frequency ("we use a fixed
/// frequency for the front end"), so only the integer, floating-point and
/// load/store domains are dynamically controlled.
pub const CONTROLLABLE_DOMAINS: [DomainId; 3] = [
    DomainId::Integer,
    DomainId::FloatingPoint,
    DomainId::LoadStore,
];

impl DomainId {
    /// All five domains including external memory.
    pub const ALL: [DomainId; 5] = [
        DomainId::FrontEnd,
        DomainId::Integer,
        DomainId::FloatingPoint,
        DomainId::LoadStore,
        DomainId::External,
    ];

    /// A dense index (0..5) for array-based per-domain state.
    pub fn index(self) -> usize {
        match self {
            DomainId::FrontEnd => 0,
            DomainId::Integer => 1,
            DomainId::FloatingPoint => 2,
            DomainId::LoadStore => 3,
            DomainId::External => 4,
        }
    }

    /// The inverse of [`DomainId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 5`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// Whether this domain lives on the processor die.
    pub fn is_on_chip(self) -> bool {
        self != DomainId::External
    }

    /// Whether the frequency-control algorithm is allowed to scale this
    /// domain (integer, floating point and load/store only).
    pub fn is_controllable(self) -> bool {
        CONTROLLABLE_DOMAINS.contains(&self)
    }

    /// Whether this domain has an input queue whose occupancy drives the
    /// Attack/Decay algorithm (the front end has no such queue, which is one
    /// of the reasons the paper keeps it at a fixed frequency).
    pub fn has_input_queue(self) -> bool {
        matches!(
            self,
            DomainId::Integer | DomainId::FloatingPoint | DomainId::LoadStore
        )
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DomainId::FrontEnd => "front-end",
            DomainId::Integer => "integer",
            DomainId::FloatingPoint => "floating-point",
            DomainId::LoadStore => "load-store",
            DomainId::External => "external-memory",
        }
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_roundtrip() {
        for d in DomainId::ALL {
            assert_eq!(DomainId::from_index(d.index()), d);
        }
    }

    #[test]
    fn on_chip_domains_exclude_external() {
        assert_eq!(ON_CHIP_DOMAINS.len(), 4);
        assert!(!ON_CHIP_DOMAINS.contains(&DomainId::External));
        assert!(!DomainId::External.is_on_chip());
        assert!(DomainId::Integer.is_on_chip());
    }

    #[test]
    fn controllable_domains_match_paper() {
        // The paper fixes the front end at 1 GHz and cannot control memory.
        assert!(!DomainId::FrontEnd.is_controllable());
        assert!(!DomainId::External.is_controllable());
        assert!(DomainId::Integer.is_controllable());
        assert!(DomainId::FloatingPoint.is_controllable());
        assert!(DomainId::LoadStore.is_controllable());
    }

    #[test]
    fn queue_bearing_domains_are_the_controllable_ones() {
        for d in DomainId::ALL {
            assert_eq!(d.has_input_queue(), d.is_controllable());
        }
    }

    #[test]
    fn names_are_unique_and_display_works() {
        let mut set = std::collections::BTreeSet::new();
        for d in DomainId::ALL {
            assert!(set.insert(d.name()));
            assert_eq!(d.to_string(), d.name());
        }
    }

    #[test]
    #[should_panic]
    fn from_index_out_of_range_panics() {
        let _ = DomainId::from_index(5);
    }
}
