//! Functional-unit pools.
//!
//! The paper's execution resources (Table 4): 4 integer ALUs plus one
//! integer multiply/divide unit in the integer domain, and 2 floating-point
//! ALUs plus one multiply/divide/square-root unit in the floating-point
//! domain; the load/store domain has two cache ports.  ALUs are fully
//! pipelined (a new operation can begin every cycle); divide/sqrt units are
//! not.
//!
//! Occupancy is tracked in absolute time (picoseconds), which lets the same
//! pool model work at any domain frequency: a pipelined unit is busy for
//! one domain cycle per issued operation, an unpipelined unit for the whole
//! operation latency.

use mcd_isa::ExecClass;
use serde::codec::{ByteReader, ByteWriter, Result as CodecResult};
use serde::{Deserialize, Serialize};

/// The kind of functional unit (a pool may contain several of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuKind {
    /// Simple integer ALU.
    IntAlu,
    /// Integer multiply/divide unit.
    IntMultDiv,
    /// Floating-point ALU (add/compare/convert).
    FpAlu,
    /// Floating-point multiply/divide/sqrt unit.
    FpMultDiv,
    /// Data-cache port (load/store issue slot).
    MemPort,
}

impl FuKind {
    /// Every functional-unit kind, in serialization-code order.
    pub const ALL: [FuKind; 5] = [
        FuKind::IntAlu,
        FuKind::IntMultDiv,
        FuKind::FpAlu,
        FuKind::FpMultDiv,
        FuKind::MemPort,
    ];

    /// A stable one-byte code for checkpoint serialization.
    pub fn code(self) -> u8 {
        FuKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every FuKind appears in ALL") as u8
    }

    /// The inverse of [`FuKind::code`]; `None` for out-of-range codes.
    pub fn from_code(code: u8) -> Option<FuKind> {
        FuKind::ALL.get(usize::from(code)).copied()
    }

    /// The functional-unit kind needed by an execution class, if any.
    pub fn for_exec_class(class: ExecClass) -> Option<FuKind> {
        match class {
            ExecClass::IntAlu | ExecClass::Branch => Some(FuKind::IntAlu),
            ExecClass::IntMultDiv => Some(FuKind::IntMultDiv),
            ExecClass::FpAlu => Some(FuKind::FpAlu),
            ExecClass::FpMultDiv => Some(FuKind::FpMultDiv),
            ExecClass::Mem => Some(FuKind::MemPort),
            ExecClass::None => None,
        }
    }
}

/// Configuration of a functional-unit pool: how many units of each kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuPoolConfig {
    /// (kind, count) pairs.
    pub units: Vec<(FuKind, usize)>,
}

impl FuPoolConfig {
    /// The integer domain of Table 4: 4 ALUs + 1 mult/div unit.
    pub fn integer_domain() -> Self {
        FuPoolConfig {
            units: vec![(FuKind::IntAlu, 4), (FuKind::IntMultDiv, 1)],
        }
    }

    /// The floating-point domain of Table 4: 2 ALUs + 1 mult/div/sqrt unit.
    pub fn fp_domain() -> Self {
        FuPoolConfig {
            units: vec![(FuKind::FpAlu, 2), (FuKind::FpMultDiv, 1)],
        }
    }

    /// The load/store domain: two cache ports.
    pub fn loadstore_domain() -> Self {
        FuPoolConfig {
            units: vec![(FuKind::MemPort, 2)],
        }
    }

    /// Number of units of `kind`.
    pub fn count(&self, kind: FuKind) -> usize {
        self.units
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

/// A pool of functional units with per-unit busy tracking.
#[derive(Debug, Clone)]
pub struct FuPool {
    config: FuPoolConfig,
    /// Per kind: a vector of busy-until timestamps, one per unit.
    busy_until: Vec<(FuKind, Vec<u64>)>,
    /// Issued-operation counters per kind (for reports and the power model).
    issue_counts: Vec<(FuKind, u64)>,
}

impl FuPool {
    /// Creates an idle pool.
    pub fn new(config: FuPoolConfig) -> Self {
        let busy_until = config
            .units
            .iter()
            .map(|&(kind, count)| (kind, vec![0u64; count]))
            .collect();
        let issue_counts = config.units.iter().map(|&(kind, _)| (kind, 0)).collect();
        FuPool {
            config,
            busy_until,
            issue_counts,
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &FuPoolConfig {
        &self.config
    }

    /// Attempts to claim a unit of `kind` at time `now_ps`, occupying it
    /// until `busy_until_ps`.  Returns `false` if every unit of that kind is
    /// still busy (or the pool has none).
    pub fn try_issue(&mut self, kind: FuKind, now_ps: u64, busy_until_ps: u64) -> bool {
        let Some((_, units)) = self.busy_until.iter_mut().find(|(k, _)| *k == kind) else {
            return false;
        };
        if let Some(slot) = units.iter_mut().find(|t| **t <= now_ps) {
            *slot = busy_until_ps;
            if let Some((_, n)) = self.issue_counts.iter_mut().find(|(k, _)| *k == kind) {
                *n += 1;
            }
            true
        } else {
            false
        }
    }

    /// Number of units of `kind` that are free at `now_ps`.
    pub fn free_units(&self, kind: FuKind, now_ps: u64) -> usize {
        self.busy_until
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, units)| units.iter().filter(|t| **t <= now_ps).count())
            .unwrap_or(0)
    }

    /// Total operations issued to units of `kind`.
    pub fn issued(&self, kind: FuKind) -> u64 {
        self.issue_counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Serializes the pool configuration, per-unit busy times and issue
    /// counters for checkpointing.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_usize(self.config.units.len());
        for &(kind, count) in &self.config.units {
            w.put_u8(kind.code());
            w.put_usize(count);
        }
        for (_, units) in &self.busy_until {
            for &t in units {
                w.put_u64(t);
            }
        }
        for &(_, n) in &self.issue_counts {
            w.put_u64(n);
        }
    }

    /// Rebuilds a pool from [`FuPool::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error on truncation or invalid unit-kind codes.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let n_kinds = r.usize()?;
        // A unit-table row encodes 9 bytes (kind tag + count).
        let mut units = Vec::with_capacity(n_kinds.min(r.remaining() / 9));
        let mut total_units = 0usize;
        for _ in 0..n_kinds {
            let code = r.u8()?;
            let kind = FuKind::from_code(code).ok_or(serde::codec::CodecError::BadTag {
                what: "functional-unit kind",
                got: u64::from(code),
            })?;
            let count = r.usize()?;
            total_units = total_units.saturating_add(count);
            units.push((kind, count));
        }
        // Each unit's busy time follows as 8 bytes; reject counts the
        // remaining bytes cannot hold before allocating for them.
        if total_units > r.remaining() / 8 {
            return Err(serde::codec::CodecError::BadTag {
                what: "functional-unit count",
                got: total_units as u64,
            });
        }
        let mut pool = FuPool::new(FuPoolConfig { units });
        for (_, slots) in &mut pool.busy_until {
            for t in slots {
                *t = r.u64()?;
            }
        }
        for (_, n) in &mut pool.issue_counts {
            *n = r.u64()?;
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_pool_configurations() {
        let int = FuPoolConfig::integer_domain();
        assert_eq!(int.count(FuKind::IntAlu), 4);
        assert_eq!(int.count(FuKind::IntMultDiv), 1);
        assert_eq!(int.count(FuKind::FpAlu), 0);
        let fp = FuPoolConfig::fp_domain();
        assert_eq!(fp.count(FuKind::FpAlu), 2);
        assert_eq!(fp.count(FuKind::FpMultDiv), 1);
        let ls = FuPoolConfig::loadstore_domain();
        assert_eq!(ls.count(FuKind::MemPort), 2);
    }

    #[test]
    fn exec_class_mapping() {
        assert_eq!(
            FuKind::for_exec_class(ExecClass::IntAlu),
            Some(FuKind::IntAlu)
        );
        assert_eq!(
            FuKind::for_exec_class(ExecClass::Branch),
            Some(FuKind::IntAlu)
        );
        assert_eq!(
            FuKind::for_exec_class(ExecClass::IntMultDiv),
            Some(FuKind::IntMultDiv)
        );
        assert_eq!(
            FuKind::for_exec_class(ExecClass::FpAlu),
            Some(FuKind::FpAlu)
        );
        assert_eq!(
            FuKind::for_exec_class(ExecClass::FpMultDiv),
            Some(FuKind::FpMultDiv)
        );
        assert_eq!(
            FuKind::for_exec_class(ExecClass::Mem),
            Some(FuKind::MemPort)
        );
        assert_eq!(FuKind::for_exec_class(ExecClass::None), None);
    }

    #[test]
    fn pipelined_units_limit_issue_per_cycle() {
        let mut pool = FuPool::new(FuPoolConfig::integer_domain());
        // At t=0 (period 1000), all four ALUs can accept one op each.
        for _ in 0..4 {
            assert!(pool.try_issue(FuKind::IntAlu, 0, 1000));
        }
        assert!(!pool.try_issue(FuKind::IntAlu, 0, 1000), "only 4 ALUs");
        // Next cycle they are free again.
        assert_eq!(pool.free_units(FuKind::IntAlu, 1000), 4);
        assert!(pool.try_issue(FuKind::IntAlu, 1000, 2000));
        assert_eq!(pool.issued(FuKind::IntAlu), 5);
    }

    #[test]
    fn unpipelined_unit_blocks_for_full_latency() {
        let mut pool = FuPool::new(FuPoolConfig::fp_domain());
        // A divide occupies the single mult/div unit for 12 cycles.
        assert!(pool.try_issue(FuKind::FpMultDiv, 0, 12_000));
        assert!(!pool.try_issue(FuKind::FpMultDiv, 4_000, 16_000));
        assert!(pool.try_issue(FuKind::FpMultDiv, 12_000, 24_000));
        assert_eq!(pool.issued(FuKind::FpMultDiv), 2);
    }

    #[test]
    fn missing_kind_cannot_issue() {
        let mut pool = FuPool::new(FuPoolConfig::fp_domain());
        assert!(!pool.try_issue(FuKind::MemPort, 0, 1000));
        assert_eq!(pool.free_units(FuKind::MemPort, 0), 0);
        assert_eq!(pool.issued(FuKind::MemPort), 0);
    }

    #[test]
    fn free_units_counts_partially_busy_pool() {
        let mut pool = FuPool::new(FuPoolConfig::loadstore_domain());
        assert_eq!(pool.free_units(FuKind::MemPort, 0), 2);
        assert!(pool.try_issue(FuKind::MemPort, 0, 3000));
        assert_eq!(pool.free_units(FuKind::MemPort, 1000), 1);
        assert_eq!(pool.free_units(FuKind::MemPort, 3000), 2);
    }
}
