//! Energy accounting.
//!
//! [`EnergyAccount`] accumulates energy as the simulator runs: the timing
//! model reports structure accesses (with the owning domain's instantaneous
//! voltage), idle-cycle gating charges, per-domain clock cycles and main
//! memory accesses; the account converts them to energy with the
//! [`EnergyParams`] scaling laws and keeps per-structure and per-domain
//! breakdowns for the reports.

use mcd_clock::DomainId;
use serde::{Deserialize, Serialize};

use crate::model::EnergyParams;
use crate::structures::Structure;

/// Per-structure and per-domain energy breakdown of a finished run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Total energy (model units).
    pub total: f64,
    /// Energy per structure (stable [`Structure::ALL`] order).
    pub by_structure: Vec<(Structure, f64)>,
    /// Energy per domain (front end, integer, floating point, load/store,
    /// external).
    pub by_domain: Vec<(DomainId, f64)>,
    /// Energy of the clock-distribution network (subset of the total).
    pub clock: f64,
    /// Energy charged while structures were idle (gating floor), summed
    /// per structure in [`Structure::ALL`] order.
    pub idle: f64,
}

impl EnergyBreakdown {
    /// Fraction of the total spent in the clock network.
    pub fn clock_fraction(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.clock / self.total
        }
    }

    /// Energy of one domain.
    pub fn domain(&self, d: DomainId) -> f64 {
        self.by_domain
            .iter()
            .find(|(dom, _)| *dom == d)
            .map(|(_, e)| *e)
            .unwrap_or(0.0)
    }

    /// Energy of one structure.
    pub fn structure(&self, s: Structure) -> f64 {
        self.by_structure
            .iter()
            .find(|(st, _)| *st == s)
            .map(|(_, e)| *e)
            .unwrap_or(0.0)
    }
}

/// Running energy accumulator.
///
/// The per-structure energy constants are flattened into dense arrays at
/// construction so that the record methods — called around ten times per
/// simulated domain cycle — are a multiply-add on an enum-indexed slot
/// instead of an association-list search.
#[derive(Debug, Clone)]
pub struct EnergyAccount {
    params: EnergyParams,
    by_structure: Vec<f64>,
    /// The idle (gating-floor) share of each structure's energy, same
    /// indexing.  Kept per structure, not as one sum, so that the idle
    /// edges of one clock domain can be charged in a batch without
    /// interleaving with another domain's (see [`IdleSums`]).
    idle_by_structure: Vec<f64>,
    accesses: Vec<u64>,
    /// Per-access energy at nominal voltage, indexed by [`Structure::index`]
    /// (0.0 for structures without a per-access cost).
    access_energy: Vec<f64>,
    /// Per-cycle clock energy at nominal voltage, same indexing (0.0 for
    /// non-clock structures).
    clock_energy: Vec<f64>,
}

impl EnergyAccount {
    /// Creates an empty account.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`EnergyParams::validate`].
    pub fn new(params: EnergyParams) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid energy parameters: {e}"));
        let mut access_energy = vec![0.0; Structure::ALL.len()];
        for &(s, e) in &params.access_energy {
            access_energy[s.index()] = e;
        }
        let mut clock_energy = vec![0.0; Structure::ALL.len()];
        for &(s, e) in &params.clock_energy_per_cycle {
            clock_energy[s.index()] = e;
        }
        EnergyAccount {
            by_structure: vec![0.0; Structure::ALL.len()],
            idle_by_structure: vec![0.0; Structure::ALL.len()],
            accesses: vec![0; Structure::ALL.len()],
            access_energy,
            clock_energy,
            params,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Records `count` accesses to `structure` at the given supply voltage.
    #[inline]
    pub fn record_access(&mut self, structure: Structure, count: u64, voltage: f64) {
        if count == 0 {
            return;
        }
        let idx = structure.index();
        let e = self.access_energy[idx] * self.params.voltage_scale(voltage) * count as f64;
        self.by_structure[idx] += e;
        self.accesses[idx] += count;
    }

    /// Energy of one idle (clock-gated) cycle of `structure` at voltage
    /// scale `vscale` (= [`EnergyParams::voltage_scale`] of the domain's
    /// voltage): the gating floor fraction of one access energy.
    pub fn idle_cycle_energy(&self, structure: Structure, vscale: f64) -> f64 {
        self.access_energy[structure.index()] * self.params.gating_floor * vscale
    }

    /// Energy of one cycle of `domain`'s clock grid at voltage scale
    /// `vscale` (zero for a domain without an on-chip grid).
    /// `mcd_overhead` is the extra clock energy fraction of the MCD design
    /// (0.10 in the paper's assumption, 0.0 for the fully synchronous
    /// baseline).
    pub fn clock_cycle_energy(&self, domain: DomainId, vscale: f64, mcd_overhead: f64) -> f64 {
        Structure::clock_of(domain).map_or(0.0, |clock| {
            self.clock_energy[clock.index()] * (1.0 + mcd_overhead) * vscale
        })
    }

    /// Charges one idle cycle of `structure` whose energy was computed by
    /// [`EnergyAccount::idle_cycle_energy`].  The simulator computes it
    /// once per voltage change instead of once per cycle.
    #[inline]
    pub fn charge_idle(&mut self, structure: Structure, energy: f64) {
        self.by_structure[structure.index()] += energy;
        self.idle_by_structure[structure.index()] += energy;
    }

    /// Takes out the running sums that idle cycles of `structures` (at
    /// most four) and cycles of `domain`'s clock grid add to, so a tight
    /// loop can charge many idle cycles in local variables.  Put them back
    /// with [`EnergyAccount::put_idle_sums`] and the same arguments.
    ///
    /// # Panics
    ///
    /// Panics if more than four structures are given.
    pub fn idle_sums(&self, structures: &[Structure], domain: DomainId) -> IdleSums {
        assert!(
            structures.len() <= 4,
            "at most four idle-charged structures"
        );
        let mut sums = IdleSums::default();
        for (k, s) in structures.iter().enumerate() {
            sums.energy[k] = self.by_structure[s.index()];
            sums.idle[k] = self.idle_by_structure[s.index()];
        }
        sums.clock = Structure::clock_of(domain).map_or(0.0, |c| self.by_structure[c.index()]);
        sums
    }

    /// Puts back sums taken with [`EnergyAccount::idle_sums`] for the same
    /// `structures` and `domain`.
    pub fn put_idle_sums(&mut self, structures: &[Structure], domain: DomainId, sums: &IdleSums) {
        for (k, s) in structures.iter().enumerate() {
            self.by_structure[s.index()] = sums.energy[k];
            self.idle_by_structure[s.index()] = sums.idle[k];
        }
        if let Some(c) = Structure::clock_of(domain) {
            self.by_structure[c.index()] = sums.clock;
        }
    }

    /// Charges one cycle of `domain`'s clock grid whose energy was computed
    /// by [`EnergyAccount::clock_cycle_energy`] (a no-op for a domain
    /// without a grid).
    #[inline]
    pub fn charge_clock(&mut self, domain: DomainId, energy: f64) {
        if let Some(clock) = Structure::clock_of(domain) {
            self.by_structure[clock.index()] += energy;
        }
    }

    /// Records one main-memory access (fixed energy, not voltage scaled).
    #[inline]
    pub fn record_memory_access(&mut self) {
        let idx = Structure::MainMemory.index();
        self.by_structure[idx] += self.params.main_memory_access_energy;
        self.accesses[idx] += 1;
    }

    /// Total energy accumulated so far.
    pub fn total_energy(&self) -> f64 {
        self.by_structure.iter().sum()
    }

    /// Total energy of the on-chip structures (excludes main memory), which
    /// is the quantity the paper's energy savings refer to.
    pub fn chip_energy(&self) -> f64 {
        self.total_energy() - self.by_structure[Structure::MainMemory.index()]
    }

    /// Number of accesses recorded for a structure.
    pub fn access_count(&self, structure: Structure) -> u64 {
        self.accesses[structure.index()]
    }

    /// Produces the final breakdown.
    pub fn breakdown(&self) -> EnergyBreakdown {
        let by_structure: Vec<(Structure, f64)> = Structure::ALL
            .iter()
            .copied()
            .zip(self.by_structure.iter().copied())
            .collect();
        let mut by_domain: Vec<(DomainId, f64)> = DomainId::ALL.iter().map(|&d| (d, 0.0)).collect();
        for (s, e) in &by_structure {
            let d = s.domain();
            if let Some(slot) = by_domain.iter_mut().find(|(dom, _)| *dom == d) {
                slot.1 += e;
            }
        }
        let clock = by_structure
            .iter()
            .filter(|(s, _)| s.is_clock())
            .map(|(_, e)| e)
            .sum();
        EnergyBreakdown {
            total: self.total_energy(),
            by_structure,
            by_domain,
            clock,
            idle: self.idle_by_structure.iter().sum(),
        }
    }
}

/// The running sums of an [`EnergyAccount`] that idle cycles of one clock
/// domain add to: each idle-charged structure's energy and idle share,
/// and the domain's clock-grid energy (see [`EnergyAccount::idle_sums`]).
///
/// Each sum receives the same additions in the same order as through
/// [`EnergyAccount::charge_idle`] and [`EnergyAccount::charge_clock`], so
/// a batch charged here and put back is bit-identical to charging it
/// cycle by cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleSums {
    /// Energy of each structure, in the order the structures were given.
    pub energy: [f64; 4],
    /// Idle share of each structure's energy, same order.
    pub idle: [f64; 4],
    /// Energy of the domain's clock grid.
    pub clock: f64,
}

impl IdleSums {
    /// Charges one idle cycle: `idle[k]` to structure slot `k` and `clock`
    /// to the clock grid.  Slots past the structure count are never put
    /// back, so their charges (zero in practice) are ignored.
    #[inline]
    pub fn add_cycle(&mut self, idle: &[f64; 4], clock: f64) {
        for ((energy, idle_share), &e) in self.energy.iter_mut().zip(&mut self.idle).zip(idle) {
            *energy += e;
            *idle_share += e;
        }
        self.clock += clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> EnergyAccount {
        EnergyAccount::new(EnergyParams::default())
    }

    #[test]
    fn empty_account_has_zero_energy() {
        let a = account();
        assert_eq!(a.total_energy(), 0.0);
        assert_eq!(a.chip_energy(), 0.0);
        let b = a.breakdown();
        assert_eq!(b.total, 0.0);
        assert_eq!(b.clock_fraction(), 0.0);
    }

    #[test]
    fn access_energy_scales_with_voltage_squared() {
        let mut hi = account();
        let mut lo = account();
        hi.record_access(Structure::IntAlu, 100, 1.2);
        lo.record_access(Structure::IntAlu, 100, 0.6);
        assert!((lo.total_energy() / hi.total_energy() - 0.25).abs() < 1e-9);
        assert_eq!(hi.access_count(Structure::IntAlu), 100);
    }

    #[test]
    fn zero_count_access_is_free() {
        let mut a = account();
        a.record_access(Structure::L2Cache, 0, 1.2);
        assert_eq!(a.total_energy(), 0.0);
        assert_eq!(a.access_count(Structure::L2Cache), 0);
    }

    #[test]
    fn idle_cycle_costs_the_gating_floor() {
        let mut a = account();
        let e = a.idle_cycle_energy(Structure::FpAlu, 1.0);
        a.charge_idle(Structure::FpAlu, e);
        let expected = EnergyParams::default().access_energy(Structure::FpAlu) * 0.10;
        assert!((a.total_energy() - expected).abs() < 1e-12);
        assert!((a.breakdown().idle - expected).abs() < 1e-12);
    }

    #[test]
    fn idle_sums_charge_exactly_like_single_charges() {
        let structures = [Structure::Lsq, Structure::L1DCache];
        let d = DomainId::LoadStore;
        let mut single = account();
        let mut batched = account();
        for a in [&mut single, &mut batched] {
            a.record_access(Structure::Lsq, 3, 1.1);
        }
        let mut sums = batched.idle_sums(&structures, d);
        for v in [1.2, 0.9, 1.05, 0.7] {
            let vscale = single.params().voltage_scale(v);
            let idle = [
                single.idle_cycle_energy(Structure::Lsq, vscale),
                single.idle_cycle_energy(Structure::L1DCache, vscale),
                0.0,
                0.0,
            ];
            let clock = single.clock_cycle_energy(d, vscale, 0.1);
            single.charge_idle(Structure::Lsq, idle[0]);
            single.charge_idle(Structure::L1DCache, idle[1]);
            single.charge_clock(d, clock);
            sums.add_cycle(&idle, clock);
        }
        batched.put_idle_sums(&structures, d, &sums);
        assert_eq!(single.breakdown(), batched.breakdown());
    }

    #[test]
    fn clock_cycle_with_mcd_overhead_costs_ten_percent_more() {
        let mut sync = account();
        let mut mcd = account();
        let (e_sync, e_mcd) = (
            sync.clock_cycle_energy(DomainId::Integer, 1.0, 0.0),
            mcd.clock_cycle_energy(DomainId::Integer, 1.0, 0.10),
        );
        for _ in 0..1000 {
            sync.charge_clock(DomainId::Integer, e_sync);
            mcd.charge_clock(DomainId::Integer, e_mcd);
        }
        assert!((mcd.total_energy() / sync.total_energy() - 1.10).abs() < 1e-9);
    }

    #[test]
    fn external_domain_has_no_clock_charge() {
        let mut a = account();
        assert_eq!(a.clock_cycle_energy(DomainId::External, 1.0, 0.10), 0.0);
        a.charge_clock(DomainId::External, 1.0);
        assert_eq!(a.total_energy(), 0.0);
    }

    #[test]
    fn memory_access_is_not_voltage_scaled_and_excluded_from_chip_energy() {
        let mut a = account();
        a.record_memory_access();
        a.record_access(Structure::L2Cache, 1, 1.2);
        let mem = EnergyParams::default().main_memory_access_energy;
        assert!((a.total_energy() - a.chip_energy() - mem).abs() < 1e-12);
        assert!(a.chip_energy() > 0.0);
    }

    #[test]
    fn breakdown_sums_match_total_and_domains() {
        let mut a = account();
        a.record_access(Structure::IntAlu, 50, 1.1);
        a.record_access(Structure::L1DCache, 30, 0.9);
        a.record_access(Structure::FpAlu, 10, 1.2);
        let clock = a.clock_cycle_energy(DomainId::FrontEnd, 1.0, 0.1);
        a.charge_clock(DomainId::FrontEnd, clock);
        let idle = a.idle_cycle_energy(Structure::Lsq, a.params().voltage_scale(1.0));
        a.charge_idle(Structure::Lsq, idle);
        a.record_memory_access();
        let b = a.breakdown();
        let structure_sum: f64 = b.by_structure.iter().map(|(_, e)| e).sum();
        let domain_sum: f64 = b.by_domain.iter().map(|(_, e)| e).sum();
        assert!((structure_sum - b.total).abs() < 1e-9);
        assert!((domain_sum - b.total).abs() < 1e-9);
        assert!(b.domain(DomainId::Integer) > 0.0);
        assert!(b.domain(DomainId::LoadStore) > 0.0);
        assert!(b.structure(Structure::IntAlu) > 0.0);
        assert!(b.clock > 0.0 && b.clock < b.total);
        assert!((b.total - a.total_energy()).abs() < 1e-9);
    }

    #[test]
    fn lower_voltage_clock_cycles_save_energy() {
        let mut hi = account();
        let mut lo = account();
        let scale = |v: f64| EnergyParams::default().voltage_scale(v);
        let e_hi = hi.clock_cycle_energy(DomainId::FloatingPoint, scale(1.2), 0.1);
        let e_lo = lo.clock_cycle_energy(DomainId::FloatingPoint, scale(0.65), 0.1);
        for _ in 0..100 {
            hi.charge_clock(DomainId::FloatingPoint, e_hi);
            lo.charge_clock(DomainId::FloatingPoint, e_lo);
        }
        let expected = (0.65f64 / 1.2).powi(2);
        assert!((lo.total_energy() / hi.total_energy() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid energy parameters")]
    fn invalid_params_panic() {
        let p = EnergyParams {
            nominal_voltage: -1.0,
            ..Default::default()
        };
        let _ = EnergyAccount::new(p);
    }
}
