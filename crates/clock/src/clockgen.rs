//! Jittered per-domain clock generation.
//!
//! Section 4 of the paper: "we account for the fact that the clocks driving
//! each domain are independent by modeling independent jitter on a
//! cycle-by-cycle basis.  Our model assumes a normal distribution of jitter
//! with a mean of zero [sigma 110 ps].  Initially, all clock starting times
//! are randomized.  To determine the time of the next clock pulse in a
//! domain, the domain cycle time is added to the starting time, and the
//! jitter for that cycle is obtained from the distribution and added to
//! this sum."
//!
//! [`DomainClock`] reproduces that scheme: it tracks the absolute time of
//! the next rising edge of one domain, adding the (possibly ramping) period
//! plus a per-edge jitter sample on every advance.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::domain::DomainId;
use crate::ramp::FrequencyRamp;
use crate::{MegaHertz, TimePs};

/// Largest jitter sigma a clock accepts, in picoseconds: 10 ns, ten
/// periods of the 1 GHz clock.  It bounds the offset table at 60 001
/// entries.
pub(crate) const MAX_JITTER_SIGMA_PS: f64 = 10_000.0;

/// Positive nodes and their weights of 8-point Gauss–Legendre quadrature
/// on `[-1, 1]` (the rule is symmetric).
const GAUSS_LEGENDRE_8: [(f64, f64); 4] = [
    (0.183_434_642_495_649_8, 0.362_683_783_378_362),
    (0.525_532_409_916_329, 0.313_706_645_877_887_3),
    (0.796_666_477_413_626_7, 0.222_381_034_453_374_5),
    (0.960_289_856_497_536_3, 0.101_228_536_290_376_3),
];

/// Upper end of the integration of the clamp tail, in standard
/// deviations; the normal mass beyond it is below 1e-32.
const TAIL_Z: f64 = 12.0;

/// Standard normal mass on `[a, b]`: 8-point Gauss–Legendre quadrature
/// of the density on panels at most a quarter wide, accurate to ~1e-16.
fn normal_mass(a: f64, b: f64) -> f64 {
    let panels = ((b - a) * 4.0).ceil().max(1.0);
    let h = (b - a) / panels;
    let mut sum = 0.0;
    for p in 0..panels as u32 {
        let mid = a + (f64::from(p) + 0.5) * h;
        for (x, w) in GAUSS_LEGENDRE_8 {
            let d = x * h / 2.0;
            sum += w * ((-0.5 * (mid - d).powi(2)).exp() + (-0.5 * (mid + d).powi(2)).exp());
        }
    }
    sum * h / 2.0 / std::f64::consts::TAU.sqrt()
}

/// The distribution of the per-edge offset `k = round(clamp(σZ, ±3σ))`
/// for a standard normal `Z`: the masses of `k = -K..=K` with
/// `K = round(3σ)`, in that order.  `P(k)` is the normal mass of
/// `[(k-½)/σ, (k+½)/σ)`; the two end offsets also take the clamped tail
/// beyond.  The table is mirrored from `k >= 0`, so it is exactly
/// symmetric.
fn offset_masses(sigma_ps: f64) -> Vec<f64> {
    let k_max = (3.0 * sigma_ps).round() as i64;
    let half: Vec<f64> = (0..=k_max)
        .map(|k| {
            let lo = if k == 0 {
                0.0
            } else {
                (k as f64 - 0.5) / sigma_ps
            };
            let hi = if k == k_max {
                TAIL_Z
            } else {
                (k as f64 + 0.5) / sigma_ps
            };
            // k = 0 spans both sides of zero.
            let both = if k == 0 { 2.0 } else { 1.0 };
            both * normal_mass(lo, hi)
        })
        .collect();
    half[1..].iter().rev().chain(&half).copied().collect()
}

/// One slot of the offset alias table: a draw landing in this slot yields
/// `own` when its fraction is below `threshold / 2^64`, else `alias`.
#[derive(Debug, Clone, Copy)]
struct AliasSlot {
    threshold: u64,
    own: i32,
    alias: i32,
}

/// Vose's alias table of `masses`, which describe offsets `-K..=K`.
fn alias_table(masses: &[f64]) -> Vec<AliasSlot> {
    let n = masses.len();
    let k_max = (n / 2) as i32;
    let total: f64 = masses.iter().sum();
    let mut scaled: Vec<f64> = masses.iter().map(|p| p * n as f64 / total).collect();
    // Every slot starts full: it keeps its own offset on (almost) every
    // draw.  Slots left over at the end are full up to rounding.
    let mut slots: Vec<AliasSlot> = (0..n as i32)
        .map(|i| AliasSlot {
            threshold: u64::MAX,
            own: i - k_max,
            alias: i - k_max,
        })
        .collect();
    let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| scaled[i] < 1.0);
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        // Saturating float-to-int cast: `scaled[s]` lies in [0, 1).
        slots[s].threshold = (scaled[s] * 2f64.powi(64)) as u64;
        slots[s].alias = slots[l].own;
        scaled[l] = scaled[l] + scaled[s] - 1.0;
        if scaled[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    slots
}

/// The alias table for `sigma_ps`, built once per process for each sigma
/// and shared by every clock that uses it (empty for sigma 0).
fn offset_table(sigma_ps: f64) -> Arc<[AliasSlot]> {
    if sigma_ps == 0.0 {
        return Arc::from([]);
    }
    static TABLES: Mutex<Vec<(u64, Arc<[AliasSlot]>)>> = Mutex::new(Vec::new());
    // The one update is a push of a finished table, so the list is valid
    // even if a thread panicked while holding the lock.
    let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, table)) = tables.iter().find(|(bits, _)| *bits == sigma_ps.to_bits()) {
        return Arc::clone(table);
    }
    let table: Arc<[AliasSlot]> = alias_table(&offset_masses(sigma_ps)).into();
    tables.push((sigma_ps.to_bits(), Arc::clone(&table)));
    table
}

/// Zero-mean normal jitter source.
///
/// The paper's edge period is `round(max(p + clamp(σZ, ±3σ), 1))` for a
/// standard normal `Z`: the sample is clamped to plus/minus three
/// standard deviations so that a pathological draw can never produce a
/// non-causal edge, and only the rounded period reaches the simulated
/// machine.  The unjittered period `p` is a whole number of picoseconds,
/// so that equals `max(p + k, 1)` with `k = round(clamp(σZ, ±3σ))`, whose
/// distribution on `-K..=K` (`K = round(3σ)`) is fixed by sigma.  Each
/// edge draws `k` from that distribution directly: one PRNG word, one
/// alias-table slot and a branch-free choice between the slot's two
/// offsets.  The table is built once per sigma per process.
///
/// A sigma of zero bypasses the PRNG entirely.
#[derive(Clone)]
pub struct JitterModel {
    sigma_ps: f64,
    rng: StdRng,
    /// The offset alias table (empty when sigma is zero).
    table: Arc<[AliasSlot]>,
}

impl fmt::Debug for JitterModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitterModel")
            .field("sigma_ps", &self.sigma_ps)
            .field("rng", &self.rng)
            .finish_non_exhaustive()
    }
}

/// Whether `sigma_ps` is a jitter sigma a clock accepts.
pub(crate) fn valid_jitter_sigma(sigma_ps: f64) -> bool {
    (0.0..=MAX_JITTER_SIGMA_PS).contains(&sigma_ps)
}

impl JitterModel {
    /// Creates a jitter model with the given standard deviation (in
    /// picoseconds) and RNG seed.  A sigma of zero disables jitter.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ps` is negative, not finite or above 10 000 ps.
    pub fn new(sigma_ps: f64, seed: u64) -> Self {
        assert!(
            valid_jitter_sigma(sigma_ps),
            "jitter sigma must be in 0..=10000 ps, got {sigma_ps}"
        );
        JitterModel {
            sigma_ps,
            rng: StdRng::seed_from_u64(seed),
            table: offset_table(sigma_ps),
        }
    }

    /// The configured standard deviation in picoseconds.
    pub fn sigma_ps(&self) -> f64 {
        self.sigma_ps
    }

    /// Draws the next jitter offset `k` in picoseconds.
    #[inline]
    fn offset_ps(&mut self) -> i64 {
        if self.sigma_ps == 0.0 {
            return 0;
        }
        // `m / 2^64` is uniform on [0, n): its integer part picks the
        // slot, its fraction decides between the slot's two offsets.
        let m = u128::from(self.rng.next_u64()) * self.table.len() as u128;
        let slot = self.table[(m >> 64) as usize];
        // All ones when the fraction reaches the threshold: take the
        // alias without a data-dependent branch.
        let to_alias = -i32::from(m as u64 >= slot.threshold);
        i64::from(slot.own ^ ((slot.own ^ slot.alias) & to_alias))
    }

    /// Consumes one jitter draw and returns the jittered edge period
    /// `max(period + k, 1)` in picoseconds.
    #[inline]
    pub fn jittered_period_ps(&mut self, period_ps: TimePs) -> TimePs {
        period_ps.saturating_add_signed(self.offset_ps()).max(1)
    }
}

/// The clock generator of one domain.
///
/// The clock owns a [`FrequencyRamp`] describing its instantaneous
/// frequency and a [`JitterModel`]; it exposes the absolute time of its
/// next rising edge and advances edge by edge.
///
/// ```
/// use mcd_clock::{DomainClock, DomainId};
///
/// let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 0.0, 7);
/// let first = clk.next_edge_ps();
/// clk.advance();
/// assert_eq!(clk.next_edge_ps(), first + 1000); // 1 GHz -> 1000 ps period
/// assert_eq!(clk.cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DomainClock {
    domain: DomainId,
    ramp: FrequencyRamp,
    jitter: JitterModel,
    next_edge_ps: TimePs,
    cycles: u64,
    /// Absolute time at which the in-flight ramp settles; edges at or
    /// after this time run at exactly the target frequency, letting the
    /// per-edge hot path skip the ramp evaluation entirely.
    settle_ps: TimePs,
    /// Period at the target frequency (valid once settled).
    settled_period_ps: TimePs,
    /// Target frequency (cached copy of `ramp.target()`).
    settled_freq_mhz: MegaHertz,
    /// Instantaneous frequency at `next_edge_ps` (derived; refreshed
    /// whenever the edge or the ramp moves).
    edge_freq_mhz: MegaHertz,
    /// Unjittered period at `next_edge_ps` (derived alongside
    /// `edge_freq_mhz`).
    edge_period_ps: TimePs,
}

/// Serializable snapshot of a clock's externally visible state (used in
/// telemetry traces).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockSnapshot {
    /// Domain this snapshot belongs to.
    pub domain: DomainId,
    /// Instantaneous frequency in MHz.
    pub freq_mhz: MegaHertz,
    /// Total edges generated so far.
    pub cycles: u64,
    /// Absolute time of the next edge.
    pub next_edge_ps: TimePs,
}

impl DomainClock {
    /// Creates a clock running at `freq_mhz` with the given slew rate and
    /// jitter.  The first edge is placed at a randomized phase within one
    /// period (paper: "initially, all clock starting times are randomized"),
    /// derived deterministically from `seed`.
    pub fn new(
        domain: DomainId,
        freq_mhz: MegaHertz,
        rate_ns_per_mhz: f64,
        jitter_sigma_ps: f64,
        seed: u64,
    ) -> Self {
        let ramp = FrequencyRamp::new(freq_mhz, rate_ns_per_mhz);
        let mut phase_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let period = crate::freq_mhz_to_period_ps(freq_mhz);
        let phase: TimePs = phase_rng.gen_range(0..period.max(1));
        DomainClock {
            domain,
            ramp,
            jitter: JitterModel::new(jitter_sigma_ps, seed),
            next_edge_ps: phase,
            cycles: 0,
            settle_ps: 0,
            settled_period_ps: period,
            settled_freq_mhz: freq_mhz,
            edge_freq_mhz: freq_mhz,
            edge_period_ps: period,
        }
    }

    /// Re-derives the frequency and period at the next edge: the target
    /// values once the ramp has settled, the ramp's instantaneous values
    /// before.
    #[inline]
    fn refresh_edge_memo(&mut self) {
        if self.next_edge_ps >= self.settle_ps {
            self.edge_freq_mhz = self.settled_freq_mhz;
            self.edge_period_ps = self.settled_period_ps;
        } else {
            self.edge_freq_mhz = self.ramp.freq_at(self.next_edge_ps);
            self.edge_period_ps = crate::freq_mhz_to_period_ps(self.edge_freq_mhz);
        }
    }

    /// The domain this clock drives.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Absolute time of the next rising edge.
    pub fn next_edge_ps(&self) -> TimePs {
        self.next_edge_ps
    }

    /// Number of edges generated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instantaneous frequency at the time of the next edge.
    #[inline]
    pub fn current_freq_mhz(&self) -> MegaHertz {
        self.edge_freq_mhz
    }

    /// The target frequency of the in-flight (or completed) transition.
    pub fn target_freq_mhz(&self) -> MegaHertz {
        self.ramp.target()
    }

    /// Whether a frequency transition is still in flight.
    pub fn is_ramping(&self) -> bool {
        self.ramp.is_ramping(self.next_edge_ps)
    }

    /// The current clock period in picoseconds (no jitter applied).
    #[inline]
    pub fn current_period_ps(&self) -> TimePs {
        self.edge_period_ps
    }

    /// Requests a frequency change toward `target_mhz`, starting at the
    /// time of the next edge (the controller acts on interval boundaries).
    pub fn set_target_freq(&mut self, target_mhz: MegaHertz) {
        self.ramp.set_target(target_mhz, self.next_edge_ps);
        self.settle_ps = self.ramp.settle_time_ps();
        self.settled_freq_mhz = target_mhz;
        self.settled_period_ps = crate::freq_mhz_to_period_ps(target_mhz);
        self.refresh_edge_memo();
    }

    /// Consumes the pending edge and schedules the following one: the next
    /// edge time is the current edge plus the instantaneous period plus a
    /// jitter sample.  Returns the time of the edge that was consumed.
    #[inline]
    pub fn advance(&mut self) -> TimePs {
        let this_edge = self.next_edge_ps;
        // The jittered period is at least 1 ps, so the next edge is
        // strictly after the current one.
        self.next_edge_ps = this_edge + self.jitter.jittered_period_ps(self.edge_period_ps);
        self.cycles += 1;
        self.refresh_edge_memo();
        this_edge
    }

    /// A serializable snapshot of the clock state.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            domain: self.domain,
            freq_mhz: self.current_freq_mhz(),
            cycles: self.cycles,
            next_edge_ps: self.next_edge_ps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_with_zero_sigma_is_zero() {
        let mut j = JitterModel::new(0.0, 42);
        let state = j.rng.state();
        for p in [1, 2, 1_000] {
            assert_eq!(j.offset_ps(), 0);
            assert_eq!(j.jittered_period_ps(p), p);
        }
        assert_eq!(j.jittered_period_ps(0), 1, "periods stay positive");
        assert_eq!(j.rng.state(), state, "sigma 0 must not touch the PRNG");
    }

    #[test]
    fn offset_masses_sum_to_one_and_are_symmetric() {
        for sigma in [0.1f64, 0.4, 1.0, 55.5, 110.0, 330.0] {
            let masses = offset_masses(sigma);
            let k_max = (3.0 * sigma).round() as usize;
            assert_eq!(masses.len(), 2 * k_max + 1, "sigma {sigma}");
            let total: f64 = masses.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "sigma {sigma}: sum {total}");
            assert!(masses.iter().eq(masses.iter().rev()), "sigma {sigma}");
            assert!(masses.iter().all(|&p| p > 0.0), "sigma {sigma}");
        }
    }

    #[test]
    fn offset_masses_match_normal_reference_values() {
        // P(k) from `math.erfc` at sigma = 110 ps (K = 330).
        let masses = offset_masses(110.0);
        let p = |k: i64| masses[(k + 330) as usize];
        for (k, want) in [
            (0, 0.003_626_735_514_886_459),
            (110, 0.002_199_733_859_249_209),
            (-110, 0.002_199_733_859_249_209),
            (329, 4.140_287_920_051_389e-5),
            (330, 0.001_370_180_704_186_108_4),
            (-330, 0.001_370_180_704_186_108_4),
        ] {
            assert!(
                (p(k) - want).abs() <= 1e-12,
                "P({k}) = {}, want {want}",
                p(k)
            );
        }
    }

    #[test]
    fn offset_distribution_has_the_clamped_rounded_sigma() {
        // Clamping at 3σ narrows the normal, rounding widens it by ~1/12.
        let masses = offset_masses(110.0);
        let var: f64 = (-330i64..=330)
            .zip(&masses)
            .map(|(k, p)| (k * k) as f64 * p)
            .sum();
        assert!((var.sqrt() - 109.7254).abs() < 5e-5, "sigma {}", var.sqrt());
    }

    #[test]
    fn alias_table_realizes_the_masses() {
        for sigma in [0.4, 7.3, 110.0] {
            let masses = offset_masses(sigma);
            let table = offset_table(sigma);
            let k_max = (masses.len() / 2) as i64;
            let n = table.len() as f64;
            let mut realized = vec![0.0; masses.len()];
            for slot in table.iter() {
                let own = slot.threshold as f64 / 2f64.powi(64);
                realized[(i64::from(slot.own) + k_max) as usize] += own / n;
                realized[(i64::from(slot.alias) + k_max) as usize] += (1.0 - own) / n;
            }
            for (i, (got, want)) in realized.iter().zip(&masses).enumerate() {
                assert!(
                    (got - want).abs() < 1e-12,
                    "sigma {sigma}, slot {i}: {got} vs {want}"
                );
            }
            assert!(Arc::ptr_eq(&table, &offset_table(sigma)), "built once");
        }
    }

    #[test]
    fn offsets_pass_a_chi_square_goodness_of_fit() {
        let masses = offset_masses(110.0);
        let draws = 1_000_000u32;
        let mut counts = vec![0u32; masses.len()];
        let mut j = JitterModel::new(110.0, 2024);
        for _ in 0..draws {
            counts[(j.offset_ps() + 330) as usize] += 1;
        }
        // Merge neighbouring offsets until each bin expects >= 5 draws.
        let (mut chi2, mut bins) = (0.0, 0);
        let (mut observed, mut expected) = (0.0, 0.0);
        for (&c, &p) in counts.iter().zip(&masses) {
            observed += f64::from(c);
            expected += p * f64::from(draws);
            if expected >= 5.0 {
                chi2 += (observed - expected).powi(2) / expected;
                bins += 1;
                (observed, expected) = (0.0, 0.0);
            }
        }
        assert!(expected < 5.0 && observed < 10.0, "a thin last bin");
        // Wilson–Hilferty upper 1e-4 quantile of chi-square(df).
        let df = f64::from(bins - 1);
        let t = 2.0 / (9.0 * df);
        let critical = df * (1.0 - t + 3.719 * t.sqrt()).powi(3);
        assert!(
            chi2 < critical,
            "chi2 {chi2} over {bins} bins (critical {critical})"
        );
    }

    #[test]
    fn jitter_is_zero_mean_and_bounded() {
        for sigma in [0.1f64, 1.0, 110.0, 330.0] {
            let k_max = (3.0 * sigma).round() as i64;
            let mut j = JitterModel::new(sigma, 1);
            let n = 20_000;
            let offsets: Vec<i64> = (0..n).map(|_| j.offset_ps()).collect();
            assert!(offsets.iter().all(|k| k.abs() <= k_max), "sigma {sigma}");
            let mean = offsets.iter().sum::<i64>() as f64 / f64::from(n);
            assert!(
                mean.abs() < 0.05 * sigma + 0.05,
                "sigma {sigma}: mean {mean}"
            );
        }
        let mut j = JitterModel::new(110.0, 1);
        assert!((0..10_000).all(|_| j.jittered_period_ps(100) >= 1));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = JitterModel::new(110.0, 7);
        let mut b = JitterModel::new(110.0, 7);
        for _ in 0..100 {
            assert_eq!(a.offset_ps(), b.offset_ps());
        }
        let mut c = JitterModel::new(110.0, 8);
        let differs = (0..100).any(|_| a.offset_ps() != c.offset_ps());
        assert!(differs);
    }

    #[test]
    fn clock_without_jitter_ticks_at_exact_period() {
        let mut clk = DomainClock::new(DomainId::Integer, 500.0, 0.0, 0.0, 3);
        let start = clk.next_edge_ps();
        assert!(start < 2000, "initial phase must lie within one period");
        for i in 1..=10u64 {
            clk.advance();
            assert_eq!(clk.next_edge_ps(), start + i * 2000);
        }
        assert_eq!(clk.cycles(), 10);
    }

    #[test]
    fn clock_edges_are_strictly_monotonic_with_jitter() {
        let mut clk = DomainClock::new(DomainId::LoadStore, 1000.0, 49.1, 110.0, 11);
        let mut prev = clk.next_edge_ps();
        for _ in 0..10_000 {
            clk.advance();
            assert!(clk.next_edge_ps() > prev);
            prev = clk.next_edge_ps();
        }
    }

    #[test]
    fn target_period_is_stable_across_a_ramp() {
        let target_period = |clk: &DomainClock| crate::freq_mhz_to_period_ps(clk.target_freq_mhz());
        let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 0.0, 5);
        assert_eq!(target_period(&clk), 1000);
        clk.set_target_freq(500.0);
        // The target flips immediately at the retarget and then stays put
        // while the instantaneous period ramps toward it, never past it.
        assert_eq!(target_period(&clk), 2000);
        let mut prev = clk.current_period_ps();
        for _ in 0..1_000 {
            clk.advance();
            assert_eq!(target_period(&clk), 2000);
            assert!((prev..=2000).contains(&clk.current_period_ps()));
            prev = clk.current_period_ps();
        }
    }

    #[test]
    fn frequency_change_lengthens_period_gradually() {
        let mut clk = DomainClock::new(DomainId::FloatingPoint, 1000.0, 49.1, 0.0, 5);
        assert_eq!(clk.current_period_ps(), 1000);
        clk.set_target_freq(500.0);
        assert!(clk.is_ramping());
        // Immediately after the request the period has barely changed.
        clk.advance();
        assert!(clk.current_period_ps() < 1010);
        // Run long enough for the 500 MHz ramp to finish: 500 MHz * 49.1
        // ns/MHz = 24.55 us, i.e. < 24 550 edges even at 1 ns each.
        for _ in 0..30_000 {
            clk.advance();
        }
        assert!(!clk.is_ramping());
        assert_eq!(clk.current_period_ps(), 2000);
        assert_eq!(clk.target_freq_mhz(), 500.0);
    }

    #[test]
    fn average_rate_matches_frequency_with_jitter() {
        let mut clk = DomainClock::new(DomainId::FrontEnd, 1000.0, 0.0, 110.0, 17);
        let start = clk.next_edge_ps();
        let n = 50_000u64;
        for _ in 0..n {
            clk.advance();
        }
        let elapsed = clk.next_edge_ps() - start;
        let avg_period = elapsed as f64 / n as f64;
        assert!(
            (avg_period - 1000.0).abs() < 5.0,
            "average period should remain ~1000 ps, got {avg_period}"
        );
    }

    #[test]
    fn snapshot_reflects_state() {
        let clk = DomainClock::new(DomainId::Integer, 750.0, 49.1, 110.0, 23);
        let s = clk.snapshot();
        assert_eq!(s.domain, DomainId::Integer);
        assert_eq!(s.cycles, 0);
        assert!((s.freq_mhz - 750.0).abs() < 1e-9);
        assert_eq!(s.next_edge_ps, clk.next_edge_ps());
    }

    #[test]
    fn initial_phases_differ_across_seeds() {
        let a = DomainClock::new(DomainId::Integer, 1000.0, 0.0, 0.0, 1);
        let b = DomainClock::new(DomainId::Integer, 1000.0, 0.0, 0.0, 2);
        // Not guaranteed for every pair of seeds, but these two differ.
        assert_ne!(a.next_edge_ps(), b.next_edge_ps());
    }
}
