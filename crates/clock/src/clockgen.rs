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

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::codec::{ByteReader, ByteWriter, CodecError, Result as CodecResult};
use serde::{Deserialize, Serialize};

use crate::domain::DomainId;
use crate::ramp::{positive_freq, FrequencyRamp};
use crate::{round_pos, MegaHertz, TimePs};

/// Number of standard-normal variates generated per refill of the jitter
/// buffer.  Must be even: Box–Muller produces samples in pairs.
const JITTER_BATCH: usize = 64;

/// Box–Muller uniform pairs per batch.
const JITTER_PAIRS: usize = JITTER_BATCH / 2;

/// Offset-table marker for a sample the table approximation cannot
/// decide: it landed within [`GUARD_PS`] of a half-integer or of the
/// ±3σ clamp.  The edge then takes the exact libm path.
const NEAR_TIE: i32 = i32::MIN;

/// Decision margin of the fast path, in picoseconds.  The table
/// approximation of a sample is within ~1e-10 ps of the libm value, so a
/// sample at least this far from every rounding boundary rounds the same
/// way under both.
const GUARD_PS: f64 = 1e-6;

/// Largest period, and largest jitter magnitude, the fast path decides
/// (2^20 ps, i.e. clocks down to ~1 MHz).  Below it `period + sample`
/// stays under 2^21, where one floating-point addition is off by at most
/// 2^-33 ps — far inside [`GUARD_PS`].
const FAST_LIMIT_PS: u64 = 1 << 20;

/// Per-process lookup tables of the fast Box–Muller approximation, built
/// once from libm.
struct BoxMullerTables {
    /// `(1/c, ln c)` per 8-bit mantissa prefix, where `c` is the centre of
    /// the prefix's interval after folding mantissas `>= 1.5` down by one
    /// octave (so the reduced argument `m/c - 1` stays within 2^-8 of 0).
    /// The two intervals next to 1 use `c = 1` exactly, so `ln u` keeps
    /// full relative precision as `u -> 1`.
    log: [(f64, f64); 256],
    /// `(sin, cos)` of `j / 1024` turns.
    sin_cos: [(f64, f64); 1024],
}

fn box_muller_tables() -> &'static BoxMullerTables {
    static TABLES: OnceLock<BoxMullerTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [(1.0, 0.0); 256];
        for (i, slot) in log.iter_mut().enumerate().take(255).skip(1) {
            let centre = 1.0 + (i as f64 + 0.5) / 256.0;
            let centre = if i >= 128 { centre / 2.0 } else { centre };
            let recip = 1.0 / centre;
            *slot = (recip, -recip.ln());
        }
        let mut sin_cos = [(0.0, 0.0); 1024];
        for (j, slot) in sin_cos.iter_mut().enumerate() {
            let angle = std::f64::consts::TAU * j as f64 / 1024.0;
            *slot = (angle.sin(), angle.cos());
        }
        BoxMullerTables { log, sin_cos }
    })
}

impl BoxMullerTables {
    /// `ln u` for a normal `u` in `(0, 1)`, to ~1e-15 absolute: exponent
    /// times ln 2, plus the table logarithm of the mantissa prefix, plus a
    /// four-term `log1p` of the reduced mantissa (|t| <= 2^-8).
    #[inline]
    fn ln(&self, u: f64) -> f64 {
        const MANTISSA: u64 = (1 << 52) - 1;
        let bits = u.to_bits();
        let i = ((bits >> 44) & 0xff) as usize;
        let fold = (i >> 7) as u64;
        let m = f64::from_bits((bits & MANTISSA) | ((1023 - fold) << 52));
        let e = (bits >> 52) as i64 - 1023 + fold as i64;
        let (recip, ln_c) = self.log[i];
        let t = m * recip - 1.0;
        let log1p = t * (1.0 - t * (0.5 - t * (1.0 / 3.0 - t * 0.25)));
        e as f64 * std::f64::consts::LN_2 + ln_c + log1p
    }

    /// `(sin, cos)` of `2π·u` for `u` in `[0, 1)`, to ~1e-15 absolute: the
    /// nearest 1/1024-turn table entry rotated by the short remainder
    /// angle (|h| <= π/1024) through truncated Taylor series.
    #[inline]
    fn sin_cos_turn(&self, u: f64) -> (f64, f64) {
        let x = u * 1024.0;
        let j = round_pos(x);
        let h = (x - j as f64) * (std::f64::consts::TAU / 1024.0);
        let h2 = h * h;
        let sin_h = h * (1.0 - h2 * (1.0 / 6.0));
        let cos_h = 1.0 - h2 * (0.5 - h2 * (1.0 / 24.0));
        let (sin_j, cos_j) = self.sin_cos[(j & 1023) as usize];
        (sin_j * cos_h + cos_j * sin_h, cos_j * cos_h - sin_j * sin_h)
    }
}

/// The `[lo, lo + span)` period window and the sample magnitude bound
/// inside which the fast path decides an edge (derived from sigma).
#[derive(Debug, Clone, Copy)]
struct FastWindow {
    /// Smallest period with `period > 3σ + 2`: every sample then leaves
    /// `period + sample > 2`, so the `max(1.0)` of the exact formula is
    /// inert.
    lo: u64,
    /// Number of periods from `lo` up to [`FAST_LIMIT_PS`] (zero when
    /// sigma is too large for any period to qualify).
    span: u64,
    /// Approximate samples at or beyond this magnitude are [`NEAR_TIE`]:
    /// they may be clamped, or too large for the guard argument.
    clamp: f64,
}

impl FastWindow {
    fn new(sigma_ps: f64) -> Self {
        let lo = ((3.0 * sigma_ps + 2.0).floor() as u64).saturating_add(1);
        FastWindow {
            lo,
            span: (FAST_LIMIT_PS + 1).saturating_sub(lo),
            clamp: (3.0 * sigma_ps - GUARD_PS).min(FAST_LIMIT_PS as f64),
        }
    }

    /// The integer offset `k = round(y)` of an approximate sample `y`, or
    /// [`NEAR_TIE`] when `y` is within [`GUARD_PS`] of a half-integer or
    /// of the clamp (or is not finite).
    #[inline]
    fn decide(&self, y: f64) -> i32 {
        // `<` is false for NaN, which joins the clamp tail.
        if y.abs() < self.clamp {
            let t = y as i64;
            let frac = y - t as f64;
            if (frac.abs() - 0.5).abs() >= GUARD_PS {
                return (t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)) as i32;
            }
        }
        NEAR_TIE
    }
}

/// One batch of Box–Muller draws: the uniforms (for the exact path) and
/// the decided integer offsets (for the fast path).
#[derive(Debug, Clone)]
struct JitterBatch {
    /// PRNG state before the batch was drawn.
    start: [u64; 4],
    /// The `(u1, u2)` uniform pairs, in draw order.
    uniforms: [(f64, f64); JITTER_PAIRS],
    /// Per-sample rounded offset in ps, or [`NEAR_TIE`]; even slots are
    /// the cosine variate of their pair, odd slots the sine.
    offsets: [i32; JITTER_BATCH],
}

impl JitterBatch {
    const EMPTY: JitterBatch = JitterBatch {
        start: [0; 4],
        uniforms: [(0.0, 0.0); JITTER_PAIRS],
        offsets: [NEAR_TIE; JITTER_BATCH],
    };
}

/// Zero-mean normal jitter source (Box–Muller over the platform PRNG).
///
/// Samples are clamped to plus/minus three standard deviations so that a
/// pathological draw can never produce a non-causal (negative-period) edge.
///
/// The uniforms come off the PRNG in batches of 64 samples
/// (`JITTER_BATCH`), in exactly the historical order (cosine first, sine
/// second, pair by pair), so the per-edge sample stream for a given seed
/// is bit-identical to a one-at-a-time implementation — a property locked
/// in by `batched_stream_matches_one_at_a_time_reference`.
///
/// Only the *rounded* period of an edge reaches the simulated machine, so
/// [`JitterModel::jittered_period_ps`] mostly skips libm: the refill
/// approximates each sample with table-driven `ln` and `sin`/`cos` and
/// stores its rounded offset, marking the few samples too close to a
/// rounding boundary or the clamp to decide.  Those edges (and periods
/// outside the fast window) rebuild the exact libm sample from the stored
/// uniforms.  [`JitterModel::sample_ps`] is always that exact sample.
///
/// A sigma of zero bypasses the PRNG and the buffer entirely.
#[derive(Debug, Clone)]
pub struct JitterModel {
    sigma_ps: f64,
    rng: StdRng,
    window: FastWindow,
    /// The current batch (meaningful while `pos < JITTER_BATCH`).
    batch: JitterBatch,
    /// Index of the next unconsumed sample (`JITTER_BATCH` = empty).
    pos: usize,
    /// Edges whose period was decided by the exact libm path (host
    /// telemetry; restarts from zero on restore).
    fallbacks: u64,
}

impl JitterModel {
    /// Creates a jitter model with the given standard deviation (in
    /// picoseconds) and RNG seed.  A sigma of zero disables jitter.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ps` is negative or not finite.
    pub fn new(sigma_ps: f64, seed: u64) -> Self {
        assert!(
            sigma_ps >= 0.0 && sigma_ps.is_finite(),
            "jitter sigma must be finite and non-negative"
        );
        JitterModel {
            sigma_ps,
            rng: StdRng::seed_from_u64(seed),
            window: FastWindow::new(sigma_ps),
            batch: JitterBatch::EMPTY,
            pos: JITTER_BATCH,
            fallbacks: 0,
        }
    }

    /// The configured standard deviation in picoseconds.
    pub fn sigma_ps(&self) -> f64 {
        self.sigma_ps
    }

    /// Edges whose period [`JitterModel::jittered_period_ps`] had to
    /// decide with the exact libm sample (host telemetry).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Draws the next batch of `JITTER_BATCH` samples: records the
    /// uniforms and the fast-path offset of every Box–Muller variate.
    #[cold]
    fn refill(&mut self) {
        let tables = box_muller_tables();
        self.batch.start = self.rng.state();
        for pair in 0..JITTER_PAIRS {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            self.batch.uniforms[pair] = (u1, u2);
            let r = (-2.0 * tables.ln(u1)).sqrt();
            let (sin, cos) = tables.sin_cos_turn(u2);
            self.batch.offsets[2 * pair] = self.window.decide(r * cos * self.sigma_ps);
            self.batch.offsets[2 * pair + 1] = self.window.decide(r * sin * self.sigma_ps);
        }
        self.pos = 0;
    }

    /// The exact (libm) jitter sample in slot `i` of the current batch.
    fn exact_sample(&self, i: usize) -> f64 {
        let (u1, u2) = self.batch.uniforms[i / 2];
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let z = if i.is_multiple_of(2) {
            r * theta.cos()
        } else {
            r * theta.sin()
        };
        (z * self.sigma_ps).clamp(-3.0 * self.sigma_ps, 3.0 * self.sigma_ps)
    }

    /// The historical jittered-period formula on the exact sample of slot
    /// `i`.
    fn exact_period_ps(&self, period_ps: TimePs, i: usize) -> TimePs {
        round_pos((period_ps as f64 + self.exact_sample(i)).max(1.0))
    }

    /// Draws one jitter sample in picoseconds (may be negative).  This is
    /// the exact libm Box–Muller sample, the reference the fast path of
    /// [`JitterModel::jittered_period_ps`] reproduces.
    pub fn sample_ps(&mut self) -> f64 {
        if self.sigma_ps == 0.0 {
            // Fast path: jitter disabled, never touch the RNG.
            return 0.0;
        }
        if self.pos == JITTER_BATCH {
            self.refill();
        }
        let s = self.exact_sample(self.pos);
        self.pos += 1;
        s
    }

    /// Consumes one sample and returns the jittered edge period
    /// `round(max(period + sample, 1))` in picoseconds — bit-identical to
    /// evaluating that formula on [`JitterModel::sample_ps`].
    ///
    /// A sample decided by the refill, on a period inside the fast window,
    /// costs one table load and one add; everything else evaluates the
    /// formula on the exact sample.
    #[inline]
    pub fn jittered_period_ps(&mut self, period_ps: TimePs) -> TimePs {
        if self.sigma_ps == 0.0 {
            return period_ps.max(1);
        }
        if self.pos == JITTER_BATCH {
            self.refill();
        }
        let i = self.pos;
        self.pos += 1;
        let k = self.batch.offsets[i];
        if k != NEAR_TIE && period_ps.wrapping_sub(self.window.lo) < self.window.span {
            let fast = period_ps.wrapping_add_signed(i64::from(k));
            debug_assert_eq!(
                fast,
                self.exact_period_ps(period_ps, i),
                "fast jitter diverged from the exact formula (period {period_ps}, slot {i})"
            );
            return fast;
        }
        self.fallbacks += 1;
        self.exact_period_ps(period_ps, i)
    }

    /// Serializes the jitter source: sigma, a PRNG state and the batch
    /// cursor.  Inside a batch the state is the batch's *start* state, so
    /// [`JitterModel::load`] can redraw the batch; with the batch used up
    /// it is the current state, from which the next batch is drawn.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_f64(self.sigma_ps);
        let state = if self.pos < JITTER_BATCH {
            self.batch.start
        } else {
            self.rng.state()
        };
        for word in state {
            w.put_u64(word);
        }
        w.put_usize(self.pos);
    }

    /// Rebuilds a jitter source from [`JitterModel::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the stream is truncated, sigma is
    /// negative or not finite, or the batch cursor is out of range.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let sigma_ps = r.f64()?;
        if !(sigma_ps >= 0.0 && sigma_ps.is_finite()) {
            return Err(CodecError::BadTag {
                what: "jitter sigma",
                got: sigma_ps.to_bits(),
            });
        }
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        let pos = r.usize()?;
        if pos > JITTER_BATCH {
            return Err(CodecError::BadTag {
                what: "jitter buffer cursor",
                got: pos as u64,
            });
        }
        let mut jitter = JitterModel {
            sigma_ps,
            rng: StdRng::from_state(state),
            window: FastWindow::new(sigma_ps),
            batch: JitterBatch::EMPTY,
            pos: JITTER_BATCH,
            // Host telemetry, not simulated state: restarts from zero.
            fallbacks: 0,
        };
        if pos < JITTER_BATCH {
            // Redraw the batch the cursor points into; the PRNG ends up
            // past it, exactly where the saved run's was.
            jitter.refill();
            jitter.pos = pos;
        }
        Ok(jitter)
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

    /// Edges whose jittered period needed the exact libm sample (host
    /// telemetry, see [`JitterModel::jittered_period_ps`]).
    pub fn jitter_fallbacks(&self) -> u64 {
        self.jitter.fallbacks()
    }

    /// The target frequency of the in-flight (or completed) transition.
    pub fn target_freq_mhz(&self) -> MegaHertz {
        self.ramp.target()
    }

    /// The clock period at the target frequency, i.e. the period this clock
    /// settles to once any in-flight ramp completes.
    ///
    /// This is the period-to-cycle conversion calendar-queue structures key
    /// their buckets on: unlike [`DomainClock::current_period_ps`] it is
    /// *stable across a ramp* — it changes only at
    /// [`DomainClock::set_target_freq`], never edge by edge — so a
    /// time-to-bucket mapping quantized by it stays consistent between an
    /// event's push and its drain, and consumers need to re-index their
    /// buckets only when the controller retargets the domain.  During a
    /// ramp the instantaneous period deviates from this value by at most
    /// the old/new frequency ratio, which bounds the extra buckets a drain
    /// scans; it never affects *when* events fire (due-ness is always
    /// checked against absolute time).
    #[inline]
    pub fn target_period_ps(&self) -> TimePs {
        self.settled_period_ps
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

    /// Serializes the full clock state (ramp, jitter source, edge schedule)
    /// for checkpointing.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_u8(self.domain.index() as u8);
        self.ramp.save(w);
        self.jitter.save(w);
        w.put_u64(self.next_edge_ps);
        w.put_u64(self.cycles);
        w.put_u64(self.settle_ps);
        w.put_u64(self.settled_period_ps);
        w.put_f64(self.settled_freq_mhz);
    }

    /// Rebuilds a clock from [`DomainClock::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the stream is truncated, the domain
    /// index is invalid, a component fails its own checks, the settled
    /// period is zero or the settled frequency is not finite and positive.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let idx = r.u8()?;
        if usize::from(idx) >= DomainId::ALL.len() {
            return Err(CodecError::BadTag {
                what: "domain index",
                got: u64::from(idx),
            });
        }
        let ramp = FrequencyRamp::load(r)?;
        let jitter = JitterModel::load(r)?;
        let next_edge_ps = r.u64()?;
        let cycles = r.u64()?;
        let settle_ps = r.u64()?;
        let settled_period_ps = r.u64()?;
        if settled_period_ps == 0 {
            return Err(CodecError::BadTag {
                what: "settled clock period",
                got: 0,
            });
        }
        let settled_freq_mhz = positive_freq(r.f64()?, "settled clock frequency")?;
        let mut clock = DomainClock {
            domain: DomainId::from_index(usize::from(idx)),
            ramp,
            jitter,
            next_edge_ps,
            cycles,
            settle_ps,
            settled_period_ps,
            settled_freq_mhz,
            edge_freq_mhz: settled_freq_mhz,
            edge_period_ps: settled_period_ps,
        };
        clock.refresh_edge_memo();
        Ok(clock)
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
        for _ in 0..100 {
            assert_eq!(j.sample_ps(), 0.0);
        }
    }

    #[test]
    fn jitter_is_zero_mean_and_bounded() {
        let mut j = JitterModel::new(110.0, 1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| j.sample_ps()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(
            mean.abs() < 5.0,
            "mean jitter should be near zero, got {mean}"
        );
        let sigma = var.sqrt();
        assert!(
            (sigma - 110.0).abs() < 10.0,
            "sample sigma should be near 110 ps, got {sigma}"
        );
        assert!(samples.iter().all(|s| s.abs() <= 330.0 + 1e-9));
    }

    /// Reference implementation of the historical one-at-a-time sampler
    /// (Box–Muller with an `Option<f64>` spare cache).  The batched refill
    /// must reproduce its per-edge sample stream bit for bit.
    struct OneAtATimeReference {
        sigma_ps: f64,
        rng: StdRng,
        spare: Option<f64>,
    }

    impl OneAtATimeReference {
        fn new(sigma_ps: f64, seed: u64) -> Self {
            OneAtATimeReference {
                sigma_ps,
                rng: StdRng::seed_from_u64(seed),
                spare: None,
            }
        }

        fn sample_ps(&mut self) -> f64 {
            if self.sigma_ps == 0.0 {
                return 0.0;
            }
            let z = match self.spare.take() {
                Some(z) => z,
                None => {
                    let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = self.rng.gen_range(0.0..1.0);
                    let r = (-2.0 * u1.ln()).sqrt();
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    self.spare = Some(r * theta.sin());
                    r * theta.cos()
                }
            };
            (z * self.sigma_ps).clamp(-3.0 * self.sigma_ps, 3.0 * self.sigma_ps)
        }
    }

    #[test]
    fn batched_stream_matches_one_at_a_time_reference() {
        // Cover several seeds and sigmas, and enough samples to cross many
        // refill boundaries (the batch size is 64).
        for seed in [0u64, 1, 7, 42, 0xdead_beef] {
            for sigma in [110.0, 1.0, 55.5, 330.0] {
                let mut batched = JitterModel::new(sigma, seed);
                let mut reference = OneAtATimeReference::new(sigma, seed);
                for i in 0..1_000 {
                    let b = batched.sample_ps();
                    let r = reference.sample_ps();
                    assert!(
                        b == r,
                        "seed {seed} sigma {sigma} sample {i}: batched {b} != reference {r}"
                    );
                }
            }
        }
    }

    /// The historical per-edge formula, fed by the exact sample stream.
    fn reference_period(period: TimePs, sample: f64) -> TimePs {
        (period as f64 + sample).max(1.0).round() as TimePs
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn fast_jittered_period_matches_the_exact_formula(
            seed in 0u64..u64::MAX,
            sigma_idx in 0usize..4,
            period in 1u64..5_001,
            drift in 0u64..5_000,
        ) {
            // Periods at or below 3σ + 2 (and every undecided sample) take
            // the exact path; the rest take the table path.
            let sigma = [0.0, 55.0, 110.0, 330.0][sigma_idx];
            let mut fast = JitterModel::new(sigma, seed);
            let mut exact = JitterModel::new(sigma, seed);
            for i in 0..2_048u64 {
                let p = 1 + (period + i * drift) % 5_000;
                let want = reference_period(p, exact.sample_ps());
                proptest::prop_assert_eq!(fast.jittered_period_ps(p), want);
            }
        }
    }

    #[test]
    fn fast_path_decides_almost_every_sample() {
        let mut j = JitterModel::new(110.0, 3);
        let n = 100_000;
        for _ in 0..n {
            j.jittered_period_ps(1_000);
        }
        // About 0.27% of normal samples fall beyond 3σ; ties are ~1e-6.
        let frac = j.fallbacks() as f64 / n as f64;
        assert!(frac > 0.001 && frac < 0.005, "fallback fraction {frac}");
        let mut small = JitterModel::new(110.0, 3);
        small.jittered_period_ps(332);
        assert_eq!(small.fallbacks(), 1, "periods <= 3σ + 2 always fall back");
    }

    fn saved_jitter(j: &JitterModel) -> Vec<u8> {
        let mut w = ByteWriter::new();
        j.save(&mut w);
        w.into_vec()
    }

    fn loaded_jitter(bytes: &[u8]) -> JitterModel {
        let mut r = ByteReader::new(bytes);
        let back = JitterModel::load(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    fn assert_same_edges(a: &mut JitterModel, b: &mut JitterModel, what: &str) {
        for edge in 0..300 {
            let p = 400 + (edge as u64 * 97) % 3_000;
            assert_eq!(
                a.jittered_period_ps(p),
                b.jittered_period_ps(p),
                "{what}, edge {edge}"
            );
        }
    }

    #[test]
    fn jitter_save_restore_continues_the_stream_at_every_cursor() {
        // Fresh (no batch drawn), exhausted at 64 (the next edge draws a
        // new batch), inside a batch at 1, at its last sample (63), and
        // exhausted again at 64.
        for (consumed, cursor) in [(0usize, 64usize), (64, 64), (65, 1), (127, 63), (128, 64)] {
            let mut j = JitterModel::new(110.0, 99);
            for _ in 0..consumed {
                j.jittered_period_ps(1_000);
            }
            assert_eq!(j.pos, cursor);
            let mut back = loaded_jitter(&saved_jitter(&j));
            assert_eq!(back.pos, cursor, "consumed {consumed}");
            assert_same_edges(&mut back, &mut j, &format!("consumed {consumed}"));
        }
        // Cursor 0 (a batch drawn, nothing consumed) cannot be saved by a
        // running model, but a snapshot may hold it: from the state a
        // used-up batch saves, it redraws the batch the next edge draws.
        let mut j = JitterModel::new(110.0, 99);
        for _ in 0..64 {
            j.jittered_period_ps(1_000);
        }
        let mut bytes = saved_jitter(&j);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&0u64.to_le_bytes());
        let mut back = loaded_jitter(&bytes);
        assert_eq!(back.pos, 0);
        assert_same_edges(&mut back, &mut j, "cursor 0");
    }

    #[test]
    fn jitter_load_rejects_a_bad_sigma() {
        let mut w = ByteWriter::new();
        JitterModel::new(110.0, 1).save(&mut w);
        let good = w.into_vec();
        for bad in [-110.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = good.clone();
            bytes[..8].copy_from_slice(&bad.to_le_bytes());
            assert!(
                JitterModel::load(&mut ByteReader::new(&bytes)).is_err(),
                "sigma {bad}"
            );
        }
    }

    #[test]
    fn jitter_load_rejects_a_bad_cursor() {
        let mut w = ByteWriter::new();
        JitterModel::new(110.0, 1).save(&mut w);
        let mut bytes = w.into_vec();
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&65u64.to_le_bytes());
        assert!(JitterModel::load(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = JitterModel::new(110.0, 7);
        let mut b = JitterModel::new(110.0, 7);
        for _ in 0..100 {
            assert_eq!(a.sample_ps(), b.sample_ps());
        }
        let mut c = JitterModel::new(110.0, 8);
        let differs = (0..100).any(|_| a.sample_ps() != c.sample_ps());
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
        let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 0.0, 5);
        assert_eq!(clk.target_period_ps(), 1000);
        clk.set_target_freq(500.0);
        // The settled period flips immediately at the retarget and then
        // stays put while the instantaneous period ramps toward it.
        assert_eq!(clk.target_period_ps(), 2000);
        for _ in 0..1_000 {
            clk.advance();
            assert_eq!(clk.target_period_ps(), 2000);
            assert!(clk.current_period_ps() <= 2000);
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
    fn save_load_resumes_edge_stream_mid_ramp() {
        let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 110.0, 11);
        for _ in 0..100 {
            clk.advance();
        }
        clk.set_target_freq(650.0);
        for _ in 0..37 {
            clk.advance();
        }
        let mut w = ByteWriter::new();
        clk.save(&mut w);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        let mut restored = DomainClock::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.domain(), clk.domain());
        for _ in 0..10_000 {
            assert_eq!(restored.advance(), clk.advance());
            assert_eq!(restored.next_edge_ps(), clk.next_edge_ps());
            assert_eq!(restored.cycles(), clk.cycles());
        }
    }

    #[test]
    fn clock_load_rejects_bad_domain_index() {
        let clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 0.0, 1);
        let mut w = ByteWriter::new();
        clk.save(&mut w);
        let mut bytes = w.into_vec();
        bytes[0] = 9;
        assert!(DomainClock::load(&mut ByteReader::new(&bytes)).is_err());
    }

    /// Overwrites the trailing settled-state words of a saved clock: the
    /// settled period at `len - 16`, the settled frequency at `len - 8`.
    fn clock_load_with(word_from_end: usize, bits: u64) -> CodecResult<DomainClock> {
        let clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 110.0, 1);
        let mut w = ByteWriter::new();
        clk.save(&mut w);
        let mut bytes = w.into_vec();
        let at = bytes.len() - word_from_end;
        bytes[at..at + 8].copy_from_slice(&bits.to_le_bytes());
        DomainClock::load(&mut ByteReader::new(&bytes))
    }

    #[test]
    fn clock_load_rejects_a_zero_settled_period() {
        assert!(clock_load_with(16, 1000).is_ok());
        assert!(clock_load_with(16, 0).is_err());
    }

    #[test]
    fn clock_load_rejects_a_bad_settled_frequency() {
        assert!(clock_load_with(8, 1000.0f64.to_bits()).is_ok());
        for bad in [0.0, -1000.0, f64::NAN, f64::INFINITY] {
            assert!(clock_load_with(8, bad.to_bits()).is_err(), "freq {bad}");
        }
    }

    #[test]
    fn clock_load_rejects_a_bad_jitter_sigma() {
        // Regression: a negative sigma used to restore and then panic in
        // `f64::clamp` on the first jittered edge.
        let clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 110.0, 1);
        let mut w = ByteWriter::new();
        clk.save(&mut w);
        let mut bytes = w.into_vec();
        // Domain byte, then four ramp words, then the jitter sigma.
        bytes[33..41].copy_from_slice(&(-110.0f64).to_le_bytes());
        assert!(DomainClock::load(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn initial_phases_differ_across_seeds() {
        let a = DomainClock::new(DomainId::Integer, 1000.0, 0.0, 0.0, 1);
        let b = DomainClock::new(DomainId::Integer, 1000.0, 0.0, 0.0, 2);
        // Not guaranteed for every pair of seeds, but these two differ.
        assert_ne!(a.next_edge_ps(), b.next_edge_ps());
    }
}
