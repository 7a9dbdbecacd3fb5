//! The MCD out-of-order processor model and its simulation loop.
//!
//! The simulator is time driven at domain-cycle granularity: each of the
//! four on-chip domains has its own [`DomainClock`]; the main loop
//! executes the edges of all four in global time order, one cycle of one
//! domain per edge.  Values crossing a domain boundary (dispatch into an
//! issue queue, cross-domain operand wakeup, completion reports to the
//! ROB, cache-miss traffic to memory) become visible in the destination
//! domain only at the capture time computed by the [`SyncWindow`] rule,
//! which is how the MCD synchronization penalties of the paper arise.
//!
//! Most edges only do bookkeeping.  After a few such edges in a row the
//! loop computes the *quiet horizon* — the earliest time at which any
//! edge can do more — and steps each domain's edges before it in a tight
//! per-domain loop instead of one at a time through the tournament that
//! picks the earliest edge (see [`McdProcessor::run`]).
//!
//! The kernel is split across focused modules:
//!
//! * `frontend` — fetch, rename/dispatch, commit (the front-end domain);
//! * `exec` — the integer/floating-point domains' wakeup-select-issue
//!   cycle plus writeback;
//! * `lsq` — the load/store domain's cycle and the cache hierarchy timing;
//! * `events` — the per-domain timelines (monotone lane plus heap)
//!   carrying tagged completion/wakeup events plus the ready lists they
//!   feed;
//! * `inflight` — the dense, ROB-indexed in-flight instruction slab.
//!
//! This file owns the processor structure, construction, the control
//! intervals and the main event loop.

use std::collections::VecDeque;

use mcd_clock::{
    DomainClock, DomainId, MegaHertz, OperatingPointTable, SyncWindow, TimePs,
    CONTROLLABLE_DOMAINS, ON_CHIP_DOMAINS,
};
use mcd_control::{DomainSample, FrequencyController, IntervalSample};
use mcd_isa::{DynInst, InstructionStream, OpClass, SeqNum};
use mcd_microarch::{
    BranchPredictor, Cache, FuPool, FuPoolConfig, IssueQueue, LoadStoreQueue, Prediction,
    RenameAllocator, RenameMap, ReorderBuffer,
};
use mcd_power::{EnergyAccount, IdleSums, Structure};

use crate::config::{ClockingMode, SimConfig};
use crate::events::{DomainTimeline, TimelineEvent};
use crate::inflight::{InFlightTable, Woken};
use crate::telemetry::{HostStats, NotCompared, SimResult};

/// Abort the run if no instruction commits for this much simulated time
/// (catches simulator bugs rather than real behaviour: even a chain of
/// serialized main-memory misses commits every ~100 ns).
const COMMIT_WATCHDOG_PS: TimePs = 200_000_000;

/// Consecutive idle kernel steps after which the main loop looks for a
/// quiet horizon to catch up to.
const QUIET_STREAK: u32 = 2;

/// What [`McdProcessor::run_for`] returns: always `Finished`.
///
/// Exists only for the out-of-workspace benchmark package (`perfbench/`),
/// which still matches it, and goes with the next change to that package.
// `Finished` carries the full telemetry; the value is matched once per
// run, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StepOutcome {
    /// Never built: runs no longer pause.
    Paused,
    /// The run completed and produced its telemetry.
    Finished(SimResult),
}

/// Per-domain interval counters feeding the controller.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DomainIntervalCounters {
    pub(crate) cycles: u64,
    pub(crate) busy_cycles: u64,
    pub(crate) issued: u64,
    pub(crate) cycles_at_interval_start: u64,
}

/// The structures charged the gating floor when their domain's edge leaves
/// them unused, per on-chip domain (indexed by [`DomainId::index`]), in
/// charge order.
pub(crate) const IDLE_CHARGED: [&[Structure]; 4] = [
    &[
        Structure::BranchPredictor,
        Structure::L1ICache,
        Structure::Rename,
        Structure::Rob,
    ],
    &[
        Structure::IntIssueQueue,
        Structure::IntAlu,
        Structure::IntRegFile,
    ],
    &[
        Structure::FpIssueQueue,
        Structure::FpAlu,
        Structure::FpRegFile,
    ],
    &[Structure::Lsq, Structure::L1DCache],
];

/// The voltage-dependent charges of one on-chip domain's edges, computed
/// once per frequency instead of once per edge.  The values come from the
/// `EnergyAccount` builders, so a cached charge adds exactly the bits a
/// per-edge computation would.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EdgeCharge {
    /// Bits of the frequency the charges were computed at.
    freq_bits: u64,
    /// Supply voltage at that frequency.
    pub(crate) voltage: f64,
    /// Idle-cycle energy of each [`IDLE_CHARGED`] structure of the domain.
    pub(crate) idle: [f64; 4],
    /// Energy of one cycle of the domain's clock grid.
    pub(crate) clock: f64,
}

/// Per-domain cycle-weighted frequency accumulator (for reports).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FreqAccumulator {
    pub(crate) weighted_sum: f64,
    pub(crate) cycles: u64,
}

/// The float sums an idle edge of one on-chip domain adds to, taken out
/// of the processor so the quiet-time catch-up can keep them in local
/// variables across many edges.
#[derive(Debug, Clone, Copy)]
struct IdleEdgeSums {
    energy: IdleSums,
    freq: f64,
}

impl IdleEdgeSums {
    /// What one idle edge charges — an edge whose handler only did
    /// bookkeeping: the gating floor of each [`IDLE_CHARGED`] structure of
    /// its domain in order, one cycle of the domain's clock grid, and the
    /// edge's frequency into the cycle-weighted average.  The handlers'
    /// idle edges and the quiet-time catch-up both charge through here.
    #[inline]
    fn add_edge(&mut self, charge: &EdgeCharge, freq_mhz: MegaHertz) {
        self.energy.add_cycle(&charge.idle, charge.clock);
        self.freq += freq_mhz;
    }
}

/// The simulated MCD processor.
pub struct McdProcessor {
    pub(crate) config: SimConfig,
    pub(crate) table: OperatingPointTable,
    pub(crate) controller: Box<dyn FrequencyController>,

    // Clocking.
    pub(crate) clocks: Vec<DomainClock>,
    pub(crate) sync: SyncWindow,

    // Front end.
    pub(crate) predictor: BranchPredictor,
    pub(crate) l1i: Cache,
    pub(crate) rename_alloc: RenameAllocator,
    pub(crate) rename_map: RenameMap,
    pub(crate) rob: ReorderBuffer,
    pub(crate) fetch_buffer: VecDeque<DynInst>,
    pub(crate) fetch_stalled_until: TimePs,
    pub(crate) fetch_blocked_by: Option<SeqNum>,
    pub(crate) stream_done: bool,

    // Execution domains.
    pub(crate) int_iq: IssueQueue,
    pub(crate) fp_iq: IssueQueue,
    pub(crate) lsq: LoadStoreQueue,
    pub(crate) int_fus: FuPool,
    pub(crate) fp_fus: FuPool,
    pub(crate) mem_fus: FuPool,
    pub(crate) l1d: Cache,
    pub(crate) l2: Cache,
    /// The unified per-domain event machinery: lane-plus-heap timelines
    /// carrying tagged completion/wakeup events, drained once per domain
    /// cycle, plus the seq-sorted ready lists the wakeups feed (event-driven
    /// wakeup: producers push, the select stage never re-probes).
    pub(crate) timeline: DomainTimeline,

    // In-flight instruction table (dense ROB-indexed slab).
    pub(crate) inflight: InFlightTable,
    /// Predictions made at fetch time, consumed in program order at
    /// dispatch.
    pub(crate) pending_predictions: VecDeque<(SeqNum, Prediction)>,
    /// Reusable per-cycle scratch buffer (issue candidates, LSQ scans);
    /// owned by the processor so the hot loops never allocate.
    pub(crate) scratch_seqs: Vec<SeqNum>,
    /// Reusable scratch buffer for the consumers woken by one writeback.
    pub(crate) scratch_woken: Vec<Woken>,
    /// Reusable scratch buffer for one timeline drain batch.
    pub(crate) scratch_events: Vec<TimelineEvent>,
    /// Reusable scratch buffer for the ready-list merge of one drain.
    pub(crate) scratch_ready: Vec<SeqNum>,

    // Energy.
    pub(crate) energy: EnergyAccount,
    /// Cached per-edge charges of each on-chip domain (derived from the
    /// domain clock's current frequency; see [`McdProcessor::refresh_charge`]).
    pub(crate) charges: [EdgeCharge; 4],

    // Statistics.
    pub(crate) committed: u64,
    /// Per on-chip domain: edges whose handler only did bookkeeping (host
    /// telemetry only: the counters describe *how* this process stepped
    /// the kernel, not simulated state).
    pub(crate) idle_steps: [u64; 4],
    /// Per on-chip domain: the idle edges the quiet-time catch-up stepped
    /// (host telemetry only, see `idle_steps`).
    pub(crate) skipped_steps: [u64; 4],
    /// Quiet-time catch-ups that stepped at least one edge (host
    /// telemetry only, see `idle_steps`).
    pub(crate) quiet_skips: u64,
    pub(crate) mispredict_redirects: u64,
    pub(crate) memory_accesses: u64,
    pub(crate) interval_index: u64,
    pub(crate) frontend_cycles_at_interval_start: u64,
    pub(crate) domain_counters: [DomainIntervalCounters; 5],
    pub(crate) freq_acc: [FreqAccumulator; 5],
    pub(crate) first_commit_ps: Option<TimePs>,
    pub(crate) last_commit_ps: TimePs,
    /// The recorded interval samples (empty unless
    /// `SimConfig::record_intervals` is set).
    pub(crate) intervals: Vec<IntervalSample>,

    /// Test-only switch: step every edge through the tournament, as a
    /// reference for the quiet-time catch-up.
    #[cfg(test)]
    pub(crate) plain_stepping: bool,
}

impl McdProcessor {
    /// Builds a processor from a configuration and a frequency controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(config: SimConfig, controller: Box<dyn FrequencyController>) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulator configuration: {e}"));
        let table = OperatingPointTable::from_params(&config.clock);
        let max_freq = table.max_point().freq_mhz;

        let synchronous = config.clocking == ClockingMode::FullySynchronous;
        let clocks: Vec<DomainClock> = DomainId::ALL
            .iter()
            .map(|&d| {
                let initial = controller
                    .initial_freq_mhz(d)
                    .map(|f| table.nearest(f).freq_mhz)
                    .unwrap_or(if d == DomainId::External {
                        config.clock.external_freq_mhz
                    } else {
                        max_freq
                    });
                // In fully synchronous mode every on-chip domain shares one
                // phase and has no jitter; in MCD mode each domain gets its
                // own randomized phase and jitter stream.
                let seed = if synchronous {
                    config.seed
                } else {
                    config.seed.wrapping_add(d.index() as u64 * 0x9e37)
                };
                DomainClock::new(
                    d,
                    initial,
                    config.clock.freq_change_rate_ns_per_mhz,
                    if synchronous {
                        0.0
                    } else {
                        config.clock.jitter_sigma_ps
                    },
                    seed,
                )
            })
            .collect();

        let sync = SyncWindow::new(if synchronous {
            0
        } else {
            config.clock.sync_window_ps
        });

        let mut cpu = McdProcessor {
            predictor: BranchPredictor::new(config.arch.branch_predictor.clone()),
            l1i: Cache::new(config.arch.l1i),
            l1d: Cache::new(config.arch.l1d),
            l2: Cache::new(config.arch.l2),
            rename_alloc: RenameAllocator::new(
                config.arch.int_phys_regs,
                config.arch.fp_phys_regs,
                32,
                32,
            ),
            rename_map: RenameMap::new(),
            rob: ReorderBuffer::new(config.arch.rob_size),
            fetch_buffer: VecDeque::with_capacity(config.arch.fetch_buffer_size),
            fetch_stalled_until: 0,
            fetch_blocked_by: None,
            stream_done: false,
            int_iq: IssueQueue::new(config.arch.int_iq_size),
            fp_iq: IssueQueue::new(config.arch.fp_iq_size),
            lsq: LoadStoreQueue::new(config.arch.lsq_size),
            int_fus: FuPool::new(FuPoolConfig::integer_domain()),
            fp_fus: FuPool::new(FuPoolConfig::fp_domain()),
            mem_fus: FuPool::new(FuPoolConfig::loadstore_domain()),
            timeline: DomainTimeline::new(),
            inflight: InFlightTable::new(config.arch.rob_size),
            pending_predictions: VecDeque::with_capacity(config.arch.fetch_buffer_size),
            scratch_seqs: Vec::with_capacity(config.arch.lsq_size.max(config.arch.rob_size)),
            scratch_woken: Vec::with_capacity(config.arch.rob_size),
            scratch_events: Vec::with_capacity(config.arch.rob_size),
            scratch_ready: Vec::with_capacity(config.arch.rob_size),
            energy: EnergyAccount::new(config.energy.clone()),
            charges: [EdgeCharge::default(); 4],
            committed: 0,
            idle_steps: [0; 4],
            skipped_steps: [0; 4],
            quiet_skips: 0,
            mispredict_redirects: 0,
            memory_accesses: 0,
            interval_index: 0,
            frontend_cycles_at_interval_start: 0,
            domain_counters: Default::default(),
            freq_acc: Default::default(),
            first_commit_ps: None,
            last_commit_ps: 0,
            intervals: Vec::new(),
            #[cfg(test)]
            plain_stepping: false,
            clocks,
            sync,
            table,
            controller,
            config,
        };
        cpu.charges = cpu.edge_charges();
        cpu
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Pre-loads the cache hierarchy with the given `(base, length)`
    /// regions, modelling the warm caches a mid-execution simulation window
    /// starts with (the paper fast-forwards hundreds of millions of
    /// instructions before measuring).  The first region is treated as code
    /// (warms the L1 I-cache), the rest as data (warm the L1 D-cache up to
    /// its capacity and the L2 throughout).
    pub fn warm_caches(&mut self, regions: &[(u64, u64)]) {
        for (i, &(base, len)) in regions.iter().enumerate() {
            let line = 64u64;
            let mut addr = base & !(line - 1);
            let mut warmed = 0u64;
            while addr < base + len {
                self.l2.warm(addr);
                if i == 0 {
                    self.l1i.warm(addr);
                } else if warmed < self.config.arch.l1d.size_bytes {
                    self.l1d.warm(addr);
                }
                addr += line;
                warmed += line;
            }
        }
    }

    pub(crate) fn clock(&self, d: DomainId) -> &DomainClock {
        &self.clocks[d.index()]
    }

    /// The current supply voltage of on-chip domain `d`.
    #[inline]
    pub(crate) fn voltage(&self, d: DomainId) -> f64 {
        self.charges[d.index()].voltage
    }

    fn mcd_overhead(&self) -> f64 {
        match self.config.clocking {
            ClockingMode::Mcd => self.config.clock.mcd_clock_energy_overhead,
            ClockingMode::FullySynchronous => 0.0,
        }
    }

    /// The charges of on-chip domain `d` at frequency `freq_mhz`.
    fn edge_charge(&self, d: DomainId, freq_mhz: MegaHertz) -> EdgeCharge {
        let voltage = self.table.voltage_for_freq(freq_mhz);
        let vscale = self.energy.params().voltage_scale(voltage);
        let mut idle = [0.0; 4];
        for (slot, &s) in idle.iter_mut().zip(IDLE_CHARGED[d.index()]) {
            *slot = self.energy.idle_cycle_energy(s, vscale);
        }
        EdgeCharge {
            freq_bits: freq_mhz.to_bits(),
            voltage,
            idle,
            clock: self
                .energy
                .clock_cycle_energy(d, vscale, self.mcd_overhead()),
        }
    }

    /// Fresh charges of every on-chip domain at its clock's current
    /// frequency.
    fn edge_charges(&self) -> [EdgeCharge; 4] {
        ON_CHIP_DOMAINS.map(|d| self.edge_charge(d, self.clocks[d.index()].current_freq_mhz()))
    }

    /// Re-derives domain `d`'s charges if its clock's frequency moved
    /// (after an edge during a ramp, or a retarget); otherwise one compare.
    #[inline]
    pub(crate) fn refresh_charge(&mut self, d: DomainId) {
        let freq = self.clocks[d.index()].current_freq_mhz();
        if freq.to_bits() != self.charges[d.index()].freq_bits {
            self.charges[d.index()] = self.edge_charge(d, freq);
        }
    }

    /// Charges the gating floor to every idle-charged structure of domain
    /// `d` that `used` (in [`IDLE_CHARGED`] order) leaves unused.
    #[inline]
    pub(crate) fn charge_idle_structures(&mut self, d: DomainId, used: &[bool]) {
        let charge = &self.charges[d.index()];
        for ((&s, &e), &used) in IDLE_CHARGED[d.index()].iter().zip(&charge.idle).zip(used) {
            if !used {
                self.energy.charge_idle(s, e);
            }
        }
    }

    /// Charges one cycle of domain `d`'s clock grid.
    #[inline]
    pub(crate) fn charge_clock(&mut self, d: DomainId) {
        self.energy.charge_clock(d, self.charges[d.index()].clock);
    }

    /// Takes out the sums an idle edge of on-chip domain `d` adds to.
    #[inline]
    fn idle_sums(&self, d: DomainId) -> IdleEdgeSums {
        IdleEdgeSums {
            energy: self.energy.idle_sums(IDLE_CHARGED[d.index()], d),
            freq: self.freq_acc[d.index()].weighted_sum,
        }
    }

    /// Puts back sums taken with [`McdProcessor::idle_sums`] after `edges`
    /// idle edges were added to them.
    #[inline]
    fn put_idle_sums(&mut self, d: DomainId, sums: &IdleEdgeSums, edges: u64) {
        self.energy
            .put_idle_sums(IDLE_CHARGED[d.index()], d, &sums.energy);
        let fa = &mut self.freq_acc[d.index()];
        fa.weighted_sum = sums.freq;
        fa.cycles += edges;
    }

    /// Charges one idle edge of on-chip domain `d` (see
    /// [`IdleEdgeSums::add_edge`]).
    #[inline]
    pub(crate) fn charge_idle_edge(&mut self, d: DomainId) {
        let mut sums = self.idle_sums(d);
        sums.add_edge(
            &self.charges[d.index()],
            self.clocks[d.index()].current_freq_mhz(),
        );
        self.put_idle_sums(d, &sums, 1);
    }

    /// Time at which a value produced at `t` in `from` becomes visible in
    /// `to`.
    pub(crate) fn cross_domain_visible(&self, t: TimePs, from: DomainId, to: DomainId) -> TimePs {
        if from == to {
            return t;
        }
        let dst = self.clock(to);
        self.sync
            .capture_time(t, dst.next_edge_ps(), dst.current_period_ps())
    }

    /// Fills the per-domain visibility vector for a result produced at `t`
    /// in `from`.
    pub(crate) fn visibility_vector(&self, t: TimePs, from: DomainId) -> [TimePs; 5] {
        let mut v = [t; 5];
        for d in DomainId::ALL {
            v[d.index()] = self.cross_domain_visible(t, from, d);
        }
        v
    }

    pub(crate) fn exec_domain_of(op: OpClass) -> DomainId {
        crate::inflight::exec_domain_of(op)
    }

    /// Per-cycle frequency bookkeeping shared by all domain cycles.
    pub(crate) fn accumulate_freq(&mut self, domain: DomainId) {
        let fa = &mut self.freq_acc[domain.index()];
        fa.weighted_sum += self.clocks[domain.index()].current_freq_mhz();
        fa.cycles += 1;
    }

    // ----------------------------------------------------------------
    // Control intervals.
    // ----------------------------------------------------------------

    pub(crate) fn end_interval(&mut self) {
        let fe_cycles_total = self.clocks[DomainId::FrontEnd.index()].cycles();
        let frontend_cycles = fe_cycles_total - self.frontend_cycles_at_interval_start;
        self.frontend_cycles_at_interval_start = fe_cycles_total;
        let instructions = self.config.interval_instructions;
        let ipc = if frontend_cycles == 0 {
            0.0
        } else {
            instructions as f64 / frontend_cycles as f64
        };

        let mut domain_samples = Vec::with_capacity(3);
        for d in CONTROLLABLE_DOMAINS {
            let util = match d {
                DomainId::Integer => self.int_iq.take_average_occupancy(),
                DomainId::FloatingPoint => self.fp_iq.take_average_occupancy(),
                DomainId::LoadStore => self.lsq.take_average_occupancy(),
                _ => 0.0,
            };
            let counters = &mut self.domain_counters[d.index()];
            let cycles = counters.cycles - counters.cycles_at_interval_start;
            counters.cycles_at_interval_start = counters.cycles;
            let busy = counters.busy_cycles;
            let issued = counters.issued;
            counters.busy_cycles = 0;
            counters.issued = 0;
            domain_samples.push(DomainSample {
                domain: d,
                queue_utilization: util,
                domain_cycles: cycles,
                busy_cycles: busy,
                issued_instructions: issued,
                freq_mhz: self.clocks[d.index()].target_freq_mhz(),
            });
        }

        let mut sample = IntervalSample {
            interval: self.interval_index,
            instructions,
            frontend_cycles,
            ipc,
            domains: domain_samples,
        };
        let commands = self.controller.interval_update(&sample);
        for cmd in commands {
            if !cmd.domain.is_controllable() {
                continue;
            }
            let point = self.table.nearest(cmd.target_freq_mhz);
            let clock = &mut self.clocks[cmd.domain.index()];
            clock.set_target_freq(point.freq_mhz);
            self.refresh_charge(cmd.domain);
        }

        if self.config.record_intervals {
            // The record holds the targets the controller just set.
            for d in &mut sample.domains {
                d.freq_mhz = self.clocks[d.domain.index()].target_freq_mhz();
            }
            self.intervals.push(sample);
        }
        self.interval_index += 1;
    }

    // ----------------------------------------------------------------
    // Main loop.
    // ----------------------------------------------------------------

    /// Runs the processor on an instruction stream until the configured
    /// instruction budget is committed or the stream is exhausted and the
    /// pipeline has drained.  Returns the run telemetry.
    ///
    /// Edges run in global time order through a tournament over the four
    /// on-chip clocks, except in quiet time: after a few idle steps in a
    /// row the loop computes the quiet horizon — the earliest time at
    /// which any edge can do more than bookkeeping — and steps every
    /// domain's edges before it in one tight loop per domain.  The result
    /// is the one edge-by-edge stepping gives (`docs/ARCHITECTURE.md`,
    /// "Quiet-time catch-up").
    ///
    /// # Panics
    ///
    /// Panics if the processor has already run (a processor simulates one
    /// window), or if the simulation makes no forward progress for an
    /// extended period (an internal invariant violation, not a legitimate
    /// outcome).
    pub fn run<S: InstructionStream>(&mut self, mut stream: S) -> SimResult {
        assert!(
            self.clocks.iter().all(|c| c.cycles() == 0),
            "run called on a processor that already ran"
        );
        #[expect(clippy::disallowed_types, reason = "host wall time for HostStats")]
        let wall_start = std::time::Instant::now();
        let start_ps = self
            .clocks
            .iter()
            .map(|c| c.next_edge_ps())
            .min()
            .unwrap_or(0);
        // Livelock watchdog: committed-instruction count and simulated
        // time of the most recent forward progress.
        let mut progress = (0, start_ps);
        // Consecutive idle kernel steps.
        let mut quiet_streak = 0u32;

        loop {
            if self.committed >= self.config.max_instructions {
                break;
            }
            if self.stream_done
                && self.fetch_buffer.is_empty()
                && self.rob.is_empty()
                && self.inflight.is_empty()
            {
                break;
            }
            if quiet_streak >= QUIET_STREAK && self.catch_up_allowed() {
                if let Some(horizon) = self.quiet_horizon(progress.1) {
                    self.catch_up(horizon);
                }
                quiet_streak = 0;
                continue;
            }

            // Pick the on-chip domain with the earliest pending edge: a
            // fixed two-round tournament over the four domains.  Ties must
            // break in `ON_CHIP_DOMAINS` order (front end first) — `<=`
            // keeps the earlier position on equal edges in both rounds,
            // reproducing the first-minimum semantics the historical
            // `min_by_key` over `ON_CHIP_DOMAINS` had.  Clocks are always
            // addressed through `DomainId::index`, so the tournament stays
            // correct even if the domain order or index mapping changes.
            const D: [DomainId; 4] = mcd_clock::ON_CHIP_DOMAINS;
            let edges = [
                self.clocks[D[0].index()].next_edge_ps(),
                self.clocks[D[1].index()].next_edge_ps(),
                self.clocks[D[2].index()].next_edge_ps(),
                self.clocks[D[3].index()].next_edge_ps(),
            ];
            let a = usize::from(edges[0] > edges[1]);
            let b = 2 + usize::from(edges[2] > edges[3]);
            let domain = D[if edges[a] <= edges[b] { a } else { b }];
            let now = self.clocks[domain.index()].advance();
            self.refresh_charge(domain);

            let idle = match domain {
                DomainId::FrontEnd => self.frontend_cycle(now, &mut stream),
                DomainId::Integer | DomainId::FloatingPoint => self.exec_domain_cycle(domain, now),
                DomainId::LoadStore => self.loadstore_cycle(now),
                DomainId::External => true,
            };
            quiet_streak = if idle {
                quiet_streak.saturating_add(1)
            } else {
                0
            };

            // Watchdog against livelock.
            if self.committed > progress.0 {
                progress = (self.committed, now);
            } else if now.saturating_sub(progress.1) > COMMIT_WATCHDOG_PS {
                panic!(
                    "simulator livelock: no commit for {} ps at instruction {}",
                    now - progress.1,
                    self.committed
                );
            }
        }

        self.finish(start_ps, wall_start.elapsed().as_secs_f64())
    }

    /// Runs the whole window with [`McdProcessor::run`]; `_max_cycles` is
    /// ignored.  Exists only for the out-of-workspace benchmark package
    /// (`perfbench/`), which still calls it, and goes with the next change
    /// to that package.
    pub fn run_for<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        _max_cycles: u64,
    ) -> StepOutcome {
        StepOutcome::Finished(self.run(stream))
    }

    /// Whether the main loop may catch quiet time up (always, outside the
    /// tests that compare it against plain stepping).
    #[inline]
    fn catch_up_allowed(&self) -> bool {
        #[cfg(test)]
        {
            !self.plain_stepping
        }
        #[cfg(not(test))]
        {
            true
        }
    }

    /// The quiet horizon: the earliest simulated time at which an on-chip
    /// edge can do more than bookkeeping, or `None` when some domain may
    /// have work at its next edge.
    ///
    /// An edge before the horizon finds nothing to do in any domain:
    ///
    /// * integer and floating point — no timeline event due
    ///   ([`DomainTimeline::next_due`]) and an empty ready list (a
    ///   non-empty one means `None`);
    /// * load/store — no event due, no entry entering the LSQ's visible
    ///   prefix or latching its operand flag, and a memoized empty or
    ///   all-blocked scan (no memo means `None`);
    /// * front end — the ROB head not yet visibly completed, fetch stalled
    ///   (when nothing else stops it) and a fetch-buffer head that cannot
    ///   dispatch (one that can means `None`);
    /// * the livelock watchdog, armed by the last forward progress at
    ///   `progress_ps`, not yet due.
    ///
    /// Idle edges change none of these inputs — only a busy edge does — so
    /// the horizon holds until the first edge at or after it.
    fn quiet_horizon(&self, progress_ps: TimePs) -> Option<TimePs> {
        if !self.timeline.ready(DomainId::Integer).is_empty()
            || !self.timeline.ready(DomainId::FloatingPoint).is_empty()
            || !self.lsq.scan_memoized()
            || self
                .fetch_buffer
                .front()
                .is_some_and(|inst| self.can_dispatch(inst))
        {
            return None;
        }
        let watchdog_ps = progress_ps.saturating_add(COMMIT_WATCHDOG_PS + 1);
        let mut horizon = ON_CHIP_DOMAINS
            .iter()
            .map(|&d| self.timeline.next_due(d))
            .fold(watchdog_ps, TimePs::min)
            .min(self.lsq.earliest_pending_ps())
            .min(self.lsq.min_unflagged_ready_ps());
        if let Some(head) = self.rob.head().filter(|head| head.completed) {
            horizon = horizon.min(head.completion_visible_ps);
        }
        if self.fetch_blocked_by.is_none()
            && !self.stream_done
            && self.fetch_buffer.len() < self.config.arch.fetch_buffer_size
        {
            horizon = horizon.min(self.fetch_stalled_until);
        }
        Some(horizon)
    }

    /// Steps every on-chip domain, one domain at a time, through its edges
    /// before `horizon`, charging each as an idle handler would.
    ///
    /// Exact: every edge before the horizon is idle, and an idle edge
    /// touches only its own domain's state (clock, charges, the sums of
    /// [`IdleEdgeSums`], counters and queue occupancy), so the domains'
    /// edges commute.  Every per-structure float sum receives its charges
    /// in the original order.
    fn catch_up(&mut self, horizon: TimePs) {
        let mut stepped = 0;
        for d in ON_CHIP_DOMAINS {
            stepped += self.catch_up_domain(d, horizon);
        }
        if stepped > 0 {
            self.quiet_skips += 1;
        }
    }

    /// Steps on-chip domain `d` through its edges before `horizon` (see
    /// [`McdProcessor::catch_up`]) and returns how many it stepped.
    fn catch_up_domain(&mut self, d: DomainId, horizon: TimePs) -> u64 {
        let di = d.index();
        if self.clocks[di].next_edge_ps() >= horizon {
            return 0;
        }
        let mut sums = self.idle_sums(d);
        let mut edges = 0;
        while self.clocks[di].next_edge_ps() < horizon {
            self.clocks[di].advance();
            self.refresh_charge(d);
            sums.add_edge(&self.charges[di], self.clocks[di].current_freq_mhz());
            edges += 1;
        }
        self.put_idle_sums(d, &sums, edges);
        self.domain_counters[di].cycles += edges;
        self.idle_steps[di] += edges;
        self.skipped_steps[di] += edges;
        match d {
            DomainId::Integer => self.int_iq.accumulate_occupancy_for(edges),
            DomainId::FloatingPoint => self.fp_iq.accumulate_occupancy_for(edges),
            DomainId::LoadStore => self.lsq.accumulate_occupancy_for(edges),
            DomainId::FrontEnd | DomainId::External => {}
        }
        edges
    }

    /// The telemetry of a run that started at `start_ps` and took
    /// `wall_seconds` on the host.
    fn finish(&mut self, start_ps: TimePs, wall_seconds: f64) -> SimResult {
        self.controller.finish();
        let elapsed = self.last_commit_ps.saturating_sub(start_ps).max(1);
        let avg_domain_freq_mhz = CONTROLLABLE_DOMAINS
            .iter()
            .map(|&d| {
                let fa = &self.freq_acc[d.index()];
                let avg = if fa.cycles == 0 {
                    self.clocks[d.index()].current_freq_mhz()
                } else {
                    fa.weighted_sum / fa.cycles as f64
                };
                (d, avg as MegaHertz)
            })
            .collect();

        let mut host = HostStats::from_run(self.committed, wall_seconds);
        host.events = self.timeline.stats();
        for d in ON_CHIP_DOMAINS {
            host.domain_steps[d.index()] = self.clocks[d.index()].cycles();
        }
        host.idle_steps = self.idle_steps;
        host.skipped_steps = self.skipped_steps;
        host.quiet_skips = self.quiet_skips;

        SimResult {
            committed_instructions: self.committed,
            frontend_cycles: self.clocks[DomainId::FrontEnd.index()].cycles(),
            elapsed_ps: elapsed,
            energy: self.energy.breakdown(),
            branch_stats: self.predictor.stats(),
            l1i_stats: self.l1i.stats(),
            l1d_stats: self.l1d.stats(),
            l2_stats: self.l2.stats(),
            memory_accesses: self.memory_accesses,
            mispredict_redirects: self.mispredict_redirects,
            intervals: std::mem::take(&mut self.intervals),
            avg_domain_freq_mhz,
            host: NotCompared(host),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_control::{AttackDecayController, AttackDecayParams, FixedController};
    use mcd_workloads::{Benchmark, WorkloadGenerator};
    use proptest::prelude::*;

    fn run_benchmark(
        bench: Benchmark,
        insts: u64,
        config: SimConfig,
        controller: Box<dyn FrequencyController>,
    ) -> SimResult {
        let stream = WorkloadGenerator::new(&bench.spec(), 42, insts);
        let mut cpu = McdProcessor::new(config, controller);
        cpu.run(stream)
    }

    #[test]
    fn baseline_run_commits_all_instructions() {
        let r = run_benchmark(
            Benchmark::Adpcm,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::at_max()),
        );
        assert_eq!(r.committed_instructions, 30_000);
        assert!(r.cpi() > 0.2 && r.cpi() < 10.0, "cpi = {}", r.cpi());
        assert!(r.elapsed_ps > 0);
        assert!(r.chip_energy() > 0.0);
        assert!(r.branch_stats.direction_predictions > 0);
        // Host-throughput telemetry is populated, and the simulated MIPS
        // are derived from the run's wall-clock.
        assert!(r.host.wall_seconds > 0.0);
        let implied_mips = r.committed_instructions as f64 / r.host.wall_seconds / 1e6;
        assert!((r.host.simulated_mips - implied_mips).abs() < 1e-9);
    }

    #[test]
    fn results_are_deterministic() {
        let a = run_benchmark(
            Benchmark::Gsm,
            20_000,
            SimConfig::baseline_mcd(20_000),
            Box::new(FixedController::at_max()),
        );
        let b = run_benchmark(
            Benchmark::Gsm,
            20_000,
            SimConfig::baseline_mcd(20_000),
            Box::new(FixedController::at_max()),
        );
        assert_eq!(a.committed_instructions, b.committed_instructions);
        assert_eq!(a.frontend_cycles, b.frontend_cycles);
        assert_eq!(a.elapsed_ps, b.elapsed_ps);
        assert!((a.chip_energy() - b.chip_energy()).abs() < 1e-9);
    }

    #[test]
    fn synchronous_processor_is_at_least_as_fast_as_mcd_baseline() {
        let sync = run_benchmark(
            Benchmark::Gzip,
            40_000,
            SimConfig::fully_synchronous(40_000),
            Box::new(FixedController::at_max()),
        );
        let mcd = run_benchmark(
            Benchmark::Gzip,
            40_000,
            SimConfig::baseline_mcd(40_000),
            Box::new(FixedController::at_max()),
        );
        // The MCD baseline pays synchronization penalties: slower, and with
        // extra clock energy.  The paper puts the inherent degradation below
        // a few percent.
        let degradation = mcd.elapsed_ps as f64 / sync.elapsed_ps as f64 - 1.0;
        assert!(
            degradation > -0.01,
            "MCD baseline should not be faster than the synchronous processor ({degradation})"
        );
        assert!(
            degradation < 0.10,
            "MCD inherent degradation should be small, got {degradation}"
        );
        assert!(mcd.chip_energy() > sync.chip_energy());
    }

    #[test]
    fn memory_bound_workload_misses_to_main_memory() {
        let r = run_benchmark(
            Benchmark::Mcf,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::at_max()),
        );
        assert!(
            r.memory_accesses > 50,
            "mcf should miss to memory, got {}",
            r.memory_accesses
        );
        assert!(r.l2_stats.misses > 50);
        // Memory-bound code has a much higher CPI than cache-resident code.
        let fast = run_benchmark(
            Benchmark::Adpcm,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::at_max()),
        );
        assert!(r.cpi() > fast.cpi());
    }

    #[test]
    fn fp_workload_exercises_the_fp_domain() {
        let fp = run_benchmark(
            Benchmark::Swim,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::at_max()),
        );
        let int = run_benchmark(
            Benchmark::Gzip,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::at_max()),
        );
        // Compare the FP ALU's *share* of chip energy so that differing run
        // lengths (and therefore differing idle-gating charges) cancel out.
        let fp_share = fp.energy.structure(Structure::FpAlu) / fp.chip_energy();
        let int_share = int.energy.structure(Structure::FpAlu) / int.chip_energy();
        assert!(
            fp_share > int_share,
            "swim's FP ALU share ({fp_share:.4}) must exceed gzip's ({int_share:.4})"
        );
    }

    #[test]
    fn pinning_a_domain_low_slows_execution_and_saves_domain_energy() {
        let base = run_benchmark(
            Benchmark::Gzip,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::at_max()),
        );
        let slowed = run_benchmark(
            Benchmark::Gzip,
            30_000,
            SimConfig::baseline_mcd(30_000),
            Box::new(FixedController::pinned(vec![(DomainId::Integer, 250.0)])),
        );
        assert!(
            slowed.elapsed_ps > base.elapsed_ps,
            "slowing the integer domain must cost time"
        );
        assert!(
            slowed.energy.domain(DomainId::Integer) < base.energy.domain(DomainId::Integer),
            "integer-domain energy must fall at 250 MHz / 0.65 V"
        );
    }

    #[test]
    fn attack_decay_controller_changes_domain_frequencies() {
        let mut cfg = SimConfig::baseline_mcd(120_000);
        cfg.record_intervals = true;
        let table = OperatingPointTable::from_params(&cfg.clock);
        let ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table);
        let r = run_benchmark(Benchmark::Gzip, 120_000, cfg, Box::new(ctrl));
        assert_eq!(r.committed_instructions, 120_000);
        assert!(!r.intervals.is_empty());
        // The FP domain is unused by gzip: the controller must have decayed
        // its frequency below the maximum by the end of the run.
        let last = r.intervals.last().unwrap();
        let fp_last = last.domain(DomainId::FloatingPoint).unwrap().freq_mhz;
        assert!(
            fp_last < 995.0,
            "unused FP domain should have decayed, final target = {fp_last}"
        );
        let fp_avg = r.avg_freq(DomainId::FloatingPoint).unwrap();
        assert!(
            fp_avg < 1000.0,
            "average must reflect the decay, avg = {fp_avg}"
        );
    }

    #[test]
    fn profile_is_recorded_for_offline_oracle() {
        let mut cfg = SimConfig::baseline_mcd(40_000);
        cfg.record_intervals = true;
        let r = run_benchmark(
            Benchmark::Epic,
            40_000,
            cfg,
            Box::new(FixedController::at_max()),
        );
        assert_eq!(r.intervals.len() as u64, 40_000 / 10_000);
        for (i, sample) in r.intervals.iter().enumerate() {
            assert_eq!(sample.interval, i as u64);
            assert_eq!(sample.instructions, 10_000);
            assert!(sample.frontend_cycles > 0);
            assert_eq!(sample.domains.len(), CONTROLLABLE_DOMAINS.len());
        }
    }

    #[test]
    fn a_trailing_partial_interval_is_not_recorded() {
        let mut cfg = SimConfig::baseline_mcd(2_500);
        cfg.interval_instructions = 1_000;
        cfg.record_intervals = true;
        let r = run_benchmark(
            Benchmark::Gzip,
            2_500,
            cfg,
            Box::new(FixedController::at_max()),
        );
        assert_eq!(r.committed_instructions, 2_500);
        assert_eq!(r.intervals.len(), 2);
        assert!(r.intervals.iter().all(|s| s.instructions == 1_000));
    }

    #[test]
    fn recording_intervals_never_changes_the_simulation() {
        let table = OperatingPointTable::default();
        let insts = 20_000;
        type Controller = fn(&OperatingPointTable) -> Box<dyn FrequencyController>;
        let runs: [(SimConfig, Controller); 3] = [
            (SimConfig::fully_synchronous(insts), |_| {
                Box::new(FixedController::at_max())
            }),
            (SimConfig::baseline_mcd(insts), |_| {
                Box::new(FixedController::at_max())
            }),
            (SimConfig::baseline_mcd(insts), |t| {
                Box::new(AttackDecayController::new(
                    AttackDecayParams::paper_defaults(),
                    t,
                ))
            }),
        ];
        for (mut cfg, controller) in runs {
            cfg.interval_instructions = 1_000;
            let plain = run_benchmark(Benchmark::Gzip, insts, cfg.clone(), controller(&table));
            assert!(plain.intervals.is_empty(), "nothing is recorded by default");
            cfg.record_intervals = true;
            let mut recorded = run_benchmark(Benchmark::Gzip, insts, cfg, controller(&table));
            assert_eq!(recorded.intervals.len(), 20);
            recorded.intervals.clear();
            assert_eq!(recorded, plain);
        }
    }

    #[test]
    fn short_stream_drains_cleanly() {
        // Stream shorter than the instruction budget: the pipeline drains
        // and the run ends without hitting the watchdog.
        let stream = WorkloadGenerator::new(&Benchmark::Adpcm.spec(), 3, 5_000);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(1_000_000),
            Box::new(FixedController::at_max()),
        );
        let r = cpu.run(stream);
        assert_eq!(r.committed_instructions, 5_000);
    }

    #[test]
    fn sequence_numbers_wrapping_past_rob_size_do_not_alias() {
        // End-to-end slab-reuse regression test: a run of many times the
        // ROB size in instructions forces every slot of the in-flight slab
        // to be reused dozens of times.  Any aliasing of stale entries
        // would either trip the slab's collision panic, deadlock issue
        // (operands never ready -> watchdog panic), or corrupt the commit
        // count.
        let insts = 25_000; // ~300x the 80-entry ROB
        let r = run_benchmark(
            Benchmark::Gsm,
            insts,
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        assert_eq!(r.committed_instructions, insts);
    }

    #[test]
    #[should_panic(expected = "invalid simulator configuration")]
    fn invalid_config_panics() {
        let mut cfg = SimConfig::baseline_mcd(0);
        cfg.max_instructions = 0;
        let _ = McdProcessor::new(cfg, Box::new(FixedController::at_max()));
    }

    #[test]
    fn step_counters_account_for_every_kernel_step() {
        // Every kernel step is one edge of one on-chip domain, so the
        // per-domain step counts sum to the edges the clocks advanced, and
        // idle steps are a subset of each domain's steps.
        let insts = 5_000;
        let stream = WorkloadGenerator::new(&Benchmark::Mcf.spec(), 42, insts);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        let r = cpu.run(stream);
        let steps: u64 = cpu.clocks.iter().map(|c| c.cycles()).sum();
        let host = &r.host;
        assert_eq!(host.total_steps(), steps);
        assert_eq!(
            host.domain_steps[DomainId::FrontEnd.index()],
            r.frontend_cycles
        );
        for d in mcd_clock::ON_CHIP_DOMAINS {
            let i = d.index();
            assert!(host.skipped_steps[i] <= host.idle_steps[i], "{host:?}");
            assert!(host.idle_steps[i] <= host.domain_steps[i], "{host:?}");
        }
        // mcf is memory bound: most of its edges do no work, and most of
        // those sit in whole-machine quiet time the catch-up steps.
        assert!(host.idle_step_fraction() > 0.5, "{host:?}");
        assert!(host.skipped_step_fraction() > 0.5, "{host:?}");
        assert!(host.quiet_skips > 0);
        assert!(r.steps_per_commit() > 4.0);
    }

    /// The controllers the catch-up exactness test draws from: fixed at
    /// the maximum, floating point and load/store pinned low, and
    /// Attack/Decay (which ramps clocks mid-run).
    fn controller(kind: u8, config: &SimConfig) -> Box<dyn FrequencyController> {
        match kind {
            0 => Box::new(FixedController::at_max()),
            1 => Box::new(FixedController::pinned(vec![
                (DomainId::FloatingPoint, 250.0),
                (DomainId::LoadStore, 600.0),
            ])),
            _ => {
                let table = OperatingPointTable::from_params(&config.clock);
                Box::new(AttackDecayController::new(
                    AttackDecayParams::paper_defaults(),
                    &table,
                ))
            }
        }
    }

    /// Runs a workload with or without the quiet-time catch-up.
    fn run_with_catch_up(
        bench: Benchmark,
        seed: u64,
        config: &SimConfig,
        controller_kind: u8,
        catch_up: bool,
    ) -> SimResult {
        let stream = WorkloadGenerator::new(&bench.spec(), seed, config.max_instructions);
        let mut cpu = McdProcessor::new(config.clone(), controller(controller_kind, config));
        cpu.plain_stepping = !catch_up;
        cpu.run(stream)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The quiet-time catch-up is exact: a run with it equals the run
        /// that steps every edge through the tournament — over every
        /// benchmark, seeds, controllers, both clocking modes and two
        /// memory issue widths.  At width 4 more loads are ready in one
        /// scan than the two MemPorts take, so loads lose the port; at the
        /// paper's width 2 they never do.
        #[test]
        fn catch_up_matches_plain_stepping(
            bench_sel in 0usize..30,
            seed in 0u64..1_000,
            controller_kind in 0u8..3,
            synchronous in 0u8..2,
            wide_mem in 0u8..2,
        ) {
            let bench = Benchmark::ALL[bench_sel % Benchmark::ALL.len()];
            let insts = 3_000;
            let mut config = if synchronous == 1 {
                SimConfig::fully_synchronous(insts)
            } else {
                SimConfig::baseline_mcd(insts)
            };
            config.seed = seed;
            // Short control intervals, so Attack/Decay retargets (and the
            // clocks ramp) within the run.
            config.interval_instructions = 500;
            config.record_intervals = true;
            config.arch.mem_issue_width = [2, 4][wide_mem as usize];
            let plain = run_with_catch_up(bench, seed, &config, controller_kind, false);
            let caught_up = run_with_catch_up(bench, seed, &config, controller_kind, true);
            prop_assert!(
                caught_up == plain,
                "{bench:?} seed {seed} controller {controller_kind} diverged"
            );
            prop_assert_eq!(plain.host.skipped_steps, [0; 4]);
            prop_assert!(caught_up.host.quiet_skips > 0, "no catch-up ran");
        }
    }

    #[test]
    #[should_panic(expected = "already ran")]
    fn running_a_processor_twice_panics() {
        let insts = 500;
        let spec = Benchmark::Adpcm.spec();
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        let _ = cpu.run(WorkloadGenerator::new(&spec, 42, insts));
        let _ = cpu.run(WorkloadGenerator::new(&spec, 42, insts));
    }
}
