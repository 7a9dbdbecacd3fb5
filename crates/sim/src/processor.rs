//! The MCD out-of-order processor model and its simulation loop.
//!
//! The simulator is time driven at domain-cycle granularity: each of the
//! four on-chip domains has its own [`DomainClock`]; the main loop always
//! advances to the earliest pending clock edge and executes one cycle of
//! that domain.  Values crossing a domain boundary (dispatch into an issue
//! queue, cross-domain operand wakeup, completion reports to the ROB,
//! cache-miss traffic to memory) become visible in the destination domain
//! only at the capture time computed by the [`SyncWindow`] rule, which is
//! how the MCD synchronization penalties of the paper arise.
//!
//! The kernel is split across focused modules:
//!
//! * `frontend` — fetch, rename/dispatch, commit (the front-end domain);
//! * `exec` — the integer/floating-point domains' wakeup-select-issue
//!   cycle plus writeback;
//! * `lsq` — the load/store domain's cycle and the cache hierarchy timing;
//! * `events` — the per-domain calendar-queue timelines carrying tagged
//!   completion/wakeup events plus the ready lists they feed;
//! * `inflight` — the dense, ROB-indexed in-flight instruction slab.
//!
//! This file owns the processor structure, construction, the control
//! intervals and the main event loop.

use std::collections::VecDeque;
use std::time::Instant;

use mcd_clock::{
    DomainClock, DomainId, MegaHertz, OperatingPointTable, SyncWindow, TimePs,
    CONTROLLABLE_DOMAINS, ON_CHIP_DOMAINS,
};
use mcd_control::{DomainSample, FrequencyController, IntervalSample, OfflineProfile};
use mcd_isa::{DynInst, InstructionStream, OpClass, SeqNum};
use mcd_microarch::{
    BranchPredictor, Cache, FuPool, FuPoolConfig, IssueQueue, LoadStoreQueue, Prediction,
    RenameAllocator, RenameMap, ReorderBuffer,
};
use mcd_power::{EnergyAccount, Structure};

use serde::codec::{ByteReader, ByteWriter, CodecError, Result as CodecResult};

use crate::config::{ClockingMode, SimConfig};
use crate::events::{DomainTimeline, TimelineEvent};
use crate::inflight::{InFlightTable, Woken};
use crate::telemetry::{DomainTrace, HostStats, IntervalRecord, SimResult};

/// Abort the run if no instruction commits for this much simulated time
/// (catches simulator bugs rather than real behaviour: even a chain of
/// serialized main-memory misses commits every ~100 ns).
const COMMIT_WATCHDOG_PS: TimePs = 200_000_000;

/// Outcome of one [`McdProcessor::run_for`] slice.
///
/// A paused run is resumable from exactly where it stopped: every piece of
/// loop-carried simulation state (front end, in-flight slab, event queues,
/// LSQ, clock/ramp state, controller state, telemetry accumulators, the
/// livelock watchdog and the host wall-clock accumulator) lives in the
/// processor, so the sequence of slice boundaries is invisible to the
/// simulated machine and the final [`SimResult`] is bit-identical no matter
/// how the run was sliced.
// `Finished` carries the full telemetry; the size gap to the unit `Paused`
// variant is intentional — the value is matched once per slice, never
// stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StepOutcome {
    /// The cycle budget of the slice was exhausted before the run finished;
    /// call [`McdProcessor::run_for`] again (with the same stream) to
    /// continue.
    Paused,
    /// The run completed and produced its telemetry.  The processor must
    /// not be stepped again.
    Finished(SimResult),
}

/// Loop-carried state of the main event loop that is not part of the
/// simulated machine itself: established on the first kernel step and kept
/// in the processor so a run can pause and resume at any cycle boundary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunState {
    /// Simulated time of the first pending edge when the run started
    /// (`None` until the first `run_for` call).
    pub(crate) start_ps: Option<TimePs>,
    /// Livelock watchdog: committed-instruction count and simulated time of
    /// the most recent forward progress.
    pub(crate) last_commit_check: (u64, TimePs),
    /// Host wall-clock seconds spent inside `run_for` so far, summed across
    /// all slices (which may execute on different worker threads).
    pub(crate) wall_seconds: f64,
    /// Set when the run finished; stepping a finished processor panics.
    pub(crate) done: bool,
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
    /// The unified per-domain event machinery: calendar-queue timelines
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
    /// Instructions dispatched through a precomputed trace-annotation
    /// sidecar (host telemetry only — not serialized: the counters
    /// describe *how* this process dispatched, not simulated state, and a
    /// restored run may legitimately continue on a different stream kind).
    pub(crate) ann_fed: u64,
    /// Instructions dispatched via live rename-map re-derivation (host
    /// telemetry only — not serialized, see `ann_fed`).
    pub(crate) ann_recomputed: u64,
    /// Per on-chip domain: edges whose handler only did bookkeeping (host
    /// telemetry only — not serialized, see `ann_fed`).
    pub(crate) idle_steps: [u64; 4],
    pub(crate) mispredict_redirects: u64,
    pub(crate) memory_accesses: u64,
    pub(crate) interval_index: u64,
    pub(crate) frontend_cycles_at_interval_start: u64,
    pub(crate) domain_counters: [DomainIntervalCounters; 5],
    pub(crate) freq_acc: [FreqAccumulator; 5],
    pub(crate) first_commit_ps: Option<TimePs>,
    pub(crate) last_commit_ps: TimePs,
    pub(crate) intervals: Vec<IntervalRecord>,
    pub(crate) profile: OfflineProfile,

    // Main-loop state surviving across `run_for` pauses.
    pub(crate) run_state: RunState,
}

// A paused run (`mcd-core`'s `PausableRun`) may resume on another thread
// than the one that paused it; everything inside (including the boxed
// controller, whose trait requires `Send`) must be owned state.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<McdProcessor>();
};

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

        // Calendar buckets are quantized by each domain's settled period;
        // `end_interval` re-quantizes when the controller retargets a
        // domain.
        let mut granules = [0; 5];
        for d in DomainId::ALL {
            granules[d.index()] = clocks[d.index()].target_period_ps();
        }

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
            timeline: DomainTimeline::new(granules),
            inflight: InFlightTable::new(config.arch.rob_size),
            pending_predictions: VecDeque::with_capacity(config.arch.fetch_buffer_size),
            scratch_seqs: Vec::with_capacity(config.arch.lsq_size.max(config.arch.rob_size)),
            scratch_woken: Vec::with_capacity(config.arch.rob_size),
            scratch_events: Vec::with_capacity(config.arch.rob_size),
            scratch_ready: Vec::with_capacity(config.arch.rob_size),
            energy: EnergyAccount::new(config.energy.clone()),
            charges: [EdgeCharge::default(); 4],
            committed: 0,
            ann_fed: 0,
            ann_recomputed: 0,
            idle_steps: [0; 4],
            mispredict_redirects: 0,
            memory_accesses: 0,
            interval_index: 0,
            frontend_cycles_at_interval_start: 0,
            domain_counters: Default::default(),
            freq_acc: Default::default(),
            first_commit_ps: None,
            last_commit_ps: 0,
            intervals: Vec::new(),
            profile: OfflineProfile::new(),
            run_state: RunState::default(),
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

        // Profile for the off-line oracle.
        self.profile.push_interval(domain_samples.clone());

        let sample = IntervalSample {
            interval: self.interval_index,
            instructions,
            frontend_cycles,
            ipc,
            domains: domain_samples.clone(),
        };
        let commands = self.controller.interval_update(&sample);
        for cmd in commands {
            if !cmd.domain.is_controllable() {
                continue;
            }
            let point = self.table.nearest(cmd.target_freq_mhz);
            let clock = &mut self.clocks[cmd.domain.index()];
            clock.set_target_freq(point.freq_mhz);
            // Keep the calendar's time-to-bucket quantization in step with
            // the domain's settled period (a no-op when the target period
            // is unchanged; re-indexes the domain's pending events
            // otherwise).
            self.timeline
                .set_granule(cmd.domain, clock.target_period_ps());
            self.refresh_charge(cmd.domain);
        }

        if self.config.record_traces {
            self.intervals.push(IntervalRecord {
                interval: self.interval_index,
                committed: self.committed,
                ipc,
                domains: domain_samples
                    .iter()
                    .map(|s| DomainTrace {
                        domain: s.domain,
                        queue_utilization: s.queue_utilization,
                        freq_mhz: self.clocks[s.domain.index()].target_freq_mhz(),
                    })
                    .collect(),
            });
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
    /// Equivalent to a single unbounded [`McdProcessor::run_for`] slice.
    ///
    /// # Panics
    ///
    /// Panics if the simulation makes no forward progress for an extended
    /// period (an internal invariant violation, not a legitimate outcome).
    pub fn run<S: InstructionStream>(&mut self, mut stream: S) -> SimResult {
        loop {
            if let StepOutcome::Finished(result) = self.run_for(&mut stream, u64::MAX) {
                return result;
            }
        }
    }

    /// Runs at most `max_cycles` kernel steps (one step = one domain-clock
    /// edge of one domain) and pauses, or finishes the run if the
    /// instruction budget is reached or the stream drains first.
    ///
    /// The slice boundary is invisible to the simulated machine: all
    /// loop-carried state lives in the processor, so any sequence of
    /// `run_for` calls — with any slice lengths, on any threads — produces
    /// a [`SimResult`] bit-identical to an unsliced [`McdProcessor::run`],
    /// provided every call resumes with the same (stateful) stream.  Host
    /// wall-clock is accumulated across slices, so the final
    /// [`HostStats`] describe the whole run, not the last slice.
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` is zero (a zero budget makes no progress, so
    /// the documented resume loop would spin forever), if called again
    /// after it returned [`StepOutcome::Finished`], or on a livelock (no
    /// commit for an extended simulated period).
    pub fn run_for<S: InstructionStream>(
        &mut self,
        stream: &mut S,
        max_cycles: u64,
    ) -> StepOutcome {
        assert!(max_cycles > 0, "slice budget must be positive");
        assert!(
            !self.run_state.done,
            "run_for called on a finished processor"
        );
        let wall_start = Instant::now();
        if self.run_state.start_ps.is_none() {
            let start_ps = self
                .clocks
                .iter()
                .map(|c| c.next_edge_ps())
                .min()
                .unwrap_or(0);
            self.run_state.start_ps = Some(start_ps);
            self.run_state.last_commit_check = (0, start_ps);
        }

        let mut steps = 0u64;
        let finished = loop {
            if self.committed >= self.config.max_instructions {
                break true;
            }
            if self.stream_done
                && self.fetch_buffer.is_empty()
                && self.rob.is_empty()
                && self.inflight.is_empty()
            {
                break true;
            }
            if steps >= max_cycles {
                break false;
            }
            steps += 1;

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

            match domain {
                DomainId::FrontEnd => self.frontend_cycle(now, stream),
                DomainId::Integer | DomainId::FloatingPoint => self.exec_domain_cycle(domain, now),
                DomainId::LoadStore => self.loadstore_cycle(now),
                DomainId::External => {}
            }

            // Watchdog against livelock.
            if self.committed > self.run_state.last_commit_check.0 {
                self.run_state.last_commit_check = (self.committed, now);
            } else if now.saturating_sub(self.run_state.last_commit_check.1) > COMMIT_WATCHDOG_PS {
                panic!(
                    "simulator livelock: no commit for {} ps at instruction {}",
                    now - self.run_state.last_commit_check.1,
                    self.committed
                );
            }
        };

        self.run_state.wall_seconds += wall_start.elapsed().as_secs_f64();
        if finished {
            self.run_state.done = true;
            StepOutcome::Finished(self.finish())
        } else {
            StepOutcome::Paused
        }
    }

    // ----------------------------------------------------------------
    // Checkpointing.
    // ----------------------------------------------------------------

    /// Serializes every piece of loop-carried simulation state — the same
    /// state inventory that makes [`McdProcessor::run_for`] slice-invisible
    /// — so a paused run can be dropped and later restored bit-identically.
    ///
    /// The configuration and the controller's *identity* are deliberately
    /// not included: the snapshot container (`mcd-core`) records those in
    /// its header and hands [`McdProcessor::load`] a freshly built
    /// config/controller pair.  Only the controller's mutable state rides
    /// along here, via [`FrequencyController::save_state`].
    pub fn save(&self, w: &mut ByteWriter) {
        // Clocking.
        w.put_u8(self.clocks.len() as u8);
        for c in &self.clocks {
            c.save(w);
        }

        // Front end.
        self.predictor.save(w);
        self.l1i.save(w);
        self.rename_alloc.save(w);
        self.rename_map.save(w);
        self.rob.save(w);
        w.put_usize(self.fetch_buffer.len());
        for inst in &self.fetch_buffer {
            inst.encode(w);
        }
        w.put_u64(self.fetch_stalled_until);
        w.put_bool(self.fetch_blocked_by.is_some());
        if let Some(seq) = self.fetch_blocked_by {
            w.put_u64(seq);
        }
        w.put_bool(self.stream_done);

        // Execution domains.
        self.int_iq.save(w);
        self.fp_iq.save(w);
        self.lsq.save(w);
        self.int_fus.save(w);
        self.fp_fus.save(w);
        self.mem_fus.save(w);
        self.l1d.save(w);
        self.l2.save(w);
        self.timeline.save(w);

        // In-flight instructions and fetch-time predictions.
        self.inflight.save(w);
        w.put_usize(self.pending_predictions.len());
        for &(seq, p) in &self.pending_predictions {
            w.put_u64(seq);
            w.put_bool(p.taken);
            w.put_bool(p.target.is_some());
            if let Some(t) = p.target {
                w.put_u64(t);
            }
        }

        // Energy.
        self.energy.save(w);

        // Statistics.
        w.put_u64(self.committed);
        w.put_u64(self.mispredict_redirects);
        w.put_u64(self.memory_accesses);
        w.put_u64(self.interval_index);
        w.put_u64(self.frontend_cycles_at_interval_start);
        for c in &self.domain_counters {
            w.put_u64(c.cycles);
            w.put_u64(c.busy_cycles);
            w.put_u64(c.issued);
            w.put_u64(c.cycles_at_interval_start);
        }
        for fa in &self.freq_acc {
            w.put_f64(fa.weighted_sum);
            w.put_u64(fa.cycles);
        }
        w.put_bool(self.first_commit_ps.is_some());
        if let Some(t) = self.first_commit_ps {
            w.put_u64(t);
        }
        w.put_u64(self.last_commit_ps);
        w.put_usize(self.intervals.len());
        for rec in &self.intervals {
            rec.save(w);
        }
        self.profile.save(w);

        // Main-loop state.
        w.put_bool(self.run_state.start_ps.is_some());
        if let Some(t) = self.run_state.start_ps {
            w.put_u64(t);
        }
        w.put_u64(self.run_state.last_commit_check.0);
        w.put_u64(self.run_state.last_commit_check.1);
        // `wall_seconds` is host telemetry (excluded from result equality)
        // and would make snapshot bytes nondeterministic; it restarts from
        // zero after a restore.
        w.put_bool(self.run_state.done);

        // Controller-mutable state (layout owned by the controller).
        self.controller.save_state(w);
    }

    /// Rebuilds a processor from [`McdProcessor::save`] output.
    ///
    /// `config` must equal the saved processor's configuration and
    /// `controller` must be a freshly built controller of the same kind and
    /// parameters; the snapshot container is responsible for both (it
    /// stores their identity in its header).  The controller's mutable
    /// state is then restored via [`FrequencyController::load_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error on truncation or any malformed component.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn load(
        r: &mut ByteReader<'_>,
        config: SimConfig,
        controller: Box<dyn FrequencyController>,
    ) -> CodecResult<Self> {
        let energy_params = config.energy.clone();
        let mut cpu = McdProcessor::new(config, controller);

        // Clocking.
        let n_clocks = r.u8()?;
        if usize::from(n_clocks) != DomainId::ALL.len() {
            return Err(CodecError::BadTag {
                what: "processor clock count",
                got: u64::from(n_clocks),
            });
        }
        for (i, slot) in cpu.clocks.iter_mut().enumerate() {
            let clock = DomainClock::load(r)?;
            if clock.domain().index() != i {
                return Err(CodecError::BadTag {
                    what: "processor clock order",
                    got: clock.domain().index() as u64,
                });
            }
            *slot = clock;
        }

        // Front end.
        cpu.predictor = BranchPredictor::load(r)?;
        cpu.l1i = Cache::load(r)?;
        cpu.rename_alloc = RenameAllocator::load(r)?;
        cpu.rename_map = RenameMap::load(r)?;
        cpu.rob = ReorderBuffer::load(r)?;
        let n_fetch = r.usize()?;
        cpu.fetch_buffer.clear();
        for _ in 0..n_fetch {
            cpu.fetch_buffer.push_back(DynInst::decode(r)?);
        }
        cpu.fetch_stalled_until = r.u64()?;
        cpu.fetch_blocked_by = if r.bool()? { Some(r.u64()?) } else { None };
        cpu.stream_done = r.bool()?;

        // Execution domains.
        cpu.int_iq = IssueQueue::load(r)?;
        cpu.fp_iq = IssueQueue::load(r)?;
        cpu.lsq = LoadStoreQueue::load(r)?;
        cpu.int_fus = FuPool::load(r)?;
        cpu.fp_fus = FuPool::load(r)?;
        cpu.mem_fus = FuPool::load(r)?;
        cpu.l1d = Cache::load(r)?;
        cpu.l2 = Cache::load(r)?;
        cpu.timeline = DomainTimeline::load(r)?;

        // In-flight instructions and fetch-time predictions.
        cpu.inflight = InFlightTable::load(r)?;
        let n_preds = r.usize()?;
        cpu.pending_predictions.clear();
        for _ in 0..n_preds {
            let seq = r.u64()?;
            let taken = r.bool()?;
            let target = if r.bool()? { Some(r.u64()?) } else { None };
            cpu.pending_predictions
                .push_back((seq, Prediction { taken, target }));
        }

        // Energy.
        cpu.energy = EnergyAccount::load(r, energy_params)?;

        // Statistics.
        cpu.committed = r.u64()?;
        cpu.mispredict_redirects = r.u64()?;
        cpu.memory_accesses = r.u64()?;
        cpu.interval_index = r.u64()?;
        cpu.frontend_cycles_at_interval_start = r.u64()?;
        for c in &mut cpu.domain_counters {
            c.cycles = r.u64()?;
            c.busy_cycles = r.u64()?;
            c.issued = r.u64()?;
            c.cycles_at_interval_start = r.u64()?;
        }
        for fa in &mut cpu.freq_acc {
            fa.weighted_sum = r.f64()?;
            fa.cycles = r.u64()?;
        }
        cpu.first_commit_ps = if r.bool()? { Some(r.u64()?) } else { None };
        cpu.last_commit_ps = r.u64()?;
        let n_intervals = r.usize()?;
        cpu.intervals.clear();
        for _ in 0..n_intervals {
            cpu.intervals.push(IntervalRecord::load(r)?);
        }
        cpu.profile = OfflineProfile::load(r)?;

        // Main-loop state.
        cpu.run_state.start_ps = if r.bool()? { Some(r.u64()?) } else { None };
        cpu.run_state.last_commit_check = (r.u64()?, r.u64()?);
        cpu.run_state.wall_seconds = 0.0;
        cpu.run_state.done = r.bool()?;

        // Controller-mutable state.
        cpu.controller.load_state(r)?;

        // Derived from the restored clocks.
        cpu.charges = cpu.edge_charges();

        Ok(cpu)
    }

    /// Committed-instruction count so far (used by the snapshot container
    /// for bundle naming).
    pub fn committed_instructions(&self) -> u64 {
        self.committed
    }

    /// Whether the run has finished (a finished processor must not be
    /// stepped or snapshotted-for-resume).
    pub fn is_done(&self) -> bool {
        self.run_state.done
    }

    fn finish(&mut self) -> SimResult {
        self.controller.finish();
        let start_ps = self.run_state.start_ps.unwrap_or(0);
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

        // Wall-clock accumulated over every slice of the run (slices may
        // have executed on different worker threads).
        let mut host = HostStats::from_run(self.committed, self.run_state.wall_seconds);
        host.events = self.timeline.stats();
        host.ann_fed = self.ann_fed;
        host.ann_recomputed = self.ann_recomputed;
        for d in ON_CHIP_DOMAINS {
            host.domain_steps[d.index()] = self.clocks[d.index()].cycles();
        }
        host.idle_steps = self.idle_steps;

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
            profile: std::mem::take(&mut self.profile),
            avg_domain_freq_mhz,
            host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_control::{AttackDecayController, AttackDecayParams, FixedController};
    use mcd_workloads::{Benchmark, WorkloadGenerator};

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
        // Host-throughput telemetry is populated.
        assert!(r.host.wall_seconds > 0.0);
        assert!(r.host.simulated_mips > 0.0);
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
        cfg.record_traces = true;
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
        let r = run_benchmark(
            Benchmark::Epic,
            40_000,
            SimConfig::baseline_mcd(40_000),
            Box::new(FixedController::at_max()),
        );
        assert_eq!(r.profile.len() as u64, 40_000 / 10_000);
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

    /// Runs `bench` pausing every `slice` kernel steps; the slice
    /// boundaries must be invisible in the result.
    fn run_sliced(bench: Benchmark, insts: u64, cfg: SimConfig, slice: u64) -> (SimResult, u64) {
        let mut stream = WorkloadGenerator::new(&bench.spec(), 42, insts);
        let mut cpu = McdProcessor::new(cfg, Box::new(FixedController::at_max()));
        let mut pauses = 0;
        loop {
            match cpu.run_for(&mut stream, slice) {
                StepOutcome::Paused => pauses += 1,
                StepOutcome::Finished(r) => return (r, pauses),
            }
        }
    }

    #[test]
    fn sliced_run_is_bit_identical_to_unsliced() {
        let insts = 8_000;
        let unsliced = run_benchmark(
            Benchmark::Gzip,
            insts,
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        for slice in [1_000, 7, 1] {
            let (sliced, pauses) = run_sliced(
                Benchmark::Gzip,
                insts,
                SimConfig::baseline_mcd(insts),
                slice,
            );
            assert!(pauses > 0, "slice {slice} must actually pause");
            assert_eq!(sliced, unsliced, "slice length {slice} changed the result");
        }
        // A slice larger than the whole run finishes without pausing.
        let (big, pauses) = run_sliced(
            Benchmark::Gzip,
            insts,
            SimConfig::baseline_mcd(insts),
            u64::MAX,
        );
        assert_eq!(pauses, 0);
        assert_eq!(big, unsliced);
    }

    #[test]
    fn sliced_host_stats_accumulate_across_slices() {
        // HostStats must describe the whole run, not the last slice.  Time
        // every slice externally: the reported wall-clock must be close to
        // the externally measured total (it can never exceed it, and a
        // regression to "last slice only" would report a small fraction of
        // it), and the simulated MIPS must be derived from that total.
        let insts = 5_000;
        let mut stream = WorkloadGenerator::new(&Benchmark::Gzip.spec(), 42, insts);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        let mut external_total = 0.0f64;
        let mut slices = Vec::new();
        let r = loop {
            let t = Instant::now();
            let outcome = cpu.run_for(&mut stream, 500);
            let elapsed = t.elapsed().as_secs_f64();
            external_total += elapsed;
            slices.push(elapsed);
            if let StepOutcome::Finished(r) = outcome {
                break r;
            }
        };
        assert!(slices.len() > 10, "the run must have spanned many slices");
        assert!(
            r.host.wall_seconds <= external_total,
            "reported wall-clock cannot exceed the externally timed total"
        );
        let max_slice = slices.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            r.host.wall_seconds > external_total - 2.0 * max_slice,
            "reported wall-clock ({}) must cover (nearly) all {} slices \
             (external total {external_total}), not just the last one",
            r.host.wall_seconds,
            slices.len()
        );
        let implied_mips = r.committed_instructions as f64 / r.host.wall_seconds / 1e6;
        assert!(
            (r.host.simulated_mips - implied_mips).abs() < 1e-9,
            "simulated MIPS must be derived from the accumulated wall-clock"
        );
    }

    #[test]
    fn step_counters_account_for_every_kernel_step() {
        // Every kernel step is one edge of one on-chip domain, so the
        // per-domain step counts sum to the steps taken, and idle steps
        // are a subset of each domain's steps.
        let insts = 5_000;
        let mut stream = WorkloadGenerator::new(&Benchmark::Mcf.spec(), 42, insts);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        let mut steps = 0u64;
        let r = loop {
            let before: u64 = cpu.clocks.iter().map(|c| c.cycles()).sum();
            let outcome = cpu.run_for(&mut stream, 1_000);
            steps += cpu.clocks.iter().map(|c| c.cycles()).sum::<u64>() - before;
            if let StepOutcome::Finished(r) = outcome {
                break r;
            }
        };
        let host = &r.host;
        assert_eq!(host.total_steps(), steps);
        assert_eq!(
            host.domain_steps[DomainId::FrontEnd.index()],
            r.frontend_cycles
        );
        for d in mcd_clock::ON_CHIP_DOMAINS {
            assert!(host.idle_steps[d.index()] <= host.domain_steps[d.index()]);
        }
        // mcf is memory bound: most of its edges do no work.
        assert!(host.idle_step_fraction() > 0.5, "{host:?}");
        assert!(r.steps_per_commit() > 4.0);
    }

    #[test]
    fn run_for_reports_paused_until_finished() {
        let insts = 2_000;
        let mut stream = WorkloadGenerator::new(&Benchmark::Adpcm.spec(), 42, insts);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(insts),
            Box::new(FixedController::at_max()),
        );
        // One kernel step cannot commit the whole budget.
        assert!(matches!(cpu.run_for(&mut stream, 1), StepOutcome::Paused));
        assert!(cpu.committed < insts);
        let r = loop {
            if let StepOutcome::Finished(r) = cpu.run_for(&mut stream, 10_000) {
                break r;
            }
        };
        assert_eq!(r.committed_instructions, insts);
    }

    /// Runs `bench` to `pause_at` kernel steps, saves the processor, drops
    /// it, restores it into a fresh controller, and finishes the run; the
    /// result must be bit-identical to an uninterrupted run.  Exercises the
    /// complete state inventory: clocks mid-ramp, in-flight slab, LSQ,
    /// timelines, telemetry and the controller's state machine.
    fn save_restore_round_trip(
        cfg: SimConfig,
        make_controller: impl Fn() -> Box<dyn FrequencyController>,
        pause_at: u64,
    ) {
        use serde::codec::{ByteReader, ByteWriter};

        let insts = cfg.max_instructions;
        let spec = Benchmark::Gzip.spec();
        let stream = WorkloadGenerator::new(&spec, 42, insts);
        let mut reference = McdProcessor::new(cfg.clone(), make_controller());
        let unsliced = reference.run(stream);

        let mut stream = WorkloadGenerator::new(&spec, 42, insts);
        let mut cpu = McdProcessor::new(cfg.clone(), make_controller());
        assert!(matches!(
            cpu.run_for(&mut stream, pause_at),
            StepOutcome::Paused
        ));
        let mut w = ByteWriter::new();
        cpu.save(&mut w);
        stream.save(&mut w);
        let bytes = w.into_vec();
        drop(cpu);
        drop(stream);

        let mut r = ByteReader::new(&bytes);
        let mut cpu = McdProcessor::load(&mut r, cfg, make_controller()).expect("restore");
        let mut stream = WorkloadGenerator::load(&mut r, &spec, 42, insts).expect("stream restore");
        r.finish().expect("no trailing bytes");
        let restored = loop {
            if let StepOutcome::Finished(res) = cpu.run_for(&mut stream, u64::MAX) {
                break res;
            }
        };
        assert_eq!(restored, unsliced, "restore at step {pause_at} diverged");
    }

    #[test]
    fn save_restore_is_bit_identical_with_fixed_controller() {
        for pause_at in [1, 500, 9_999] {
            save_restore_round_trip(
                SimConfig::baseline_mcd(6_000),
                || Box::new(FixedController::at_max()),
                pause_at,
            );
        }
    }

    #[test]
    fn save_restore_is_bit_identical_mid_ramp_with_attack_decay() {
        // 35k instructions crosses several control intervals, so pausing at
        // an odd step count lands mid-ramp with the controller's
        // state machine warm and traces partially recorded.
        let mut cfg = SimConfig::baseline_mcd(35_000);
        cfg.record_traces = true;
        let table = OperatingPointTable::from_params(&cfg.clock);
        for pause_at in [7_321, 60_001] {
            save_restore_round_trip(
                cfg.clone(),
                || {
                    Box::new(AttackDecayController::new(
                        AttackDecayParams::paper_defaults(),
                        &table,
                    ))
                },
                pause_at,
            );
        }
    }

    #[test]
    fn load_rejects_a_truncated_snapshot() {
        use serde::codec::{ByteReader, ByteWriter};

        let cfg = SimConfig::baseline_mcd(2_000);
        let mut stream = WorkloadGenerator::new(&Benchmark::Gzip.spec(), 42, 2_000);
        let mut cpu = McdProcessor::new(cfg.clone(), Box::new(FixedController::at_max()));
        let _ = cpu.run_for(&mut stream, 300);
        let mut w = ByteWriter::new();
        cpu.save(&mut w);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes[..bytes.len() / 2]);
        assert!(McdProcessor::load(&mut r, cfg, Box::new(FixedController::at_max())).is_err());
    }

    #[test]
    #[should_panic(expected = "finished processor")]
    fn stepping_a_finished_processor_panics() {
        let mut stream = WorkloadGenerator::new(&Benchmark::Adpcm.spec(), 42, 500);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(500),
            Box::new(FixedController::at_max()),
        );
        loop {
            if let StepOutcome::Finished(_) = cpu.run_for(&mut stream, u64::MAX) {
                break;
            }
        }
        let _ = cpu.run_for(&mut stream, 1);
    }
}
