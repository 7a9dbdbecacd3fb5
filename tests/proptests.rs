//! Property-based tests over the core data structures and invariants of the
//! reproduction, spanning several crates.

use proptest::prelude::*;

use mcd::clock::{DomainId, OperatingPointTable, SyncWindow};
use mcd::control::{
    AttackDecayController, AttackDecayParams, DomainSample, FrequencyController, IntervalSample,
};
use mcd::isa::{InstructionStream, MemInfo, Reg};
use mcd::microarch::{
    Cache, CacheConfig, IssueQueue, LoadStoreQueue, LsqIssue, ReorderBuffer, RobEntry,
};
use mcd::power::{EnergyAccount, EnergyParams, Structure};
use mcd::sim::{DomainTimeline, EventKind, McdProcessor, SimConfig, SimResult, TimelineEvent};
use mcd::workloads::{
    Benchmark, BranchBehavior, InstructionMix, MemoryBehavior, Phase, SharedTrace,
    WorkloadGenerator, WorkloadSpec,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The operating-point table always returns frequencies inside the MCD
    /// range, `at_least` never under-delivers, and `nearest` is idempotent.
    #[test]
    fn operating_point_lookups_stay_in_range(freq in 0.0f64..5_000.0) {
        let table = OperatingPointTable::default();
        let nearest = table.nearest(freq);
        prop_assert!(nearest.freq_mhz >= 250.0 - 1e-9);
        prop_assert!(nearest.freq_mhz <= 1000.0 + 1e-9);
        prop_assert_eq!(table.nearest(nearest.freq_mhz).index, nearest.index);
        let at_least = table.at_least(freq);
        if freq <= 1000.0 {
            prop_assert!(at_least.freq_mhz + 1e-9 >= freq.max(250.0));
        }
        // Voltage tracks frequency monotonically.
        let v = table.voltage_for_freq(nearest.freq_mhz);
        prop_assert!((0.65 - 1e-9..=1.2 + 1e-9).contains(&v));
    }

    /// Synchronization capture never travels backwards in time and never
    /// waits more than one destination period plus the window when the
    /// destination edge is not in the future.
    #[test]
    fn sync_capture_is_causal(
        src in 0u64..1_000_000,
        edge in 0u64..10_000,
        period in 1_000u64..4_000,
        window in 0u64..400,
    ) {
        let sync = SyncWindow::new(window);
        let t = sync.capture_time(src, edge, period);
        prop_assert!(t >= src);
        if edge <= src {
            prop_assert!(t - src <= period + window);
        }
    }

    /// Monte-Carlo check of the expected-latency formula: sweeping source
    /// times uniformly across whole destination periods samples the
    /// gap-to-next-edge distribution exactly, so the empirical mean latency
    /// must equal `period/2 + window` up to half a picosecond of
    /// discretization — for *any* window up to a full period.  (This is the
    /// regression test for the historical `period/2 + window/2` bug, which
    /// under-counted the full-period slip the window forces with
    /// probability `window/period`.)
    #[test]
    fn empirical_sync_latency_mean_matches_formula(
        edge in 0u64..10_000,
        period in 1_000u64..3_000,
        window_frac in 0.0f64..1.0,
    ) {
        let window = ((period as f64 * window_frac) as u64).min(period);
        let sync = SyncWindow::new(window);
        let periods = 20u64;
        let n = periods * period;
        let mut total = 0u64;
        // Start the sweep at the recorded destination edge so every source
        // time exercises the extrapolation path and the gap to the next
        // edge cycles through all `period` residues exactly `periods`
        // times.
        for src in edge..edge + n {
            total += sync.capture_time(src, edge, period) - src;
        }
        let mean = total as f64 / n as f64;
        let expected = sync.expected_latency_ps(period);
        prop_assert!(
            (mean - (expected - 0.5)).abs() < 1e-6,
            "period {} window {}: empirical mean {} vs formula {}",
            period, window, mean, expected
        );
    }

    /// The Attack/Decay controller keeps every commanded frequency inside
    /// the operating range for arbitrary utilization/IPC sequences.
    #[test]
    fn attack_decay_commands_stay_in_range(
        utils in proptest::collection::vec((0.0f64..64.0, 0.0f64..20.0, 0.0f64..64.0), 1..60),
        ipcs in proptest::collection::vec(0.01f64..4.0, 1..60),
    ) {
        let table = OperatingPointTable::default();
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table);
        for (i, (int_u, fp_u, ls_u)) in utils.iter().enumerate() {
            let ipc = ipcs[i % ipcs.len()];
            let mk = |domain, queue_utilization| DomainSample {
                domain,
                queue_utilization,
                domain_cycles: 10_000,
                busy_cycles: 5_000,
                issued_instructions: 9_000,
                freq_mhz: 1000.0,
            };
            let sample = IntervalSample {
                interval: i as u64,
                instructions: 10_000,
                frontend_cycles: 11_000,
                ipc,
                domains: vec![
                    mk(DomainId::Integer, *int_u),
                    mk(DomainId::FloatingPoint, *fp_u),
                    mk(DomainId::LoadStore, *ls_u),
                ],
            };
            for cmd in ctrl.interval_update(&sample) {
                prop_assert!(cmd.target_freq_mhz >= 250.0 - 1e-9);
                prop_assert!(cmd.target_freq_mhz <= 1000.0 + 1e-9);
            }
        }
    }

    /// Cache behaviour under arbitrary access sequences: hits are only
    /// reported for previously touched lines, statistics stay consistent,
    /// and a probe after an access always hits.
    #[test]
    fn cache_invariants_hold_for_arbitrary_accesses(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut cache = Cache::new(CacheConfig::l1_64k_2way());
        let mut touched = std::collections::BTreeSet::new();
        for &addr in &addrs {
            let line = addr / 64;
            let hit = cache.access(addr, false);
            if hit {
                prop_assert!(touched.contains(&line), "hit on a never-touched line");
            }
            touched.insert(line);
            prop_assert!(cache.probe(addr), "line must be resident right after an access");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        prop_assert!(stats.misses <= stats.accesses());
        prop_assert!(stats.miss_rate() >= 0.0 && stats.miss_rate() <= 1.0);
    }

    /// Issue-queue occupancy never exceeds capacity and the average
    /// occupancy accumulator is bounded by the capacity.
    #[test]
    fn issue_queue_occupancy_is_bounded(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let mut q = IssueQueue::new(20);
        let mut next_seq = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if q.insert(next_seq).is_ok() {
                        live.push(next_seq);
                    }
                    next_seq += 1;
                }
                1 => {
                    if let Some(seq) = live.pop() {
                        prop_assert!(q.remove(seq));
                    }
                }
                _ => q.accumulate_occupancy(),
            }
            prop_assert!(q.len() <= q.capacity());
            prop_assert_eq!(q.len(), live.len());
        }
        let avg = q.take_average_occupancy();
        prop_assert!(avg <= 20.0);
    }

    /// The ROB retires strictly in program order regardless of the
    /// completion order.
    #[test]
    fn rob_retires_in_program_order(completion_order in proptest::collection::vec(0usize..16, 16)) {
        let mut rob = ReorderBuffer::new(16);
        for seq in 0..16u64 {
            rob.push(RobEntry::new(seq, mcd::isa::OpClass::IntAlu)).unwrap();
        }
        for &idx in &completion_order {
            rob.mark_completed(idx as u64, 0);
        }
        let mut last: Option<u64> = None;
        while let Some(e) = rob.retire_head(0) {
            if let Some(prev) = last {
                prop_assert!(e.seq > prev);
            }
            last = Some(e.seq);
        }
    }

    /// The O(1) older-store summary (min-unready-store sequence number +
    /// counting address filter) must reproduce the historical full LSQ
    /// scan's issue/stall decision for every load, on arbitrary program
    /// streams: random load/store mixes over a small address pool (forcing
    /// real overlaps), addresses spanning many filter periods (forcing
    /// bucket-aliasing false positives), operands becoming ready in
    /// arbitrary order (as ramp-shortened producer latencies reorder
    /// completions), and mid-stream removals.
    #[test]
    fn lsq_summary_decisions_match_the_full_scan(
        ops in proptest::collection::vec((0u8..4, 0u64..260, 0u8..4), 1..120),
    ) {
        /// The historical full-scan disambiguation, reimplemented over the
        /// public iterator as the reference.
        fn reference_decision(q: &LoadStoreQueue, seq: u64) -> LsqIssue {
            let Some(load) = q.iter().find(|e| e.seq == seq) else {
                return LsqIssue::Blocked;
            };
            let mut forward = None;
            for e in q.iter().filter(|e| e.is_store && e.seq < seq) {
                if !e.operands_ready {
                    return LsqIssue::Blocked;
                }
                if e.mem.overlaps(&load.mem) {
                    if e.mem.addr <= load.mem.addr
                        && e.mem.addr + e.mem.size as u64 >= load.mem.addr + load.mem.size as u64
                    {
                        forward = Some(e.seq);
                    } else {
                        return LsqIssue::Blocked;
                    }
                }
            }
            forward.map(LsqIssue::Forward).unwrap_or(LsqIssue::AccessCache)
        }

        let mut q = LoadStoreQueue::new(32);
        let mut next_seq = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for (op, addr_sel, size_sel) in ops {
            match op {
                // Insert a load or store; addresses stride by 4 over ~1 KiB,
                // wrapping around several 512-byte filter periods so distinct
                // addresses alias in the 64 x 8-byte filter buckets.
                0 | 1 => {
                    let addr = addr_sel * 4;
                    let size = 1u8 << size_sel; // 1, 2, 4 or 8 bytes
                    if q.insert(next_seq, op == 1, MemInfo::new(addr, size), 0).is_ok() {
                        live.push(next_seq);
                    }
                    next_seq += 1;
                }
                // Ready an arbitrary live entry (completion order is not
                // program order under frequency ramps).
                2 => {
                    if !live.is_empty() {
                        let seq = live[(addr_sel as usize) % live.len()];
                        q.set_operands_ready(seq);
                    }
                }
                // Remove an arbitrary live entry.
                _ => {
                    if !live.is_empty() {
                        let idx = (addr_sel as usize) % live.len();
                        let seq = live.swap_remove(idx);
                        prop_assert!(q.remove(seq));
                    }
                }
            }
            // Every load's summary-based decision must equal the reference
            // full scan, after every mutation.
            let loads: Vec<u64> = q
                .iter()
                .filter(|e| !e.is_store)
                .map(|e| e.seq)
                .collect();
            for seq in loads {
                prop_assert_eq!(q.load_issue_decision(seq), reference_decision(&q, seq));
            }
        }
    }

    /// The LSQ never reorders a load past an older store with an unknown
    /// address.
    #[test]
    fn lsq_blocks_loads_behind_unknown_stores(load_addr in 0u64..4096, store_addr in 0u64..4096) {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(1, true, mcd::isa::MemInfo::new(store_addr * 8, 8), 0).unwrap();
        lsq.insert(2, false, mcd::isa::MemInfo::new(load_addr * 8, 8), 0).unwrap();
        lsq.set_operands_ready(2);
        // While the store address is unknown the load must not issue.
        prop_assert_eq!(lsq.load_issue_decision(2), mcd::microarch::LsqIssue::Blocked);
        lsq.set_operands_ready(1);
        let decision = lsq.load_issue_decision(2);
        if store_addr == load_addr {
            prop_assert_eq!(decision, mcd::microarch::LsqIssue::Forward(1));
        } else {
            prop_assert_eq!(decision, mcd::microarch::LsqIssue::AccessCache);
        }
    }

    /// Energy accounting is monotone (recording work never decreases the
    /// total) and voltage scaling never increases the cost of an access.
    #[test]
    fn energy_accounting_is_monotone(
        accesses in proptest::collection::vec((0usize..14, 1u64..50, 0.65f64..1.2), 1..100),
    ) {
        let params = EnergyParams::default();
        let structures: Vec<Structure> = Structure::ALL
            .iter()
            .copied()
            .filter(|s| !s.is_clock() && *s != Structure::MainMemory)
            .collect();
        let mut acct = EnergyAccount::new(params.clone());
        let mut prev = 0.0;
        for (idx, count, voltage) in accesses {
            let s = structures[idx % structures.len()];
            acct.record_access(s, count, voltage);
            let total = acct.total_energy();
            prop_assert!(total >= prev);
            prev = total;
            // The same access at the nominal voltage costs at least as much.
            let low = params.access_energy(s) * params.voltage_scale(voltage);
            let high = params.access_energy(s);
            prop_assert!(low <= high + 1e-12);
        }
    }

    /// The rename map never reports the zero register as having a producer.
    #[test]
    fn zero_register_never_gets_a_producer(seqs in proptest::collection::vec(0u64..1000, 1..50)) {
        let mut map = mcd::microarch::RenameMap::new();
        for seq in seqs {
            map.set_producer(Reg::int(31), seq);
            map.set_producer(Reg::fp(31), seq);
            prop_assert_eq!(map.producer(Reg::int(31)), None);
            prop_assert_eq!(map.producer(Reg::fp(31)), None);
        }
    }
}

proptest! {
    // The only reference check of the timelines' drain order outside the
    // golden dumps, so it runs more cases than the other structure tests.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-domain timeline (monotone lane plus heap) must drain
    /// *exactly* the events a reference binary min-heap would pop, in the
    /// same `(time, seq, kind)` order, on arbitrary event streams: random
    /// times (including far-future events, many drain steps ahead), random
    /// sequence numbers and kinds (exercising the completion-before-wakeup
    /// tie-break), out-of-order pushes that miss the lane, and pushes
    /// interleaved with drains at random time steps or exactly at the
    /// earliest pending event time.
    #[test]
    fn timeline_drains_match_a_reference_heap(
        ops in proptest::collection::vec(
            (0u8..7, 0u64..600_000, 0u64..64, 0u8..2),
            1..200,
        ),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let domain = DomainId::Integer;
        let mut timeline = DomainTimeline::new();
        let mut reference: BinaryHeap<Reverse<TimelineEvent>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut out = Vec::new();
        let drain_and_compare = |timeline: &mut DomainTimeline,
                                     reference: &mut BinaryHeap<Reverse<TimelineEvent>>,
                                     now: u64,
                                     out: &mut Vec<TimelineEvent>|
         -> Result<(), TestCaseError> {
            timeline.collect_due(domain, now, out);
            let mut expected = Vec::new();
            while reference.peek().is_some_and(|Reverse(ev)| ev.time <= now) {
                expected.push(reference.pop().expect("peeked").0);
            }
            prop_assert_eq!(&expected[..], &out[..]);
            Ok(())
        };
        for (op, delta, seq, kind_sel) in ops {
            match op {
                // Push (biased: most ops schedule near-future events; the
                // range reaches up to 30 average drain steps ahead).
                0..=4 => {
                    let time = now + delta;
                    let kind = if kind_sel == 0 {
                        timeline.push_completion(domain, time, seq);
                        EventKind::Completion
                    } else {
                        timeline.push_wakeup(domain, time, seq);
                        EventKind::Wakeup
                    };
                    reference.push(Reverse(TimelineEvent { time, seq, kind }));
                }
                // Advance time and drain; both structures must yield the
                // same events in the same order.
                5 => {
                    now += delta % 20_000;
                    drain_and_compare(&mut timeline, &mut reference, now, &mut out)?;
                }
                // Drain exactly at the earliest pending event time (or
                // again at `now` when nothing later is pending), so due
                // times equal to `now` are exercised.
                _ => {
                    if let Some(Reverse(ev)) = reference.peek() {
                        now = now.max(ev.time);
                    }
                    drain_and_compare(&mut timeline, &mut reference, now, &mut out)?;
                }
            }
        }
        // Final drain far past every scheduled event: nothing may be lost.
        now += 10_000_000;
        drain_and_compare(&mut timeline, &mut reference, now, &mut out)?;
        prop_assert!(reference.is_empty());
        prop_assert_eq!(timeline.stats().pushes, timeline.stats().pops);
    }
}

/// Runs `stream` for `insts` instructions under the baseline MCD
/// configuration.
fn run_baseline<S: InstructionStream>(stream: S, insts: u64) -> SimResult {
    let mut cpu = McdProcessor::new(
        SimConfig::baseline_mcd(insts),
        Box::new(mcd::control::FixedController::at_max()),
    );
    cpu.run(stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared-trace replay bit-identity: a [`SharedTrace`] cursor must be
    /// indistinguishable from the live generator it recorded — the same
    /// instruction at every position, the same `remaining_hint` (the
    /// frontend uses it for fetch gating), and the same `SimResult`.  This
    /// is the invariant that lets the experiment engine substitute one
    /// materialized trace for every same-workload run of a plan.
    #[test]
    fn trace_replay_is_bit_identical_to_the_live_generator(
        bench_sel in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let bench = [Benchmark::Gzip, Benchmark::Swim, Benchmark::Mcf][bench_sel as usize];
        let insts = 4_000;
        let spec = bench.spec();
        let trace = std::sync::Arc::new(SharedTrace::materialize(&spec, seed, insts));

        // Stream-level equality at every position.
        let mut live = WorkloadGenerator::new(&spec, seed, insts);
        let mut cursor = trace.cursor();
        loop {
            prop_assert_eq!(cursor.remaining_hint(), live.remaining_hint());
            match (cursor.next_inst(), live.next_inst()) {
                (None, None) => break,
                (a, b) => prop_assert_eq!(a, b),
            }
        }

        // Simulated-result equality: live run vs replay.
        let live_run = run_baseline(WorkloadGenerator::new(&spec, seed, insts), insts);
        let traced_run = run_baseline(trace.cursor(), insts);
        prop_assert!(traced_run == live_run, "trace replay changed the result");
        prop_assert_eq!(traced_run.committed_instructions, insts);
    }

    /// Trace-fed dispatch bit-identity for arbitrary instruction mixes: a
    /// [`SharedTrace`] replay and the live generator it recorded both
    /// derive every dispatched instruction's producers from the rename
    /// map (the trace carries instruction records only — no precomputed
    /// dependence sidecar).  For *any* single-phase spec with a random
    /// instruction mix and seed, the trace-fed run must produce a
    /// `SimResult` bit-identical to the live run and commit every recorded
    /// instruction.
    #[test]
    fn trace_fed_dispatch_matches_live_rename_derivation(
        int_alu in 0.1f64..0.6,
        load in 0.05f64..0.4,
        store in 0.0f64..0.2,
        branch in 0.02f64..0.3,
        fp in 0.0f64..0.4,
        seed in 0u64..1_000,
    ) {
        let mix = InstructionMix {
            int_alu,
            int_mul: 0.01,
            fp_add: fp / 2.0,
            fp_mul: fp / 2.0,
            fp_div: 0.0,
            load,
            store,
            branch,
        };
        let phase = Phase::new(1.0, mix)
            .with_memory(MemoryBehavior::cache_resident())
            .with_branches(BranchBehavior::predictable());
        let spec = WorkloadSpec::new("mix-prop", "proptest", vec![phase], 1.0);
        let insts = 3_000;
        let trace = std::sync::Arc::new(SharedTrace::materialize(&spec, seed, insts));
        // One instruction record per recorded instruction.
        prop_assert_eq!(trace.len(), insts);

        let live = run_baseline(WorkloadGenerator::new(&spec, seed, insts), insts);
        let fed = run_baseline(trace.cursor(), insts);
        prop_assert!(fed == live, "trace-fed replay diverged from the live run");
        prop_assert_eq!(fed.committed_instructions, insts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any valid instruction mix expands into a stream of valid
    /// instructions whose class fractions roughly follow the mix.
    #[test]
    fn workload_generator_respects_arbitrary_mixes(
        int_alu in 0.1f64..0.6,
        load in 0.05f64..0.4,
        store in 0.0f64..0.2,
        branch in 0.02f64..0.3,
        fp in 0.0f64..0.4,
        seed in 0u64..1_000,
    ) {
        let mix = InstructionMix {
            int_alu,
            int_mul: 0.01,
            fp_add: fp / 2.0,
            fp_mul: fp / 2.0,
            fp_div: 0.0,
            load,
            store,
            branch,
        };
        let phase = Phase::new(1.0, mix)
            .with_memory(MemoryBehavior::cache_resident())
            .with_branches(BranchBehavior::predictable());
        let spec = WorkloadSpec::new("prop", "proptest", vec![phase], 1.0);
        let mut generator = WorkloadGenerator::new(&spec, seed, 4_000);
        let mut count = 0u64;
        let mut mem_ops = 0u64;
        while let Some(inst) = generator.next_inst() {
            prop_assert!(inst.validate().is_ok());
            if inst.is_mem() {
                mem_ops += 1;
            }
            count += 1;
        }
        prop_assert_eq!(count, 4_000);
        let expected_mem = (load + store) / mix.total();
        let observed_mem = mem_ops as f64 / count as f64;
        prop_assert!((observed_mem - expected_mem).abs() < 0.08);
    }
}
