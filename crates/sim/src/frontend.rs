//! Front-end domain cycle: commit, fetch, rename/dispatch.

use mcd_clock::{DomainId, TimePs};
use mcd_isa::{DynInst, InstructionStream, OpClass, SeqNum};
use mcd_microarch::RobEntry;
use mcd_power::Structure;

use crate::inflight::{InFlight, Producers};
use crate::processor::McdProcessor;

impl McdProcessor {
    /// One front-end edge: commit, fetch, rename/dispatch.  Returns
    /// whether the edge was idle (retired, fetched and dispatched
    /// nothing).
    pub(crate) fn frontend_cycle(
        &mut self,
        now: TimePs,
        stream: &mut dyn InstructionStream,
    ) -> bool {
        let voltage = self.voltage(DomainId::FrontEnd);
        let mut accessed_bpred = false;
        let mut accessed_icache = false;
        let mut accessed_rename = false;
        let mut accessed_rob = false;

        // ---- Commit ----
        let mut retired = 0;
        while retired < self.config.arch.retire_width
            && self.committed < self.config.max_instructions
        {
            let Some(entry) = self.rob.retire_head(now) else {
                break;
            };
            accessed_rob = true;
            self.energy.record_access(Structure::Rob, 1, voltage);
            self.retire(entry, now);
            retired += 1;
            if self
                .committed
                .is_multiple_of(self.config.interval_instructions)
            {
                self.end_interval();
            }
            if self.committed >= self.config.max_instructions {
                break;
            }
        }

        // ---- Fetch ----
        let can_fetch =
            now >= self.fetch_stalled_until && self.fetch_blocked_by.is_none() && !self.stream_done;
        if can_fetch {
            let mut fetched = 0;
            while fetched < self.config.arch.decode_width
                && self.fetch_buffer.len() < self.config.arch.fetch_buffer_size
            {
                let Some(inst) = stream.next_inst() else {
                    self.stream_done = true;
                    break;
                };
                accessed_icache = true;
                let icache_hit = self.l1i.access(inst.pc, false);
                self.energy.record_access(Structure::L1ICache, 1, voltage);
                if !icache_hit {
                    // Instruction fetch miss: probe the L2 and stall fetch for
                    // the refill latency (misses to memory are rare for the
                    // synthetic code footprints, which fit in the L2).
                    let l2_hit = self.l2.access(inst.pc, false);
                    self.energy.record_access(
                        Structure::L2Cache,
                        1,
                        self.voltage(DomainId::LoadStore),
                    );
                    let period = self.clock(DomainId::FrontEnd).current_period_ps();
                    let l2_lat = u64::from(self.config.arch.l2.latency_cycles) * period;
                    let stall = if l2_hit {
                        l2_lat
                    } else {
                        self.memory_accesses += 1;
                        self.energy.record_memory_access();
                        l2_lat + self.config.clock.main_memory_latency_ps()
                    };
                    self.fetch_stalled_until = now + stall;
                }

                if inst.op.is_branch() {
                    accessed_bpred = true;
                    self.energy
                        .record_access(Structure::BranchPredictor, 1, voltage);
                    let pred = self.predictor.predict(inst.pc, inst.op);
                    self.fetch_buffer.push_back(inst);
                    // Stash the prediction until dispatch; predictions are
                    // consumed in program order, so a deque suffices.
                    self.pending_predictions.push_back((inst.seq, pred));
                    fetched += 1;
                    // Determine whether this prediction will turn out wrong;
                    // if so we cannot fetch past it (the front end would be
                    // fetching the wrong path).
                    let actual = inst.branch.expect("branch has branch info");
                    let wrong_direction = pred.taken != actual.taken;
                    let wrong_target = actual.taken && pred.target != Some(actual.target);
                    if wrong_direction || wrong_target {
                        self.fetch_blocked_by = Some(inst.seq);
                        break;
                    }
                    continue;
                }
                self.fetch_buffer.push_back(inst);
                fetched += 1;
                if !icache_hit {
                    // Miss: stop fetching this cycle.
                    break;
                }
            }
        }

        // ---- Rename / dispatch ----
        let mut dispatched = 0;
        while dispatched < self.config.arch.decode_width {
            let Some(&inst) = self.fetch_buffer.front() else {
                break;
            };
            if !self.can_dispatch(&inst) {
                break;
            }
            if let Some(dst) = inst.dst.filter(|dst| !dst.is_zero()) {
                let allocated = self.rename_alloc.try_alloc(dst.class());
                assert!(allocated, "the dispatch gate checked for a free register");
            }
            let target_domain = Self::exec_domain_of(inst.op);

            self.fetch_buffer.pop_front();
            accessed_rename = true;
            accessed_rob = true;
            self.energy.record_access(Structure::Rename, 1, voltage);
            self.energy.record_access(Structure::Rob, 1, voltage);

            // Rename: record producers, then claim the destination.
            //
            // With a trace annotation sidecar the producer list comes from
            // the precomputed last-writer edges filtered by in-flight
            // liveness; this reproduces the rename map's answer exactly
            // (see `mcd_isa::annotations` for the argument), which the
            // debug build asserts.  The rename map itself is still
            // maintained either way: the live-generator path depends on it.
            let mut producers = Producers::default();
            match stream.annotations() {
                Some(ann) => {
                    self.ann_fed += 1;
                    for &edge in ann.edges(inst.seq) {
                        let p = SeqNum::from(edge);
                        if self.inflight.op_of(p).is_some() {
                            producers.push(p);
                        }
                    }
                    #[cfg(debug_assertions)]
                    {
                        let mut rename_derived = Producers::default();
                        for r in inst.sources() {
                            if let Some(p) = self.rename_map.producer(r) {
                                rename_derived.push(p);
                            }
                        }
                        debug_assert_eq!(
                            producers, rename_derived,
                            "annotation-fed producers diverged from rename at seq {}",
                            inst.seq
                        );
                        debug_assert_eq!(ann.src_count(inst.seq), inst.sources().count() as u8);
                        debug_assert_eq!(
                            ann.flags(inst.seq) & mcd_isa::ANN_STORE != 0,
                            inst.is_store()
                        );
                    }
                }
                None => {
                    self.ann_recomputed += 1;
                    for r in inst.sources() {
                        if let Some(p) = self.rename_map.producer(r) {
                            producers.push(p);
                        }
                    }
                }
            }
            if let Some(dst) = inst.dst {
                self.rename_map.set_producer(dst, inst.seq);
            }

            // Dispatch into the target domain's queue, paying the
            // synchronization crossing.
            let visible_at = self.cross_domain_visible(now, DomainId::FrontEnd, target_domain);
            let prediction = self.take_prediction(inst.seq);
            let mut rob_entry = RobEntry::new(inst.seq, inst.op);

            match target_domain {
                DomainId::Integer if inst.op != OpClass::Nop => {
                    self.int_iq.insert(inst.seq).expect("checked not full");
                    self.energy.record_access(
                        Structure::IntIssueQueue,
                        1,
                        self.voltage(DomainId::Integer),
                    );
                }
                DomainId::FloatingPoint => {
                    self.fp_iq.insert(inst.seq).expect("checked not full");
                    self.energy.record_access(
                        Structure::FpIssueQueue,
                        1,
                        self.voltage(DomainId::FloatingPoint),
                    );
                }
                DomainId::LoadStore => {
                    let mem = inst.mem.expect("memory op has address");
                    // The annotation sidecar carries the precomputed
                    // address-filter mask; `insert_masked` debug-asserts
                    // it against a fresh computation.
                    match stream.annotations() {
                        Some(ann) => self
                            .lsq
                            .insert_masked(
                                inst.seq,
                                inst.is_store(),
                                mem,
                                visible_at,
                                ann.lsq_mask(inst.seq),
                            )
                            .expect("checked not full"),
                        None => self
                            .lsq
                            .insert(inst.seq, inst.is_store(), mem, visible_at)
                            .expect("checked not full"),
                    }
                    self.energy
                        .record_access(Structure::Lsq, 1, self.voltage(DomainId::LoadStore));
                }
                _ => {}
            }

            // Determine misprediction state for branches.
            let mut mispredicted = false;
            if let (Some(pred), Some(actual)) = (prediction, inst.branch) {
                let wrong_direction = pred.taken != actual.taken;
                let wrong_target = actual.taken && pred.target != Some(actual.target);
                mispredicted = wrong_direction || wrong_target;
                if mispredicted {
                    rob_entry.mispredicted = true;
                }
            }

            let mut entry = InFlight {
                inst,
                producers,
                completed: false,
                visible_at: [0; 5],
                issued: false,
                prediction,
                mispredicted,
            };

            // NOPs complete instantly.
            if inst.op == OpClass::Nop {
                entry.completed = true;
                entry.visible_at = [now; 5];
                rob_entry.completed = true;
                rob_entry.completion_visible_ps = now;
            }

            self.rob.push(rob_entry).expect("checked not full");
            self.inflight.insert(entry);
            // Wire the instruction into the event-driven wakeup graph.
            // NOPs complete at dispatch and enter no queue, so they take no
            // part in wakeup.  Execution-domain instructions fold the
            // dispatch-crossing visibility into their readiness time;
            // memory operations start from zero because the LSQ gates its
            // own queue visibility separately (and, in the rare
            // non-monotone-visibility fallback, reads operand readiness
            // independently of it).
            if inst.op != OpClass::Nop {
                let base_ready = if target_domain == DomainId::LoadStore {
                    0
                } else {
                    visible_at
                };
                if let Some(ready_at) =
                    self.inflight
                        .link_dependencies(inst.seq, target_domain, base_ready)
                {
                    // No outstanding producer: the readiness time is known
                    // right now.
                    if target_domain == DomainId::LoadStore {
                        self.lsq.set_ready_at(inst.seq, ready_at);
                    } else {
                        self.timeline.push_wakeup(target_domain, ready_at, inst.seq);
                    }
                }
            }
            dispatched += 1;
        }

        // ---- Occupancy and gating ----
        self.domain_counters[DomainId::FrontEnd.index()].cycles += 1;
        if dispatched > 0 || retired > 0 {
            self.domain_counters[DomainId::FrontEnd.index()].busy_cycles += 1;
        }
        self.domain_counters[DomainId::FrontEnd.index()].issued += dispatched as u64;

        // A retire or dispatch touches the ROB and a fetch the I-cache;
        // an edge that touched neither only did bookkeeping.
        let idle = !(accessed_rob || accessed_icache);
        if idle {
            self.idle_steps[DomainId::FrontEnd.index()] += 1;
            self.charge_idle_edge(DomainId::FrontEnd);
        } else {
            self.charge_idle_structures(
                DomainId::FrontEnd,
                &[
                    accessed_bpred,
                    accessed_icache,
                    accessed_rename,
                    accessed_rob,
                ],
            );
            self.charge_clock(DomainId::FrontEnd);
            self.accumulate_freq(DomainId::FrontEnd);
        }
        idle
    }

    /// The dispatch gate: whether `inst`, at the head of the fetch buffer,
    /// finds a ROB slot, room in its target domain's queue and a free
    /// physical register for its destination.
    pub(crate) fn can_dispatch(&self, inst: &DynInst) -> bool {
        if self.rob.is_full() {
            return false;
        }
        let queue_ok = match Self::exec_domain_of(inst.op) {
            DomainId::Integer => !self.int_iq.is_full(),
            DomainId::FloatingPoint => !self.fp_iq.is_full(),
            DomainId::LoadStore => !self.lsq.is_full(),
            _ => true,
        };
        queue_ok
            && inst
                .dst
                .is_none_or(|dst| dst.is_zero() || self.rename_alloc.free(dst.class()) > 0)
    }

    /// Consumes the fetch-time prediction of `seq`, if one was recorded.
    /// Predictions are stored and consumed in program order.
    fn take_prediction(&mut self, seq: SeqNum) -> Option<mcd_microarch::Prediction> {
        match self.pending_predictions.front() {
            Some(&(s, pred)) if s == seq => {
                self.pending_predictions.pop_front();
                Some(pred)
            }
            _ => None,
        }
    }

    pub(crate) fn retire(&mut self, entry: RobEntry, now: TimePs) {
        self.committed += 1;
        if self.first_commit_ps.is_none() {
            self.first_commit_ps = Some(now);
        }
        self.last_commit_ps = now;

        // Retirement moves the result to architectural state: consumers
        // still waiting for this instruction's cross-domain visibility can
        // use the value from `now` on, so they are re-woken at their
        // (possibly earlier) readiness time.
        let mut rewoken = std::mem::take(&mut self.scratch_woken);
        let removed = self.inflight.remove(entry.seq, now, &mut rewoken);
        for &(consumer, consumer_domain, ready_at) in &rewoken {
            if consumer_domain == DomainId::LoadStore {
                self.lsq.lower_ready_at(consumer, ready_at);
            } else {
                self.timeline
                    .push_wakeup(consumer_domain, ready_at, consumer);
            }
        }
        rewoken.clear();
        self.scratch_woken = rewoken;

        if let Some(fl) = removed {
            // Free rename resources.
            if let Some(dst) = fl.inst.dst {
                if !dst.is_zero() {
                    self.rename_alloc.release(dst.class());
                    self.rename_map.clear_if_producer(dst, entry.seq);
                }
            }
            // Stores write the data cache at commit.
            if fl.inst.is_store() {
                if let Some(mem) = fl.inst.mem {
                    let ls_voltage = self.voltage(DomainId::LoadStore);
                    let hit = self.l1d.access(mem.addr, true);
                    self.energy
                        .record_access(Structure::L1DCache, 1, ls_voltage);
                    if !hit {
                        let l2_hit = self.l2.access(mem.addr, true);
                        self.energy.record_access(Structure::L2Cache, 1, ls_voltage);
                        if !l2_hit {
                            self.memory_accesses += 1;
                            self.energy.record_memory_access();
                        }
                    }
                }
            }
            // Memory operations leave the LSQ at retire.
            if fl.inst.is_mem() {
                self.lsq.remove(entry.seq);
            }
        }
    }
}
