//! Execution-domain cycles (integer / floating point) and writeback.

use mcd_clock::{DomainId, TimePs};
use mcd_isa::SeqNum;
use mcd_microarch::FuKind;
use mcd_power::Structure;

use crate::events::EventKind;
use crate::processor::McdProcessor;

impl McdProcessor {
    /// One integer or floating-point edge: writeback, wakeup, select and
    /// issue.  Returns whether the edge was idle (no event due, nothing
    /// issued).
    pub(crate) fn exec_domain_cycle(&mut self, domain: DomainId, now: TimePs) -> bool {
        debug_assert!(matches!(
            domain,
            DomainId::Integer | DomainId::FloatingPoint
        ));
        let voltage = self.voltage(domain);
        let period = self.clock(domain).current_period_ps();

        // ---- Writeback + wakeup promotion (one timeline drain) ----
        // Both event streams of this domain drain in a single pass; a
        // same-domain completion pushes its consumers' wakeup events at
        // exactly `now` and the drain loop picks them up before returning,
        // so consumers of this cycle's writebacks can issue this very
        // cycle.
        let drained = self.drain_events(domain, now);

        // ---- Select / issue ----
        // Most edges find the ready list empty: nothing to select.
        let issued = if self.timeline.ready(domain).is_empty() {
            0
        } else {
            self.issue_ready(domain, now, period, voltage)
        };

        // ---- Occupancy / counters / gating ----
        let counters = &mut self.domain_counters[domain.index()];
        counters.cycles += 1;
        if issued > 0 {
            counters.busy_cycles += 1;
        }
        counters.issued += issued as u64;

        if domain == DomainId::Integer {
            self.int_iq.accumulate_occupancy();
        } else {
            self.fp_iq.accumulate_occupancy();
        }
        if issued == 0 {
            self.charge_idle_edge(domain);
            if !drained {
                self.idle_steps[domain.index()] += 1;
            }
        } else {
            self.charge_clock(domain);
            self.accumulate_freq(domain);
        }
        issued == 0 && !drained
    }

    /// The select/issue stage of an integer or floating-point edge: issues
    /// up to the domain's width from its ready list, oldest first, and
    /// returns how many issued.
    fn issue_ready(
        &mut self,
        domain: DomainId,
        now: TimePs,
        period: TimePs,
        voltage: f64,
    ) -> usize {
        let issue_width = if domain == DomainId::Integer {
            self.config.arch.int_issue_width
        } else {
            self.config.arch.fp_issue_width
        };
        // Event-driven select: the ready list holds exactly the dispatched
        // instructions whose dispatch crossing and producer results are all
        // visible here by `now` — there is nothing left to probe, and
        // instructions waiting on producers are never examined at all.
        // The scratch copy exists only because issue mutates the list.
        let mut candidates = std::mem::take(&mut self.scratch_seqs);
        candidates.extend_from_slice(self.timeline.ready(domain));

        let mut issued = 0usize;
        for &seq in &candidates {
            if issued >= issue_width {
                break;
            }
            // The event-driven ready list must agree with the historical
            // probe definition of readiness at every issue opportunity.
            debug_assert!(
                self.inflight.operands_ready(seq, domain, now),
                "event-woken candidate {seq} fails the readiness probe"
            );
            let op = self
                .inflight
                .op_of(seq)
                .expect("issue candidate is in flight");
            let latency_cycles = op.latency();
            let fu_kind = FuKind::for_exec_class(op.exec_class()).unwrap_or(FuKind::IntAlu);
            // Completion and functional-unit occupancy are scheduled half a
            // period early so that per-edge jitter can never push the
            // completing edge past the nominal latency and charge a spurious
            // extra cycle.
            let margin = period / 2;
            let latency_ps = (u64::from(latency_cycles) * period).saturating_sub(margin);
            let busy_until = if op.pipelined() {
                now + period - margin
            } else {
                now + latency_ps
            };
            let fus = if domain == DomainId::Integer {
                &mut self.int_fus
            } else {
                &mut self.fp_fus
            };
            if !fus.try_issue(fu_kind, now, busy_until) {
                continue;
            }
            // Issue.
            if domain == DomainId::Integer {
                self.int_iq.remove(seq);
                self.energy
                    .record_access(Structure::IntIssueQueue, 1, voltage);
                self.energy.record_access(Structure::IntRegFile, 2, voltage);
                self.energy.record_access(Structure::IntAlu, 1, voltage);
            } else {
                self.fp_iq.remove(seq);
                self.energy
                    .record_access(Structure::FpIssueQueue, 1, voltage);
                self.energy.record_access(Structure::FpRegFile, 2, voltage);
                self.energy.record_access(Structure::FpAlu, 1, voltage);
            }
            self.timeline.remove_ready(domain, seq);
            self.inflight.mark_issued(seq);
            self.timeline
                .push_completion(domain, now + latency_ps.max(1), seq);
            issued += 1;
        }
        candidates.clear();
        self.scratch_seqs = candidates;
        issued
    }

    /// Drains every timeline event of `domain` due at `now` in one pass:
    /// completions apply writeback in deterministic `(time, seq)` order
    /// (wakeups tagged after completions at equal keys), and due wakeups of
    /// still-waiting instructions fold into the domain's ready list in one
    /// sorted-merge batch.  Loops until the timeline comes back empty, so
    /// wakeup events pushed *by this cycle's writebacks* at exactly `now`
    /// (same-domain consumers) are promoted before the cycle's select
    /// stage runs.  Returns whether any event was due.
    #[inline]
    pub(crate) fn drain_events(&mut self, domain: DomainId, now: TimePs) -> bool {
        // The overwhelmingly common cycle has nothing due: settle it with
        // the timeline's one-comparison fast path before any loop setup.
        if !self.timeline.has_due(domain, now) {
            return false;
        }
        let mut due = std::mem::take(&mut self.scratch_events);
        let mut woken = std::mem::take(&mut self.scratch_ready);
        loop {
            self.timeline.collect_due(domain, now, &mut due);
            if due.is_empty() && woken.is_empty() {
                break;
            }
            for ev in &due {
                match ev.kind {
                    EventKind::Completion => {
                        self.writeback(ev.seq, ev.time.max(now), domain, &mut woken)
                    }
                    // Wakeup events may be stale: an instruction re-woken
                    // earlier by a producer's retirement has already left
                    // the waiting set when its original event fires.
                    EventKind::Wakeup => {
                        if self.inflight.is_waiting(ev.seq) {
                            woken.push(ev.seq);
                        }
                    }
                }
            }
            self.timeline.extend_ready(domain, &mut woken);
        }
        self.scratch_events = due;
        self.scratch_ready = woken;
        true
    }

    pub(crate) fn writeback(
        &mut self,
        seq: SeqNum,
        t: TimePs,
        domain: DomainId,
        same_cycle: &mut Vec<SeqNum>,
    ) {
        let visible = self.visibility_vector(t, domain);
        // Completion flips the hot flags, pushes this result's visibility
        // to every waiting consumer, and returns the cold payload carrying
        // everything branch resolution needs.
        let mut woken = std::mem::take(&mut self.scratch_woken);
        let completed = self.inflight.complete(seq, visible, &mut woken);
        // Route the consumers whose last outstanding producer this was:
        // memory operations wake through the LSQ's operand-readiness
        // times, execution-domain instructions through their domain's
        // timeline — except same-domain consumers ready at exactly this
        // writeback time (the dependence-chain common case: same-domain
        // visibility needs no synchronization crossing), which short-cut
        // into the current drain's ready batch instead of round-tripping
        // through a timeline push and a same-cycle re-drain.
        for &(consumer, consumer_domain, ready_at) in &woken {
            if consumer_domain == DomainId::LoadStore {
                self.lsq.set_ready_at(consumer, ready_at);
            } else if consumer_domain == domain && ready_at <= t {
                debug_assert!(self.inflight.is_waiting(consumer), "freshly woken");
                same_cycle.push(consumer);
            } else {
                self.timeline
                    .push_wakeup(consumer_domain, ready_at, consumer);
            }
        }
        woken.clear();
        self.scratch_woken = woken;
        let Some(cold) = completed else {
            return;
        };
        let (is_branch, mispredicted, pc, op, prediction, branch_info, is_load) = (
            cold.inst.is_branch(),
            cold.mispredicted,
            cold.inst.pc,
            cold.inst.op,
            cold.prediction,
            cold.inst.branch,
            cold.inst.is_load(),
        );
        // Completion report to the ROB (front-end domain).
        let fe_visible = visible[DomainId::FrontEnd.index()];
        self.rob.mark_completed(seq, fe_visible);
        self.energy
            .record_access(Structure::ResultBus, 1, self.voltage(DomainId::FrontEnd));
        if is_load {
            self.lsq.mark_completed(seq);
        }

        // Branch resolution: train the predictor and, on a misprediction,
        // restart fetch after the redirect penalty.
        if is_branch {
            if let (Some(pred), Some(actual)) = (prediction, branch_info) {
                self.predictor
                    .update(pc, op, pred, actual.taken, actual.target);
            }
            if mispredicted {
                self.mispredict_redirects += 1;
                let fe_period = self.clock(DomainId::FrontEnd).current_period_ps();
                let resume =
                    fe_visible + u64::from(self.config.arch.mispredict_penalty) * fe_period;
                self.fetch_stalled_until = self.fetch_stalled_until.max(resume);
                if self.fetch_blocked_by == Some(seq) {
                    self.fetch_blocked_by = None;
                }
            }
        }
    }
}
