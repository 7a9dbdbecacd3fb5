//! Load/store-domain cycle and cache-hierarchy access timing.

use mcd_clock::{DomainId, TimePs};
use mcd_microarch::{FuKind, LsqIssue};
use mcd_power::Structure;

use crate::processor::McdProcessor;

impl McdProcessor {
    /// One load/store edge: writeback, operand readiness, issue.  Returns
    /// whether the edge was idle (no event due, nothing issued).
    pub(crate) fn loadstore_cycle(&mut self, now: TimePs) -> bool {
        let domain = DomainId::LoadStore;
        let voltage = self.voltage(domain);
        let period = self.clock(domain).current_period_ps();

        // ---- Writeback of finished memory operations ----
        // One timeline drain; the load/store domain's timeline only ever
        // carries completion events, because completing producers push each
        // waiting memory operation's operand-readiness time straight into
        // the LSQ (see `writeback`) — the promotion below is then a pure
        // time comparison per entry.
        let drained = self.drain_events(domain, now);

        // ---- Address-readiness update ----
        self.lsq.promote_operand_readiness(now);

        // ---- Issue memory operations ----
        let mut candidates = std::mem::take(&mut self.scratch_seqs);
        self.lsq.issue_candidates_into(now, &mut candidates);
        let mut issued = 0usize;
        let mut blocked = 0usize;
        for &seq in &candidates {
            if issued >= self.config.arch.mem_issue_width {
                break;
            }
            let Some(entry) = self.lsq.get(seq).copied() else {
                continue;
            };
            // Half-period scheduling margin (see `exec_domain_cycle`).
            let margin = period / 2;
            let one_cycle = now + period - margin;
            let completion = if entry.is_store {
                // Stores complete (for the ROB) once their address and data
                // are known; the cache write happens at commit.
                Some(one_cycle)
            } else {
                match self.lsq.load_issue_decision(seq) {
                    LsqIssue::Blocked => {
                        blocked += 1;
                        None
                    }
                    LsqIssue::Forward(_) => {
                        if self.mem_fus.try_issue(FuKind::MemPort, now, one_cycle) {
                            self.energy.record_access(Structure::Lsq, 1, voltage);
                            Some(one_cycle)
                        } else {
                            None
                        }
                    }
                    LsqIssue::AccessCache => {
                        if self.mem_fus.try_issue(FuKind::MemPort, now, one_cycle) {
                            self.energy.record_access(Structure::Lsq, 1, voltage);
                            Some(self.data_access_latency(entry.mem.addr, now, period, voltage))
                        } else {
                            None
                        }
                    }
                }
            };
            if let Some(done_at) = completion {
                self.lsq.mark_issued(seq);
                self.inflight.mark_issued(seq);
                self.timeline.push_completion(domain, done_at, seq);
                issued += 1;
            }
        }
        // A scan whose every candidate memory disambiguation blocked
        // finds nothing until a store address latches or a store leaves:
        // memoize it like an empty scan.  A candidate that lost the port
        // does not count as blocked.
        if blocked == candidates.len() {
            self.lsq.memoize_blocked_scan(now);
        }
        candidates.clear();
        self.scratch_seqs = candidates;

        // ---- Occupancy / counters / gating ----
        let counters = &mut self.domain_counters[domain.index()];
        counters.cycles += 1;
        if issued > 0 {
            counters.busy_cycles += 1;
        }
        counters.issued += issued as u64;
        self.lsq.accumulate_occupancy();
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

    /// Computes the completion time of a load that accesses the cache
    /// hierarchy, charging the corresponding energies.
    pub(crate) fn data_access_latency(
        &mut self,
        addr: u64,
        now: TimePs,
        period: TimePs,
        voltage: f64,
    ) -> TimePs {
        // Half-period scheduling margin (see `exec_domain_cycle`).
        let margin = period / 2;
        let l1_hit = self.l1d.access(addr, false);
        self.energy.record_access(Structure::L1DCache, 1, voltage);
        let l1_lat = u64::from(self.config.arch.l1d.latency_cycles) * period;
        if l1_hit {
            return now + l1_lat - margin;
        }
        let l2_hit = self.l2.access(addr, false);
        self.energy.record_access(Structure::L2Cache, 1, voltage);
        let l2_lat = u64::from(self.config.arch.l2.latency_cycles) * period;
        if l2_hit {
            return now + l1_lat + l2_lat - margin;
        }
        // Miss to main memory: fixed access time plus a synchronization
        // crossing into and out of the external domain.
        self.memory_accesses += 1;
        self.energy.record_memory_access();
        let to_mem = self.cross_domain_visible(
            now + l1_lat + l2_lat,
            DomainId::LoadStore,
            DomainId::External,
        );
        let mem_done = to_mem + self.config.clock.main_memory_latency_ps();
        let back = self.cross_domain_visible(mem_done, DomainId::External, DomainId::LoadStore);
        back + period - margin
    }
}
