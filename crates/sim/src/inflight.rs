//! Dense, ROB-indexed storage for in-flight instruction state.
//!
//! The simulator tracks one record per dispatched-but-not-yet-retired
//! instruction.  Records are created at dispatch (together with the ROB
//! entry) and destroyed at retire, so at most `rob_size` of them are ever
//! live, and — because sequence numbers are assigned consecutively in
//! program order — the live window spans at most `rob_size` consecutive
//! sequence numbers.  The slab's capacity is `rob_size` rounded up to a
//! power of two, so `seq & (capacity - 1)` is a perfect slot index: any
//! `capacity` consecutive sequence numbers land in distinct slots, and no
//! two live instructions can collide.
//!
//! [`InFlightTable`] exploits this to replace the historical
//! `HashMap<SeqNum, InFlight>` with a flat slab.  Every lookup — and the
//! hot paths perform several per issue candidate per domain cycle — becomes
//! one mask plus one array access, with a *generation check* (the stored
//! sequence number must equal the queried one) so that queries for retired
//! producers correctly return `None` instead of aliasing a newer
//! instruction that reuses the slot after the sequence space wraps past the
//! table capacity.
//!
//! The slab is laid out structure-of-arrays: the wakeup loop's working set
//! — generation tag, operation class, completed/issued flags, producer
//! list, per-domain visibility times, pending-producer count and running
//! readiness time — lives in a dense [`HotSlot`] array, while the full
//! [`DynInst`] payload and the branch-prediction bookkeeping (read once per
//! instruction, at writeback and retire) live in a parallel cold array.  A
//! third parallel array holds each slot's *consumer list*: the sequence
//! numbers of still-waiting instructions that read this slot's result.
//!
//! # Event-driven wakeup
//!
//! The historical kernel re-probed every waiting candidate's producers on
//! every cycle of its domain (`operands_ready` walked up to three producer
//! slots per candidate per cycle).  The slab now drives wakeup by *events*
//! instead:
//!
//! * at dispatch, [`InFlightTable::link_dependencies`] registers the new
//!   instruction in the consumer list of every live producer, counts the
//!   producers that have not completed yet ([`HotSlot::pending`]) and
//!   records the result-visibility time (in the consumer's execution
//!   domain) of those that have in the consumer's per-source readiness
//!   array;
//! * at writeback, [`InFlightTable::complete`] walks the finished
//!   producer's consumer list, decrementing each consumer's pending count
//!   and recording the freshly computed visibility time; consumers whose
//!   count hits zero are reported back to the caller as *woken*, together
//!   with the exact time at which they become issueable;
//! * at retire, [`InFlightTable::remove`] walks the list once more: a
//!   retired producer's value lives in architectural state, so consumers
//!   stop waiting for its cross-domain result visibility the moment the
//!   retirement is observable — each affected source contribution is
//!   lowered to the retire time, and already-woken consumers are re-queued
//!   at their (possibly earlier) readiness time.  The timeline's ready-list
//!   merge deduplicates, so re-wakeups are safe;
//! * the simulator queues each woken `(consumer, ready-time)` pair in its
//!   domain (a wakeup event on the domain's timeline —
//!   [`crate::events::DomainTimeline`] — for the execution domains, the
//!   LSQ's operand-readiness times for memory operations) and never probes
//!   operands again.
//!
//! An instruction is therefore examined only when its state actually
//! changes (a producer completes or retires) or when domain time crosses
//! its already-known readiness time — the per-cycle scan over all waiting
//! candidates is gone.  [`InFlightTable::operands_ready`] retains the
//! historical probe as the *definition* of readiness; debug builds assert
//! the event-driven path agrees with it at every issue.

use mcd_clock::{DomainId, TimePs};
use mcd_isa::{DynInst, ExecClass, OpClass, SeqNum};
use mcd_microarch::Prediction;

/// The execution domain in which an operation class executes (memory
/// operations live in the load/store domain; everything else, including
/// branches and NOPs, in the integer or floating-point domain).
pub(crate) fn exec_domain_of(op: OpClass) -> DomainId {
    match op.exec_class() {
        ExecClass::IntAlu | ExecClass::IntMultDiv | ExecClass::Branch => DomainId::Integer,
        ExecClass::FpAlu | ExecClass::FpMultDiv => DomainId::FloatingPoint,
        ExecClass::Mem => DomainId::LoadStore,
        ExecClass::None => DomainId::Integer,
    }
}

/// Maximum number of register sources of a [`DynInst`].
const MAX_SOURCES: usize = 3;

/// Generation-tag sentinel marking an unoccupied slot (sequence numbers
/// are assigned from zero and a simulation never reaches `u64::MAX`).
const EMPTY: SeqNum = SeqNum::MAX;

/// The producers of an instruction's source operands, inline (the
/// historical `Vec<SeqNum>` allocated on every dispatch).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Producers {
    items: [SeqNum; MAX_SOURCES],
    len: u8,
}

impl Producers {
    /// Adds a producer; silently ignores overflow beyond the ISA's source
    /// limit (cannot happen for valid instructions).
    pub(crate) fn push(&mut self, seq: SeqNum) {
        if (self.len as usize) < MAX_SOURCES {
            self.items[self.len as usize] = seq;
            self.len += 1;
        }
    }

    /// Iterator over the recorded producers.
    pub(crate) fn iter(&self) -> impl Iterator<Item = SeqNum> + '_ {
        self.items[..self.len as usize].iter().copied()
    }
}

/// Book-keeping for one in-flight instruction, as assembled at dispatch
/// and returned at retire.  Internally the table stores these fields split
/// across the hot and cold arrays.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) inst: DynInst,
    /// Sequence numbers of the producers of this instruction's sources.
    pub(crate) producers: Producers,
    /// Whether execution finished.
    pub(crate) completed: bool,
    /// Time at which the result is visible in each domain (index =
    /// `DomainId::index`), valid once `completed`.
    pub(crate) visible_at: [TimePs; 5],
    /// Whether the instruction has been issued to a functional unit.
    pub(crate) issued: bool,
    /// Fetch-time branch prediction (branches only).
    pub(crate) prediction: Option<Prediction>,
    /// Whether the branch was mispredicted (direction or target).
    pub(crate) mispredicted: bool,
}

/// The wakeup loop's per-instruction working set: everything the
/// readiness/issue scans read, nothing they don't.
#[derive(Debug, Clone, Copy)]
struct HotSlot {
    /// Generation tag: the live occupant's sequence number, or [`EMPTY`].
    seq: SeqNum,
    /// Operation class (issue needs it for functional-unit selection and
    /// latency without touching the cold payload).
    op: OpClass,
    /// Whether execution finished.
    completed: bool,
    /// Whether the instruction has been issued to a functional unit.
    issued: bool,
    /// Number of producers that have not completed yet (valid once
    /// [`InFlightTable::link_dependencies`] ran; zero for untracked
    /// entries such as NOPs).
    pending: u8,
    /// Producers of this instruction's source operands.
    producers: Producers,
    /// Per-domain result visibility times, valid once `completed`.
    visible_at: [TimePs; 5],
    /// Base readiness time: the dispatch-crossing visibility of the
    /// instruction itself for execution-domain instructions, zero for
    /// memory operations (whose queue visibility the LSQ gates
    /// separately).
    ready_base: TimePs,
    /// Per-source readiness contributions, parallel to `producers`: the
    /// time at which that source's value is usable in this instruction's
    /// execution domain — the producer's result-visibility time there,
    /// lowered to the producer's retire time if it retires first (the
    /// value is then in architectural state).  Zero until the producer
    /// completes, which is fine: `pending` gates the wakeup.  The
    /// instruction is issueable at the max of `ready_base` and these.
    src_ready: [TimePs; MAX_SOURCES],
}

impl HotSlot {
    /// The time at which the instruction becomes issueable, exact once
    /// `pending` is zero.
    fn ready_time(&self) -> TimePs {
        let n = self.producers.len as usize;
        self.src_ready[..n]
            .iter()
            .fold(self.ready_base, |acc, &t| acc.max(t))
    }
}

impl HotSlot {
    fn empty() -> Self {
        HotSlot {
            seq: EMPTY,
            op: OpClass::Nop,
            completed: false,
            issued: false,
            pending: 0,
            producers: Producers::default(),
            visible_at: [0; 5],
            ready_base: 0,
            src_ready: [0; MAX_SOURCES],
        }
    }
}

/// The cold per-instruction payload: read at writeback (branch resolution)
/// and retire (register release, store commit), never in the wakeup scans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdInfo {
    /// The dynamic instruction record.
    pub(crate) inst: DynInst,
    /// Fetch-time branch prediction (branches only).
    pub(crate) prediction: Option<Prediction>,
    /// Whether the branch was mispredicted (direction or target).
    pub(crate) mispredicted: bool,
}

/// A consumer woken by a producer completion: the consumer's sequence
/// number, its execution domain and the exact time at which it becomes
/// issueable there.
pub(crate) type Woken = (SeqNum, DomainId, TimePs);

/// Slab of in-flight instructions indexed by `seq & mask`, split into
/// hot (wakeup) and cold (writeback/retire) parallel arrays, plus a third
/// parallel array of consumer lists (the seq numbers waiting on each
/// slot's result).  The consumer `Vec`s keep their capacity across slot
/// reuse, so the steady-state dispatch/complete cycle never allocates.
#[derive(Debug)]
pub(crate) struct InFlightTable {
    hot: Box<[HotSlot]>,
    cold: Box<[Option<ColdInfo>]>,
    consumers: Box<[Vec<SeqNum>]>,
    /// Slot count minus one (the slot count is a power of two).
    mask: u64,
    live: usize,
}

impl InFlightTable {
    /// Creates a table able to hold `capacity` (= ROB size) live entries
    /// with consecutive sequence numbers; it allocates `capacity` rounded
    /// up to a power of two slots.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "in-flight capacity must be positive");
        let slots = capacity.next_power_of_two();
        InFlightTable {
            hot: vec![HotSlot::empty(); slots].into_boxed_slice(),
            cold: vec![None; slots].into_boxed_slice(),
            consumers: vec![Vec::new(); slots].into_boxed_slice(),
            mask: slots as u64 - 1,
            live: 0,
        }
    }

    #[inline]
    fn slot_of(&self, seq: SeqNum) -> usize {
        (seq & self.mask) as usize
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Whether no instruction is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts the record for a newly dispatched instruction.
    ///
    /// # Panics
    ///
    /// Panics if the slot is still occupied — that would mean the live
    /// window spans more sequence numbers than the slab has slots, i.e.
    /// the ROB bound was
    /// violated and slot aliasing would silently corrupt dependence
    /// tracking.
    pub(crate) fn insert(&mut self, entry: InFlight) {
        let seq = entry.inst.seq;
        let slot = self.slot_of(seq);
        assert!(
            self.hot[slot].seq == EMPTY,
            "in-flight slot collision: seq {} would alias a live instruction",
            seq
        );
        self.hot[slot] = HotSlot {
            seq,
            op: entry.inst.op,
            completed: entry.completed,
            issued: entry.issued,
            pending: 0,
            producers: entry.producers,
            visible_at: entry.visible_at,
            ready_base: 0,
            src_ready: [0; MAX_SOURCES],
        };
        self.cold[slot] = Some(ColdInfo {
            inst: entry.inst,
            prediction: entry.prediction,
            mispredicted: entry.mispredicted,
        });
        self.consumers[slot].clear();
        self.live += 1;
    }

    /// Wires the freshly dispatched instruction `seq` into the event-driven
    /// wakeup graph: registers it in the consumer list of every *live*
    /// producer (so the producer's completion and retirement can both
    /// update it), counts the not-yet-completed ones in its `pending`
    /// field, and records the visibility times of already-completed
    /// producers — in the instruction's execution domain `domain` — in its
    /// per-source readiness array.  `base_ready` seeds the readiness time:
    /// the dispatch-crossing visibility for execution-domain instructions,
    /// zero for memory operations (whose own queue visibility the LSQ
    /// tracks separately).
    ///
    /// Returns `Some(ready_time)` when no producer is outstanding, i.e. the
    /// instruction is already issueable at `ready_time`; otherwise the last
    /// completing producer reports it through
    /// [`InFlightTable::complete`]'s woken list.  Not called for NOPs,
    /// which complete at dispatch and never enter an issue queue.
    pub(crate) fn link_dependencies(
        &mut self,
        seq: SeqNum,
        domain: DomainId,
        base_ready: TimePs,
    ) -> Option<TimePs> {
        let slot = self.slot_of(seq);
        debug_assert_eq!(
            self.hot[slot].seq, seq,
            "linking an instruction not in flight"
        );
        let producers = self.hot[slot].producers;
        let mut pending = 0u8;
        let mut src_ready = [0 as TimePs; MAX_SOURCES];
        for (i, p) in producers.iter().enumerate() {
            let pslot = self.slot_of(p);
            if self.hot[pslot].seq != p {
                // Retired (or slot reused by a younger instruction, which
                // implies retired): the value lives in architectural state
                // and is usable immediately.
                continue;
            }
            self.consumers[pslot].push(seq);
            if self.hot[pslot].completed {
                src_ready[i] = self.hot[pslot].visible_at[domain.index()];
            } else {
                pending += 1;
            }
        }
        self.hot[slot].pending = pending;
        self.hot[slot].ready_base = base_ready;
        self.hot[slot].src_ready = src_ready;
        (pending == 0).then_some(self.hot[slot].ready_time())
    }

    /// The operation class of a live instruction (generation-checked).
    #[inline]
    pub(crate) fn op_of(&self, seq: SeqNum) -> Option<OpClass> {
        let slot = &self.hot[self.slot_of(seq)];
        (slot.seq == seq).then_some(slot.op)
    }

    /// Whether `seq` is live and still awaiting issue — the filter the
    /// wakeup queues use to drop stale re-wakeup events.
    #[inline]
    pub(crate) fn is_waiting(&self, seq: SeqNum) -> bool {
        let slot = &self.hot[self.slot_of(seq)];
        slot.seq == seq && !slot.issued
    }

    /// Marks a live instruction as issued to a functional unit.
    #[inline]
    pub(crate) fn mark_issued(&mut self, seq: SeqNum) {
        let slot = self.slot_of(seq);
        if self.hot[slot].seq == seq {
            self.hot[slot].issued = true;
        }
    }

    /// Marks a live instruction's execution as finished with the given
    /// per-domain visibility times, returning the cold payload the
    /// writeback logic needs (`None` for retired/unknown sequence numbers).
    ///
    /// This is the producer side of the event-driven wakeup: each consumer
    /// in the finished instruction's list has its pending count
    /// decremented and this result's visibility time (in the consumer's
    /// execution domain) recorded in the matching source slots.  Consumers
    /// whose last outstanding producer this was are appended to `woken`
    /// with their now-final readiness time, for the caller to queue in the
    /// appropriate domain.  The consumer list is kept: retirement walks it
    /// once more (see [`InFlightTable::remove`]).
    #[inline]
    pub(crate) fn complete(
        &mut self,
        seq: SeqNum,
        visible_at: [TimePs; 5],
        woken: &mut Vec<Woken>,
    ) -> Option<ColdInfo> {
        let slot = self.slot_of(seq);
        if self.hot[slot].seq != seq {
            return None;
        }
        self.hot[slot].completed = true;
        self.hot[slot].visible_at = visible_at;
        let list = std::mem::take(&mut self.consumers[slot]);
        for &c in &list {
            let cslot = self.slot_of(c);
            debug_assert_eq!(
                self.hot[cslot].seq, c,
                "a waiting consumer cannot retire before its producers complete"
            );
            let domain = exec_domain_of(self.hot[cslot].op);
            let visible = visible_at[domain.index()];
            let chot = &mut self.hot[cslot];
            let n = chot.producers.len as usize;
            for i in 0..n {
                if chot.producers.items[i] == seq {
                    chot.src_ready[i] = visible;
                }
            }
            chot.pending -= 1;
            if chot.pending == 0 {
                woken.push((c, domain, chot.ready_time()));
            }
        }
        self.consumers[slot] = list; // kept for the retirement walk
        self.cold[slot]
    }

    /// Removes and returns an entry (at retire time `now`).
    ///
    /// Retirement is itself a wakeup event: the retired instruction's
    /// value moves to architectural state, so consumers still waiting for
    /// its *result visibility* in their domain become ready as soon as the
    /// retirement is observable — possibly earlier than the cross-domain
    /// visibility they were woken for.  Each matching source contribution
    /// is lowered to `now`, and consumers with no outstanding producers
    /// whose readiness time *strictly improved* are appended to `rewoken`;
    /// the caller re-queues them at the earlier time.  Consumers whose
    /// readiness did not move are suppressed: a fully-woken, unissued
    /// consumer always has a wakeup scheduled at exactly its current
    /// readiness time (`complete` establishes it and every strictly
    /// lowering retirement re-establishes it), so re-pushing an equal time
    /// would only feed the timeline's ready-list deduplication another
    /// redundant event.
    pub(crate) fn remove(
        &mut self,
        seq: SeqNum,
        now: TimePs,
        rewoken: &mut Vec<Woken>,
    ) -> Option<InFlight> {
        let slot = self.slot_of(seq);
        if self.hot[slot].seq != seq {
            return None;
        }
        let list = std::mem::take(&mut self.consumers[slot]);
        for &c in &list {
            let cslot = self.slot_of(c);
            if self.hot[cslot].seq != c {
                // In-order retirement means consumers outlive their
                // producers; tolerate staleness anyway.
                continue;
            }
            let domain = exec_domain_of(self.hot[cslot].op);
            let chot = &mut self.hot[cslot];
            let before = chot.ready_time();
            let n = chot.producers.len as usize;
            for i in 0..n {
                if chot.producers.items[i] == seq && chot.src_ready[i] > now {
                    chot.src_ready[i] = now;
                }
            }
            if chot.pending == 0 && !chot.issued {
                let after = chot.ready_time();
                if after < before {
                    rewoken.push((c, domain, after));
                }
            }
        }
        let mut list = list;
        list.clear();
        self.consumers[slot] = list; // keep the capacity for slot reuse
        let hot = std::mem::replace(&mut self.hot[slot], HotSlot::empty());
        let cold = self.cold[slot].take().expect("hot and cold slots in sync");
        self.live -= 1;
        Some(InFlight {
            inst: cold.inst,
            producers: hot.producers,
            completed: hot.completed,
            visible_at: hot.visible_at,
            issued: hot.issued,
            prediction: cold.prediction,
            mispredicted: cold.mispredicted,
        })
    }

    /// Whether the producer `seq` has a result visible in `domain` at
    /// `now`.  Retired producers are always visible (their value lives in
    /// architectural state).
    #[inline]
    pub(crate) fn producer_ready(
        &self,
        seq: SeqNum,
        domain: mcd_clock::DomainId,
        now: TimePs,
    ) -> bool {
        let slot = &self.hot[self.slot_of(seq)];
        if slot.seq != seq {
            return true;
        }
        slot.completed && slot.visible_at[domain.index()] <= now
    }

    /// Whether every producer of `seq` is visible in `domain` at `now`.
    ///
    /// This probe is the *definition* of operand readiness.  The hot paths
    /// no longer call it — readiness is pushed by
    /// [`InFlightTable::complete`] — but the issue loop debug-asserts that
    /// every event-woken candidate satisfies it, which ties the two
    /// formulations together in every debug-build test run.
    #[inline]
    pub(crate) fn operands_ready(
        &self,
        seq: SeqNum,
        domain: mcd_clock::DomainId,
        now: TimePs,
    ) -> bool {
        let slot = &self.hot[self.slot_of(seq)];
        if slot.seq != seq {
            return false;
        }
        slot.producers
            .iter()
            .all(|p| self.producer_ready(p, domain, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_isa::Reg;

    fn entry(seq: SeqNum) -> InFlight {
        InFlight {
            inst: DynInst::alu(seq, 0x1000, Reg::int(1), &[Reg::int(2)]),
            producers: Producers::default(),
            completed: false,
            visible_at: [0; 5],
            issued: false,
            prediction: None,
            mispredicted: false,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = InFlightTable::new(8);
        assert!(t.is_empty());
        t.insert(entry(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.op_of(3), Some(OpClass::IntAlu));
        assert_eq!(t.op_of(4), None);
        let removed = t.remove(3, 0, &mut Vec::new()).unwrap();
        assert_eq!(removed.inst.seq, 3);
        assert!(t.remove(3, 0, &mut Vec::new()).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn hot_and_cold_state_round_trips_through_the_split_arrays() {
        let mut t = InFlightTable::new(8);
        let mut woken = Vec::new();
        t.insert(entry(5));
        t.mark_issued(5);
        let cold = t.complete(5, [10, 20, 30, 40, 50], &mut woken).unwrap();
        assert!(woken.is_empty(), "no consumers were linked");
        assert_eq!(cold.inst.seq, 5);
        assert!(!cold.mispredicted);
        // Completion with visibility makes the producer ready per domain.
        assert!(t.producer_ready(5, mcd_clock::DomainId::Integer, 20));
        assert!(!t.producer_ready(5, mcd_clock::DomainId::LoadStore, 20));
        let back = t.remove(5, 0, &mut Vec::new()).unwrap();
        assert!(back.issued && back.completed);
        assert_eq!(back.visible_at, [10, 20, 30, 40, 50]);
    }

    #[test]
    fn wrapped_sequence_numbers_do_not_alias_stale_entries() {
        // Regression test for the slab generation check: after the
        // sequence space wraps past the capacity, queries for the *old*
        // occupant of a slot must return None, not the new one.
        let capacity = 8u64;
        let mut t = InFlightTable::new(capacity as usize);
        t.insert(entry(5));
        // seq 5 retires; seq 5 + capacity lands in the same slot.
        t.remove(5, 0, &mut Vec::new()).unwrap();
        t.insert(entry(5 + capacity));
        assert!(t.op_of(5).is_none(), "stale seq 5 must not alias seq 13");
        assert_eq!(t.op_of(5 + capacity), Some(OpClass::IntAlu));
        // A retired producer reads as ready; the live one does not.
        assert!(t.producer_ready(5, mcd_clock::DomainId::Integer, 0));
        assert!(!t.producer_ready(5 + capacity, mcd_clock::DomainId::Integer, 0));
        // Mutators on the stale seq must not touch the new occupant.
        t.mark_issued(5);
        assert!(t.complete(5, [1; 5], &mut Vec::new()).is_none());
        let live = t.remove(5 + capacity, 0, &mut Vec::new()).unwrap();
        assert!(!live.issued && !live.completed);
    }

    fn entry_with_producers(seq: SeqNum, prods: &[SeqNum]) -> InFlight {
        let mut e = entry(seq);
        for &p in prods {
            e.producers.push(p);
        }
        e
    }

    #[test]
    fn last_completing_producer_wakes_the_consumer_with_the_max_visibility() {
        let mut t = InFlightTable::new(8);
        t.insert(entry(1));
        t.insert(entry(2));
        t.insert(entry_with_producers(3, &[1, 2]));
        // Both producers outstanding at link time.
        assert_eq!(
            t.link_dependencies(3, DomainId::Integer, 100),
            None,
            "two pending producers must defer the wakeup"
        );
        let mut woken = Vec::new();
        t.complete(1, [0, 500, 0, 0, 0], &mut woken);
        assert!(woken.is_empty(), "one producer still outstanding");
        t.complete(2, [0, 400, 0, 0, 0], &mut woken);
        assert_eq!(
            woken,
            vec![(3, DomainId::Integer, 500)],
            "wakeup carries the max of base and producer visibilities"
        );
        // The event-driven time agrees with the probe definition.
        assert!(!t.operands_ready(3, DomainId::Integer, 499));
        assert!(t.operands_ready(3, DomainId::Integer, 500));
    }

    #[test]
    fn already_completed_and_retired_producers_resolve_at_link_time() {
        let mut t = InFlightTable::new(8);
        let mut woken = Vec::new();
        t.insert(entry(1));
        t.complete(1, [0, 700, 0, 0, 0], &mut woken);
        t.insert(entry(2));
        t.remove(2, 0, &mut Vec::new()).unwrap(); // retired: value in architectural state
        t.insert(entry_with_producers(3, &[1, 2]));
        // Completed producer 1 contributes its Integer visibility; retired
        // producer 2 contributes nothing.
        assert_eq!(t.link_dependencies(3, DomainId::Integer, 100), Some(700));
    }

    #[test]
    fn duplicate_producer_entries_wake_exactly_once() {
        // An instruction reading the same source register twice records the
        // same producer twice; the pending count must still reach zero on
        // the producer's single completion, with a single wakeup.
        let mut t = InFlightTable::new(8);
        t.insert(entry(1));
        t.insert(entry_with_producers(2, &[1, 1]));
        assert_eq!(t.link_dependencies(2, DomainId::Integer, 0), None);
        let mut woken = Vec::new();
        t.complete(1, [0, 300, 0, 0, 0], &mut woken);
        assert_eq!(woken, vec![(2, DomainId::Integer, 300)]);
    }

    #[test]
    fn memory_consumers_wake_in_the_loadstore_domain() {
        let mut t = InFlightTable::new(8);
        t.insert(entry(1));
        let mut load = entry(4);
        load.inst = DynInst::load(
            4,
            0x2000,
            Reg::int(3),
            &[Reg::int(2)],
            mcd_isa::MemInfo::new(0x8000, 8),
        );
        load.producers.push(1);
        t.insert(load);
        assert_eq!(t.link_dependencies(4, DomainId::LoadStore, 0), None);
        let mut woken = Vec::new();
        t.complete(1, [0, 0, 0, 900, 0], &mut woken);
        assert_eq!(woken, vec![(4, DomainId::LoadStore, 900)]);
    }

    #[test]
    #[should_panic(expected = "slot collision")]
    fn slot_collision_panics_instead_of_corrupting() {
        let mut t = InFlightTable::new(4);
        t.insert(entry(1));
        t.insert(entry(5)); // 5 % 4 == 1 % 4
    }

    #[test]
    fn non_power_of_two_capacities_keep_a_full_window_collision_free() {
        // The ROB sizes a configuration may choose need not be powers of
        // two; the slab rounds up and masks.  A window of `capacity` live
        // consecutive sequence numbers, slid through many wraps of the
        // slot space, never collides and never aliases a retired entry.
        for capacity in [80usize, 96, 100] {
            let mut t = InFlightTable::new(capacity);
            assert!(t.hot.len().is_power_of_two() && t.hot.len() >= capacity);
            let cap = capacity as u64;
            for seq in 0..cap {
                t.insert(entry(seq));
            }
            for seq in cap..cap * 40 {
                t.remove(seq - cap, 0, &mut Vec::new()).unwrap();
                t.insert(entry(seq));
                assert!(t.op_of(seq - cap).is_none(), "stale {} aliased", seq - cap);
                assert_eq!(t.op_of(seq - cap + 1), Some(OpClass::IntAlu));
            }
            assert_eq!(t.len(), capacity);
        }
    }

    #[test]
    fn producers_inline_array_caps_at_isa_limit() {
        let mut p = Producers::default();
        for s in 0..5 {
            p.push(s);
        }
        let got: Vec<_> = p.iter().collect();
        assert_eq!(got, vec![0, 1, 2]);
    }
}
