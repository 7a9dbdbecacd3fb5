//! Per-domain event timelines of the simulation kernel.
//!
//! Historically the kernel kept **two** parallel families of per-domain
//! binary min-heaps: `CompletionQueues` ("instruction `seq` finishes
//! executing at time `t` in domain `d`") and `WakeupQueues` ("instruction
//! `seq` becomes issueable in domain `d` at time `t`").  Every issue pushed
//! a completion event and every completion could push wakeup events, so the
//! per-instruction kernel cost was dominated by `O(log n)` heap churn paid
//! twice over.
//!
//! [`DomainTimeline`] replaces both with a single per-domain queue carrying
//! tagged [`TimelineEvent`]s, split in two parts by arrival order.
//!
//! # Monotone lane and heap
//!
//! Event-traffic profiling (`EventTrafficStats`, surfaced per run as
//! `events_per_commit`) showed most pushes arrive in *non-decreasing*
//! `(time, seq, kind)` order: a domain schedules completions as it issues,
//! and issue times advance with domain time.  Each timeline therefore
//! carries a **monotone lane** — a sorted `VecDeque` that accepts a pushed
//! event with a single tail comparison whenever the event is not earlier
//! than the lane's tail.  The out-of-order remainder goes to a plain
//! `BinaryHeap` min-heap.  Lane absorption is counted
//! ([`EventTrafficStats::lane_pushes`]).  Neither part depends on the
//! domain's clock period, so a frequency retarget leaves the timeline
//! untouched.
//!
//! # Drain-order invariant
//!
//! One [`DomainTimeline::collect_due`] call per domain cycle drains *both*
//! event streams in a single pass, returning every due event in
//! `(time, seq, kind)` order with [`EventKind::Completion`] ordered before
//! [`EventKind::Wakeup`]: the drain pops the lane's due prefix and the
//! heap's due events, then sorts the merged batch once.  Completions
//! thereby retire in exactly the deterministic `(time, seq)` order the
//! historical completion heap popped, which the writeback side effects
//! (predictor updates, ROB completion marks, energy accounting) require for
//! bit-identical results; wakeup events commute with completions (promotion
//! only inserts into a seq-sorted ready list behind a pure filter), so
//! tagging them after completions at equal `(time, seq)` preserves
//! behaviour exactly.
//!
//! # Ready lists
//!
//! The per-domain *ready list* (issueable-but-not-yet-issued instructions,
//! kept seq-sorted because issue priority is oldest-first) lives in the
//! timeline too.  Due wakeups are folded in per drain through
//! [`DomainTimeline::extend_ready`], which sorts the batch once and merges
//! it in a single pass — fixing the historical per-event
//! `Vec::insert` whose worst case (events arriving in descending sequence
//! order) degraded to `O(k·n)` memmoves per cycle.  An append fast path
//! keeps the common in-order case allocation- and shift-free.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mcd_clock::{DomainId, TimePs};
use mcd_isa::SeqNum;

use crate::telemetry::EventTrafficStats;

/// What a timeline event means to the kernel.
///
/// The discriminant order matters: events sort `(time, seq, kind)` and
/// completions must drain before wakeups at equal `(time, seq)` so the
/// historical "writeback first, then promote" cycle structure is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Instruction `seq` finishes executing at `time`; drives writeback.
    Completion,
    /// Instruction `seq` becomes issueable at `time`; feeds the ready list.
    Wakeup,
}

/// One scheduled event of a domain timeline.
///
/// The derived ordering is the drain order: `(time, seq, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimelineEvent {
    /// Absolute simulated time at which the event is due, in picoseconds.
    pub time: TimePs,
    /// The instruction the event concerns.
    pub seq: SeqNum,
    /// Completion or wakeup.
    pub kind: EventKind,
}

/// The seq-sorted ready list of one domain: issueable-but-not-yet-issued
/// instructions, oldest (lowest sequence number) first.
///
/// Entries leave only at issue; a candidate that loses functional-unit
/// arbitration stays for the next cycle.  Insertion happens in per-drain
/// batches: the batch is sorted once and merged in one pass, so the
/// reverse-seq-arrival worst case costs `O(n + k log k)` instead of the
/// `O(k·n)` of the historical per-event sorted `Vec::insert`.
#[derive(Debug, Default)]
struct ReadyList {
    /// Strictly ascending sequence numbers.
    seqs: Vec<SeqNum>,
    /// Reusable merge buffer (kept so steady state never allocates).
    merge: Vec<SeqNum>,
}

impl ReadyList {
    /// Folds a batch of woken sequence numbers into the list, deduplicating
    /// against both the batch itself and the existing entries.  The batch
    /// vector is consumed (cleared) and its capacity retained by the caller.
    fn extend_sorted(&mut self, batch: &mut Vec<SeqNum>) {
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable();
        batch.dedup();
        // Append fast path: wakeups usually arrive in ascending seq order,
        // so the whole batch lands strictly after the existing entries.
        if self.seqs.last().is_none_or(|&last| last < batch[0]) {
            self.seqs.extend_from_slice(batch);
            batch.clear();
            return;
        }
        // General case: one merge pass over both sorted sequences.
        self.merge.clear();
        self.merge.reserve(self.seqs.len() + batch.len());
        let (mut i, mut j) = (0, 0);
        while i < self.seqs.len() && j < batch.len() {
            match self.seqs[i].cmp(&batch[j]) {
                std::cmp::Ordering::Less => {
                    self.merge.push(self.seqs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.merge.push(batch[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.merge.push(self.seqs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.merge.extend_from_slice(&self.seqs[i..]);
        self.merge.extend_from_slice(&batch[j..]);
        std::mem::swap(&mut self.seqs, &mut self.merge);
        batch.clear();
    }

    /// Removes `seq` (at issue); a no-op if it is not present.
    fn remove(&mut self, seq: SeqNum) {
        if let Ok(pos) = self.seqs.binary_search(&seq) {
            self.seqs.remove(pos);
        }
    }
}

/// The event queue of one domain.
#[derive(Debug, Default)]
struct Timeline {
    /// The monotone lane: events that arrived in non-decreasing
    /// `(time, seq, kind)` order, kept sorted by construction (an event
    /// only enters when it is `>=` the current tail).  The due prefix pops
    /// from the front at drain time.
    lane: VecDeque<TimelineEvent>,
    /// Events that arrived earlier than the lane's tail.
    heap: BinaryHeap<Reverse<TimelineEvent>>,
    /// Issueable instructions, seq-sorted.
    ready: ReadyList,
}

/// The unified per-domain event machinery of the kernel: one lane-plus-heap
/// queue (plus ready list) per domain, carrying tagged completion and
/// wakeup events, drained in a single deterministic pass per domain cycle.
///
/// See the [module documentation](self) for the lane and the drain-order
/// invariant.
#[derive(Debug)]
pub struct DomainTimeline {
    /// Per-domain earliest pending event time (`TimePs::MAX` when none):
    /// pushes lower it, slow drains recompute it from the lane front and
    /// the heap top.  Most domain cycles have nothing due, and this bound
    /// settles them with a single comparison against one shared cache line.
    next_due_ps: [TimePs; 5],
    domains: Vec<Timeline>,
    stats: EventTrafficStats,
}

impl Default for DomainTimeline {
    fn default() -> Self {
        Self::new()
    }
}

impl DomainTimeline {
    /// Creates empty timelines, one per domain.
    pub fn new() -> Self {
        DomainTimeline {
            next_due_ps: [TimePs::MAX; 5],
            domains: (0..5).map(|_| Timeline::default()).collect(),
            stats: EventTrafficStats::default(),
        }
    }

    /// Schedules the completion of `seq` at `time` in `domain`.
    #[inline]
    pub fn push_completion(&mut self, domain: DomainId, time: TimePs, seq: SeqNum) {
        self.push(
            domain,
            TimelineEvent {
                time,
                seq,
                kind: EventKind::Completion,
            },
        );
    }

    /// Schedules instruction `seq` to become issueable in `domain` at
    /// `time`.  An instruction may be scheduled *again* at an earlier time
    /// (a producer retirement re-wakes consumers early); the ready-list
    /// merge deduplicates, and the caller filters events for instructions
    /// that already issued.
    #[inline]
    pub fn push_wakeup(&mut self, domain: DomainId, time: TimePs, seq: SeqNum) {
        self.push(
            domain,
            TimelineEvent {
                time,
                seq,
                kind: EventKind::Wakeup,
            },
        );
    }

    #[inline]
    fn push(&mut self, domain: DomainId, ev: TimelineEvent) {
        self.stats.pushes += 1;
        let di = domain.index();
        self.next_due_ps[di] = self.next_due_ps[di].min(ev.time);
        let tl = &mut self.domains[di];
        // Monotone fast path: an event not earlier than the lane's tail
        // appends in O(1) with one comparison.  Out-of-order events take
        // the heap.
        if tl.lane.back().is_none_or(|&back| ev >= back) {
            tl.lane.push_back(ev);
            self.stats.lane_pushes += 1;
        } else {
            tl.heap.push(Reverse(ev));
        }
    }

    /// The fast-path check opening one domain cycle's drain: whether any
    /// event of `domain` is due at `now`, decided by one comparison against
    /// the next-due time.  Callers skip their drain-loop setup entirely
    /// when it returns `false`; `true` means [`DomainTimeline::collect_due`]
    /// has events to deliver.
    #[inline]
    pub fn has_due(&self, domain: DomainId, now: TimePs) -> bool {
        now >= self.next_due_ps[domain.index()]
    }

    /// The time of `domain`'s earliest pending event (`TimePs::MAX` when
    /// none): edges of the domain before it drain nothing.
    #[inline]
    pub fn next_due(&self, domain: DomainId) -> TimePs {
        self.next_due_ps[domain.index()]
    }

    /// Collects every event of `domain` due at `now` into `out` (cleared
    /// first), in `(time, seq, kind)` order.
    ///
    /// Events pushed *while the caller processes the batch* at exactly
    /// `now` (same-domain completions wake consumers in the same cycle) are
    /// picked up by the next call with the same `now` — callers loop until
    /// the batch comes back empty.
    #[inline]
    pub fn collect_due(&mut self, domain: DomainId, now: TimePs, out: &mut Vec<TimelineEvent>) {
        out.clear();
        // Fast path — the common case by far: nothing due.  The next-due
        // bound is exact after every drain and only lowered by pushes, so
        // one comparison settles the cycle.
        if !self.has_due(domain, now) {
            return;
        }
        self.collect_due_slow(domain, now, out);
    }

    fn collect_due_slow(&mut self, domain: DomainId, now: TimePs, out: &mut Vec<TimelineEvent>) {
        self.stats.drains += 1;
        let tl = &mut self.domains[domain.index()];
        // Monotone lane: sorted non-decreasing, so the due events form a
        // prefix popping from the front.
        while tl.lane.front().is_some_and(|ev| ev.time <= now) {
            out.push(tl.lane.pop_front().expect("checked non-empty"));
        }
        while tl.heap.peek().is_some_and(|Reverse(ev)| ev.time <= now) {
            out.push(tl.heap.pop().expect("checked non-empty").0);
        }
        let lane_bound = tl.lane.front().map_or(TimePs::MAX, |ev| ev.time);
        let heap_bound = tl.heap.peek().map_or(TimePs::MAX, |Reverse(ev)| ev.time);
        self.next_due_ps[domain.index()] = lane_bound.min(heap_bound);
        if out.len() > 1 {
            out.sort_unstable();
        }
        self.stats.pops += out.len() as u64;
    }

    /// Folds a batch of woken instructions into `domain`'s ready list
    /// (consumes the batch; see `ReadyList::extend_sorted`).
    #[inline]
    pub fn extend_ready(&mut self, domain: DomainId, woken: &mut Vec<SeqNum>) {
        self.domains[domain.index()].ready.extend_sorted(woken);
    }

    /// The instructions of `domain` that are issueable as of the last
    /// drain, oldest first.
    #[inline]
    pub fn ready(&self, domain: DomainId) -> &[SeqNum] {
        &self.domains[domain.index()].ready.seqs
    }

    /// Removes an instruction from `domain`'s ready list at issue.
    #[inline]
    pub fn remove_ready(&mut self, domain: DomainId, seq: SeqNum) {
        self.domains[domain.index()].ready.remove(seq);
    }

    /// The accumulated event-traffic counters (all domains combined).
    pub fn stats(&self) -> EventTrafficStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(t: &mut DomainTimeline, d: DomainId, now: TimePs) -> Vec<TimelineEvent> {
        let mut out = Vec::new();
        t.collect_due(d, now, &mut out);
        out
    }

    fn completions(events: &[TimelineEvent]) -> Vec<(TimePs, SeqNum)> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Completion)
            .map(|e| (e.time, e.seq))
            .collect()
    }

    #[test]
    fn completions_drain_in_time_then_seq_order_and_respect_due_time() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_completion(d, 300, 7);
        t.push_completion(d, 100, 9);
        t.push_completion(d, 100, 2);
        t.push_completion(d, 500, 1);
        assert!(drain(&mut t, d, 50).is_empty());
        assert_eq!(t.next_due(d), 100);
        assert_eq!(t.next_due(DomainId::LoadStore), TimePs::MAX);
        assert_eq!(
            completions(&drain(&mut t, d, 300)),
            vec![(100, 2), (100, 9), (300, 7)]
        );
        assert!(drain(&mut t, d, 300).is_empty());
        assert_eq!(t.next_due(d), 500);
        assert_eq!(completions(&drain(&mut t, d, 1_000)), vec![(500, 1)]);
        assert_eq!(t.next_due(d), TimePs::MAX);
    }

    #[test]
    fn domains_are_independent() {
        let mut t = DomainTimeline::new();
        t.push_completion(DomainId::Integer, 10, 1);
        t.push_completion(DomainId::LoadStore, 10, 2);
        assert!(drain(&mut t, DomainId::FloatingPoint, 100).is_empty());
        assert_eq!(
            completions(&drain(&mut t, DomainId::Integer, 100)),
            vec![(10, 1)]
        );
        assert!(drain(&mut t, DomainId::Integer, 100).is_empty());
        assert_eq!(
            completions(&drain(&mut t, DomainId::LoadStore, 100)),
            vec![(10, 2)]
        );
    }

    #[test]
    fn completions_order_before_wakeups_at_equal_time_and_seq() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_wakeup(d, 100, 5);
        t.push_completion(d, 100, 5);
        let due = drain(&mut t, d, 100);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].kind, EventKind::Completion);
        assert_eq!(due[1].kind, EventKind::Wakeup);
    }

    #[test]
    fn due_wakeups_feed_a_seq_sorted_ready_list() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_wakeup(d, 100, 9);
        t.push_wakeup(d, 300, 2);
        t.push_wakeup(d, 200, 5);
        assert!(drain(&mut t, d, 50).is_empty());
        let mut woken: Vec<SeqNum> = drain(&mut t, d, 250).iter().map(|e| e.seq).collect();
        t.extend_ready(d, &mut woken);
        // 9 woke before 5 in time, but the list is seq-sorted.
        assert_eq!(t.ready(d), &[5, 9]);
        let mut woken: Vec<SeqNum> = drain(&mut t, d, 300).iter().map(|e| e.seq).collect();
        t.extend_ready(d, &mut woken);
        assert_eq!(t.ready(d), &[2, 5, 9]);
        // Issue removes; losing arbitration (no call) keeps the entry.
        t.remove_ready(d, 5);
        assert_eq!(t.ready(d), &[2, 9]);
        t.remove_ready(d, 5); // idempotent on absent seqs
        assert_eq!(t.ready(d), &[2, 9]);
    }

    #[test]
    fn ready_merge_deduplicates_within_batch_and_against_the_list() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.extend_ready(d, &mut vec![7, 7, 3]);
        assert_eq!(t.ready(d), &[3, 7]);
        // A later duplicate of an existing entry must not re-insert it.
        t.extend_ready(d, &mut vec![7, 5]);
        assert_eq!(t.ready(d), &[3, 5, 7]);
    }

    #[test]
    fn reverse_seq_arrival_merges_in_one_pass() {
        // The historical worst case: a batch of wakeups arriving in
        // descending sequence order, each landing in front of the previous
        // one.  The batched merge must produce the sorted list (and do so
        // with one merge pass rather than k front-inserts — the behaviour
        // this test locks in is correctness; the cost shape is documented
        // in the module docs).
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        let mut batch: Vec<SeqNum> = (0..100).rev().collect();
        t.extend_ready(d, &mut batch);
        let expected: Vec<SeqNum> = (0..100).collect();
        assert_eq!(t.ready(d), &expected[..]);
        // Interleaving a second descending batch exercises the merge path
        // (not the append fast path) end to end.
        let mut batch: Vec<SeqNum> = (100..200).rev().step_by(2).collect();
        t.extend_ready(d, &mut batch);
        let tail: Vec<SeqNum> = (100..200).step_by(2).map(|s| s + 1).collect();
        assert_eq!(t.ready(d)[100..], tail[..]);
        assert_eq!(t.ready(d)[..100], expected[..]);
    }

    #[test]
    fn far_future_out_of_order_events_drain_in_order() {
        let mut t = DomainTimeline::new();
        let d = DomainId::LoadStore;
        let far = 1_000_000_000;
        t.push_completion(d, far + 5_000, 1); // first push: monotone lane
        t.push_completion(d, far + 2_000, 2); // out of order, far future: heap
        t.push_completion(d, 500, 3); // out of order, near: heap
        assert_eq!(t.stats().lane_pushes, 1);
        assert_eq!(completions(&drain(&mut t, d, 600)), vec![(500, 3)]);
        // Far-future events surface in (time, seq) order once due.
        assert_eq!(
            completions(&drain(&mut t, d, far + 10_000)),
            vec![(far + 2_000, 2), (far + 5_000, 1)]
        );
        assert_eq!(t.stats().pops, 3);
        assert_eq!(t.stats().pushes, 3);
    }

    #[test]
    fn same_time_pushes_during_processing_surface_on_the_next_collect() {
        // A same-domain completion at `now` pushes a consumer wakeup at
        // exactly `now`; the kernel's drain loop picks it up by calling
        // collect_due again with the same `now`.
        let mut t = DomainTimeline::new();
        let d = DomainId::FloatingPoint;
        t.push_completion(d, 2_000, 4);
        let due = drain(&mut t, d, 2_000);
        assert_eq!(completions(&due), vec![(2_000, 4)]);
        t.push_wakeup(d, 2_000, 6); // pushed "while processing seq 4"
        let due = drain(&mut t, d, 2_000);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].seq, due[0].kind), (6, EventKind::Wakeup));
        assert!(drain(&mut t, d, 2_000).is_empty());
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_completion(d, 1_000, 1);
        t.push_wakeup(d, 1_500, 2);
        let _ = drain(&mut t, d, 2_000);
        let s = t.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 2);
        assert_eq!(s.drains, 1);
        // Both pushes arrived in order, so the lane absorbed them.  The
        // retired calendar counters stay at zero.
        assert_eq!(s.lane_pushes, 2);
        assert_eq!(s.bucket_scans, 0);
        assert_eq!(s.overflow_spills, 0);
    }

    #[test]
    fn out_of_order_pushes_fall_back_to_the_heap_and_merge_with_the_lane() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        // Ascending run lands in the lane; an earlier event then takes the
        // heap, and a later one re-enters the lane.
        t.push_completion(d, 2_000, 1);
        t.push_completion(d, 2_500, 2);
        t.push_completion(d, 1_000, 3); // out of order: heap
        t.push_wakeup(d, 3_000, 4); // monotone again: lane
        assert_eq!(t.stats().lane_pushes, 3);
        // A drain merges lane and heap batches into one ordered sequence.
        let due = drain(&mut t, d, 2_200);
        assert_eq!(
            due.iter().map(|e| (e.time, e.seq)).collect::<Vec<_>>(),
            vec![(1_000, 3), (2_000, 1)]
        );
        // The next-due bound sees the remaining lane events.
        assert!(drain(&mut t, d, 2_400).is_empty());
        assert_eq!(completions(&drain(&mut t, d, 2_500)), vec![(2_500, 2)]);
        let due = drain(&mut t, d, 3_000);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].seq, due[0].kind), (4, EventKind::Wakeup));
    }
}
