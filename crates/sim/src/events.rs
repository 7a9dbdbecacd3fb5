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
//! [`DomainTimeline`] replaces both with a single per-domain
//! **calendar/bucket queue** carrying tagged [`TimelineEvent`]s.  The MCD
//! regime makes the calendar layout a natural fit: every domain advances in
//! its own near-periodic cycles, and event latencies are small multiples of
//! the domain period (ALU/FP latencies of 1–20 cycles, memory misses of
//! ~100), so almost every event lands a bounded number of cycles in the
//! future.
//!
//! # Bucket layout
//!
//! Each domain owns a ring of `BUCKETS` buckets over absolute simulated
//! time quantized by a per-domain *granule*: bucket `(t / granule) %
//! BUCKETS` holds the events due in that granule-wide time slice.  The
//! granule is the domain's **settled clock period**
//! ([`mcd_clock::DomainClock::target_period_ps`]), so in steady state one
//! domain cycle advances the drain cursor by exactly one bucket, pushes are
//! `O(1)` (one division, one `Vec::push`), and the ring horizon of
//! `BUCKETS` cycles comfortably covers the deepest scheduling latency (an
//! L2 miss to main memory, on the order of 100 max-frequency cycles).
//!
//! Events beyond the ring horizon — e.g. scheduled across a frequency ramp
//! while the granule still reflects a much shorter period — spill to a
//! per-domain **overflow list** kept sorted (descending, so the earliest
//! event pops from the back in `O(1)`).  Spills are rare and counted
//! ([`EventTrafficStats::overflow_spills`]), so an overflow pathology on a
//! new workload is visible in the bench artefacts rather than silent.
//!
//! When the controller retargets a domain's frequency the granule changes
//! and the domain's pending events are re-indexed under the new mapping
//! ([`DomainTimeline::set_granule`]) — an `O(live events)` operation paid
//! once per control-interval command, which keeps the time-to-bucket
//! conversion consistent between push and drain across every ramp.
//!
//! # Monotone lane
//!
//! Event-traffic profiling (`EventTrafficStats`, surfaced per run as
//! `events_per_commit`) showed most pushes arrive in *non-decreasing*
//! `(time, seq, kind)` order: a domain schedules completions as it issues,
//! and issue times advance with domain time.  Each timeline therefore
//! carries a **monotone lane** — a sorted `VecDeque` that accepts a pushed
//! event with a single tail comparison whenever the event is not earlier
//! than the lane's tail, bypassing the bucket ring (no division, no bucket
//! push, no occupancy-bitmap update) and every granule re-file (the lane
//! holds absolute times and needs no bucket math, so
//! [`DomainTimeline::set_granule`] skips it entirely).  Out-of-order
//! pushes fall through to the ring/overflow calendar as before.  The drain
//! pops the lane's due prefix and merges it with the calendar batch in the
//! single existing sort, so the drain-order invariant below is untouched.
//! Lane absorption is counted ([`EventTrafficStats::lane_pushes`]).
//!
//! # Drain-order invariant
//!
//! One [`DomainTimeline::collect_due`] call per domain cycle drains *both*
//! event streams in a single pass, returning every due event in
//! `(time, seq, kind)` order with [`EventKind::Completion`] ordered before
//! [`EventKind::Wakeup`].  Completions thereby retire in exactly the
//! deterministic `(time, seq)` order the historical completion heap popped,
//! which the writeback side effects (predictor updates, ROB completion
//! marks, energy accounting) require for bit-identical results; wakeup
//! events commute with completions (promotion only inserts into a
//! seq-sorted ready list behind a pure filter), so tagging them after
//! completions at equal `(time, seq)` preserves behaviour exactly.
//!
//! In debug builds every timeline also maintains a **shadow reference
//! heap** — a plain `BinaryHeap` over the same tagged events — and
//! `collect_due` asserts that the calendar drain reproduces the heap's pop
//! sequence event for event.  Every debug-build test run (including the
//! golden-dump matrix and the slice proptests) therefore cross-checks the
//! calendar implementation against the reference ordering; release builds
//! compile the shadow out entirely.
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
//!
//! # Pause/resume
//!
//! The timeline is plain owned state inside `McdProcessor`, so `run_for`
//! slice boundaries are invisible to it: cursor positions, ring contents,
//! overflow lists and ready lists all survive a pause untouched (re-verified
//! by the slice proptest and the `MCD_GOLDEN_SLICE` golden diffs).

use mcd_clock::{DomainId, TimePs};
use mcd_isa::SeqNum;

use crate::telemetry::EventTrafficStats;

/// Number of ring buckets per domain.  The horizon must cover the deepest
/// in-ring scheduling latency in domain cycles: the longest functional-unit
/// latency is 20 cycles (integer divide) and an L2 miss to main memory
/// completes on the order of 100 max-frequency cycles, so 128 buckets keep
/// even memory-bound workloads out of the overflow list at every operating
/// point.  The occupancy bitmap packs one bit per bucket into `[u64; 2]`
/// and locates buckets with a 128-bit rotate, so this constant must equal
/// exactly 128 (asserted below); widening the ring means widening the
/// bitmap machinery with it.
const BUCKETS: usize = 128;
const _: () = assert!(BUCKETS == 2 * u64::BITS as usize, "bitmap is [u64; 2]");

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

/// The calendar queue of one domain.
#[derive(Debug)]
struct Timeline {
    /// Time quantum of one bucket (the domain's settled clock period).
    granule_ps: TimePs,
    /// Granule index of the ring window's base: every live ring event has
    /// a granule index in `[cursor, cursor + BUCKETS)` and no occupied
    /// bucket lies behind the cursor.  The cursor lags `now` while nothing
    /// is due (the fast path never touches it) and catches up in one jump
    /// on the next real drain.
    cursor: u64,
    /// The `now` of the most recent slow drain (anchors re-indexing).
    last_drained_ps: TimePs,
    /// Occupancy bitmap of the ring, one bit per bucket position
    /// (`BUCKETS` = 128 = two words): lets the drain jump straight to the
    /// first occupied bucket at or after the cursor instead of walking
    /// empty granules.
    occupied: [u64; 2],
    /// The bucket ring, indexed by `(t / granule) % BUCKETS`.
    buckets: Vec<Vec<TimelineEvent>>,
    /// Events beyond the ring horizon, sorted descending so the earliest
    /// pops from the back.
    overflow: Vec<TimelineEvent>,
    /// The monotone lane: events that arrived in non-decreasing
    /// `(time, seq, kind)` order, kept sorted by construction (an event
    /// only enters when it is `>=` the current tail).  The due prefix pops
    /// from the front at drain time.
    lane: std::collections::VecDeque<TimelineEvent>,
    /// Issueable instructions, seq-sorted.
    ready: ReadyList,
    /// Reference implementation: a plain min-heap over the same events.
    /// The drain asserts the calendar reproduces its pop order exactly.
    #[cfg(debug_assertions)]
    shadow: std::collections::BinaryHeap<std::cmp::Reverse<TimelineEvent>>,
}

impl Timeline {
    fn new(granule_ps: TimePs) -> Self {
        assert!(granule_ps > 0, "timeline granule must be positive");
        Timeline {
            granule_ps,
            cursor: 0,
            last_drained_ps: 0,
            occupied: [0; 2],
            buckets: vec![Vec::new(); BUCKETS],
            overflow: Vec::new(),
            lane: std::collections::VecDeque::new(),
            ready: ReadyList::default(),
            #[cfg(debug_assertions)]
            shadow: std::collections::BinaryHeap::new(),
        }
    }

    /// Ring offset (in buckets, from the cursor) of the first occupied
    /// bucket, or `None` when the ring is empty.
    #[inline]
    fn first_occupied_offset(&self) -> Option<u32> {
        let bits = (self.occupied[0] as u128) | ((self.occupied[1] as u128) << 64);
        if bits == 0 {
            return None;
        }
        Some(
            bits.rotate_right((self.cursor % BUCKETS as u64) as u32)
                .trailing_zeros(),
        )
    }

    /// Files an event into its ring bucket or the overflow list.  Returns
    /// `true` when the event spilled to overflow.
    fn place(&mut self, ev: TimelineEvent) -> bool {
        let idx = ev.time / self.granule_ps;
        // Kernel pushes always target the present or future of the domain
        // (see the module docs); re-indexing preserves this because only
        // undrained events are re-filed.  Clamp anyway so a violation would
        // at worst deliver late in release builds instead of never.
        debug_assert!(
            idx >= self.cursor,
            "event at {} ps scheduled before the drain cursor",
            ev.time
        );
        let idx = idx.max(self.cursor);
        if idx >= self.cursor + BUCKETS as u64 {
            let pos = self.overflow.partition_point(|e| *e > ev);
            self.overflow.insert(pos, ev);
            true
        } else {
            let pos = (idx % BUCKETS as u64) as usize;
            self.buckets[pos].push(ev);
            self.occupied[pos / 64] |= 1 << (pos % 64);
            false
        }
    }
}

/// The unified per-domain event machinery of the kernel: one calendar
/// queue (plus ready list) per domain, carrying tagged completion and
/// wakeup events, drained in a single deterministic pass per domain cycle.
///
/// See the [module documentation](self) for the bucket layout, the
/// overflow rules and the drain-order invariant.
#[derive(Debug)]
pub struct DomainTimeline {
    /// Per-domain lower bound on the earliest pending event time
    /// (`TimePs::MAX` when none): pushes lower it, slow drains recompute
    /// it from the occupancy bitmap and the retained scan minimum.  Most
    /// domain cycles have nothing due, and this bound settles them with a
    /// single comparison against one shared cache line — the calendar
    /// equivalent of a heap peek.
    next_due_ps: [TimePs; 5],
    domains: Vec<Timeline>,
    stats: EventTrafficStats,
}

impl DomainTimeline {
    /// Creates empty timelines with the given per-domain bucket granules
    /// (index = [`DomainId::index`]; use each domain clock's
    /// [`mcd_clock::DomainClock::target_period_ps`]).
    pub fn new(granules_ps: [TimePs; 5]) -> Self {
        DomainTimeline {
            next_due_ps: [TimePs::MAX; 5],
            domains: granules_ps.iter().map(|&g| Timeline::new(g)).collect(),
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
        #[cfg(debug_assertions)]
        tl.shadow.push(std::cmp::Reverse(ev));
        // Monotone fast path: an event not earlier than the lane's tail
        // appends in O(1) with one comparison — no bucket math, and no
        // re-file cost at granule changes.  Out-of-order events take the
        // calendar as before.
        if tl.lane.back().is_none_or(|&back| ev >= back) {
            tl.lane.push_back(ev);
            self.stats.lane_pushes += 1;
        } else if tl.place(ev) {
            self.stats.overflow_spills += 1;
        }
    }

    /// Re-quantizes `domain`'s calendar under a new bucket granule (the
    /// domain's new settled period after a controller command), re-indexing
    /// every pending event so the time-to-bucket mapping stays consistent
    /// between push and drain across the frequency change.  `O(live
    /// events)`, paid once per retarget.
    pub fn set_granule(&mut self, domain: DomainId, granule_ps: TimePs) {
        assert!(granule_ps > 0, "timeline granule must be positive");
        let tl = &mut self.domains[domain.index()];
        if granule_ps == tl.granule_ps {
            return;
        }
        let mut pending = std::mem::take(&mut tl.overflow);
        for bucket in &mut tl.buckets {
            pending.append(bucket);
        }
        tl.occupied = [0; 2];
        tl.granule_ps = granule_ps;
        tl.cursor = tl.last_drained_ps / granule_ps;
        for ev in pending {
            if tl.place(ev) {
                self.stats.overflow_spills += 1;
            }
        }
    }

    /// The fast-path check opening one domain cycle's drain: returns
    /// `false` — with no work beyond one comparison against the next-due
    /// bound — when nothing can be due at `now`.  Callers skip their
    /// drain-loop setup entirely in that case; `true` means due events may
    /// exist and [`DomainTimeline::collect_due`] must run.
    #[inline]
    pub fn has_due(&self, domain: DomainId, now: TimePs) -> bool {
        if now < self.next_due_ps[domain.index()] {
            #[cfg(debug_assertions)]
            if let Some(std::cmp::Reverse(head)) = self.domains[domain.index()].shadow.peek() {
                debug_assert!(
                    head.time > now,
                    "next-due bound skipped a due event (due {} <= now {})",
                    head.time,
                    now
                );
            }
            return false;
        }
        true
    }

    /// Collects every event of `domain` due at `now` into `out` (cleared
    /// first), in `(time, seq, kind)` order, and advances the drain cursor.
    ///
    /// Events pushed *while the caller processes the batch* at exactly
    /// `now` (same-domain completions wake consumers in the same cycle) are
    /// picked up by the next call with the same `now` — callers loop until
    /// the batch comes back empty.  `now` must be non-decreasing per domain
    /// (domain time is monotone).
    #[inline]
    pub fn collect_due(&mut self, domain: DomainId, now: TimePs, out: &mut Vec<TimelineEvent>) {
        out.clear();
        // Fast path — the common case by far: nothing due.  The next-due
        // bound is sound (pushes lower it, the slow path recomputes it),
        // so one comparison settles the cycle, like the peek of the heaps
        // this structure replaced.  The cursor is left alone; the next
        // slow drain catches it up.
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
        // Overflow: sorted descending, so due events pop from the back.
        while tl.overflow.last().is_some_and(|ev| ev.time <= now) {
            out.push(tl.overflow.pop().expect("checked non-empty"));
        }
        // Scan the occupied buckets up to `now`'s granule, steered by the
        // occupancy bitmap: the cursor jumps from one occupied bucket to
        // the next, skipping empty granules entirely.  The bucket
        // containing `now` may retain events later in the same granule, so
        // the cursor stays on it and it is re-scanned next drain.  A
        // re-drain within the same cycle (the caller's drain loop) reuses
        // the cursor as the target, skipping the division.
        let target = if now == tl.last_drained_ps {
            tl.cursor
        } else {
            now / tl.granule_ps
        };
        let mut kept_min = TimePs::MAX; // min retained in the target bucket
        let mut scanned = 0u64;
        // The loop value is the ring's contribution to the next-due bound.
        let ring_bound: TimePs = loop {
            let Some(off) = tl.first_occupied_offset() else {
                break TimePs::MAX; // ring empty
            };
            let idx = tl.cursor + u64::from(off);
            if idx > target {
                // Earliest occupied bucket lies beyond `now`'s granule;
                // its granule start bounds every ring event from below.
                debug_assert_eq!(kept_min, TimePs::MAX, "past bucket retained an event");
                break idx * tl.granule_ps;
            }
            tl.cursor = idx; // no occupied bucket behind: window may advance
            scanned += 1;
            let pos = (idx % BUCKETS as u64) as usize;
            let bucket = &mut tl.buckets[pos];
            let mut j = 0;
            while j < bucket.len() {
                if bucket[j].time <= now {
                    out.push(bucket.swap_remove(j));
                } else {
                    kept_min = kept_min.min(bucket[j].time);
                    j += 1;
                }
            }
            let emptied = bucket.is_empty();
            if emptied {
                tl.occupied[pos / 64] &= !(1 << (pos % 64));
            }
            if idx == target {
                break if !emptied {
                    // Retained events in the target bucket are the ring's
                    // earliest (every other occupied bucket is strictly
                    // later in time).
                    kept_min
                } else {
                    match tl.first_occupied_offset() {
                        None => TimePs::MAX,
                        Some(off) => (tl.cursor + u64::from(off)) * tl.granule_ps,
                    }
                };
            }
            // A bucket strictly before `now`'s granule drains completely
            // (all its times are below the granule end, hence <= now).
            debug_assert!(emptied, "past bucket retained an event");
            tl.cursor = idx + 1;
        };
        if tl.cursor < target {
            // Nothing occupied between the cursor and `now`'s granule:
            // bring the window base current so pushes see a fresh horizon.
            tl.cursor = target;
        }
        self.stats.bucket_scans += scanned;
        let overflow_bound = tl.overflow.last().map_or(TimePs::MAX, |ev| ev.time);
        let lane_bound = tl.lane.front().map_or(TimePs::MAX, |ev| ev.time);
        self.next_due_ps[domain.index()] = ring_bound.min(overflow_bound).min(lane_bound);
        tl.last_drained_ps = now;
        if out.len() > 1 {
            out.sort_unstable();
        }
        self.stats.pops += out.len() as u64;
        // Cross-check the calendar drain against the reference heap: same
        // events, same order, nothing due left behind.
        #[cfg(debug_assertions)]
        {
            for ev in out.iter() {
                let std::cmp::Reverse(head) = tl
                    .shadow
                    .pop()
                    .expect("calendar drained an event the reference heap does not hold");
                debug_assert_eq!(
                    head, *ev,
                    "calendar drain order diverged from the reference heap"
                );
            }
            if let Some(std::cmp::Reverse(head)) = tl.shadow.peek() {
                debug_assert!(
                    head.time > now,
                    "calendar left a due event undrained (due {} <= now {})",
                    head.time,
                    now
                );
            }
        }
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

    const G: [TimePs; 5] = [1_000; 5];

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
        let mut t = DomainTimeline::new(G);
        let d = DomainId::Integer;
        t.push_completion(d, 300, 7);
        t.push_completion(d, 100, 9);
        t.push_completion(d, 100, 2);
        t.push_completion(d, 500, 1);
        assert!(drain(&mut t, d, 50).is_empty());
        assert_eq!(
            completions(&drain(&mut t, d, 300)),
            vec![(100, 2), (100, 9), (300, 7)]
        );
        assert!(drain(&mut t, d, 300).is_empty());
        assert_eq!(completions(&drain(&mut t, d, 1_000)), vec![(500, 1)]);
    }

    #[test]
    fn domains_are_independent() {
        let mut t = DomainTimeline::new(G);
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
        let mut t = DomainTimeline::new(G);
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
        let mut t = DomainTimeline::new(G);
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
        let mut t = DomainTimeline::new(G);
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
        let mut t = DomainTimeline::new(G);
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
    fn far_future_events_spill_to_overflow_and_still_drain_in_order() {
        let mut t = DomainTimeline::new(G);
        let d = DomainId::LoadStore;
        let horizon = 1_000 * BUCKETS as u64;
        t.push_completion(d, horizon + 5_000, 1); // first push: monotone lane
        t.push_completion(d, horizon + 2_000, 2); // out of order, beyond ring: spills
        t.push_completion(d, 500, 3); // out of order, in ring
        assert_eq!(t.stats().overflow_spills, 1);
        assert_eq!(t.stats().lane_pushes, 1);
        assert_eq!(completions(&drain(&mut t, d, 600)), vec![(500, 3)]);
        // Overflow events surface in (time, seq) order once due.
        assert_eq!(
            completions(&drain(&mut t, d, horizon + 10_000)),
            vec![(horizon + 2_000, 2), (horizon + 5_000, 1)]
        );
        assert_eq!(t.stats().pops, 3);
        assert_eq!(t.stats().pushes, 3);
    }

    #[test]
    fn granule_change_reindexes_pending_events() {
        let mut t = DomainTimeline::new(G);
        let d = DomainId::Integer;
        // Drain once so the re-index anchor is a real drain time.
        assert!(drain(&mut t, d, 1_500).is_empty());
        t.push_completion(d, 4_000, 1); // monotone lane
        t.push_completion(d, 2_000, 2); // out of order: ring
        t.push_wakeup(d, 700_000, 3); // monotone again: lane (no spill)
        assert_eq!(t.stats().overflow_spills, 0);
        assert_eq!(t.stats().lane_pushes, 2);
        // The controller slows the domain to a 4x period: all pending
        // events re-file under the new mapping (the far-future wakeup now
        // fits the wider ring).
        t.set_granule(d, 4_000);
        assert_eq!(
            completions(&drain(&mut t, d, 5_000)),
            vec![(2_000, 2), (4_000, 1)]
        );
        let due = drain(&mut t, d, 800_000);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].seq, due[0].kind), (3, EventKind::Wakeup));
    }

    #[test]
    fn same_time_pushes_during_processing_surface_on_the_next_collect() {
        // A same-domain completion at `now` pushes a consumer wakeup at
        // exactly `now`; the kernel's drain loop picks it up by calling
        // collect_due again with the same `now`.
        let mut t = DomainTimeline::new(G);
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
        let mut t = DomainTimeline::new(G);
        let d = DomainId::Integer;
        t.push_completion(d, 1_000, 1);
        t.push_wakeup(d, 1_500, 2);
        let _ = drain(&mut t, d, 2_000);
        let s = t.stats();
        assert_eq!(s.pushes, 2);
        assert_eq!(s.pops, 2);
        assert_eq!(s.drains, 1);
        // Both pushes arrived in order, so the lane absorbed them and the
        // ring was never scanned.
        assert_eq!(s.lane_pushes, 2);
        assert_eq!(s.bucket_scans, 0);
        assert_eq!(s.overflow_spills, 0);
    }

    #[test]
    fn out_of_order_pushes_fall_back_to_the_calendar_and_merge_with_the_lane() {
        let mut t = DomainTimeline::new(G);
        let d = DomainId::Integer;
        // Ascending run lands in the lane; an earlier event then takes the
        // ring, and a later one re-enters the lane.
        t.push_completion(d, 2_000, 1);
        t.push_completion(d, 2_500, 2);
        t.push_completion(d, 1_000, 3); // out of order: ring
        t.push_wakeup(d, 3_000, 4); // monotone again: lane
        assert_eq!(t.stats().lane_pushes, 3);
        // A drain merges lane and ring batches into one ordered sequence.
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
