//! Load/store queue (LSQ).
//!
//! The load/store domain's input queue: 64 entries in the paper's
//! configuration (Table 4).  Memory operations enter in program order at
//! dispatch; loads may issue out of order with respect to stores only when
//! all older stores have known, non-conflicting addresses, and a load whose
//! address matches an older store's receives its data by store-to-load
//! forwarding.  The LSQ's occupancy drives the Attack/Decay controller for
//! the load/store domain.
//!
//! # Per-load older-store summary
//!
//! The memory-disambiguation question a load asks — *is there an older
//! store with an unknown address, and if not, does any older store's
//! address overlap mine?* — was historically answered by scanning every
//! older entry, per load, per cycle.  The queue now maintains two summary
//! structures that answer it in O(1):
//!
//! * [`min_unready_store_seq`](LoadStoreQueue::min_unready_store_seq) —
//!   the sequence
//!   number of the oldest store whose operands (address/data) are still
//!   unknown.  A load is blocked by an unknown store address exactly when
//!   this is smaller than the load's own sequence number.  The minimum
//!   only falls at insert (program order: a newly inserted store is the
//!   youngest) and only rises when a store's operands become known, so it
//!   advances with a forward scan amortized O(1) per store lifetime.
//! * a **conservative address-match filter** — a 64-bucket counting
//!   Bloom-style filter over the byte ranges of all stores in the queue,
//!   at 8-byte granule granularity.  If none of a load's granule buckets
//!   is occupied, no store in the queue can overlap the load (granule
//!   sharing is implied by byte overlap), and the load may access the
//!   cache without any scan.  A hit is only a *maybe* — collisions and
//!   younger stores also populate buckets — and falls back to the
//!   historical scan over older stores to pick forwarding or a partial
//!   overlap block, so decisions are bit-identical to the full scan.
//!
//! Operand readiness itself is event driven: the simulator pushes the
//! exact time an entry's operands become visible to the load/store domain
//! ([`LoadStoreQueue::set_ready_at`]) when its last producer completes,
//! and [`LoadStoreQueue::promote_operand_readiness`] latches the ready
//! flags by comparing those times against the clock — no per-entry
//! producer probing remains on the per-cycle path.

use mcd_isa::{MemInfo, SeqNum};
use serde::{Deserialize, Serialize};

/// Number of buckets in the store address-match filter.  Must equal the
/// width of the canonical bucket mask ([`MemInfo::filter_mask64`]) — one
/// `u64` bit per bucket — which also fixes the granule geometry.
const FILTER_BUCKETS: usize = 64;
const _: () = assert!(FILTER_BUCKETS == u64::BITS as usize, "mask is one u64");
// The granule geometry (8-byte granules: the widest access size, so any
// byte overlap implies a shared granule) is canonical in `mcd_isa`
// (`MemInfo::FILTER_GRANULE_SHIFT`) so trace annotations precompute masks
// identical to the ones the queue derives itself.
const _: () = assert!(MemInfo::FILTER_GRANULE_SHIFT == 3, "8-byte granules");

/// State of one memory operation in the LSQ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LsqEntry {
    /// Program-order sequence number.
    pub seq: SeqNum,
    /// Whether this is a store (else a load).
    pub is_store: bool,
    /// The access (address and size).
    pub mem: MemInfo,
    /// Time at which the entry becomes visible to the load/store domain's
    /// issue logic (after the dispatch synchronization crossing).
    pub visible_at_ps: u64,
    /// Time at which the address (and, for stores, the data) operands are
    /// visible to the load/store domain — pushed by the simulator when the
    /// entry's last producer completes (`u64::MAX` while producers are
    /// outstanding).
    pub ready_at_ps: u64,
    /// Whether the address (and, for stores, the data) operands are ready.
    pub operands_ready: bool,
    /// Whether the operation has been issued to the cache (loads) or has
    /// computed its address (stores).
    pub issued: bool,
    /// Whether the operation has completed execution.
    pub completed: bool,
    /// The access's address-filter bucket mask
    /// ([`MemInfo::filter_mask64`]), derived from `mem`.
    pub mask: u64,
}

/// The issue decision for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LsqIssue {
    /// The load may access the data cache.
    AccessCache,
    /// The load receives its data from the identified older store
    /// (store-to-load forwarding, 1-cycle latency).
    Forward(SeqNum),
    /// The load must wait: some older store has an unknown address or an
    /// overlapping address whose data is not yet available.
    Blocked,
}

/// A bounded, program-ordered load/store queue.
///
/// Entries are kept in program order (ascending sequence number), which the
/// memory-disambiguation fallback scan relies on.  On top of that order the
/// queue maintains a *visible prefix*: the first [`visible_len`](Self) entries
/// are known visible at the watermark (the largest time passed to
/// [`LoadStoreQueue::refresh_visible`]), and `earliest_pending_ps` caches
/// the minimum visibility time of the remaining suffix.  Dispatch times are
/// monotone in program order, so visibility times almost always are too and
/// the visible set *is* a prefix; the per-cycle scans then walk only that
/// prefix and skip the suffix with a single comparison.  In the rare
/// non-monotone case (a frequency ramp shortening destination periods can
/// make a younger entry visible before an older one) the suffix comparison
/// fails and the affected operations fall back to the historical full scan,
/// preserving exact simulation behaviour.
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    capacity: usize,
    entries: Vec<LsqEntry>,
    /// Number of leading entries known visible at the watermark.
    visible_len: usize,
    /// Conservative lower bound on the minimum `visible_at_ps` over
    /// `entries[visible_len..]` (`u64::MAX` when known-empty): the earliest
    /// time at which the visible prefix can grow.  Maintained lazily —
    /// removal may leave it stale-low, which only costs one no-op refresh
    /// pass (which re-derives it exactly), never a missed promotion.
    earliest_pending_ps: u64,
    /// Conservative lower bound on the minimum `ready_at_ps` over
    /// *visible-prefix* entries whose `operands_ready` flag is not yet
    /// set: the earliest time at which
    /// [`LoadStoreQueue::promote_operand_readiness`] can latch anything
    /// without the prefix growing (suffix entries cannot latch before they
    /// are promoted into the prefix, and promotion forces a pass).
    /// Stale-low after flag promotions and removals (each executed pass
    /// re-derives it exactly), never stale-high.
    min_unflagged_ready_ps: u64,
    /// Number of stores in the queue whose operands are not yet ready.
    unready_stores: usize,
    /// Sequence number of the oldest store with unready operands
    /// (`u64::MAX` when every store's address is known).  Exact, not a
    /// bound: a load `l` is blocked by an unknown store address iff
    /// `min_unready_store_seq < l.seq`.
    min_unready_store_seq: SeqNum,
    /// Counting address-match filter over the stores in the queue: bucket
    /// `(addr >> 3) & 63` counts the stores whose byte range covers that
    /// 8-byte granule.  `u16` cannot overflow: a store's range (at most
    /// 255 bytes, far below the filter's 512-byte period) covers each
    /// bucket at most once, so a bucket's count is bounded by the number
    /// of stores in the queue, i.e. by `capacity` — which the constructor
    /// caps at `u16::MAX`.
    store_filter: [u16; FILTER_BUCKETS],
    /// Bit `b` set iff `store_filter[b] > 0`.  Lets the filter answer
    /// *may some store overlap this mask?* with a single AND against a
    /// precomputed access mask ([`MemInfo::filter_mask64`]) instead of a
    /// bucket-range walk.  Derived from `store_filter`.
    occupied_bits: u64,
    /// Set when the last [`LoadStoreQueue::issue_candidates_into`] scan,
    /// with monotone visibility, found no candidate, or found only loads
    /// that memory disambiguation blocks
    /// ([`LoadStoreQueue::memoize_blocked_scan`]); cleared by the only
    /// events that can create an issuable candidate — the visible prefix
    /// growing, an operand-ready flag latching (which may also unblock a
    /// load waiting on an unknown store address) and an entry leaving the
    /// queue (which may unblock a load behind a partially overlapping
    /// store).  While set (and visibility stays monotone) the next scan is
    /// skipped: every prefix entry is still unready, already issued or a
    /// blocked load.
    no_candidates: bool,
    /// Largest `now_ps` ever passed to a visibility query (debug-only
    /// monotonicity guard).
    #[cfg(debug_assertions)]
    watermark_ps: u64,
    occupancy_accumulator: u64,
    accumulated_cycles: u64,
}

impl LoadStoreQueue {
    /// Creates an empty LSQ with the given capacity (64 in Table 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u16::MAX` (the address
    /// filter's per-bucket counters are bounded by the store count).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be positive");
        assert!(
            capacity <= u16::MAX as usize,
            "LSQ capacity must fit the address filter's counters"
        );
        LoadStoreQueue {
            capacity,
            entries: Vec::with_capacity(capacity),
            visible_len: 0,
            earliest_pending_ps: u64::MAX,
            min_unflagged_ready_ps: u64::MAX,
            unready_stores: 0,
            min_unready_store_seq: u64::MAX,
            store_filter: [0; FILTER_BUCKETS],
            occupied_bits: 0,
            no_candidates: false,
            #[cfg(debug_assertions)]
            watermark_ps: 0,
            occupancy_accumulator: 0,
            accumulated_cycles: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the LSQ is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the LSQ is full (dispatch of memory operations must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Adds an access's bucket mask to the counting filter.
    fn filter_add(&mut self, mask: u64) {
        let mut m = mask;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            self.store_filter[b] += 1;
            m &= m - 1;
        }
        self.occupied_bits |= mask;
    }

    /// Removes an access's bucket mask from the counting filter.
    fn filter_remove(&mut self, mask: u64) {
        let mut m = mask;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            debug_assert!(self.store_filter[b] > 0, "filter underflow");
            self.store_filter[b] -= 1;
            if self.store_filter[b] == 0 {
                self.occupied_bits &= !(1u64 << b);
            }
            m &= m - 1;
        }
    }

    /// Whether some store in the queue *may* overlap `mem` (conservative:
    /// false positives possible, false negatives not).  One AND against
    /// the occupancy bitmap.  The issue path inlines this against each
    /// entry's precomputed mask; kept for the filter unit tests.
    #[cfg(test)]
    fn filter_may_match(&self, mem: &MemInfo) -> bool {
        self.occupied_bits & mem.filter_mask64() != 0
    }

    /// Inserts a memory operation at dispatch time (program order).
    ///
    /// # Errors
    ///
    /// Returns `Err(seq)` if the queue is full or program order would be
    /// violated.
    pub fn insert(
        &mut self,
        seq: SeqNum,
        is_store: bool,
        mem: MemInfo,
        visible_at_ps: u64,
    ) -> Result<(), SeqNum> {
        self.insert_masked(seq, is_store, mem, visible_at_ps, mem.filter_mask64())
    }

    /// Inserts a memory operation whose address-filter bucket mask has
    /// already been computed (trace annotations precompute it once per
    /// trace; [`LoadStoreQueue::insert`] derives it on the spot).
    ///
    /// # Errors
    ///
    /// Returns `Err(seq)` if the queue is full or program order would be
    /// violated.
    pub fn insert_masked(
        &mut self,
        seq: SeqNum,
        is_store: bool,
        mem: MemInfo,
        visible_at_ps: u64,
        mask: u64,
    ) -> Result<(), SeqNum> {
        debug_assert_eq!(
            mask,
            mem.filter_mask64(),
            "precomputed filter mask must match the access"
        );
        if self.is_full() {
            return Err(seq);
        }
        if let Some(last) = self.entries.last() {
            if seq <= last.seq {
                return Err(seq);
            }
        }
        self.entries.push(LsqEntry {
            seq,
            is_store,
            mem,
            visible_at_ps,
            ready_at_ps: u64::MAX,
            operands_ready: false,
            issued: false,
            completed: false,
            mask,
        });
        self.earliest_pending_ps = self.earliest_pending_ps.min(visible_at_ps);
        if is_store {
            self.unready_stores += 1;
            // Program order: the new store is the youngest, so the minimum
            // only changes when no unready store existed.
            self.min_unready_store_seq = self.min_unready_store_seq.min(seq);
            self.filter_add(mask);
        }
        Ok(())
    }

    /// Index of `seq` (entries are program-ordered, so a binary search
    /// suffices).
    fn position(&self, seq: SeqNum) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Looks up an entry.
    pub fn get(&self, seq: SeqNum) -> Option<&LsqEntry> {
        let pos = self.position(seq)?;
        Some(&self.entries[pos])
    }

    /// Records the time at which the operands of `seq` become visible to
    /// the load/store domain (pushed by the simulator when the entry's
    /// last outstanding producer completes, or at dispatch when none is).
    pub fn set_ready_at(&mut self, seq: SeqNum, ready_at_ps: u64) -> bool {
        let Some(pos) = self.position(seq) else {
            return false;
        };
        let e = &mut self.entries[pos];
        debug_assert!(
            e.ready_at_ps == u64::MAX,
            "operand readiness time is pushed exactly once"
        );
        e.ready_at_ps = ready_at_ps;
        if !e.operands_ready {
            self.min_unflagged_ready_ps = self.min_unflagged_ready_ps.min(ready_at_ps);
        }
        true
    }

    /// Lowers the operand-readiness time of `seq` to `ready_at_ps` if that
    /// is earlier (pushed when one of the entry's producers *retires*
    /// before its result's cross-domain visibility arrives: architectural
    /// state needs no synchronization crossing).  A no-op once the ready
    /// flag has latched.
    pub fn lower_ready_at(&mut self, seq: SeqNum, ready_at_ps: u64) -> bool {
        let Some(pos) = self.position(seq) else {
            return false;
        };
        let e = &mut self.entries[pos];
        if !e.operands_ready && ready_at_ps < e.ready_at_ps {
            e.ready_at_ps = ready_at_ps;
            self.min_unflagged_ready_ps = self.min_unflagged_ready_ps.min(ready_at_ps);
        }
        true
    }

    /// Latches the `operands_ready` flag of entry `pos` and maintains the
    /// older-store summary.
    fn flag_operands_ready(&mut self, pos: usize) {
        let (seq, is_store) = {
            let e = &mut self.entries[pos];
            debug_assert!(!e.operands_ready);
            e.operands_ready = true;
            (e.seq, e.is_store)
        };
        self.no_candidates = false;
        if is_store {
            self.unready_stores -= 1;
            if seq == self.min_unready_store_seq {
                self.min_unready_store_seq = self.next_unready_store_after(pos);
            }
        }
    }

    /// The sequence number of the first store with unready operands after
    /// index `pos`, or `u64::MAX` if there is none.  Entries are
    /// seq-sorted, so when the minimum-seq unready store becomes ready the
    /// next minimum can only be further right.
    fn next_unready_store_after(&self, pos: usize) -> SeqNum {
        if self.unready_stores == 0 {
            return u64::MAX;
        }
        self.entries[pos + 1..]
            .iter()
            .find(|e| e.is_store && !e.operands_ready)
            .map(|e| e.seq)
            .expect("unready_stores counted a store")
    }

    /// Marks an entry's operands (address and store data) as ready.
    pub fn set_operands_ready(&mut self, seq: SeqNum) -> bool {
        let Some(pos) = self.position(seq) else {
            return false;
        };
        if !self.entries[pos].operands_ready {
            self.flag_operands_ready(pos);
        }
        true
    }

    /// Marks an entry as issued.
    pub fn mark_issued(&mut self, seq: SeqNum) -> bool {
        let Some(pos) = self.position(seq) else {
            return false;
        };
        self.entries[pos].issued = true;
        true
    }

    /// Marks an entry as completed.
    pub fn mark_completed(&mut self, seq: SeqNum) -> bool {
        let Some(pos) = self.position(seq) else {
            return false;
        };
        self.entries[pos].completed = true;
        true
    }

    /// Removes an entry (loads at completion, stores at commit).
    pub fn remove(&mut self, seq: SeqNum) -> bool {
        let Some(pos) = self.position(seq) else {
            return false;
        };
        let e = self.entries.remove(pos);
        self.no_candidates = false;
        if pos < self.visible_len {
            self.visible_len -= 1;
        }
        if e.is_store {
            self.filter_remove(e.mask);
            if !e.operands_ready {
                // Unreachable in the simulator (stores only retire after
                // completing, which requires ready operands), but keep the
                // summary exact for direct users of the structure.
                self.unready_stores -= 1;
                if seq == self.min_unready_store_seq {
                    self.min_unready_store_seq = self
                        .entries
                        .iter()
                        .find(|e| e.is_store && !e.operands_ready)
                        .map(|e| e.seq)
                        .unwrap_or(u64::MAX);
                }
            }
        }
        // A suffix removal may leave `earliest_pending_ps` (and the
        // unflagged-readiness bound) stale-low; both are conservative
        // bounds re-derived exactly by the next executed pass, so no O(n)
        // minimum recomputation here.
        true
    }

    fn recompute_earliest_pending(&mut self) {
        self.earliest_pending_ps = self.entries[self.visible_len..]
            .iter()
            .map(|e| e.visible_at_ps)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Extends the visible prefix with every leading suffix entry visible
    /// at `now_ps`.  A no-op (one comparison) unless `now_ps` has reached
    /// the earliest pending visibility time.  After this call,
    /// `earliest_pending_ps <= now_ps` iff visibility times are locally
    /// non-monotone (a visible entry is gapped behind a not-yet-visible
    /// one); the scans below then fall back to the historical full filter.
    ///
    /// `now_ps` values must be non-decreasing across calls (domain time is
    /// monotone); asserted in debug builds.
    #[inline]
    pub fn refresh_visible(&mut self, now_ps: u64) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                now_ps >= self.watermark_ps,
                "visibility queries must use non-decreasing times"
            );
            self.watermark_ps = now_ps;
        }
        if now_ps < self.earliest_pending_ps {
            return;
        }
        while self.visible_len < self.entries.len()
            && self.entries[self.visible_len].visible_at_ps <= now_ps
        {
            self.visible_len += 1;
            self.no_candidates = false;
        }
        self.recompute_earliest_pending();
    }

    /// Number of leading entries known visible at the watermark.
    pub fn visible_len(&self) -> usize {
        self.visible_len
    }

    /// The sequence number of the oldest store whose operands are still
    /// unknown (`u64::MAX` when every store address is known).
    pub fn min_unready_store_seq(&self) -> SeqNum {
        self.min_unready_store_seq
    }

    /// Decides whether the load `seq` may issue, considering all older
    /// stores still in the queue.
    ///
    /// Conservative memory disambiguation: an older store with unready
    /// operands (unknown address) blocks the load; an older store with an
    /// overlapping address forwards if possible (most recent such store
    /// wins); otherwise the load may access the cache.
    ///
    /// The common cases are O(1): an unknown older store address is
    /// detected with one comparison against
    /// [`min_unready_store_seq`](Self::min_unready_store_seq), and the
    /// absence of any potentially overlapping store with the address
    /// filter.  Only a filter hit scans the older stores, to identify the
    /// forwarding store or a partial overlap — with decisions identical to
    /// the historical full scan in every case.
    pub fn load_issue_decision(&self, seq: SeqNum) -> LsqIssue {
        let Some(load) = self.get(seq) else {
            return LsqIssue::Blocked;
        };
        debug_assert!(!load.is_store);
        if self.min_unready_store_seq < seq {
            // Some older store has an unknown address: cannot disambiguate.
            return LsqIssue::Blocked;
        }
        if self.occupied_bits & load.mask == 0 {
            // No store in the queue overlaps the load's granules (the
            // entry's mask was precomputed at insert, so this is one AND).
            return LsqIssue::AccessCache;
        }
        // Filter hit: scan the older stores (all of which have known
        // addresses here) for forwarding or a partial overlap.
        let mut forward_from: Option<SeqNum> = None;
        for e in self.entries.iter().filter(|e| e.is_store && e.seq < seq) {
            debug_assert!(e.operands_ready, "older unready stores were excluded above");
            if e.mem.overlaps(&load.mem) {
                // The store's data is available once its operands are ready;
                // forwarding requires the store to cover the load completely.
                if e.mem.addr <= load.mem.addr
                    && e.mem.addr + e.mem.size as u64 >= load.mem.addr + load.mem.size as u64
                {
                    forward_from = Some(e.seq);
                } else {
                    // Partial overlap: wait until the store leaves the queue
                    // (commits) before accessing the cache.
                    return LsqIssue::Blocked;
                }
            }
        }
        match forward_from {
            Some(s) => LsqIssue::Forward(s),
            None => LsqIssue::AccessCache,
        }
    }

    /// Appends the sequence numbers of entries that are visible, ready and
    /// not yet issued at `now_ps` to `out`, oldest first, without
    /// allocating.  Scans only the visible prefix; the suffix is skipped
    /// with one comparison unless visibility times are non-monotone, in
    /// which case it is filtered the historical way (suffix entries are
    /// younger than every prefix entry, so the output stays oldest-first).
    /// A scan that found nothing is not repeated until the prefix grows
    /// or an operand-ready flag latches.
    pub fn issue_candidates_into(&mut self, now_ps: u64, out: &mut Vec<SeqNum>) {
        self.refresh_visible(now_ps);
        let monotone = self.earliest_pending_ps > now_ps;
        if self.no_candidates && monotone {
            debug_assert!(
                self.entries[..self.visible_len]
                    .iter()
                    .all(|e| !e.operands_ready
                        || e.issued
                        || (!e.is_store && self.load_issue_decision(e.seq) == LsqIssue::Blocked)),
                "skipped an issue-candidate scan that had candidates"
            );
            return;
        }
        let before = out.len();
        out.extend(
            self.entries[..self.visible_len]
                .iter()
                .filter(|e| e.operands_ready && !e.issued)
                .map(|e| e.seq),
        );
        if !monotone {
            // Gapped visible entries behind a not-yet-visible one.
            out.extend(
                self.entries[self.visible_len..]
                    .iter()
                    .filter(|e| e.visible_at_ps <= now_ps && e.operands_ready && !e.issued)
                    .map(|e| e.seq),
            );
        }
        self.no_candidates = monotone && out.len() == before;
    }

    /// Memoizes a scan at `now_ps` whose every candidate was a load that
    /// [`LoadStoreQueue::load_issue_decision`] blocked: the next scans are
    /// skipped like empty ones until a store's operand flag latches, an
    /// entry leaves the queue or the visible prefix grows — the only
    /// events that can unblock such a load or add a candidate.  A no-op
    /// with non-monotone visibility at `now_ps`.  The caller must not
    /// call it for a scan that lost a candidate to a busy port: that
    /// candidate is not blocked.
    pub fn memoize_blocked_scan(&mut self, now_ps: u64) {
        if self.earliest_pending_ps > now_ps {
            self.no_candidates = true;
        }
    }

    /// Whether the next issue-candidate scan is known to find nothing to
    /// issue (the scan memo of [`LoadStoreQueue::issue_candidates_into`]);
    /// it stays so at least until
    /// [`earliest_pending_ps`](Self::earliest_pending_ps) and
    /// [`min_unflagged_ready_ps`](Self::min_unflagged_ready_ps), unless
    /// the queue changes in between.
    pub fn scan_memoized(&self) -> bool {
        self.no_candidates
    }

    /// A lower bound on the earliest time at which the visible prefix can
    /// grow (`u64::MAX` when every entry is visible).
    pub fn earliest_pending_ps(&self) -> u64 {
        self.earliest_pending_ps
    }

    /// A lower bound on the earliest time at which
    /// [`LoadStoreQueue::promote_operand_readiness`] can latch an operand
    /// flag of a visible entry (`u64::MAX` when none can).
    pub fn min_unflagged_ready_ps(&self) -> u64 {
        self.min_unflagged_ready_ps
    }

    /// Sequence numbers of entries that are visible, ready and not yet
    /// issued at `now_ps`, oldest first (allocating convenience wrapper
    /// around [`LoadStoreQueue::issue_candidates_into`]).
    pub fn issue_candidates(&mut self, now_ps: u64) -> Vec<SeqNum> {
        let mut v = Vec::new();
        self.issue_candidates_into(now_ps, &mut v);
        v
    }

    /// Latches the `operands_ready` flag of every entry whose pushed
    /// readiness time ([`LoadStoreQueue::set_ready_at`]) has arrived, in
    /// one in-place pass — a no-op (one comparison) while `now_ps` is
    /// below the earliest unlatched readiness time.
    ///
    /// Only the visible prefix is scanned: readiness is consumed by the
    /// issue-candidate filter (visible entries only) and by the
    /// disambiguation scan over *older* stores of a visible load, which
    /// program order places in the prefix too.  Readiness times are fixed
    /// at the producers' completions, so latching an entry the cycle it
    /// enters the prefix yields exactly the value the historical
    /// every-entry probe latched.  If visibility times are non-monotone
    /// the suffix is scanned as well, restoring the historical behaviour
    /// verbatim.
    pub fn promote_operand_readiness(&mut self, now_ps: u64) {
        let old_visible = self.visible_len;
        self.refresh_visible(now_ps);
        let non_monotone = self.earliest_pending_ps <= now_ps;
        // The pass can only latch something if the prefix grew (new
        // entries whose readiness time is unknown to the bound), a
        // prefix entry's readiness time has arrived, or visibility is
        // non-monotone (the suffix becomes scannable).  Otherwise it is a
        // no-op and the bound lets us skip it entirely.
        if self.visible_len == old_visible && !non_monotone && now_ps < self.min_unflagged_ready_ps
        {
            return;
        }
        let scan_to = if non_monotone {
            self.entries.len()
        } else {
            self.visible_len
        };
        let mut min_pending = u64::MAX;
        for i in 0..scan_to {
            let e = &self.entries[i];
            if e.operands_ready {
                continue;
            }
            if e.ready_at_ps <= now_ps {
                self.flag_operands_ready(i);
            } else {
                // Still pending: it bounds the next time this pass can do
                // anything.
                min_pending = min_pending.min(e.ready_at_ps);
            }
        }
        self.min_unflagged_ready_ps = min_pending;
    }

    /// Adds the current occupancy to the per-interval accumulator (once per
    /// load/store-domain cycle).
    pub fn accumulate_occupancy(&mut self) {
        self.accumulate_occupancy_for(1);
    }

    /// Adds the current occupancy for `cycles` load/store-domain cycles in
    /// which the queue did not change.
    pub fn accumulate_occupancy_for(&mut self, cycles: u64) {
        self.occupancy_accumulator += self.entries.len() as u64 * cycles;
        self.accumulated_cycles += cycles;
    }

    /// Returns the average occupancy since the last reset and clears the
    /// accumulator.
    pub fn take_average_occupancy(&mut self) -> f64 {
        let avg = if self.accumulated_cycles == 0 {
            0.0
        } else {
            self.occupancy_accumulator as f64 / self.accumulated_cycles as f64
        };
        self.occupancy_accumulator = 0;
        self.accumulated_cycles = 0;
        avg
    }

    /// Iterator over all entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = &LsqEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(addr: u64, size: u8) -> MemInfo {
        MemInfo::new(addr, size)
    }

    #[test]
    fn insert_respects_capacity_and_order() {
        let mut q = LoadStoreQueue::new(2);
        q.insert(1, false, mem(0, 8), 0).unwrap();
        assert_eq!(q.insert(1, true, mem(8, 8), 0), Err(1));
        q.insert(2, true, mem(8, 8), 0).unwrap();
        assert!(q.is_full());
        assert_eq!(q.insert(3, false, mem(16, 8), 0), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn load_with_no_older_stores_accesses_cache() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(5, false, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(5);
        assert_eq!(q.load_issue_decision(5), LsqIssue::AccessCache);
    }

    #[test]
    fn unknown_older_store_address_blocks_load() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x200, 8), 0).unwrap();
        q.insert(2, false, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(2);
        assert_eq!(q.load_issue_decision(2), LsqIssue::Blocked);
        // Once the store address is known and does not conflict, the load
        // may proceed.
        q.set_operands_ready(1);
        assert_eq!(q.load_issue_decision(2), LsqIssue::AccessCache);
    }

    #[test]
    fn overlapping_store_forwards_to_load() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x100, 8), 0).unwrap();
        q.insert(2, false, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(1);
        q.set_operands_ready(2);
        assert_eq!(q.load_issue_decision(2), LsqIssue::Forward(1));
    }

    #[test]
    fn most_recent_overlapping_store_wins_forwarding() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x100, 8), 0).unwrap();
        q.insert(2, true, mem(0x100, 8), 0).unwrap();
        q.insert(3, false, mem(0x100, 8), 0).unwrap();
        for s in 1..=3 {
            q.set_operands_ready(s);
        }
        assert_eq!(q.load_issue_decision(3), LsqIssue::Forward(2));
    }

    #[test]
    fn partial_overlap_blocks_load() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x104, 4), 0).unwrap();
        q.insert(2, false, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(1);
        q.set_operands_ready(2);
        assert_eq!(q.load_issue_decision(2), LsqIssue::Blocked);
    }

    #[test]
    fn younger_stores_do_not_affect_load() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(2, false, mem(0x100, 8), 0).unwrap();
        q.insert(3, true, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(2);
        assert_eq!(q.load_issue_decision(2), LsqIssue::AccessCache);
    }

    #[test]
    fn min_unready_store_seq_tracks_insert_ready_and_remove() {
        let mut q = LoadStoreQueue::new(8);
        assert_eq!(q.min_unready_store_seq(), u64::MAX);
        q.insert(1, true, mem(0x100, 8), 0).unwrap();
        q.insert(2, false, mem(0x200, 8), 0).unwrap();
        q.insert(3, true, mem(0x300, 8), 0).unwrap();
        q.insert(4, true, mem(0x400, 8), 0).unwrap();
        assert_eq!(q.min_unready_store_seq(), 1);
        // Readying a younger store does not move the minimum.
        q.set_operands_ready(3);
        assert_eq!(q.min_unready_store_seq(), 1);
        // Readying the minimum advances past already-ready stores.
        q.set_operands_ready(1);
        assert_eq!(q.min_unready_store_seq(), 4);
        q.set_operands_ready(4);
        assert_eq!(q.min_unready_store_seq(), u64::MAX);
        // Loads never participate.
        assert_eq!(q.unready_stores, 0);
    }

    #[test]
    fn filter_fast_path_and_aliasing_fallback_agree_with_the_scan() {
        let mut q = LoadStoreQueue::new(8);
        // Store at 0x100; the filter granule is 8 bytes and there are 64
        // buckets, so 0x100 + 64*8 = 0x300 aliases to the same bucket.
        q.insert(1, true, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(1);
        q.insert(2, false, mem(0x180, 8), 0).unwrap();
        q.set_operands_ready(2);
        q.insert(3, false, mem(0x300, 8), 0).unwrap();
        q.set_operands_ready(3);
        // Distinct bucket: pure filter miss.
        assert_eq!(q.load_issue_decision(2), LsqIssue::AccessCache);
        // Aliasing bucket: filter hit, but the scan finds no real overlap.
        assert!(q.filter_may_match(&mem(0x300, 8)));
        assert_eq!(q.load_issue_decision(3), LsqIssue::AccessCache);
    }

    #[test]
    fn filter_clears_when_stores_leave_the_queue() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x100, 8), 0).unwrap();
        q.insert(2, true, mem(0x100, 8), 0).unwrap();
        assert!(q.filter_may_match(&mem(0x100, 8)));
        q.set_operands_ready(1);
        q.set_operands_ready(2);
        q.remove(1);
        // One store still covers the granule.
        assert!(q.filter_may_match(&mem(0x100, 8)));
        q.remove(2);
        assert!(!q.filter_may_match(&mem(0x100, 8)));
    }

    #[test]
    fn pushed_readiness_times_latch_on_visible_entries() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, false, mem(0, 8), 100).unwrap();
        q.insert(2, false, mem(8, 8), 100).unwrap();
        q.set_ready_at(1, 500);
        // Entry 2's producers are still outstanding (ready_at = MAX).
        q.promote_operand_readiness(200);
        assert!(!q.get(1).unwrap().operands_ready, "not ready before 500");
        q.promote_operand_readiness(500);
        assert!(q.get(1).unwrap().operands_ready);
        assert!(!q.get(2).unwrap().operands_ready);
        q.set_ready_at(2, 600);
        q.promote_operand_readiness(600);
        assert!(q.get(2).unwrap().operands_ready);
    }

    #[test]
    fn readiness_does_not_latch_before_queue_visibility() {
        let mut q = LoadStoreQueue::new(8);
        // Operands ready at 100, but the entry reaches the LSQ at 1_000.
        q.insert(1, false, mem(0, 8), 1_000).unwrap();
        q.set_ready_at(1, 100);
        q.promote_operand_readiness(500);
        assert!(
            !q.get(1).unwrap().operands_ready,
            "an entry outside the visible prefix must not latch readiness"
        );
        q.promote_operand_readiness(1_000);
        assert!(q.get(1).unwrap().operands_ready);
        assert_eq!(q.issue_candidates(1_000), vec![1]);
    }

    #[test]
    fn issue_candidates_filter_on_visibility_and_readiness() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, false, mem(0, 8), 100).unwrap();
        q.insert(2, false, mem(8, 8), 5_000).unwrap();
        q.insert(3, true, mem(16, 8), 100).unwrap();
        q.set_operands_ready(1);
        q.set_operands_ready(2);
        // seq 3 operands not ready; seq 2 not visible yet.
        assert_eq!(q.issue_candidates(1_000), vec![1]);
        q.mark_issued(1);
        assert!(q.issue_candidates(1_000).is_empty());
        q.set_operands_ready(3);
        assert_eq!(q.issue_candidates(10_000), vec![2, 3]);
    }

    #[test]
    fn candidates_reappear_after_an_empty_scan() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, false, mem(0, 8), 100).unwrap();
        q.set_ready_at(1, 2_000);
        // Visible but unready: the scan is empty and memoized.
        assert!(q.issue_candidates(1_000).is_empty());
        assert!(q.issue_candidates(1_500).is_empty());
        // Readiness latches: the candidate comes back.
        q.promote_operand_readiness(2_000);
        assert_eq!(q.issue_candidates(2_000), vec![1]);
        q.mark_issued(1);
        assert!(q.issue_candidates(2_100).is_empty());
        // A ready entry entering the visible prefix comes back too.
        q.insert(2, false, mem(8, 8), 3_000).unwrap();
        q.set_operands_ready(2);
        assert!(q.issue_candidates(2_500).is_empty());
        assert_eq!(q.issue_candidates(3_000), vec![2]);
        q.mark_issued(2);
        assert!(q.issue_candidates(3_100).is_empty());
        // A direct readiness flag clears the memo as well.
        q.insert(3, true, mem(16, 8), 3_000).unwrap();
        assert!(q.issue_candidates(3_200).is_empty());
        q.set_operands_ready(3);
        assert_eq!(q.issue_candidates(3_300), vec![3]);
    }

    #[test]
    fn a_blocked_loads_scan_is_memoized_until_the_store_address_latches() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x200, 8), 100).unwrap();
        q.insert(2, false, mem(0x100, 8), 100).unwrap();
        q.set_ready_at(1, 2_000);
        q.set_ready_at(2, 100);
        q.promote_operand_readiness(1_000);
        // The load is ready but blocked behind the unknown store address.
        assert_eq!(q.issue_candidates(1_000), vec![2]);
        assert_eq!(q.load_issue_decision(2), LsqIssue::Blocked);
        q.memoize_blocked_scan(1_000);
        assert!(q.scan_memoized());
        assert!(q.issue_candidates(1_500).is_empty(), "the scan is skipped");
        assert_eq!(q.min_unflagged_ready_ps(), 2_000);
        // The store's flag latch re-arms the scan, and the load is free.
        q.promote_operand_readiness(2_000);
        assert!(!q.scan_memoized());
        assert_eq!(q.issue_candidates(2_000), vec![1, 2]);
        assert_eq!(q.load_issue_decision(2), LsqIssue::AccessCache);
    }

    #[test]
    fn removing_a_partially_overlapping_store_rearms_a_blocked_scan() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x104, 4), 0).unwrap();
        q.insert(2, false, mem(0x100, 8), 0).unwrap();
        q.set_operands_ready(1);
        q.set_operands_ready(2);
        q.mark_issued(1);
        assert_eq!(q.issue_candidates(100), vec![2]);
        assert_eq!(q.load_issue_decision(2), LsqIssue::Blocked);
        q.memoize_blocked_scan(100);
        assert!(q.issue_candidates(200).is_empty());
        // The store commits and leaves: the load may access the cache.
        q.remove(1);
        assert!(!q.scan_memoized());
        assert_eq!(q.issue_candidates(300), vec![2]);
        assert_eq!(q.load_issue_decision(2), LsqIssue::AccessCache);
    }

    #[test]
    fn a_blocked_scan_is_not_memoized_with_non_monotone_visibility() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, true, mem(0x200, 8), 5_000).unwrap();
        q.insert(2, false, mem(0x100, 8), 1_000).unwrap();
        q.set_operands_ready(2);
        // Seq 2 is visible behind the not-yet-visible store seq 1.
        assert_eq!(q.issue_candidates(1_100), vec![2]);
        q.memoize_blocked_scan(1_100);
        assert!(!q.scan_memoized());
    }

    #[test]
    fn empty_scan_memo_is_not_used_with_non_monotone_visibility() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, false, mem(0, 8), 5_000).unwrap();
        q.insert(2, false, mem(8, 8), 1_000).unwrap();
        q.set_operands_ready(2);
        // Nothing visible yet: an empty, memoized scan.
        assert!(q.issue_candidates(500).is_empty());
        // Seq 2 becomes visible before the older seq 1 — no prefix growth
        // and no new readiness, but the suffix scan must still find it.
        assert_eq!(q.issue_candidates(1_100), vec![2]);
    }

    #[test]
    fn lifecycle_flags_and_removal() {
        let mut q = LoadStoreQueue::new(4);
        q.insert(1, true, mem(0, 8), 0).unwrap();
        assert!(q.set_operands_ready(1));
        assert!(q.mark_issued(1));
        assert!(q.mark_completed(1));
        let e = q.get(1).unwrap();
        assert!(e.operands_ready && e.issued && e.completed);
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert!(!q.set_operands_ready(1));
        assert!(!q.mark_issued(1));
        assert!(!q.mark_completed(1));
        assert!(q.is_empty());
    }

    #[test]
    fn occupancy_accumulation() {
        let mut q = LoadStoreQueue::new(8);
        q.insert(1, false, mem(0, 8), 0).unwrap();
        q.insert(2, true, mem(8, 8), 0).unwrap();
        q.insert(3, false, mem(16, 8), 0).unwrap();
        for _ in 0..4 {
            q.accumulate_occupancy();
        }
        assert!((q.take_average_occupancy() - 3.0).abs() < 1e-12);
        assert_eq!(q.take_average_occupancy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LoadStoreQueue::new(0);
    }
}
