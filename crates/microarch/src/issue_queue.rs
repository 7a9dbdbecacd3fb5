//! Bounded issue queue.
//!
//! Each execution domain (integer, floating point) has an issue queue at
//! its input; the load/store domain's equivalent structure is the
//! [`LoadStoreQueue`](crate::lsq::LoadStoreQueue).  The *occupancy* of these
//! queues, accumulated per domain cycle, is the signal driving the
//! Attack/Decay algorithm (paper Section 3), so the queue exposes its
//! occupancy explicitly.
//!
//! The queue models the structure's *capacity* (dispatch stalls when it is
//! full) and its occupancy statistics.  Wakeup and select are event driven
//! and live in the simulator: when an entry's dispatch crossing and
//! producer results are all visible to the owning domain, the simulator's
//! wakeup queues present it to the issue logic directly, so this structure
//! is never scanned on the per-cycle path — entries are inserted at
//! dispatch, removed at issue, and counted once per cycle for the
//! Attack/Decay utilization signal.  (Historically the queue also tracked
//! per-entry visibility times behind a visible/pending partition that the
//! issue loop walked and re-probed every cycle; event-driven wakeup made
//! that machinery redundant.)

use mcd_isa::SeqNum;

/// A bounded issue queue holding dispatched-but-not-yet-issued instructions.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    capacity: usize,
    /// Sequence numbers of the entries, sorted ascending (oldest first).
    entries: Vec<SeqNum>,
    /// Cumulative occupancy, incremented by `len()` once per domain cycle
    /// via [`IssueQueue::accumulate_occupancy`].
    occupancy_accumulator: u64,
    /// Number of cycles accumulated.
    accumulated_cycles: u64,
}

impl IssueQueue {
    /// Creates an empty issue queue with the given capacity (20 integer /
    /// 15 floating point in Table 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be positive");
        IssueQueue {
            capacity,
            entries: Vec::with_capacity(capacity),
            occupancy_accumulator: 0,
            accumulated_cycles: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (dispatch must stall).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Inserts a dispatched instruction.
    ///
    /// Entries are kept sorted by sequence number.  Dispatch happens in
    /// program order, so the common case is a plain push; an out-of-order
    /// insert (only exercised by unit tests) falls back to a sorted
    /// insertion.
    ///
    /// # Errors
    ///
    /// Returns `Err(seq)` if the queue is full.
    pub fn insert(&mut self, seq: SeqNum) -> Result<(), SeqNum> {
        if self.is_full() {
            return Err(seq);
        }
        match self.entries.last() {
            Some(&last) if last > seq => {
                let pos = self.entries.partition_point(|&s| s < seq);
                self.entries.insert(pos, seq);
            }
            _ => self.entries.push(seq),
        }
        Ok(())
    }

    /// Removes an entry (at issue time).  Returns `true` if it was present.
    pub fn remove(&mut self, seq: SeqNum) -> bool {
        if let Ok(pos) = self.entries.binary_search(&seq) {
            self.entries.remove(pos);
            return true;
        }
        false
    }

    /// Iterator over all entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = SeqNum> + '_ {
        self.entries.iter().copied()
    }

    /// Adds the current occupancy to the per-interval accumulator.  The
    /// simulator calls this once per domain cycle; the Attack/Decay
    /// hardware is exactly this accumulator (Table 3's "queue utilization
    /// counter").
    pub fn accumulate_occupancy(&mut self) {
        self.accumulate_occupancy_for(1);
    }

    /// Adds the current occupancy for `cycles` domain cycles in which the
    /// queue did not change.
    pub fn accumulate_occupancy_for(&mut self, cycles: u64) {
        self.occupancy_accumulator += self.len() as u64 * cycles;
        self.accumulated_cycles += cycles;
    }

    /// Returns the average occupancy since the last reset and clears the
    /// accumulator (called at control-interval boundaries).
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

    /// The raw accumulator value (for tests and the hardware-cost analysis).
    pub fn occupancy_accumulator(&self) -> u64 {
        self.occupancy_accumulator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_capacity() {
        let mut q = IssueQueue::new(3);
        assert_eq!(q.capacity(), 3);
        assert!(q.is_empty());
        q.insert(1).unwrap();
        q.insert(2).unwrap();
        q.insert(3).unwrap();
        assert!(q.is_full());
        assert_eq!(q.insert(4), Err(4));
        assert!(q.remove(2));
        assert!(!q.remove(2));
        assert_eq!(q.len(), 2);
        q.insert(4).unwrap();
        assert!(q.is_full());
    }

    #[test]
    fn out_of_order_insert_keeps_entries_seq_sorted() {
        let mut q = IssueQueue::new(8);
        q.insert(5).unwrap();
        q.insert(2).unwrap();
        q.insert(7).unwrap();
        let all: Vec<_> = q.iter().collect();
        assert_eq!(all, vec![2, 5, 7]);
    }

    #[test]
    fn occupancy_accumulation_and_reset() {
        let mut q = IssueQueue::new(8);
        q.insert(1).unwrap();
        q.insert(2).unwrap();
        for _ in 0..10 {
            q.accumulate_occupancy();
        }
        assert_eq!(q.occupancy_accumulator(), 20);
        let avg = q.take_average_occupancy();
        assert!((avg - 2.0).abs() < 1e-12);
        // Accumulator resets.
        assert_eq!(q.occupancy_accumulator(), 0);
        assert_eq!(q.take_average_occupancy(), 0.0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut q = IssueQueue::new(4);
        for s in 0..20 {
            let _ = q.insert(s);
            q.accumulate_occupancy();
            assert!(q.len() <= q.capacity());
        }
        let avg = q.take_average_occupancy();
        assert!(avg <= 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = IssueQueue::new(0);
    }
}
