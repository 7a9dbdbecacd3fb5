//! Reorder buffer (ROB).
//!
//! The MCD simulator splits SimpleScalar's Register Update Unit into a
//! reorder buffer, issue queues and physical register files, mirroring the
//! Alpha 21264 (paper Section 4).  The ROB holds every in-flight
//! instruction in program order; instructions retire from its head, up to
//! the retire width per front-end cycle, once their completion has become
//! visible to the front-end domain.

use mcd_isa::{OpClass, SeqNum};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One in-flight instruction tracked by the ROB.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobEntry {
    /// Program-order sequence number.
    pub seq: SeqNum,
    /// Operation class (used at retire time for statistics and to know
    /// whether a store must write the data cache).
    pub op: OpClass,
    /// Whether execution has finished.
    pub completed: bool,
    /// Absolute time (ps) at which the completion becomes visible to the
    /// front-end domain (after inter-domain synchronization).  Only
    /// meaningful when `completed` is true.
    pub completion_visible_ps: u64,
    /// Whether this instruction is a branch that was mispredicted (used by
    /// the front end to account the redirect penalty at resolve time).
    pub mispredicted: bool,
}

impl RobEntry {
    /// Creates an entry for a newly dispatched instruction.
    pub fn new(seq: SeqNum, op: OpClass) -> Self {
        RobEntry {
            seq,
            op,
            completed: false,
            completion_visible_ps: 0,
            mispredicted: false,
        }
    }
}

/// A bounded, program-ordered reorder buffer.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    capacity: usize,
    entries: VecDeque<RobEntry>,
    /// Peak occupancy, for reports.
    peak: usize,
}

impl ReorderBuffer {
    /// Creates an empty ROB with the given capacity (80 in Table 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        ReorderBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            peak: 0,
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

    /// Whether the ROB holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ROB is full (dispatch must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Highest occupancy observed so far.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Pushes a newly dispatched instruction.
    ///
    /// # Errors
    ///
    /// Returns the entry back if the ROB is full or if the sequence number
    /// does not follow program order.
    pub fn push(&mut self, entry: RobEntry) -> Result<(), RobEntry> {
        if self.is_full() {
            return Err(entry);
        }
        if let Some(last) = self.entries.back() {
            if entry.seq <= last.seq {
                return Err(entry);
            }
        }
        self.entries.push_back(entry);
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// The oldest in-flight instruction, if any.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Index of `seq`, using direct offset arithmetic when the window is
    /// contiguous (the common case: the simulator dispatches consecutive
    /// sequence numbers) and a linear scan otherwise.
    fn position_of(&self, seq: SeqNum) -> Option<usize> {
        let head = self.entries.front()?.seq;
        let back = self.entries.back().expect("non-empty").seq;
        if back - head + 1 == self.entries.len() as u64 {
            // Contiguous window: O(1) lookup.
            if seq < head || seq > back {
                return None;
            }
            return Some((seq - head) as usize);
        }
        self.entries.iter().position(|e| e.seq == seq)
    }

    /// Marks an instruction as completed, with the given visibility time.
    /// Returns `true` if the instruction was found.
    pub fn mark_completed(&mut self, seq: SeqNum, visible_ps: u64) -> bool {
        match self.position_of(seq) {
            Some(pos) => {
                let e = &mut self.entries[pos];
                debug_assert_eq!(e.seq, seq);
                e.completed = true;
                e.completion_visible_ps = visible_ps;
                true
            }
            None => false,
        }
    }

    /// Marks an instruction as a mispredicted branch.  Returns `true` if
    /// the instruction was found.
    pub fn mark_mispredicted(&mut self, seq: SeqNum) -> bool {
        for e in &mut self.entries {
            if e.seq == seq {
                e.mispredicted = true;
                return true;
            }
        }
        false
    }

    /// Retires the head instruction if it has completed and its completion
    /// is visible at `now_ps`.  Returns the retired entry.
    pub fn retire_head(&mut self, now_ps: u64) -> Option<RobEntry> {
        match self.entries.front() {
            Some(head) if head.completed && head.completion_visible_ps <= now_ps => {
                self.entries.pop_front()
            }
            _ => None,
        }
    }

    /// Iterator over the in-flight instructions in program order.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: SeqNum) -> RobEntry {
        RobEntry::new(seq, OpClass::IntAlu)
    }

    #[test]
    fn push_and_retire_in_program_order() {
        let mut rob = ReorderBuffer::new(4);
        for s in 0..4 {
            rob.push(entry(s)).unwrap();
        }
        assert!(rob.is_full());
        assert_eq!(rob.len(), 4);
        // Head cannot retire until completed.
        assert!(rob.retire_head(1_000).is_none());
        // Complete out of order.
        assert!(rob.mark_completed(2, 100));
        assert!(rob.mark_completed(0, 200));
        assert!(rob.mark_completed(1, 300));
        // Retire strictly in order, gated by visibility times.
        assert!(
            rob.retire_head(150).is_none(),
            "seq 0 not visible until 200"
        );
        assert_eq!(rob.retire_head(250).unwrap().seq, 0);
        assert_eq!(rob.retire_head(400).unwrap().seq, 1);
        assert_eq!(rob.retire_head(400).unwrap().seq, 2);
        assert!(rob.retire_head(400).is_none(), "seq 3 never completed");
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn push_rejects_when_full_and_out_of_order() {
        let mut rob = ReorderBuffer::new(2);
        rob.push(entry(5)).unwrap();
        assert!(rob.push(entry(5)).is_err(), "duplicate sequence number");
        assert!(rob.push(entry(4)).is_err(), "out of program order");
        rob.push(entry(6)).unwrap();
        assert!(rob.push(entry(7)).is_err(), "full");
    }

    #[test]
    fn mark_missing_instruction_returns_false() {
        let mut rob = ReorderBuffer::new(8);
        rob.push(entry(1)).unwrap();
        assert!(!rob.mark_completed(9, 0));
        assert!(!rob.mark_mispredicted(9));
        assert!(rob.mark_mispredicted(1));
        assert!(rob.head().unwrap().mispredicted);
    }

    #[test]
    fn peak_occupancy_is_tracked() {
        let mut rob = ReorderBuffer::new(8);
        for s in 0..5 {
            rob.push(entry(s)).unwrap();
        }
        for s in 0..5 {
            rob.mark_completed(s, 0);
            rob.retire_head(10);
        }
        assert!(rob.is_empty());
        assert_eq!(rob.peak_occupancy(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ReorderBuffer::new(0);
    }

    #[test]
    fn iter_walks_program_order() {
        let mut rob = ReorderBuffer::new(8);
        for s in [2, 4, 9] {
            rob.push(entry(s)).unwrap();
        }
        let seqs: Vec<_> = rob.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 4, 9]);
    }
}
