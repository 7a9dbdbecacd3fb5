//! Register renaming resources: physical-register allocation and the
//! architectural-to-producer rename map.
//!
//! The paper's processor has 72 integer and 72 floating-point physical
//! registers (Table 4).  With 32 architectural registers per class this
//! leaves 40 rename registers per class; dispatch stalls when a destination
//! cannot be allocated.  Rather than modelling an explicit free list and
//! map table, the simulator tracks (a) the *count* of free physical
//! registers per class and (b) the last producer (sequence number) of each
//! architectural register, which is all the timing model needs.

use mcd_isa::{Reg, RegClass, SeqNum};
use serde::{Deserialize, Serialize};

/// Counting allocator for physical rename registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenameAllocator {
    int_free: usize,
    fp_free: usize,
    int_total: usize,
    fp_total: usize,
}

impl RenameAllocator {
    /// Creates an allocator given the total physical register counts and
    /// the architectural register counts of each class.
    ///
    /// # Panics
    ///
    /// Panics if a physical register file is not larger than its
    /// architectural register count.
    pub fn new(int_phys: usize, fp_phys: usize, int_arch: usize, fp_arch: usize) -> Self {
        assert!(
            int_phys > int_arch,
            "need at least one integer rename register"
        );
        assert!(
            fp_phys > fp_arch,
            "need at least one floating-point rename register"
        );
        RenameAllocator {
            int_free: int_phys - int_arch,
            fp_free: fp_phys - fp_arch,
            int_total: int_phys - int_arch,
            fp_total: fp_phys - fp_arch,
        }
    }

    /// The paper's configuration: 72 + 72 physical, 32 + 32 architectural.
    pub fn alpha21264_like() -> Self {
        RenameAllocator::new(72, 72, 32, 32)
    }

    /// Number of currently free rename registers of a class.
    pub fn free(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.int_free,
            RegClass::Fp => self.fp_free,
        }
    }

    /// Total rename registers of a class.
    pub fn total(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.int_total,
            RegClass::Fp => self.fp_total,
        }
    }

    /// Attempts to allocate one rename register; returns `false` (and
    /// changes nothing) if none is free.
    pub fn try_alloc(&mut self, class: RegClass) -> bool {
        let free = match class {
            RegClass::Int => &mut self.int_free,
            RegClass::Fp => &mut self.fp_free,
        };
        if *free == 0 {
            false
        } else {
            *free -= 1;
            true
        }
    }

    /// Releases one rename register (at retire time).
    ///
    /// # Panics
    ///
    /// Panics if more registers are released than were allocated, which
    /// would indicate a simulator bookkeeping bug.
    pub fn release(&mut self, class: RegClass) {
        match class {
            RegClass::Int => {
                assert!(
                    self.int_free < self.int_total,
                    "integer rename register over-release"
                );
                self.int_free += 1;
            }
            RegClass::Fp => {
                assert!(
                    self.fp_free < self.fp_total,
                    "fp rename register over-release"
                );
                self.fp_free += 1;
            }
        }
    }
}

impl Default for RenameAllocator {
    fn default() -> Self {
        RenameAllocator::alpha21264_like()
    }
}

/// Maps each architectural register to the sequence number of its most
/// recent in-flight producer.
#[derive(Debug, Clone)]
pub struct RenameMap {
    last_writer: [Option<SeqNum>; Reg::DENSE_COUNT],
}

impl Default for RenameMap {
    fn default() -> Self {
        RenameMap::new()
    }
}

impl RenameMap {
    /// Creates an empty map (no in-flight producers; all registers read
    /// architectural state).
    pub fn new() -> Self {
        RenameMap {
            last_writer: [None; Reg::DENSE_COUNT],
        }
    }

    /// The in-flight producer of `reg`, if any.  The zero register never
    /// has a producer.
    pub fn producer(&self, reg: Reg) -> Option<SeqNum> {
        if reg.is_zero() {
            None
        } else {
            self.last_writer[reg.dense_index()]
        }
    }

    /// Records `seq` as the most recent producer of `reg` (no effect for
    /// the zero register).
    pub fn set_producer(&mut self, reg: Reg, seq: SeqNum) {
        if !reg.is_zero() {
            self.last_writer[reg.dense_index()] = Some(seq);
        }
    }

    /// Clears the producer of `reg` if it is still `seq` (called when `seq`
    /// retires, meaning the value now lives in architectural state and is
    /// unconditionally available).
    pub fn clear_if_producer(&mut self, reg: Reg, seq: SeqNum) {
        if self.last_writer[reg.dense_index()] == Some(seq) {
            self.last_writer[reg.dense_index()] = None;
        }
    }

    /// Number of architectural registers that currently have an in-flight
    /// producer.
    pub fn pending_count(&self) -> usize {
        self.last_writer.iter().filter(|w| w.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_defaults_have_40_rename_registers_per_class() {
        let a = RenameAllocator::alpha21264_like();
        assert_eq!(a.free(RegClass::Int), 40);
        assert_eq!(a.free(RegClass::Fp), 40);
        assert_eq!(a.total(RegClass::Int), 40);
    }

    #[test]
    fn allocation_exhausts_and_release_restores() {
        let mut a = RenameAllocator::new(34, 33, 32, 32);
        assert!(a.try_alloc(RegClass::Int));
        assert!(a.try_alloc(RegClass::Int));
        assert!(
            !a.try_alloc(RegClass::Int),
            "only two integer rename registers"
        );
        assert!(a.try_alloc(RegClass::Fp));
        assert!(!a.try_alloc(RegClass::Fp));
        a.release(RegClass::Int);
        assert_eq!(a.free(RegClass::Int), 1);
        assert!(a.try_alloc(RegClass::Int));
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn over_release_panics() {
        let mut a = RenameAllocator::alpha21264_like();
        a.release(RegClass::Int);
    }

    #[test]
    #[should_panic(expected = "rename register")]
    fn too_small_register_file_panics() {
        let _ = RenameAllocator::new(32, 72, 32, 32);
    }

    #[test]
    fn rename_map_tracks_latest_producer() {
        let mut m = RenameMap::new();
        let r3 = Reg::int(3);
        assert_eq!(m.producer(r3), None);
        m.set_producer(r3, 10);
        assert_eq!(m.producer(r3), Some(10));
        m.set_producer(r3, 12);
        assert_eq!(m.producer(r3), Some(12));
        // Retiring the stale producer does not clear the newer mapping.
        m.clear_if_producer(r3, 10);
        assert_eq!(m.producer(r3), Some(12));
        m.clear_if_producer(r3, 12);
        assert_eq!(m.producer(r3), None);
    }

    #[test]
    fn zero_register_is_never_renamed() {
        let mut m = RenameMap::new();
        m.set_producer(Reg::int(31), 5);
        assert_eq!(m.producer(Reg::int(31)), None);
        m.set_producer(Reg::fp(31), 5);
        assert_eq!(m.producer(Reg::fp(31)), None);
        assert_eq!(m.pending_count(), 0);
    }

    #[test]
    fn int_and_fp_registers_are_independent() {
        let mut m = RenameMap::new();
        m.set_producer(Reg::int(4), 1);
        m.set_producer(Reg::fp(4), 2);
        assert_eq!(m.producer(Reg::int(4)), Some(1));
        assert_eq!(m.producer(Reg::fp(4)), Some(2));
        assert_eq!(m.pending_count(), 2);
    }
}
