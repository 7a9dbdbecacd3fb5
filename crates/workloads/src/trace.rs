//! Materialized instruction traces shared across runs.
//!
//! An experiment plan frequently simulates the *same* `(spec, seed,
//! instruction budget)` stream under many different machine
//! configurations.  Live generation re-pays the generator's RNG and
//! bookkeeping cost once per run; a [`SharedTrace`] pays it once,
//! materializing the stream into an immutable `Vec<DynInst>` that any
//! number of runs can then replay through cheap [`TraceCursor`]s.
//!
//! Replay is bit-identical to live generation by construction: the trace
//! *is* the output of a [`WorkloadGenerator`] run to completion, and the
//! cursor yields the recorded instructions in order with the same
//! `remaining_hint` a live generator would report at the same position.
//! The warm-region metadata the experiment runner needs before starting a
//! run is captured at materialization time so trace-backed runs need no
//! access to the originating spec.

use std::sync::Arc;

use mcd_isa::{DynInst, InstructionStream};

use crate::generator::WorkloadGenerator;
use crate::spec::WorkloadSpec;

/// An immutable, fully materialized instruction stream for one
/// `(spec, seed, total_instructions)` triple, shared between runs via
/// `Arc`.
#[derive(Debug, Clone)]
pub struct SharedTrace {
    insts: Vec<DynInst>,
    warm_regions: Vec<(u64, u64)>,
    seed: u64,
}

impl SharedTrace {
    /// Runs a fresh [`WorkloadGenerator`] for `spec` to completion and
    /// records its output.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WorkloadGenerator::new`]
    /// (invalid spec, zero budget), and if the generator produces fewer
    /// instructions than requested — replay must cover the full budget.
    pub fn materialize(spec: &WorkloadSpec, seed: u64, total_instructions: u64) -> Self {
        let mut generator = WorkloadGenerator::new(spec, seed, total_instructions);
        let mut insts = Vec::with_capacity(total_instructions as usize);
        while let Some(inst) = generator.next_inst() {
            insts.push(inst);
        }
        assert_eq!(
            insts.len() as u64,
            total_instructions,
            "generator for {:?} stopped early",
            spec.name
        );
        SharedTrace {
            insts,
            warm_regions: WorkloadGenerator::warm_regions(spec),
            seed,
        }
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> u64 {
        self.insts.len() as u64
    }

    /// Whether the trace is empty (never true for a materialized trace;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The seed the trace was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Approximate resident size of the trace backing store in bytes (the
    /// instruction records), used for plan-level peak-memory accounting.
    pub fn bytes(&self) -> u64 {
        (self.insts.capacity() * std::mem::size_of::<DynInst>()) as u64
    }

    /// Memory regions `(base, length)` to warm before a run, identical to
    /// [`WorkloadGenerator::warm_regions`] for the originating spec.
    pub fn warm_regions(&self) -> &[(u64, u64)] {
        &self.warm_regions
    }

    /// The recorded instructions in program order.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// A cursor positioned at the start of the trace.
    pub fn cursor(self: &Arc<Self>) -> TraceCursor {
        TraceCursor {
            trace: Arc::clone(self),
            pos: 0,
        }
    }
}

/// A cheap, independently positioned reader over a [`SharedTrace`].
///
/// Implements [`InstructionStream`] exactly like the live generator the
/// trace was recorded from: same instructions, same order, same
/// `remaining_hint` at every position.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    trace: Arc<SharedTrace>,
    pos: usize,
}

impl InstructionStream for TraceCursor {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = self.trace.insts.get(self.pos).copied();
        if inst.is_some() {
            self.pos += 1;
        }
        inst
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.trace.insts.len() - self.pos) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Benchmark;

    #[test]
    fn replay_matches_live_generation_exactly() {
        let spec = Benchmark::Gzip.spec();
        let trace = Arc::new(SharedTrace::materialize(&spec, 42, 3_000));
        let mut cursor = trace.cursor();
        let mut live = WorkloadGenerator::new(&spec, 42, 3_000);
        loop {
            assert_eq!(cursor.remaining_hint(), live.remaining_hint());
            let (a, b) = (cursor.next_inst(), live.next_inst());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn warm_regions_are_captured_from_the_spec() {
        let spec = Benchmark::Mcf.spec();
        let trace = SharedTrace::materialize(&spec, 7, 100);
        assert_eq!(
            trace.warm_regions(),
            WorkloadGenerator::warm_regions(&spec).as_slice()
        );
    }

    #[test]
    fn cursors_are_independent() {
        let spec = Benchmark::Swim.spec();
        let trace = Arc::new(SharedTrace::materialize(&spec, 1, 64));
        let mut a = trace.cursor();
        let mut b = trace.cursor();
        let first = a.next_inst().unwrap();
        assert_eq!(b.next_inst().unwrap(), first);
        assert_eq!(a.remaining_hint(), Some(63));
        assert_eq!(trace.len(), 64);
        assert!(!trace.is_empty());
        assert_eq!(trace.seed(), 1);
        assert!(trace.bytes() >= 64 * std::mem::size_of::<mcd_isa::DynInst>() as u64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics_like_the_generator() {
        let _ = SharedTrace::materialize(&Benchmark::Gzip.spec(), 1, 0);
    }
}
