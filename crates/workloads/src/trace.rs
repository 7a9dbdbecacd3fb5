//! Materialized instruction traces shared across runs.
//!
//! An experiment plan frequently simulates the *same* `(spec, seed,
//! instruction budget)` stream under many different machine
//! configurations.  Live generation re-pays the generator's RNG and
//! bookkeeping cost once per run; a [`SharedTrace`] pays it once,
//! materializing the stream into an immutable array of compact records
//! that any number of runs can then replay through cheap
//! [`TraceCursor`]s.
//!
//! Replay is bit-identical to live generation by construction: the trace
//! *is* the output of a [`WorkloadGenerator`] run to completion, stored
//! losslessly, and the cursor yields the recorded instructions in order
//! with the same `remaining_hint` a live generator would report at the
//! same position.  The warm-region metadata the experiment runner needs
//! before starting a run is captured at materialization time so
//! trace-backed runs need no access to the originating spec.
//!
//! Each instruction is stored as a 16-byte `TraceRecord` instead of the
//! 72-byte [`DynInst`] it decodes to.  The sequence number is implicit (it
//! is the record's position), PCs, addresses and branch targets are
//! narrowed to 32 bits, and registers and the op class become one-byte
//! codes.  Narrowing is checked, so encoding is lossless or it panics, and
//! the spec's range caps ([`crate::spec::MAX_FOOTPRINT_BYTES`],
//! [`crate::spec::MAX_STATIC_BRANCHES`]) keep every valid spec's values in
//! range.

use std::sync::Arc;

use mcd_isa::{BranchInfo, DynInst, InstructionStream, MemInfo, OpClass, Reg, SeqNum};

use crate::generator::WorkloadGenerator;
use crate::spec::WorkloadSpec;

/// [`TraceRecord::flags`] bit: the instruction carries a memory
/// annotation, whose address is the payload.
const HAS_MEM: u8 = 1;
/// [`TraceRecord::flags`] bit: the instruction carries a branch
/// annotation, whose target is the payload.
const HAS_BRANCH: u8 = 2;
/// [`TraceRecord::flags`] bit: the branch is taken.
const TAKEN: u8 = 4;

/// Register decode table: code 0 is no register and code `1 + d` is the
/// register with dense index `d`.  It covers every `u8`, so decoding a
/// code needs no bounds check; encoding never produces a code past 64.
static REGS: [Option<Reg>; 256] = {
    let mut table = [None; 256];
    let mut d = 0;
    while d < Reg::DENSE_COUNT {
        table[d + 1] = Some(Reg::from_dense_index(d));
        d += 1;
    }
    table
};

/// One trace instruction in 16 bytes; its sequence number is its index in
/// the trace.  [`DynInst::validate`] makes memory and branch annotations
/// exclusive, so one `payload` word holds whichever is present.
#[derive(Debug, Clone, Copy)]
struct TraceRecord {
    pc: u32,
    /// The load/store address or the branch target (0 if neither).
    payload: u32,
    /// Index of the op class in [`OpClass::ALL`].
    op: u8,
    /// Register code of the destination (see [`REGS`]).
    dst: u8,
    /// Register codes of the source slots (see [`REGS`]).
    srcs: [u8; 3],
    /// Memory access size (0 without a memory annotation).
    mem_size: u8,
    /// [`HAS_MEM`], [`HAS_BRANCH`] and [`TAKEN`] bits.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<TraceRecord>() == 16);

impl TraceRecord {
    /// Encodes `inst` losslessly, except for its sequence number.
    ///
    /// # Panics
    ///
    /// Panics if the PC, address or branch target does not fit in 32 bits,
    /// or if `inst` carries both a memory and a branch annotation.
    fn encode(inst: &DynInst) -> Self {
        let narrow = |value: u64, what: &str| {
            u32::try_from(value).unwrap_or_else(|_| {
                panic!(
                    "instruction {}: {what} {value:#x} does not fit a trace record",
                    inst.seq
                )
            })
        };
        let reg = |r: Option<Reg>| r.map_or(0, |r| 1 + r.dense_index() as u8);
        let (payload, mem_size, flags) = match (inst.mem, inst.branch) {
            (None, None) => (0, 0, 0),
            (Some(m), None) => (narrow(m.addr, "address"), m.size, HAS_MEM),
            (None, Some(b)) => (
                narrow(b.target, "branch target"),
                0,
                HAS_BRANCH | if b.taken { TAKEN } else { 0 },
            ),
            (Some(_), Some(_)) => panic!(
                "instruction {}: memory and branch annotations are exclusive",
                inst.seq
            ),
        };
        TraceRecord {
            pc: narrow(inst.pc, "pc"),
            payload,
            op: inst.op as u8,
            dst: reg(inst.dst),
            srcs: inst.srcs.map(reg),
            mem_size,
            flags,
        }
    }

    /// The instruction this record encodes, numbered `seq`.
    #[inline]
    fn decode(&self, seq: SeqNum) -> DynInst {
        let payload = u64::from(self.payload);
        DynInst {
            seq,
            pc: u64::from(self.pc),
            op: OpClass::ALL[self.op as usize],
            dst: REGS[self.dst as usize],
            srcs: self.srcs.map(|code| REGS[code as usize]),
            mem: (self.flags & HAS_MEM != 0).then_some(MemInfo::new(payload, self.mem_size)),
            branch: (self.flags & HAS_BRANCH != 0)
                .then_some(BranchInfo::new(self.flags & TAKEN != 0, payload)),
        }
    }
}

/// An immutable, fully materialized instruction stream for one
/// `(spec, seed, total_instructions)` triple, shared between runs via
/// `Arc`.
#[derive(Debug, Clone)]
pub struct SharedTrace {
    records: Vec<TraceRecord>,
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
    /// Also panics if an instruction does not fit a record, which the
    /// spec caps rule out for every valid spec.
    pub fn materialize(spec: &WorkloadSpec, seed: u64, total_instructions: u64) -> Self {
        let mut generator = WorkloadGenerator::new(spec, seed, total_instructions);
        let mut records = Vec::with_capacity(total_instructions as usize);
        while let Some(inst) = generator.next_inst() {
            assert_eq!(
                inst.seq,
                records.len() as SeqNum,
                "generator for {:?} numbered out of order",
                spec.name
            );
            records.push(TraceRecord::encode(&inst));
        }
        assert_eq!(
            records.len() as u64,
            total_instructions,
            "generator for {:?} stopped early",
            spec.name
        );
        SharedTrace {
            records,
            warm_regions: WorkloadGenerator::warm_regions(spec),
            seed,
        }
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the trace is empty (never true for a materialized trace;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The seed the trace was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Approximate resident size of the trace backing store in bytes (the
    /// instruction records), used for plan-level peak-memory accounting.
    pub fn bytes(&self) -> u64 {
        (self.records.capacity() * std::mem::size_of::<TraceRecord>()) as u64
    }

    /// Memory regions `(base, length)` to warm before a run, identical to
    /// [`WorkloadGenerator::warm_regions`] for the originating spec.
    pub fn warm_regions(&self) -> &[(u64, u64)] {
        &self.warm_regions
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
        let inst = self.trace.records.get(self.pos)?.decode(self.pos as SeqNum);
        self.pos += 1;
        Some(inst)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.trace.records.len() - self.pos) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{BRANCH_FORWARD_BYTES, CODE_BASE, DATA_BASE};
    use crate::spec::{MAX_FOOTPRINT_BYTES, MAX_STATIC_BRANCHES};
    use crate::suite::Benchmark;

    /// Drains `cursor` against a live generator for the same stream,
    /// comparing every instruction and every `remaining_hint`.
    fn assert_replays_live(spec: &WorkloadSpec, seed: u64, insts: u64) {
        let trace = Arc::new(SharedTrace::materialize(spec, seed, insts));
        let mut cursor = trace.cursor();
        let mut live = WorkloadGenerator::new(spec, seed, insts);
        loop {
            assert_eq!(cursor.remaining_hint(), live.remaining_hint());
            let (a, b) = (cursor.next_inst(), live.next_inst());
            assert_eq!(a, b, "{} diverged", spec.name);
            if a.is_none() {
                break;
            }
        }
    }

    fn round_trip(inst: DynInst) {
        assert_eq!(TraceRecord::encode(&inst).decode(inst.seq), inst);
    }

    #[test]
    fn replay_matches_live_generation_exactly() {
        for bench in Benchmark::ALL {
            assert_replays_live(&bench.spec(), 42, 20_000);
        }
    }

    #[test]
    fn records_round_trip_every_field() {
        let max = u32::MAX as u64;
        let mut insts = Vec::new();
        for (seq, op) in OpClass::ALL.into_iter().enumerate() {
            let mut inst = DynInst::new(seq as SeqNum, CODE_BASE + 4 * seq as u64, op);
            if op.is_mem() {
                inst.mem = Some(MemInfo::new(DATA_BASE + MAX_FOOTPRINT_BYTES - 8, 8));
            }
            if op.is_branch() {
                inst.branch = Some(BranchInfo::new(seq % 2 == 0, max));
            }
            insts.push(inst);
        }
        // Both register classes, the zero registers, and empty slots before
        // and between used ones.
        insts.push(
            DynInst::new(100, 0, OpClass::FpMult)
                .with_dst(Reg::fp(0))
                .with_srcs(&[Reg::fp(30), Reg::int(0), Reg::fp(1)]),
        );
        let mut zero = DynInst::new(101, max, OpClass::IntAlu).with_dst(Reg::int(31));
        zero.srcs = [None, Some(Reg::fp(31)), None];
        insts.push(zero);
        let mut sparse = DynInst::new(102, 4, OpClass::Store).with_mem(MemInfo::new(0, 1));
        sparse.srcs = [None, None, Some(Reg::int(31))];
        insts.push(sparse);
        // The largest address and branch PC/target the spec caps allow.
        insts.push(DynInst::load(
            u64::MAX,
            max,
            Reg::fp(31),
            &[Reg::int(30)],
            MemInfo::new(max, 255),
        ));
        let last_site = CODE_BASE + 4 * (MAX_STATIC_BRANCHES as u64 - 1);
        insts.push(DynInst::branch(
            103,
            last_site,
            &[Reg::int(5)],
            true,
            last_site + BRANCH_FORWARD_BYTES,
        ));
        insts.push(DynInst::branch(104, last_site, &[], false, 0));
        for inst in insts {
            round_trip(inst);
        }
        for d in 0..Reg::DENSE_COUNT {
            let r = Reg::from_dense_index(d);
            round_trip(DynInst::new(7, 0, OpClass::IntAlu).with_dst(r));
            let mut inst = DynInst::new(7, 0, OpClass::IntAlu);
            inst.srcs = [Some(r), Some(r), Some(r)];
            round_trip(inst);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a trace record")]
    fn an_address_past_32_bits_panics() {
        let inst = DynInst::load(0, 0, Reg::int(1), &[], MemInfo::new(1 << 32, 8));
        let _ = TraceRecord::encode(&inst);
    }

    #[test]
    #[should_panic(expected = "exclusive")]
    fn memory_and_branch_annotations_together_panic() {
        let inst = DynInst::branch(0, 0, &[], true, 64).with_mem(MemInfo::new(0, 8));
        let _ = TraceRecord::encode(&inst);
    }

    #[test]
    fn traces_at_the_spec_caps_replay_exactly() {
        let mut spec = Benchmark::Mcf.spec();
        for phase in &mut spec.phases {
            phase.memory.footprint_bytes = MAX_FOOTPRINT_BYTES;
            phase.memory.hot_set_bytes = MAX_FOOTPRINT_BYTES;
            phase.branches.static_branches = MAX_STATIC_BRANCHES;
        }
        spec.validate().unwrap();
        assert_replays_live(&spec, 3, 20_000);
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
        assert_eq!(trace.bytes(), 64 * 16);
    }

    /// Every instruction a fresh cursor over `trace` yields.
    fn replay(trace: &Arc<SharedTrace>) -> Vec<DynInst> {
        let mut cursor = trace.cursor();
        std::iter::from_fn(|| cursor.next_inst()).collect()
    }

    #[test]
    fn same_stream_holds_exactly_when_traces_replay_identically() {
        let benches: Vec<Benchmark> = Benchmark::ALL
            .into_iter()
            .chain([Benchmark::EpicDecode])
            .collect();
        let specs: Vec<WorkloadSpec> = benches.iter().map(|b| b.spec()).collect();
        let traces: Vec<Arc<SharedTrace>> = specs
            .iter()
            .map(|spec| Arc::new(SharedTrace::materialize(spec, 42, 5_000)))
            .collect();
        let streams: Vec<Vec<DynInst>> = traces.iter().map(replay).collect();
        let mut twin_pairs = 0;
        for i in 0..benches.len() {
            for j in i + 1..benches.len() {
                let same = streams[i] == streams[j]
                    && traces[i].warm_regions() == traces[j].warm_regions();
                assert_eq!(
                    specs[i].same_stream(&specs[j]),
                    same,
                    "{} vs {}",
                    benches[i],
                    benches[j]
                );
                twin_pairs += usize::from(same);
            }
        }
        // Bisort/Perimeter/Treeadd/Tsp (6 pairs), Em3d/Health/Mst (3),
        // Bzip2/Gzip (1), Parser/Vortex/Vpr (3) and Epic/EpicDecode (1).
        assert_eq!(twin_pairs, 14);
    }

    #[test]
    fn identification_fields_do_not_change_the_trace() {
        let spec = Benchmark::Gzip.spec();
        let renamed = WorkloadSpec {
            name: "renamed".into(),
            suite: "elsewhere".into(),
            paper_window_minstr: spec.paper_window_minstr * 3.0,
            ..spec.clone()
        };
        assert!(spec.same_stream(&renamed));
        let a = Arc::new(SharedTrace::materialize(&spec, 42, 5_000));
        let b = Arc::new(SharedTrace::materialize(&renamed, 42, 5_000));
        assert_eq!(replay(&a), replay(&b));
        assert_eq!(a.warm_regions(), b.warm_regions());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics_like_the_generator() {
        let _ = SharedTrace::materialize(&Benchmark::Gzip.spec(), 1, 0);
    }
}
