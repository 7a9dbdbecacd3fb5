//! Precomputed per-instruction trace annotations.
//!
//! A materialized shared trace is immutable and replayed by every run that
//! leases it, so everything the dispatch path derives *per run* from the
//! raw [`DynInst`] payload — register dependence edges,
//! source-operand counts, the LSQ address-filter bucket mask, branch
//! direction and op-class dispatch flags — can instead be derived *once
//! per trace* at materialization and consumed by every replaying run.
//!
//! [`TraceAnnotations`] is that sidecar, laid out struct-of-arrays so a
//! replaying run touches a handful of dense, append-ordered arrays instead
//! of re-deriving per-run state from the array-of-structs instruction
//! records.
//!
//! # Equivalence contract
//!
//! The annotations are *redundant by construction*: every field is a pure
//! function of the instruction slice they were built from, and consumers
//! must behave bit-identically with or without them.  The dependence edges
//! record the **last in-trace writer** of each source register; at
//! dispatch time (strictly program-ordered) a rename map lookup returns
//! exactly that writer when it is still in flight and nothing otherwise,
//! so edges filtered by slab liveness reproduce the rename-derived
//! producer list verbatim (the simulator debug-asserts this).

use crate::inst::{DynInst, SeqNum};

/// Flag bit: the instruction is a memory operation (load or store).
pub const ANN_MEM: u8 = 1 << 0;
/// Flag bit: the instruction is a store.
pub const ANN_STORE: u8 = 1 << 1;
/// Flag bit: the instruction is a control transfer.
pub const ANN_BRANCH: u8 = 1 << 2;
/// Flag bit: the instruction is a NOP.
pub const ANN_NOP: u8 = 1 << 3;
/// Flag bit: the branch is taken (unset for non-branches).
pub const ANN_TAKEN: u8 = 1 << 4;
/// Flag bit: the instruction writes a destination register.
pub const ANN_HAS_DST: u8 = 1 << 5;

/// The precomputed struct-of-arrays sidecar of one materialized trace.
///
/// Rows are indexed by the instruction's program-order sequence number,
/// which for a materialized trace equals its trace index (the builder
/// asserts this), so a cursor looks annotations up without translation.
#[derive(Debug, Clone, Default)]
pub struct TraceAnnotations {
    /// CSR row offsets: instruction `i`'s dependence edges are
    /// `edges[edge_start[i]..edge_start[i + 1]]`.  Length `n + 1`.
    edge_start: Vec<u32>,
    /// Producer sequence numbers (= trace indexes), in source-operand
    /// order.  Only sources with an earlier in-trace writer contribute an
    /// edge; a consumer filters these by in-flight liveness to reproduce
    /// the rename map's answer.
    edges: Vec<u32>,
    /// Number of (non-zero-register) source operands per instruction.
    src_count: Vec<u8>,
    /// Dispatch flags per instruction (`ANN_*` bits).
    flags: Vec<u8>,
    /// LSQ address-filter bucket mask per instruction
    /// ([`crate::MemInfo::filter_mask64`]); 0 for non-memory operations.
    lsq_mask: Vec<u64>,
}

impl TraceAnnotations {
    /// Builds the sidecar for a materialized trace.
    ///
    /// # Panics
    ///
    /// Panics when instruction sequence numbers are not the dense
    /// 0-based trace indexes (the shared-trace invariant the row indexing
    /// relies on), or when the trace is too long for `u32` edge indexes.
    pub fn build(insts: &[DynInst]) -> Self {
        assert!(
            u32::try_from(insts.len()).is_ok(),
            "trace too long for u32 annotation edges"
        );
        let mut ann = TraceAnnotations {
            edge_start: Vec::with_capacity(insts.len() + 1),
            edges: Vec::new(),
            src_count: Vec::with_capacity(insts.len()),
            flags: Vec::with_capacity(insts.len()),
            lsq_mask: Vec::with_capacity(insts.len()),
        };
        ann.edge_start.push(0);
        // Last in-trace writer of each architectural register, by dense
        // register index; `u32::MAX` = no writer yet.  A flat array keeps
        // the builder allocation-free per instruction and deterministic.
        const NO_WRITER: u32 = u32::MAX;
        let mut last_writer = [NO_WRITER; crate::Reg::DENSE_COUNT];
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(
                inst.seq, i as SeqNum,
                "trace sequence numbers must be dense 0-based trace indexes"
            );
            let mut srcs = 0u8;
            for r in inst.sources() {
                srcs += 1;
                let w = last_writer[r.dense_index()];
                if w != NO_WRITER {
                    ann.edges.push(w);
                }
            }
            ann.edge_start.push(ann.edges.len() as u32);
            ann.src_count.push(srcs);
            let mut flags = 0u8;
            if inst.is_mem() {
                flags |= ANN_MEM;
            }
            if inst.is_store() {
                flags |= ANN_STORE;
            }
            if inst.is_branch() {
                flags |= ANN_BRANCH;
            }
            if inst.op == crate::OpClass::Nop {
                flags |= ANN_NOP;
            }
            if inst.branch.map(|b| b.taken).unwrap_or(false) {
                flags |= ANN_TAKEN;
            }
            if inst.dst.is_some() {
                flags |= ANN_HAS_DST;
            }
            ann.flags.push(flags);
            ann.lsq_mask
                .push(inst.mem.map(|m| m.filter_mask64()).unwrap_or(0));
            if let Some(dst) = inst.dst {
                last_writer[dst.dense_index()] = i as u32;
            }
        }
        ann
    }

    /// Number of annotated instructions.
    pub fn len(&self) -> usize {
        self.src_count.len()
    }

    /// Whether the sidecar is empty.
    pub fn is_empty(&self) -> bool {
        self.src_count.is_empty()
    }

    /// The dependence edges of instruction `seq`: sequence numbers of the
    /// last in-trace writers of its source registers, in source order.
    #[inline]
    pub fn edges(&self, seq: SeqNum) -> &[u32] {
        let i = seq as usize;
        &self.edges[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    /// Number of source operands of instruction `seq`.
    #[inline]
    pub fn src_count(&self, seq: SeqNum) -> u8 {
        self.src_count[seq as usize]
    }

    /// Dispatch flags (`ANN_*` bits) of instruction `seq`.
    #[inline]
    pub fn flags(&self, seq: SeqNum) -> u8 {
        self.flags[seq as usize]
    }

    /// LSQ address-filter bucket mask of instruction `seq` (0 for
    /// non-memory operations).
    #[inline]
    pub fn lsq_mask(&self, seq: SeqNum) -> u64 {
        self.lsq_mask[seq as usize]
    }

    /// Approximate heap footprint of the sidecar in bytes.
    pub fn bytes(&self) -> u64 {
        (self.edge_start.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<u32>()
            + self.src_count.len()
            + self.flags.len()
            + self.lsq_mask.len() * std::mem::size_of::<u64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemInfo;
    use crate::op::OpClass;
    use crate::reg::Reg;

    fn trace() -> Vec<DynInst> {
        vec![
            DynInst::alu(0, 0x1000, Reg::int(1), &[Reg::int(2)]),
            DynInst::load(
                1,
                0x1004,
                Reg::int(2),
                &[Reg::int(1)],
                MemInfo::new(0x8000, 8),
            ),
            DynInst::store(
                2,
                0x1008,
                &[Reg::int(2), Reg::int(1)],
                MemInfo::new(0x8010, 4),
            ),
            DynInst::branch(3, 0x100c, &[Reg::int(2)], true, 0x1000),
            DynInst::new(4, 0x1010, OpClass::Nop),
            DynInst::alu(5, 0x1014, Reg::int(1), &[Reg::int(1), Reg::int(3)]),
        ]
    }

    #[test]
    fn edges_record_last_in_trace_writers_in_source_order() {
        let ann = TraceAnnotations::build(&trace());
        assert_eq!(ann.len(), 6);
        // seq 0 reads r2: no writer yet.
        assert_eq!(ann.edges(0), &[] as &[u32]);
        // seq 1 reads r1, written by 0.
        assert_eq!(ann.edges(1), &[0]);
        // seq 2 reads r2 (written by 1) then r1 (written by 0).
        assert_eq!(ann.edges(2), &[1, 0]);
        // seq 3 reads r2 (written by 1).
        assert_eq!(ann.edges(3), &[1]);
        assert_eq!(ann.edges(4), &[] as &[u32]);
        // seq 5 reads r1 (written by 0; 5's own write is not yet visible)
        // and r3 (never written).
        assert_eq!(ann.edges(5), &[0]);
    }

    #[test]
    fn flags_and_counts_mirror_the_instructions() {
        let ann = TraceAnnotations::build(&trace());
        assert_eq!(ann.flags(0), ANN_HAS_DST);
        assert_eq!(ann.flags(1), ANN_MEM | ANN_HAS_DST);
        assert_eq!(ann.flags(2), ANN_MEM | ANN_STORE);
        assert_eq!(ann.flags(3), ANN_BRANCH | ANN_TAKEN);
        assert_eq!(ann.flags(4), ANN_NOP);
        assert_eq!(ann.src_count(0), 1);
        assert_eq!(ann.src_count(2), 2);
        assert_eq!(ann.src_count(4), 0);
    }

    #[test]
    fn lsq_masks_match_the_mem_annotations() {
        let ann = TraceAnnotations::build(&trace());
        assert_eq!(ann.lsq_mask(0), 0);
        assert_eq!(ann.lsq_mask(1), MemInfo::new(0x8000, 8).filter_mask64());
        assert_eq!(ann.lsq_mask(2), MemInfo::new(0x8010, 4).filter_mask64());
        assert_ne!(ann.lsq_mask(1), 0);
    }

    #[test]
    fn zero_register_sources_create_no_edges() {
        let insts = vec![
            DynInst::alu(0, 0, Reg::int(31), &[Reg::int(2)]),
            DynInst::alu(1, 4, Reg::int(1), &[Reg::int(31)]),
        ];
        let ann = TraceAnnotations::build(&insts);
        // `with_srcs` drops zero-register sources, so seq 1 has none.
        assert_eq!(ann.src_count(1), 0);
        assert_eq!(ann.edges(1), &[] as &[u32]);
    }

    #[test]
    fn bytes_and_len_report_footprint() {
        let ann = TraceAnnotations::build(&trace());
        assert!(!ann.is_empty());
        assert!(ann.bytes() > 0);
        assert_eq!(TraceAnnotations::default().len(), 0);
        assert!(TraceAnnotations::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "dense 0-based")]
    fn non_dense_sequence_numbers_panic() {
        let insts = vec![DynInst::alu(3, 0, Reg::int(1), &[])];
        let _ = TraceAnnotations::build(&insts);
    }
}
