//! # mcd-isa
//!
//! Synthetic instruction-set substrate for the Multiple Clock Domain (MCD)
//! dynamic voltage/frequency scaling reproduction (Semeraro et al., MICRO 2002).
//!
//! The original study drove a SimpleScalar/Wattch simulator with Alpha
//! binaries from MediaBench, Olden and SPEC2000.  Those binaries (and the
//! Alpha toolchain) are not available here, so the simulator in this
//! workspace is *stream driven*: workload generators (see the
//! `mcd-workloads` crate) produce a sequence of [`DynInst`] records that
//! carry exactly the information the timing and power models need —
//! operation class, register dependences, memory addresses, and branch
//! outcomes.
//!
//! The crate deliberately models a generic RISC machine in the style of the
//! Alpha 21264 that the paper simulates: 32 integer and 32 floating-point
//! architectural registers, load/store architecture, conditional and
//! unconditional branches.
//!
//! ```
//! use mcd_isa::{DynInst, OpClass, Reg};
//!
//! let add = DynInst::alu(0, 0x1000, Reg::int(1), &[Reg::int(2), Reg::int(3)]);
//! assert_eq!(add.op, OpClass::IntAlu);
//! assert!(add.is_int());
//! assert!(!add.is_mem());
//! ```

pub mod inst;
pub mod op;
pub mod reg;
pub mod stream;

pub use inst::{BranchInfo, DynInst, MemInfo, SeqNum};
pub use op::{ExecClass, OpClass};
pub use reg::{Reg, RegClass, NUM_ARCH_FP_REGS, NUM_ARCH_INT_REGS};
pub use stream::{InstructionStream, SliceStream, StreamStats, Take, VecStream};
