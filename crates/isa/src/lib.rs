//! Instruction-set descriptions for PMEvo experiments.
//!
//! The PMEvo paper (§4.1, §5.1.2) drives its experiments from a set of
//! *instruction forms*: mnemonics with typed operand placeholders, derived
//! from the instructions compilers emit for SPEC CPU 2017. This crate
//! provides
//!
//! * the operand/form vocabulary ([`OperandKind`], [`InstructionForm`],
//!   [`InstructionSet`]),
//! * the dependency-avoiding register allocator and loop builder of paper
//!   §4.2 ([`regalloc`], [`loopgen`]),
//! * and synthetic stand-ins for the paper's x86-64 (310 forms) and
//!   ARMv8-A (390 forms) instruction sets ([`synth`]), since the physical
//!   test machines are replaced by a simulator in this reproduction.
//!
//! Instruction forms are grouped by [`OpClass`]: the semantic execution
//! class (integer ALU, multiply, load, ...) that the machine model uses to
//! assign ground-truth µop decompositions and latencies.

pub mod form;
pub mod loopgen;
pub mod operand;
pub mod regalloc;
pub mod synth;

pub use form::{InstructionForm, InstructionSet, OpClass};
pub use loopgen::{Kernel, KernelInst, LoopBuilder};
pub use operand::{Access, MemRef, OperandKind, Reg, RegClass, Width};
pub use regalloc::RegisterAllocator;
