//! Measurement-loop construction (paper §4.2).
//!
//! An [`Experiment`] (an instruction multiset) is turned into a concrete,
//! register-allocated loop body of roughly 50 instructions: the experiment
//! is unrolled until the body is long enough, instruction instances are
//! interleaved round-robin across forms (harmless under out-of-order
//! execution, but it keeps the fetch stream balanced), and the register
//! allocator instantiates operands so that read-after-write dependencies
//! are pushed maximally far apart.

use crate::form::InstructionSet;
use crate::operand::{MemRef, Reg};
use crate::regalloc::RegisterAllocator;
use pmevo_core::{Experiment, InstId};

/// Default loop-body length; paper §4.2 found 50 instructions appropriate
/// for all evaluated architectures (fits the µop cache, long enough to
/// hide loop overhead).
pub const DEFAULT_BODY_LEN: usize = 50;

/// One concrete, register-allocated instruction instance in a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInst {
    /// The instruction form this instance was instantiated from.
    pub inst: InstId,
    /// Registers read by the instance (including memory base pointers).
    pub reads: Vec<Reg>,
    /// Registers written by the instance.
    pub writes: Vec<Reg>,
    /// Memory reference, if the form has a memory operand.
    pub mem: Option<MemRef>,
}

/// A register-allocated loop body ready for execution on the machine
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    insts: Vec<KernelInst>,
    instances_per_iter: u32,
}

impl Kernel {
    /// The instruction instances of one loop iteration, in program order.
    pub fn insts(&self) -> &[KernelInst] {
        &self.insts
    }

    /// How many copies of the source experiment one loop iteration holds
    /// (the unroll factor), the divisor of the throughput formula in
    /// paper §4.2.
    pub fn instances_per_iter(&self) -> u32 {
        self.instances_per_iter
    }

    /// Number of instructions in one loop iteration.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the kernel body is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Builds measurement kernels from experiments.
///
/// # Example
///
/// ```
/// use pmevo_isa::{synth, LoopBuilder};
/// use pmevo_core::{Experiment, InstId};
///
/// let isa = synth::synthetic_x86();
/// let builder = LoopBuilder::new(&isa);
/// let kernel = builder.build(&Experiment::singleton(InstId(0)));
/// assert_eq!(kernel.len(), 50); // unrolled to the default body length
/// assert_eq!(kernel.instances_per_iter(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct LoopBuilder<'a> {
    isa: &'a InstructionSet,
    target_body_len: usize,
    num_gpr: usize,
    num_vec: usize,
}

impl<'a> LoopBuilder<'a> {
    /// Creates a builder with the default body length (50) and register
    /// file sizes typical of the evaluated ISAs (16 GPRs, 16 vector regs).
    pub fn new(isa: &'a InstructionSet) -> Self {
        LoopBuilder {
            isa,
            target_body_len: DEFAULT_BODY_LEN,
            num_gpr: 16,
            num_vec: 16,
        }
    }

    /// Overrides the target loop-body length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn body_len(mut self, len: usize) -> Self {
        assert!(len > 0, "body length must be positive");
        self.target_body_len = len;
        self
    }

    /// Overrides the register file sizes.
    pub fn register_file(mut self, num_gpr: usize, num_vec: usize) -> Self {
        self.num_gpr = num_gpr;
        self.num_vec = num_vec;
        self
    }

    /// Builds the unrolled, register-allocated kernel for `e`.
    ///
    /// Forms are interleaved round-robin in [`Experiment::counts`] order,
    /// and the builder reads a form only through its
    /// [`InstructionForm::operands`](crate::InstructionForm::operands)
    /// (the register allocator's input): two experiments whose
    /// `(operands, count)` sequences are equal get kernels that differ
    /// only in their forms' ids. `SimBackend`'s measurement memo in
    /// `pmevo-machine` rests on this.
    ///
    /// # Panics
    ///
    /// Panics if `e` is empty or references instructions outside the ISA.
    pub fn build(&self, e: &Experiment) -> Kernel {
        assert!(!e.is_empty(), "cannot build a kernel for an empty experiment");
        let per_copy = e.total_insts() as usize;
        let unroll = self.target_body_len.div_ceil(per_copy).max(1);

        // Round-robin interleave the multiset: repeatedly take one
        // instance of each form that still has remaining count.
        let mut order: Vec<InstId> = Vec::with_capacity(per_copy);
        let mut remaining: Vec<(InstId, u32)> = e.counts().to_vec();
        while order.len() < per_copy {
            for (inst, left) in &mut remaining {
                if *left > 0 {
                    order.push(*inst);
                    *left -= 1;
                }
            }
        }

        let mut ra = RegisterAllocator::new(self.num_gpr, self.num_vec);
        let mut insts = Vec::with_capacity(per_copy * unroll);
        for _ in 0..unroll {
            for &id in &order {
                insts.push(ra.instantiate(id, self.isa.form(id)));
            }
        }
        Kernel {
            insts,
            instances_per_iter: unroll as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use pmevo_core::Experiment;
    use std::collections::HashMap;

    #[test]
    fn unrolls_to_cover_target_length() {
        let isa = synth::synthetic_x86();
        let b = LoopBuilder::new(&isa).body_len(50);
        let e = Experiment::from_counts(&[(InstId(0), 1), (InstId(1), 2)]);
        let k = b.build(&e);
        assert!(k.len() >= 50);
        assert_eq!(k.len() % 3, 0);
        assert_eq!(k.instances_per_iter() as usize, k.len() / 3);
    }

    #[test]
    fn body_preserves_multiset_ratios() {
        let isa = synth::synthetic_x86();
        let b = LoopBuilder::new(&isa);
        let e = Experiment::from_counts(&[(InstId(2), 1), (InstId(5), 3)]);
        let k = b.build(&e);
        let mut counts: HashMap<InstId, u32> = HashMap::new();
        for i in k.insts() {
            *counts.entry(i.inst).or_default() += 1;
        }
        let u = k.instances_per_iter();
        assert_eq!(counts[&InstId(2)], u);
        assert_eq!(counts[&InstId(5)], 3 * u);
    }

    #[test]
    fn interleaving_mixes_forms() {
        let isa = synth::synthetic_x86();
        let b = LoopBuilder::new(&isa).body_len(10);
        let e = Experiment::from_counts(&[(InstId(0), 2), (InstId(1), 2)]);
        let k = b.build(&e);
        // Round-robin: the first two instructions are distinct forms.
        assert_ne!(k.insts()[0].inst, k.insts()[1].inst);
    }

    #[test]
    #[should_panic(expected = "empty experiment")]
    fn empty_experiment_panics() {
        let isa = synth::synthetic_x86();
        LoopBuilder::new(&isa).build(&Experiment::from_counts(&[]));
    }

    #[test]
    fn no_short_range_raw_dependencies_in_default_kernels() {
        // The whole point of §4.2: consecutive instructions never read a
        // register written by the immediately preceding instruction.
        let isa = synth::synthetic_x86();
        let b = LoopBuilder::new(&isa);
        let e = Experiment::from_counts(&[(InstId(0), 1), (InstId(10), 1), (InstId(20), 1)]);
        let k = b.build(&e);
        for w in k.insts().windows(2) {
            for r in &w[1].reads {
                // Base pointers are read-only; a write to them never occurs.
                assert!(
                    !w[0].writes.contains(r),
                    "adjacent RAW dependency through {r}"
                );
            }
        }
    }
}
