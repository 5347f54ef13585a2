//! Core model of the PMEvo framework (Ritter & Hack, PLDI 2020).
//!
//! This crate defines the vocabulary shared by the whole workspace:
//!
//! * [`PortSet`] — a set of execution ports, the identity of a µop
//!   (paper §4.4: "We identify each µop with the set of ports that can
//!   execute it").
//! * [`TwoLevelMapping`] / [`ThreeLevelMapping`] — port mappings in the
//!   two-level (instructions → ports) and three-level (instructions →
//!   µops → ports) models of paper §3.
//! * [`Experiment`] — a multiset of instructions whose steady-state
//!   throughput is measured or predicted (paper Definition 1).
//! * [`bottleneck`] — the bottleneck simulation algorithm (paper §4.5,
//!   Equation 1), an exact `Θ(2^|P|)` solver for the throughput linear
//!   program, plus an LP-based reference implementation used for
//!   cross-checking and for reproducing Figure 8.
//! * [`CompiledExperiments`] / [`ThroughputSolver`] — the
//!   compile-then-evaluate engine behind the evolutionary hot loop:
//!   experiments compiled once into dense flat form, throughputs computed
//!   with reusable scratch state and zero per-evaluation allocations.
//! * [`pool`] — the ordered, chunked worker pool that every parallel
//!   loop of the workspace runs on.
//!
//! # Example
//!
//! Reproduce the paper's running example (Figure 2 / Example 1): four
//! instructions on three ports, throughput of `{2×add, 1×mul, 1×store}`
//! is 1.5 cycles.
//!
//! ```
//! use pmevo_core::{Experiment, InstId, PortSet, TwoLevelMapping};
//!
//! let mul = PortSet::from_ports(&[0]);
//! let arith = PortSet::from_ports(&[0, 1]);
//! let store = PortSet::from_ports(&[2]);
//! let m = TwoLevelMapping::new(3, vec![mul, arith, arith, store]);
//! let e = Experiment::from_counts(&[(InstId(1), 2), (InstId(0), 1), (InstId(3), 1)]);
//! let tp = m.throughput(&e);
//! assert!((tp - 1.5).abs() < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod allocation;
pub mod backend;
pub mod binfmt;
pub mod checkpoint;
mod bottleneck_impl;
mod eval;
mod experiment;
mod factored;
mod infer;
pub mod json;
mod mapping;
pub mod pool;
mod ports;
mod predict;
pub mod render;
pub mod selection;
pub mod suggest;

pub use binfmt::{BinDecodeError, MappingArtifact, BIN_MAGIC, BIN_VERSION};

pub use checkpoint::{
    CheckpointError, CheckpointPhase, EvoCheckpoint, IslandCheckpoint, SessionCheckpoint,
    CHECKPOINT_VERSION,
};

pub use backend::{
    measurements_from_json, measurements_to_json, BackendStats, CachingBackend,
    MeasurementBackend, MeasurementJsonError, ModelBackend, ReplayBackend,
};
pub use eval::{CompiledExperiments, ThroughputSolver};
pub use experiment::{Experiment, MeasuredExperiment};
pub use infer::{InferenceAlgorithm, InferredMapping};
pub use mapping::{MappingJsonError, ThreeLevelMapping, TwoLevelMapping, UopEntry};
pub use ports::{PortId, PortSet, PortSetIter, MAX_PORTS};
pub use predict::{
    parse_control, parse_sequence, ControlVerb, MappingPredictor, SequenceParseError,
    ServeRecord, ThroughputPredictor,
};
pub use selection::{MeasurementBudget, RoundStats, SelectionPolicy};

/// The bottleneck simulation algorithm and its LP reference implementation.
pub mod bottleneck {
    pub use crate::bottleneck_impl::{
        lp_throughput, throughput_fast, throughput_naive, MassVector, MAX_ENUMERABLE_PORTS,
    };
}

use std::error::Error;
use std::fmt;

/// A dense instruction identifier.
///
/// Instructions in the core model carry no semantics beyond their identity;
/// the `pmevo-isa` crate attaches mnemonics, operands and latencies. Ids
/// index into the per-instruction tables of a mapping, so an `InstId` is
/// only meaningful relative to one instruction universe.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
)]
pub struct InstId(pub u32);

impl InstId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Errors produced by core model operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// More ports requested than [`MAX_PORTS`].
    TooManyPorts {
        /// The requested number of ports.
        requested: usize,
    },
    /// An experiment references an instruction the mapping does not cover.
    UnknownInstruction {
        /// The offending instruction.
        inst: InstId,
        /// Number of instructions known to the mapping.
        num_insts: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::TooManyPorts { requested } => {
                write!(
                    f,
                    "{requested} ports requested, at most {MAX_PORTS} supported"
                )
            }
            ModelError::UnknownInstruction { inst, num_insts } => {
                write!(
                    f,
                    "instruction {inst} unknown to mapping with {num_insts} instructions"
                )
            }
        }
    }
}

impl Error for ModelError {}
