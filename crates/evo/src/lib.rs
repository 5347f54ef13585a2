//! The PMEvo inference engine (paper §4): experiment generation,
//! congruence filtering, evolutionary optimization and local search.
//!
//! The stages mirror Figure 5 of the paper:
//!
//! ```text
//! ISA ──► ExperimentGenerator ──► (measurement, external) ──►
//!     CongruencePartition ──► evolve_islands() + hill climbing ──► mapping
//! ```
//!
//! [`pipeline::run`] wires all stages against a
//! [`pmevo_core::MeasurementBackend`] and reports the bookkeeping of
//! paper Table 2 (benchmarking time, inference time, congruence ratio,
//! distinct-µop count). [`PmEvoAlgorithm`] packages the pipeline as a
//! [`pmevo_core::InferenceAlgorithm`] for the session API.
//! [`evolve_islands`] is the one way to run evolution.
//!
//! Measurement itself is either one-shot (the paper's fixed corpus) or
//! round-based under an explicit budget: the [`selection`] module
//! interleaves measure→evolve rounds, submitting only the experiments
//! the current population disagrees on
//! ([`pmevo_core::SelectionPolicy`], [`pmevo_core::MeasurementBudget`]).
//! A fresh and a resumed run share one path: both continue from a
//! checkpoint-shaped start state (see [`pipeline`]).

#![deny(missing_docs)]

pub mod algorithm;
pub mod congruence;
pub mod evolution;
pub mod expgen;
pub mod fitness;
pub mod islands;
pub mod pipeline;
pub mod selection;

pub use algorithm::PmEvoAlgorithm;
pub use congruence::{throughput_close, CongruencePartition};
pub use evolution::{EvoConfig, EvoResult};
pub use expgen::{CandidateStream, ExperimentGenerator};
pub use fitness::{average_relative_error, scalarize, ErrorCache, FitnessEngine, Objectives};
pub use islands::{
    evolve_islands, island_seed, EvoState, Island, IslandConfig, IslandControl, IslandStart,
    IslandsEvolution,
};
pub use pipeline::{run, CheckpointConfig, PipelineConfig};
pub use selection::AdaptiveTuning;
