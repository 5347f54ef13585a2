//! Machine substrate: cycle-level out-of-order processor simulation.
//!
//! The PMEvo paper measures throughput on three physical machines (Intel
//! Skylake, AMD Zen+, ARM Cortex-A72; paper Table 1). This reproduction
//! replaces them with parameterized simulators that expose exactly the
//! observable the paper relies on — the steady-state throughput of
//! dependency-free instruction loops — while keeping the *hidden ground
//! truth* (the port mapping) available for validation.
//!
//! Components:
//!
//! * [`Platform`] — a machine description: instruction set, ground-truth
//!   three-level port mapping, per-form latencies and port-blocking
//!   behaviour, and pipeline parameters (fetch width, scheduler window).
//!   [`platforms`] builds the three paper-analogous machines.
//! * [`sim`] — the cycle-level simulator: rename (RAW dependencies only,
//!   false dependencies are renamed away), a greedy oldest-first
//!   scheduler over execution ports, fully-pipelined units with optional
//!   multi-cycle port blocking (divisions).
//! * [`Measurer`] — the measurement harness of paper §4.2: unrolled
//!   50-instruction loop bodies, steady-state cycle counting, a
//!   configurable noise model and median-of-repetitions reporting.
//! * [`SimBackend`] — the harness behind the
//!   [`pmevo_core::MeasurementBackend`] trait: measurement batches
//!   chunked across worker threads, with thread-count-independent
//!   results, simulating each distinct measurement kernel once.

pub mod platform;
pub mod sim;

mod backend;
mod measure;

pub use backend::SimBackend;
pub use measure::{MeasureConfig, Measurer};
pub use platform::{Platform, PlatformInfo};
pub use sim::{simulate_kernel, SimResult};

/// The three paper-analogous machine configurations (paper Table 1),
/// plus the TINY toy machine for smoke tests and CI sweeps.
pub mod platforms {
    pub use crate::platform::{a72, by_name, skl, tiny, zen};
}
