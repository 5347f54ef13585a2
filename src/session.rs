//! The inference-session API: one typed front door to the whole
//! workspace.
//!
//! A [`Session`] bundles the three layers of an inference run —
//! *where measurements come from* ([`pmevo_core::MeasurementBackend`]),
//! *how a mapping is inferred* ([`pmevo_core::InferenceAlgorithm`]) and
//! *what to report* ([`SessionReport`]) — behind a builder:
//!
//! ```
//! use pmevo::machine::platforms;
//! use pmevo::Session;
//!
//! # fn main() -> Result<(), pmevo::SessionError> {
//! let platform = platforms::a72();
//! let report = Session::builder()
//!     .universe(4, platform.num_ports()) // first 4 forms: doctest-sized
//!     .platform(platform)
//!     .seed(7)
//!     .population(30)
//!     .max_generations(2)
//!     .accuracy_benchmarks(16)
//!     .build()?
//!     .run();
//! assert_eq!(report.seed, 7);
//! assert!(report.measurements_performed > 0);
//! let roundtrip = pmevo::SessionReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(roundtrip, report);
//! # Ok(())
//! # }
//! ```
//!
//! [`Service::run_many`] executes many independent sessions over a
//! shared worker pool with per-job seeds; everything in the reports
//! except wall-clock timings is bit-identical for every worker-thread
//! count (see [`SessionReport::without_timings`]).

use pmevo_core::checkpoint::SessionCheckpoint;
use pmevo_core::json::{self, Value};
use pmevo_core::{
    pool, CachingBackend, Experiment, InferenceAlgorithm, InstId, MeasurementBackend,
    MeasurementBudget, RoundStats, SelectionPolicy, ThreeLevelMapping,
};
use pmevo_evo::{CheckpointConfig, PmEvoAlgorithm};
use pmevo_machine::{MeasureConfig, Platform, SimBackend};
use pmevo_stats::AccuracySummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// A boxed, thread-transferable measurement backend.
pub type BoxedBackend = Box<dyn MeasurementBackend + Send>;
/// A boxed, thread-transferable inference algorithm.
pub type BoxedAlgorithm = Box<dyn InferenceAlgorithm + Send>;

/// Why a [`SessionBuilder`] could not produce a [`Session`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// Neither a platform nor an explicit instruction universe was
    /// configured, so the session does not know what to infer over.
    MissingUniverse,
    /// Neither a platform nor an explicit backend was configured, so
    /// the session has nothing to measure with.
    MissingBackend,
    /// The configured universe is degenerate (no instructions or no
    /// ports).
    EmptyUniverse,
    /// [`SessionBuilder::resume_from`] without
    /// [`SessionBuilder::checkpoint`]: the continued run needs a path to
    /// keep checkpointing to.
    ResumeWithoutCheckpoint,
    /// The resume snapshot's header disagrees with the session
    /// configuration (the message names the mismatched field).
    CheckpointMismatch(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingUniverse => {
                write!(f, "session needs a platform or an explicit universe(num_insts, num_ports)")
            }
            SessionError::MissingBackend => {
                write!(f, "session needs a platform or an explicit measurement backend")
            }
            SessionError::EmptyUniverse => {
                write!(f, "session universe must have at least one instruction and one port")
            }
            SessionError::ResumeWithoutCheckpoint => {
                write!(f, "resuming needs .checkpoint(path, every) so the continued run keeps checkpointing")
            }
            SessionError::CheckpointMismatch(what) => {
                write!(f, "checkpoint does not match this session: {what}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Builder for [`Session`] — see the [module documentation](self) for
/// the end-to-end example.
///
/// Defaults: the backend is a cached cycle-level simulator over the
/// configured platform ([`SimBackend`] wrapped in a [`CachingBackend`]),
/// the algorithm is PMEvo ([`PmEvoAlgorithm`]) seeded from
/// [`seed`](Self::seed), and accuracy against the platform's hidden
/// ground truth is evaluated on 128 random size-5 benchmarks.
pub struct SessionBuilder {
    label: Option<String>,
    platform: Option<Platform>,
    universe: Option<(usize, usize)>,
    backend: Option<BoxedBackend>,
    algorithm: Option<BoxedAlgorithm>,
    seed: u64,
    measure_config: MeasureConfig,
    population: Option<usize>,
    max_generations: Option<u32>,
    selection: SelectionPolicy,
    budget: MeasurementBudget,
    accuracy_benchmarks: usize,
    benchmark_size: u32,
    islands: u32,
    checkpoint: Option<(PathBuf, u32)>,
    resume_from: Option<Box<SessionCheckpoint>>,
    halt_after_checkpoints: Option<u32>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            label: None,
            platform: None,
            universe: None,
            backend: None,
            algorithm: None,
            seed: 0xA11CE,
            measure_config: MeasureConfig::default(),
            population: None,
            max_generations: None,
            selection: SelectionPolicy::OneShot,
            budget: MeasurementBudget::UNLIMITED,
            accuracy_benchmarks: 128,
            benchmark_size: 5,
            islands: 1,
            checkpoint: None,
            resume_from: None,
            halt_after_checkpoints: None,
        }
    }
}

impl SessionBuilder {
    /// A display label for the report (defaults to
    /// `"<algorithm>@<platform>"`).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The machine to infer for. Provides the instruction universe, the
    /// default simulator backend and the ground truth for the accuracy
    /// report.
    #[must_use]
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Overrides the instruction universe (`0..num_insts` over
    /// `num_ports` ports) — required when running without a platform,
    /// useful with a platform to infer over an ISA prefix.
    #[must_use]
    pub fn universe(mut self, num_insts: usize, num_ports: usize) -> Self {
        self.universe = Some((num_insts, num_ports));
        self
    }

    /// The measurement backend. Defaults to a [`SimBackend`] over the
    /// configured platform. Either way the session wraps it in a
    /// [`CachingBackend`], so a repeated experiment is measured once.
    #[must_use]
    pub fn backend(mut self, backend: impl MeasurementBackend + Send + 'static) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// The inference algorithm. Defaults to [`PmEvoAlgorithm`] seeded
    /// from [`seed`](Self::seed).
    #[must_use]
    pub fn algorithm(mut self, algorithm: impl InferenceAlgorithm + Send + 'static) -> Self {
        self.algorithm = Some(Box::new(algorithm));
        self
    }

    /// The session seed: it seeds the default algorithm and the
    /// accuracy benchmark sampler. Two sessions with equal
    /// configuration and seed produce identical results.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Measurement-harness configuration for the default simulator
    /// backend (ignored when an explicit backend is set).
    #[must_use]
    pub fn measure_config(mut self, config: MeasureConfig) -> Self {
        self.measure_config = config;
        self
    }

    /// Population-size shortcut for the default PMEvo algorithm
    /// (ignored when an explicit algorithm is set).
    #[must_use]
    pub fn population(mut self, population: usize) -> Self {
        self.population = Some(population);
        self
    }

    /// Generation-limit shortcut for the default PMEvo algorithm
    /// (ignored when an explicit algorithm is set).
    #[must_use]
    pub fn max_generations(mut self, generations: u32) -> Self {
        self.max_generations = Some(generations);
        self
    }

    /// The experiment-selection policy (default:
    /// [`SelectionPolicy::OneShot`], the paper's up-front corpus). A
    /// round-based policy makes the default PMEvo algorithm interleave
    /// measure→evolve rounds under [`budget`](Self::budget); like the
    /// other algorithm shortcuts it is ignored when an explicit
    /// algorithm is set, but always recorded in the report.
    #[must_use]
    pub fn selection(mut self, selection: SelectionPolicy) -> Self {
        self.selection = selection;
        self
    }

    /// The measurement budget for a round-based
    /// [`selection`](Self::selection) policy (default: unlimited).
    /// Ignored when an explicit algorithm is set, but always recorded in
    /// the report.
    #[must_use]
    pub fn budget(mut self, budget: MeasurementBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Number of concurrently evolving subpopulations for the default
    /// PMEvo algorithm (default: 1, the paper's classic loop, bit for
    /// bit). Islands share one worker pool and exchange their best
    /// individuals over a fixed ring on a deterministic schedule, so
    /// results are bit-identical for every worker count. Ignored when an
    /// explicit algorithm is set.
    #[must_use]
    pub fn islands(mut self, count: u32) -> Self {
        self.islands = count.max(1);
        self
    }

    /// Checkpoint the full evolution state to `path` every `every`
    /// generations (plus at every phase boundary). The artifact is
    /// written atomically and a run resumed from it via
    /// [`resume_from`](Self::resume_from) is bit-identical to the
    /// uninterrupted one, up to wall-clock timings. Ignored when an
    /// explicit algorithm is set.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: u32) -> Self {
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// Continue from a checkpoint previously written by
    /// [`checkpoint`](Self::checkpoint) (load it with
    /// [`SessionCheckpoint::load`]). Requires a checkpoint path so the
    /// continued run keeps checkpointing; when
    /// [`population`](Self::population) is unset it is adopted from the
    /// snapshot. [`build`](Self::build) rejects snapshots whose header
    /// (universe, seed, islands, selection, budget) disagrees with the
    /// session configuration.
    #[must_use]
    pub fn resume_from(mut self, snapshot: SessionCheckpoint) -> Self {
        self.resume_from = Some(Box::new(snapshot));
        self
    }

    /// Stop the run right after this many checkpoint writes — a
    /// deterministic stand-in for killing the process, used by the
    /// resume tests and `pmevo-cli infer --halt-after-checkpoints`.
    #[must_use]
    pub fn halt_after_checkpoints(mut self, count: u32) -> Self {
        self.halt_after_checkpoints = Some(count);
        self
    }

    /// Number of held-out benchmarks for the ground-truth accuracy
    /// report (0 disables it; it is also skipped without a platform).
    #[must_use]
    pub fn accuracy_benchmarks(mut self, count: usize) -> Self {
        self.accuracy_benchmarks = count;
        self
    }

    /// Instruction count per accuracy benchmark (paper §5.3 uses 5).
    #[must_use]
    pub fn benchmark_size(mut self, size: u32) -> Self {
        self.benchmark_size = size.max(1);
        self
    }

    /// Validates the configuration and assembles the [`Session`].
    ///
    /// # Errors
    ///
    /// See [`SessionError`].
    pub fn build(self) -> Result<Session, SessionError> {
        let (num_insts, num_ports) = match (self.universe, &self.platform) {
            (Some(u), _) => u,
            (None, Some(p)) => (p.isa().len(), p.num_ports()),
            (None, None) => return Err(SessionError::MissingUniverse),
        };
        if num_insts == 0 || num_ports == 0 {
            return Err(SessionError::EmptyUniverse);
        }
        if let Some(cp) = &self.resume_from {
            if self.checkpoint.is_none() {
                return Err(SessionError::ResumeWithoutCheckpoint);
            }
            let mismatch = |what: String| Err(SessionError::CheckpointMismatch(what));
            if (cp.num_insts, cp.num_ports) != (num_insts, num_ports) {
                return mismatch(format!(
                    "checkpointed universe is {}x{}, the session's is {num_insts}x{num_ports}",
                    cp.num_insts, cp.num_ports
                ));
            }
            if cp.seed != self.seed {
                return mismatch(format!(
                    "checkpointed seed is {}, the session's is {}",
                    cp.seed, self.seed
                ));
            }
            if cp.islands != self.islands {
                return mismatch(format!(
                    "checkpointed island count is {}, the session's is {}",
                    cp.islands, self.islands
                ));
            }
            if self.population.is_some_and(|p| cp.population_size != p as u64) {
                return mismatch(format!(
                    "checkpointed population size is {}, the session's is {}",
                    cp.population_size,
                    self.population.unwrap_or(0)
                ));
            }
            if cp.selection != self.selection {
                return mismatch("the selection policies differ".into());
            }
            if cp.budget != self.budget {
                return mismatch("the measurement budgets differ".into());
            }
        }
        let backend: BoxedBackend = match (self.backend, &self.platform) {
            (Some(b), _) => b,
            (None, Some(p)) => Box::new(SimBackend::new(p.clone(), self.measure_config)),
            (None, None) => return Err(SessionError::MissingBackend),
        };
        let backend: BoxedBackend = Box::new(CachingBackend::new(backend));
        let algorithm: BoxedAlgorithm = match self.algorithm {
            Some(a) => a,
            None => {
                let mut pmevo =
                    PmEvoAlgorithm::with_selection(self.seed, self.selection, self.budget);
                if let Some(p) = self.population {
                    pmevo.config.evo.population_size = p;
                } else if let Some(cp) = &self.resume_from {
                    // The artifact pins the population size of a resumed
                    // run when the session does not.
                    pmevo.config.evo.population_size = cp.population_size as usize;
                }
                if let Some(g) = self.max_generations {
                    pmevo.config.evo.max_generations = g;
                }
                pmevo.config.islands.count = self.islands;
                if let Some((path, every)) = self.checkpoint {
                    pmevo.config.checkpoint = Some(CheckpointConfig {
                        path,
                        every,
                        resume_from: self.resume_from,
                        halt_after: self.halt_after_checkpoints,
                    });
                }
                Box::new(pmevo)
            }
        };
        let label = self.label.unwrap_or_else(|| {
            let target = self
                .platform
                .as_ref()
                .map(|p| p.name().to_owned())
                .unwrap_or_else(|| format!("{num_insts}x{num_ports}"));
            format!("{}@{}", algorithm.name(), target)
        });
        Ok(Session {
            label,
            platform: self.platform,
            num_insts,
            num_ports,
            backend,
            algorithm,
            seed: self.seed,
            selection: self.selection,
            budget: self.budget,
            accuracy_benchmarks: self.accuracy_benchmarks,
            benchmark_size: self.benchmark_size,
        })
    }
}

/// One configured inference run: universe + backend + algorithm.
/// Produced by [`Session::builder`], consumed by [`Session::run`].
pub struct Session {
    label: String,
    platform: Option<Platform>,
    num_insts: usize,
    num_ports: usize,
    backend: BoxedBackend,
    algorithm: BoxedAlgorithm,
    seed: u64,
    selection: SelectionPolicy,
    budget: MeasurementBudget,
    accuracy_benchmarks: usize,
    benchmark_size: u32,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("label", &self.label)
            .field("num_insts", &self.num_insts)
            .field("num_ports", &self.num_ports)
            .field("backend", &self.backend.name())
            .field("algorithm", &self.algorithm.name())
            .field("seed", &self.seed)
            .finish()
    }
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The session seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Caps the algorithm's internal worker threads (used by
    /// [`Service::run_many`] so concurrent sessions do not oversubscribe
    /// the machine). Results are unaffected — inference is
    /// thread-count-independent by contract.
    pub fn set_worker_threads(&mut self, threads: usize) {
        self.algorithm.set_worker_threads(threads);
    }

    /// Runs inference and assembles the report.
    ///
    /// # Panics
    ///
    /// Panics if the backend misbehaves (wrong batch sizes, non-positive
    /// measurements) or cannot measure the requested experiments.
    pub fn run(mut self) -> SessionReport {
        let inferred =
            self.algorithm
                .infer(self.num_insts, self.num_ports, &mut self.backend);
        let mut accuracy = None;
        let mut accuracy_trajectory = Vec::new();
        if let Some(platform) = self.platform.as_ref() {
            if self.accuracy_benchmarks > 0 {
                // Held-out accuracy against the hidden ground truth, on
                // seed-derived random multisets (paper §5.3 style). Pure
                // model evaluation: deterministic and measurement-free.
                let gt = platform.ground_truth();
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0xACC0_57A7);
                let mut benchmarks = Vec::with_capacity(self.accuracy_benchmarks);
                let mut reference = Vec::with_capacity(self.accuracy_benchmarks);
                for _ in 0..self.accuracy_benchmarks {
                    let counts: Vec<(InstId, u32)> = (0..self.benchmark_size)
                        .map(|_| (InstId(rng.gen_range(0..self.num_insts as u32)), 1))
                        .collect();
                    let e = Experiment::from_counts(&counts);
                    reference.push(gt.throughput(&e));
                    benchmarks.push(e);
                }
                let summarize = |mapping: &ThreeLevelMapping| {
                    let predicted: Vec<f64> =
                        benchmarks.iter().map(|e| mapping.throughput(e)).collect();
                    AccuracySummary::compute(&predicted, &reference)
                };
                let summary = summarize(&inferred.mapping);
                accuracy = Some(AccuracyReport {
                    mape: summary.mape,
                    pearson: summary.pearson,
                    spearman: summary.spearman,
                    num_benchmarks: self.accuracy_benchmarks,
                });
                // The budget-vs-quality trajectory: held-out MAPE of the
                // best mapping after each measurement round, on the same
                // benchmark set.
                accuracy_trajectory = inferred
                    .round_mappings
                    .iter()
                    .map(|m| summarize(m).mape)
                    .collect();
            }
        }
        SessionReport {
            label: self.label,
            platform: self.platform.as_ref().map(|p| p.name().to_owned()),
            backend: self.backend.name().to_owned(),
            algorithm: inferred.algorithm,
            seed: self.seed,
            selection: self.selection,
            budget: self.budget,
            num_insts: self.num_insts,
            num_ports: self.num_ports,
            num_experiments: inferred.num_experiments,
            measurements_performed: inferred.measurements_performed,
            benchmarking_time: inferred.benchmarking_time,
            inference_time: inferred.inference_time,
            congruent_fraction: inferred.congruent_fraction,
            num_classes: inferred.num_classes,
            training_error: inferred.training_error,
            rounds: inferred.rounds,
            accuracy,
            accuracy_trajectory,
            mapping: inferred.mapping,
        }
    }
}

/// Held-out accuracy of the inferred mapping against the platform's
/// hidden ground-truth model (paper Tables 3/4 metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Mean absolute percentage error, in percent.
    pub mape: f64,
    /// Pearson correlation coefficient.
    pub pearson: f64,
    /// Spearman rank correlation coefficient.
    pub spearman: f64,
    /// Number of random benchmarks evaluated.
    pub num_benchmarks: usize,
}

/// The serializable outcome of one [`Session::run`]: the inferred
/// mapping plus Table-2-style bookkeeping and the held-out accuracy.
///
/// Every field is a deterministic function of the session configuration
/// and seed **except the wall-clock timings**, of which there are three
/// kinds: [`benchmarking_time`](Self::benchmarking_time),
/// [`inference_time`](Self::inference_time), and the per-round
/// [`RoundStats::measurement_time`] entries inside
/// [`rounds`](Self::rounds). [`Self::without_timings`] zeroes all three
/// for bit-exact comparisons (enforced by a regression test in
/// `tests/session_api.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The session's display label.
    pub label: String,
    /// Platform name, when the session had one.
    pub platform: Option<String>,
    /// Backend name (after decorators, e.g. `"cached(sim(SKL))"`).
    pub backend: String,
    /// Algorithm name.
    pub algorithm: String,
    /// The session seed.
    pub seed: u64,
    /// The configured experiment-selection policy.
    pub selection: SelectionPolicy,
    /// The configured measurement budget.
    pub budget: MeasurementBudget,
    /// Size of the instruction universe inferred over.
    pub num_insts: usize,
    /// Number of execution ports inferred over.
    pub num_ports: usize,
    /// Number of distinct training experiments.
    pub num_experiments: usize,
    /// Real measurements performed (deduplicated experiments count
    /// once).
    pub measurements_performed: u64,
    /// Wall-clock time the backend spent measuring.
    pub benchmarking_time: Duration,
    /// Wall-clock time spent inferring.
    pub inference_time: Duration,
    /// Fraction of instructions merged away by congruence filtering.
    pub congruent_fraction: f64,
    /// Number of congruence classes seen by the optimizer.
    pub num_classes: usize,
    /// Training `D_avg` of the inferred mapping, when reported.
    pub training_error: Option<f64>,
    /// Per-round measurement accounting (round 0 is the seed corpus; a
    /// single round for one-shot algorithms that report it).
    pub rounds: Vec<RoundStats>,
    /// Held-out accuracy against the ground truth, when a platform was
    /// configured.
    pub accuracy: Option<AccuracyReport>,
    /// Held-out MAPE (same benchmark set as
    /// [`accuracy`](Self::accuracy)) of the best mapping after each
    /// round, parallel to [`rounds`](Self::rounds) — the
    /// budget-vs-quality trajectory. Empty without a platform or
    /// accuracy benchmarks.
    pub accuracy_trajectory: Vec<f64>,
    /// The inferred mapping itself.
    pub mapping: ThreeLevelMapping,
}

/// Failure to read a [`SessionReport`] from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportJsonError {
    /// The input was not valid JSON.
    Parse(json::ParseError),
    /// The JSON was valid but not a session report of the expected
    /// shape.
    Shape(String),
}

impl fmt::Display for ReportJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportJsonError::Parse(e) => write!(f, "{e}"),
            ReportJsonError::Shape(msg) => write!(f, "invalid session report JSON: {msg}"),
        }
    }
}

impl std::error::Error for ReportJsonError {}

fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl SessionReport {
    /// A copy with all wall-clock timings zeroed (the two totals and
    /// every round's measurement time) — every remaining field is
    /// bit-identical across runs with the same configuration and seed,
    /// regardless of worker-thread counts.
    #[must_use]
    pub fn without_timings(&self) -> SessionReport {
        SessionReport {
            benchmarking_time: Duration::ZERO,
            inference_time: Duration::ZERO,
            rounds: self.rounds.iter().map(|r| r.without_timing()).collect(),
            ..self.clone()
        }
    }

    /// The report as a [`json::Value`] tree (durations in integer
    /// nanoseconds, so serialization is lossless).
    pub fn to_json_value(&self) -> Value {
        let opt_num = |v: Option<f64>| v.map(Value::Num).unwrap_or(Value::Null);
        let accuracy = match &self.accuracy {
            None => Value::Null,
            Some(a) => Value::Obj(vec![
                ("mape".into(), Value::Num(a.mape)),
                ("pearson".into(), Value::Num(a.pearson)),
                ("spearman".into(), Value::Num(a.spearman)),
                ("num_benchmarks".into(), Value::UInt(a.num_benchmarks as u64)),
            ]),
        };
        Value::Obj(vec![
            ("label".into(), Value::Str(self.label.clone())),
            (
                "platform".into(),
                self.platform
                    .clone()
                    .map(Value::Str)
                    .unwrap_or(Value::Null),
            ),
            ("backend".into(), Value::Str(self.backend.clone())),
            ("algorithm".into(), Value::Str(self.algorithm.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("selection".into(), self.selection.to_json_value()),
            ("budget".into(), self.budget.to_json_value()),
            ("num_insts".into(), Value::UInt(self.num_insts as u64)),
            ("num_ports".into(), Value::UInt(self.num_ports as u64)),
            ("num_experiments".into(), Value::UInt(self.num_experiments as u64)),
            (
                "measurements_performed".into(),
                Value::UInt(self.measurements_performed),
            ),
            (
                "benchmarking_time_ns".into(),
                Value::UInt(duration_to_ns(self.benchmarking_time)),
            ),
            (
                "inference_time_ns".into(),
                Value::UInt(duration_to_ns(self.inference_time)),
            ),
            ("congruent_fraction".into(), Value::Num(self.congruent_fraction)),
            ("num_classes".into(), Value::UInt(self.num_classes as u64)),
            ("training_error".into(), opt_num(self.training_error)),
            (
                "rounds".into(),
                Value::Arr(self.rounds.iter().map(RoundStats::to_json_value).collect()),
            ),
            ("accuracy".into(), accuracy),
            (
                "accuracy_trajectory".into(),
                Value::Arr(
                    self.accuracy_trajectory
                        .iter()
                        .map(|&m| Value::Num(m))
                        .collect(),
                ),
            ),
            ("mapping".into(), self.mapping.to_json_value()),
        ])
    }

    /// Serializes the report as compact JSON.
    pub fn to_json(&self) -> String {
        json::write_compact(&self.to_json_value())
    }

    /// Serializes the report as 2-space-indented JSON.
    pub fn to_json_pretty(&self) -> String {
        json::write_pretty(&self.to_json_value())
    }

    /// Parses a report produced by [`Self::to_json`] /
    /// [`Self::to_json_pretty`]; the round trip is bit-identical for
    /// finite float fields.
    pub fn from_json(input: &str) -> Result<Self, ReportJsonError> {
        let doc = json::parse(input).map_err(ReportJsonError::Parse)?;
        Self::from_json_value(&doc)
    }

    /// Reads a report from an already-parsed [`json::Value`] tree.
    pub fn from_json_value(doc: &Value) -> Result<Self, ReportJsonError> {
        let shape = |what: &str| ReportJsonError::Shape(what.to_owned());
        let str_field = |name: &str| -> Result<String, ReportJsonError> {
            match doc.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(shape(&format!("missing string field `{name}`"))),
            }
        };
        let uint_field = |name: &str| -> Result<u64, ReportJsonError> {
            doc.get(name)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| shape(&format!("missing integer field `{name}`")))
        };
        let num_field = |v: Option<&Value>, name: &str| -> Result<f64, ReportJsonError> {
            match v {
                Some(&Value::Num(f)) => Ok(f),
                Some(&Value::UInt(n)) => Ok(n as f64),
                _ => Err(shape(&format!("missing number field `{name}`"))),
            }
        };
        let platform = match doc.get("platform") {
            Some(Value::Str(s)) => Some(s.clone()),
            Some(Value::Null) | None => None,
            _ => return Err(shape("field `platform` must be a string or null")),
        };
        let training_error = match doc.get("training_error") {
            Some(&Value::Num(f)) => Some(f),
            Some(&Value::UInt(n)) => Some(n as f64),
            Some(Value::Null) | None => None,
            _ => return Err(shape("field `training_error` must be a number or null")),
        };
        let accuracy = match doc.get("accuracy") {
            Some(Value::Null) | None => None,
            Some(a @ Value::Obj(_)) => Some(AccuracyReport {
                mape: num_field(a.get("mape"), "accuracy.mape")?,
                pearson: num_field(a.get("pearson"), "accuracy.pearson")?,
                spearman: num_field(a.get("spearman"), "accuracy.spearman")?,
                num_benchmarks: a
                    .get("num_benchmarks")
                    .and_then(|v| v.as_u64())
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| shape("missing integer field `accuracy.num_benchmarks`"))?,
            }),
            _ => return Err(shape("field `accuracy` must be an object or null")),
        };
        let mapping = doc
            .get("mapping")
            .ok_or_else(|| shape("missing field `mapping`"))
            .and_then(|v| {
                ThreeLevelMapping::from_json_value(v)
                    .map_err(|e| shape(&format!("field `mapping`: {e}")))
            })?;
        let selection = doc
            .get("selection")
            .ok_or_else(|| shape("missing field `selection`"))
            .and_then(|v| {
                SelectionPolicy::from_json_value(v).map_err(|e| shape(&format!("field `selection`: {e}")))
            })?;
        let budget = doc
            .get("budget")
            .ok_or_else(|| shape("missing field `budget`"))
            .and_then(|v| {
                MeasurementBudget::from_json_value(v)
                    .map_err(|e| shape(&format!("field `budget`: {e}")))
            })?;
        let rounds = doc
            .get("rounds")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `rounds`"))?
            .iter()
            .map(|v| {
                RoundStats::from_json_value(v).map_err(|e| shape(&format!("field `rounds`: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let accuracy_trajectory = doc
            .get("accuracy_trajectory")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `accuracy_trajectory`"))?
            .iter()
            .enumerate()
            .map(|(i, v)| num_field(Some(v), &format!("accuracy_trajectory[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let as_usize = |n: u64, name: &str| {
            usize::try_from(n).map_err(|_| shape(&format!("field `{name}` overflows usize")))
        };
        Ok(SessionReport {
            label: str_field("label")?,
            platform,
            backend: str_field("backend")?,
            algorithm: str_field("algorithm")?,
            seed: uint_field("seed")?,
            selection,
            budget,
            num_insts: as_usize(uint_field("num_insts")?, "num_insts")?,
            num_ports: as_usize(uint_field("num_ports")?, "num_ports")?,
            num_experiments: as_usize(uint_field("num_experiments")?, "num_experiments")?,
            measurements_performed: uint_field("measurements_performed")?,
            benchmarking_time: Duration::from_nanos(uint_field("benchmarking_time_ns")?),
            inference_time: Duration::from_nanos(uint_field("inference_time_ns")?),
            congruent_fraction: num_field(doc.get("congruent_fraction"), "congruent_fraction")?,
            num_classes: as_usize(uint_field("num_classes")?, "num_classes")?,
            training_error,
            rounds,
            accuracy,
            accuracy_trajectory,
            mapping,
        })
    }
}

impl SessionReport {
    /// Turns the inferred mapping into a ready-to-serve
    /// [`Predictor`](pmevo_predict::Predictor) — the bridge from the
    /// inference layers to the `pmevo-predict` serving layer.
    ///
    /// The mapping is registered in a fresh
    /// [`MappingStore`](pmevo_predict::MappingStore) under the
    /// platform's name (the report label when no platform is known).
    /// Instruction names come from the platform's ISA when the platform
    /// is a built-in; otherwise sequences address instructions by their
    /// dense ids (`i0`, `i1`, …).
    ///
    /// # Example
    ///
    /// ```
    /// use pmevo::machine::platforms;
    /// use pmevo::Session;
    ///
    /// # fn main() -> Result<(), pmevo::SessionError> {
    /// let platform = platforms::tiny();
    /// let report = Session::builder()
    ///     .platform(platform)
    ///     .seed(3)
    ///     .population(30)
    ///     .max_generations(2)
    ///     .accuracy_benchmarks(0)
    ///     .build()?
    ///     .run();
    /// let service = report.predictor();
    /// let store = service.snapshot();
    /// let id = store.latest("TINY").expect("mapping registered");
    /// let block = store.get(id).parse("add_r64_r64_r64 x2").unwrap();
    /// assert!(service.predict(id, &block) > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn predictor(&self) -> pmevo_predict::Predictor {
        self.predictor_with(pmevo_predict::PredictorConfig::default())
    }

    /// [`predictor`](Self::predictor) with an explicit worker/cache
    /// configuration.
    pub fn predictor_with(&self, config: pmevo_predict::PredictorConfig) -> pmevo_predict::Predictor {
        let name = self.platform.clone().unwrap_or_else(|| self.label.clone());
        let inst_names: Vec<String> = self
            .platform
            .as_deref()
            .and_then(pmevo_machine::platform::by_name)
            .filter(|p| p.isa().len() >= self.mapping.num_insts())
            .map(|p| {
                p.isa()
                    .forms()
                    .iter()
                    .take(self.mapping.num_insts())
                    .map(|f| f.name.clone())
                    .collect()
            })
            .unwrap_or_else(|| (0..self.mapping.num_insts()).map(|i| format!("i{i}")).collect());
        let mut store = pmevo_predict::MappingStore::new();
        store.insert(name, inst_names, self.mapping.clone());
        pmevo_predict::Predictor::new(store, config)
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "session {} ({} on {}, seed {})",
            self.label,
            self.algorithm,
            self.platform.as_deref().unwrap_or("custom universe"),
            self.seed
        )?;
        writeln!(
            f,
            "  universe      {} forms x {} ports, {} experiments, {} measurements",
            self.num_insts, self.num_ports, self.num_experiments, self.measurements_performed
        )?;
        writeln!(
            f,
            "  time          benchmarking {:.1?}, inference {:.1?}",
            self.benchmarking_time, self.inference_time
        )?;
        if self.selection.is_adaptive() {
            writeln!(
                f,
                "  selection     {} (budget {}), {} rounds",
                self.selection,
                self.budget,
                self.rounds.len()
            )?;
        }
        writeln!(
            f,
            "  congruence    {:.0}% merged, {} classes",
            100.0 * self.congruent_fraction,
            self.num_classes
        )?;
        if let Some(err) = self.training_error {
            writeln!(f, "  training      D_avg = {err:.4}")?;
        }
        if let Some(a) = &self.accuracy {
            writeln!(
                f,
                "  accuracy      MAPE {:.1}%, PCC {:.2}, SCC {:.2} ({} benchmarks)",
                a.mape, a.pearson, a.spearman, a.num_benchmarks
            )?;
        }
        write!(f, "  mapping       {} distinct µops", self.mapping.num_distinct_uops())
    }
}

/// Executes many independent [`Session`]s concurrently over one shared
/// pool of worker threads.
///
/// Each worker runs whole sessions, claimed in job order from the
/// workspace's worker pool ([`pmevo_core::pool`]), and the machine's
/// cores are divided between the concurrent workers: each session's
/// internal fitness-evaluation parallelism is capped to
/// `available_parallelism / workers` (via
/// [`Session::set_worker_threads`]), so a single job still uses the
/// whole machine while many concurrent jobs never oversubscribe it.
/// Island-model sessions ([`SessionBuilder::islands`]) need no special
/// treatment: a session's islands evolve over its own share of the pool
/// (every generation's candidates across all islands are evaluated as
/// one batch), so islands and sessions schedule over the same workers.
/// Because inference is thread-count-independent by contract, the
/// reports are bit-identical — up to wall-clock timings, see
/// [`SessionReport::without_timings`] — for every worker count and
/// island schedule.
///
/// # Example
///
/// ```no_run
/// use pmevo::machine::platforms;
/// use pmevo::{Service, Session};
///
/// let jobs: Vec<Session> = (0..4)
///     .map(|seed| {
///         Session::builder()
///             .platform(platforms::a72())
///             .seed(seed)
///             .build()
///             .expect("session configuration is valid")
///     })
///     .collect();
/// let reports = Service::new(2).run_many(jobs);
/// assert_eq!(reports.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Service {
    worker_threads: usize,
}

impl Service {
    /// Creates a service with a pool of `worker_threads` session
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics if `worker_threads` is zero.
    pub fn new(worker_threads: usize) -> Self {
        assert!(worker_threads > 0, "need at least one worker thread");
        Service { worker_threads }
    }

    /// The pool size.
    pub fn worker_threads(&self) -> usize {
        self.worker_threads
    }

    /// Runs every session to completion, returning reports in job
    /// order.
    ///
    /// # Panics
    ///
    /// If a session panics, the panic is re-raised on the caller after
    /// the remaining workers have drained: they finish the sessions they
    /// have claimed and claim no more.
    pub fn run_many(&self, mut jobs: Vec<Session>) -> Vec<SessionReport> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        // Split the machine between the concurrent session workers: each
        // session's internal fitness evaluation gets its share of the
        // cores, so one job on a one-worker service still parallelizes
        // fully while eight concurrent jobs do not oversubscribe.
        // Reports are unaffected either way (thread-count independence).
        let workers = self.worker_threads.min(n);
        let cores = pool::available_workers();
        for job in &mut jobs {
            job.set_worker_threads((cores / workers).max(1));
        }
        // Each session is taken out of its slot by the worker that runs
        // it.
        let slots: Vec<Mutex<Option<Session>>> =
            jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        pool::map(&mut vec![(); workers], n, |(), range| {
            slots[range]
                .iter()
                .map(|slot| {
                    let session = slot.lock().expect("session slot lock").take();
                    session.expect("each session runs once").run()
                })
                .collect()
        })
    }
}
