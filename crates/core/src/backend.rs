//! Batch-first measurement backends — the measurement half of the
//! inference-session API.
//!
//! The paper's Figure-5 pipeline treats measurement as an opaque stage:
//! experiments go in, steady-state throughputs come out. This module
//! types that stage as the [`MeasurementBackend`] trait so the inference
//! layers ([`InferenceAlgorithm`](crate::InferenceAlgorithm), the
//! `pmevo` session facade) can run unchanged against a cycle-level
//! simulator, a recorded artifact, or real hardware:
//!
//! * [`ModelBackend`] — "measures" with the analytical bottleneck model
//!   of a known mapping (the noise-free oracle used throughout the test
//!   pyramid).
//! * [`ReplayBackend`] — replays a recorded measurement artifact
//!   (serialized through [`measurements_to_json`] /
//!   [`measurements_from_json`] with the [`crate::json`] codec).
//! * [`CachingBackend`] — a decorator that deduplicates repeated
//!   experiments, forwarding only cache misses to the wrapped backend
//!   and counting how many real measurements were performed.
//!
//! The simulator-backed [`SimBackend`](../../pmevo_machine/struct.SimBackend.html)
//! lives in `pmevo-machine` (this crate does not know about platforms).
//!
//! Every backend keeps [`BackendStats`]: how many measurements were
//! *requested*, how many were actually *performed* by the leaf backend,
//! and the wall-clock time spent performing them. The pipeline derives
//! its Table-2 `benchmarking_time` from the stats delta, so deduped
//! experiments are not double-counted.

use crate::json::{self, Value};
use crate::{Experiment, MeasuredExperiment};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Measurement bookkeeping maintained by every [`MeasurementBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Number of experiment measurements requested from this backend.
    pub measurements_requested: u64,
    /// Number of measurements actually performed by the leaf backend
    /// (cache hits are requested but not performed).
    pub measurements_performed: u64,
    /// Wall-clock time the leaf backend spent performing measurements.
    pub measurement_time: Duration,
}

impl BackendStats {
    /// The stats accumulated since an earlier `snapshot` of the same
    /// backend (all three counters are monotone).
    #[must_use]
    pub fn since(&self, snapshot: &BackendStats) -> BackendStats {
        BackendStats {
            measurements_requested: self.measurements_requested - snapshot.measurements_requested,
            measurements_performed: self.measurements_performed - snapshot.measurements_performed,
            measurement_time: self.measurement_time - snapshot.measurement_time,
        }
    }

    /// The component-wise sum of two deltas — how a resumed session
    /// combines the accounting a checkpoint carried over from the
    /// original process with the stats accumulated since the resume.
    #[must_use]
    pub fn plus(&self, other: &BackendStats) -> BackendStats {
        BackendStats {
            measurements_requested: self.measurements_requested + other.measurements_requested,
            measurements_performed: self.measurements_performed + other.measurements_performed,
            measurement_time: self.measurement_time + other.measurement_time,
        }
    }
}

/// A batch-first source of steady-state throughput measurements.
///
/// Implementations must return exactly one finite, positive throughput
/// (cycles per experiment instance) per experiment, in input order.
/// Batches are the unit of work so that backends can measure in
/// parallel, deduplicate, or amortize fixed costs; callers should prefer
/// one large batch over many small ones.
///
/// # Example
///
/// A custom backend is a dozen lines — answer batches from whatever
/// machine or model you have, and keep the three [`BackendStats`]
/// counters honest (here: a "machine" that executes strictly serially,
/// one instruction per cycle):
///
/// ```
/// use pmevo_core::{BackendStats, Experiment, InstId, MeasurementBackend};
///
/// #[derive(Default)]
/// struct SerialMachine {
///     stats: BackendStats,
/// }
///
/// impl MeasurementBackend for SerialMachine {
///     fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
///         self.stats.measurements_requested += experiments.len() as u64;
///         self.stats.measurements_performed += experiments.len() as u64;
///         experiments.iter().map(|e| f64::from(e.total_insts())).collect()
///     }
///     fn name(&self) -> &str {
///         "serial"
///     }
///     fn stats(&self) -> BackendStats {
///         self.stats
///     }
/// }
///
/// let mut backend = SerialMachine::default();
/// let e = Experiment::from_counts(&[(InstId(0), 2), (InstId(1), 1)]);
/// // Measure through the checked entry point, like the algorithms do.
/// assert_eq!(backend.measure_batch_checked(&[e]), vec![3.0]);
/// assert_eq!(backend.stats().measurements_performed, 1);
/// ```
pub trait MeasurementBackend {
    /// Measures a batch of experiments, one throughput per experiment,
    /// in input order.
    ///
    /// # Panics
    ///
    /// Implementations panic on experiments they cannot measure (unknown
    /// instructions, missing recordings).
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64>;

    /// [`measure_batch`](Self::measure_batch) plus contract validation:
    /// exactly one finite, positive throughput per experiment. Inference
    /// algorithms should measure through this so a misbehaving backend
    /// fails loudly instead of corrupting the fit.
    ///
    /// # Panics
    ///
    /// Panics if the batch sizes disagree or any measurement is not
    /// positive and finite.
    fn measure_batch_checked(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let out = self.measure_batch(experiments);
        assert_eq!(out.len(), experiments.len(), "measurement batch size mismatch");
        for (e, &t) in experiments.iter().zip(&out) {
            assert!(t.is_finite() && t > 0.0, "bad measurement {t} for {e}");
        }
        out
    }

    /// A human-readable backend name for reports and logs.
    fn name(&self) -> &str;

    /// The backend's measurement bookkeeping so far.
    fn stats(&self) -> BackendStats;
}

impl<B: MeasurementBackend + ?Sized> MeasurementBackend for &mut B {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        (**self).measure_batch(experiments)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn stats(&self) -> BackendStats {
        (**self).stats()
    }
}

impl<B: MeasurementBackend + ?Sized> MeasurementBackend for Box<B> {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        (**self).measure_batch(experiments)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn stats(&self) -> BackendStats {
        (**self).stats()
    }
}

/// "Measures" with the analytical bottleneck model of a known mapping —
/// the noise-free oracle backend used by tests, examples and the
/// congruence/robustness scenarios where a hidden ground truth exists.
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, MeasurementBackend, ModelBackend};
/// use pmevo_core::{PortSet, ThreeLevelMapping, UopEntry};
///
/// let gt = ThreeLevelMapping::new(2, vec![vec![UopEntry::new(1, PortSet::from_ports(&[0]))]]);
/// let mut backend = ModelBackend::new(gt);
/// let tp = backend.measure_batch(&[Experiment::singleton(InstId(0))]);
/// assert_eq!(tp, vec![1.0]);
/// assert_eq!(backend.stats().measurements_performed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ModelBackend {
    mapping: crate::ThreeLevelMapping,
    stats: BackendStats,
}

impl ModelBackend {
    /// Creates a backend that answers with `mapping`'s optimal-scheduler
    /// throughput.
    pub fn new(mapping: crate::ThreeLevelMapping) -> Self {
        ModelBackend {
            mapping,
            stats: BackendStats::default(),
        }
    }

    /// The mapping the backend evaluates.
    pub fn mapping(&self) -> &crate::ThreeLevelMapping {
        &self.mapping
    }
}

impl MeasurementBackend for ModelBackend {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let start = Instant::now();
        let out: Vec<f64> = experiments.iter().map(|e| self.mapping.throughput(e)).collect();
        self.stats.measurements_requested += experiments.len() as u64;
        self.stats.measurements_performed += experiments.len() as u64;
        self.stats.measurement_time += start.elapsed();
        out
    }

    fn name(&self) -> &str {
        "model"
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

/// Failure to read a measurement artifact from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasurementJsonError {
    /// The input was not valid JSON.
    Parse(json::ParseError),
    /// The JSON was valid but not a measurement artifact of the expected
    /// shape.
    Shape(String),
}

impl fmt::Display for MeasurementJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasurementJsonError::Parse(e) => write!(f, "{e}"),
            MeasurementJsonError::Shape(msg) => write!(f, "invalid measurement JSON: {msg}"),
        }
    }
}

impl std::error::Error for MeasurementJsonError {}

/// Serializes a measurement artifact as compact JSON
/// (`{"measurements":[{"experiment":[[id,count],…],"throughput":…},…]}`).
pub fn measurements_to_json(measurements: &[MeasuredExperiment]) -> String {
    let rows = measurements.iter().map(MeasuredExperiment::to_json_value).collect();
    json::write_compact(&Value::Obj(vec![("measurements".into(), Value::Arr(rows))]))
}

/// Parses a measurement artifact produced by [`measurements_to_json`].
/// Every row must hold a non-empty experiment of positive counts and a
/// positive, finite throughput.
pub fn measurements_from_json(input: &str) -> Result<Vec<MeasuredExperiment>, MeasurementJsonError> {
    let doc = json::parse(input).map_err(MeasurementJsonError::Parse)?;
    let rows = doc
        .get("measurements")
        .and_then(Value::as_arr)
        .ok_or_else(|| MeasurementJsonError::Shape("missing array field `measurements`".into()))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| MeasuredExperiment::from_json_value(row, &format!("measurements[{i}]")))
        .collect::<Result<_, _>>()
        .map_err(MeasurementJsonError::Shape)
}

/// Replays a recorded measurement artifact: every experiment must have
/// been recorded (structural multiset equality), or measurement panics.
///
/// Recordings typically come out of a [`CachingBackend`]
/// ([`CachingBackend::measurements`]) serialized with
/// [`measurements_to_json`], making inference runs reproducible without
/// the machine that produced them.
///
/// # Example
///
/// ```
/// use pmevo_core::{measurements_to_json, Experiment, InstId};
/// use pmevo_core::{MeasuredExperiment, MeasurementBackend, ReplayBackend};
///
/// let e = Experiment::singleton(InstId(0));
/// let json = measurements_to_json(&[MeasuredExperiment::new(e.clone(), 2.5)]);
/// let mut backend = ReplayBackend::from_json(&json).unwrap();
/// assert_eq!(backend.measure_batch(&[e]), vec![2.5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayBackend {
    records: BTreeMap<Experiment, f64>,
    stats: BackendStats,
}

impl ReplayBackend {
    /// Builds a replay backend from recorded measurements. Duplicate
    /// experiments keep the last recording.
    pub fn from_measurements(measurements: &[MeasuredExperiment]) -> Self {
        ReplayBackend {
            records: measurements
                .iter()
                .map(|me| (me.experiment.clone(), me.throughput))
                .collect(),
            stats: BackendStats::default(),
        }
    }

    /// Parses a measurement artifact (see [`measurements_from_json`])
    /// into a replay backend.
    pub fn from_json(input: &str) -> Result<Self, MeasurementJsonError> {
        Ok(Self::from_measurements(&measurements_from_json(input)?))
    }

    /// Number of recorded experiments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no experiments are recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recording of one experiment, if present.
    pub fn recorded(&self, e: &Experiment) -> Option<f64> {
        self.records.get(e).copied()
    }
}

impl MeasurementBackend for ReplayBackend {
    /// # Panics
    ///
    /// Panics if an experiment was never recorded.
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let start = Instant::now();
        let out: Vec<f64> = experiments
            .iter()
            .map(|e| {
                *self
                    .records
                    .get(e)
                    .unwrap_or_else(|| panic!("no recorded measurement for experiment {e}"))
            })
            .collect();
        self.stats.measurements_requested += experiments.len() as u64;
        self.stats.measurements_performed += experiments.len() as u64;
        self.stats.measurement_time += start.elapsed();
        out
    }

    fn name(&self) -> &str {
        "replay"
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

/// A decorator that deduplicates repeated experiments: only cache misses
/// reach the wrapped backend (one deduplicated sub-batch per call), and
/// [`BackendStats::measurements_performed`] counts real measurements
/// only, so pipelines re-measuring overlapping experiment sets are
/// billed once per distinct experiment.
///
/// # Example
///
/// ```
/// use pmevo_core::{CachingBackend, Experiment, InstId, MeasurementBackend, ModelBackend};
/// use pmevo_core::{PortSet, ThreeLevelMapping, UopEntry};
///
/// let gt = ThreeLevelMapping::new(2, vec![vec![UopEntry::new(1, PortSet::from_ports(&[0]))]]);
/// let mut backend = CachingBackend::new(ModelBackend::new(gt));
/// let e = Experiment::singleton(InstId(0));
/// backend.measure_batch(&[e.clone(), e.clone()]);
/// backend.measure_batch(&[e]);
/// let stats = backend.stats();
/// assert_eq!(stats.measurements_requested, 3);
/// assert_eq!(stats.measurements_performed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CachingBackend<B> {
    inner: B,
    cache: BTreeMap<Experiment, f64>,
    requested: u64,
    name: String,
}

impl<B: MeasurementBackend> CachingBackend<B> {
    /// Wraps `inner` with an experiment-level measurement cache.
    pub fn new(inner: B) -> Self {
        let name = format!("cached({})", inner.name());
        CachingBackend {
            inner,
            cache: BTreeMap::new(),
            requested: 0,
            name,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the decorator, discarding the cache.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Number of distinct experiments measured so far.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// All distinct measurements performed so far, in experiment order —
    /// ready to serialize with
    /// [`measurements_to_json`] and replay with [`ReplayBackend`].
    pub fn measurements(&self) -> Vec<MeasuredExperiment> {
        self.cache
            .iter()
            .map(|(e, &t)| MeasuredExperiment::new(e.clone(), t))
            .collect()
    }
}

impl<B: MeasurementBackend> MeasurementBackend for CachingBackend<B> {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        self.requested += experiments.len() as u64;
        // Deduplicated misses, in first-occurrence order.
        let mut misses: Vec<Experiment> = Vec::new();
        let mut seen: BTreeMap<&Experiment, ()> = BTreeMap::new();
        for e in experiments {
            if !self.cache.contains_key(e) && seen.insert(e, ()).is_none() {
                misses.push(e.clone());
            }
        }
        if !misses.is_empty() {
            let measured = self.inner.measure_batch(&misses);
            assert_eq!(measured.len(), misses.len(), "measurement batch size mismatch");
            for (e, t) in misses.into_iter().zip(measured) {
                self.cache.insert(e, t);
            }
        }
        experiments
            .iter()
            .map(|e| self.cache[e])
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stats(&self) -> BackendStats {
        let inner = self.inner.stats();
        BackendStats {
            measurements_requested: self.requested,
            ..inner
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstId, PortSet, ThreeLevelMapping, UopEntry};

    fn toy_mapping() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            2,
            vec![
                vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
                vec![UopEntry::new(2, PortSet::from_ports(&[0, 1]))],
            ],
        )
    }

    #[test]
    fn model_backend_matches_mapping_model() {
        let gt = toy_mapping();
        let mut b = ModelBackend::new(gt.clone());
        let exps = vec![
            Experiment::singleton(InstId(0)),
            Experiment::pair(InstId(0), 1, InstId(1), 1),
        ];
        let got = b.measure_batch(&exps);
        assert_eq!(got, vec![gt.throughput(&exps[0]), gt.throughput(&exps[1])]);
        assert_eq!(b.stats().measurements_requested, 2);
        assert_eq!(b.stats().measurements_performed, 2);
    }

    #[test]
    fn caching_backend_dedupes_within_and_across_batches() {
        let mut b = CachingBackend::new(ModelBackend::new(toy_mapping()));
        let e0 = Experiment::singleton(InstId(0));
        let e1 = Experiment::singleton(InstId(1));
        let first = b.measure_batch(&[e0.clone(), e1.clone(), e0.clone()]);
        assert_eq!(first[0], first[2]);
        let second = b.measure_batch(&[e1.clone(), e0.clone()]);
        assert_eq!(second, vec![first[1], first[0]]);
        let stats = b.stats();
        assert_eq!(stats.measurements_requested, 5);
        assert_eq!(stats.measurements_performed, 2);
        assert_eq!(b.cache_size(), 2);
        assert_eq!(b.name(), "cached(model)");
        // The recorded artifact replays identically.
        let mut replay = ReplayBackend::from_measurements(&b.measurements());
        assert_eq!(replay.measure_batch(&[e0, e1]), vec![first[0], first[1]]);
    }

    #[test]
    fn measurement_artifact_roundtrips_through_json() {
        let mut b = CachingBackend::new(ModelBackend::new(toy_mapping()));
        let exps = vec![
            Experiment::singleton(InstId(0)),
            Experiment::singleton(InstId(1)),
            Experiment::pair(InstId(0), 2, InstId(1), 1),
        ];
        let want = b.measure_batch(&exps);
        let json = measurements_to_json(&b.measurements());
        let mut replay = ReplayBackend::from_json(&json).expect("artifact parses");
        assert_eq!(replay.len(), 3);
        assert_eq!(replay.measure_batch(&exps), want);
    }

    #[test]
    fn replay_rejects_malformed_artifacts() {
        for bad in [
            "{}",
            r#"{"measurements":[{"experiment":[[0]],"throughput":1.0}]}"#,
            r#"{"measurements":[{"experiment":[[0,1]],"throughput":-1.0}]}"#,
            r#"{"measurements":[{"experiment":[[0,1]]}]}"#,
            r#"{"measurements":[{"experiment":[],"throughput":1.0}]}"#,
            r#"{"measurements":[{"experiment":[[0,0]],"throughput":1.0}]}"#,
        ] {
            assert!(ReplayBackend::from_json(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    #[should_panic(expected = "no recorded measurement")]
    fn replay_panics_on_unrecorded_experiment() {
        let mut b = ReplayBackend::from_measurements(&[]);
        b.measure_batch(&[Experiment::singleton(InstId(7))]);
    }

    #[test]
    fn stats_since_subtracts_snapshots() {
        let mut b = ModelBackend::new(toy_mapping());
        b.measure_batch(&[Experiment::singleton(InstId(0))]);
        let snap = b.stats();
        b.measure_batch(&[Experiment::singleton(InstId(1))]);
        let delta = b.stats().since(&snap);
        assert_eq!(delta.measurements_performed, 1);
    }
}
