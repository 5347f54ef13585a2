//! The two-objective fitness metric of paper §4.4 and the batched,
//! allocation-free evaluation engine behind it.
//!
//! PMEvo minimizes the average relative prediction error `D_avg` and the
//! µop volume `V` simultaneously. The multi-objective problem is
//! scalarized a priori: each generation, both objectives are affinely
//! normalized to `[0, 1000]` over the current selection pool and summed.
//!
//! Evaluation follows a compile-then-execute split (the "aggressive
//! performance optimizations" of paper §4.5): [`FitnessEngine`] compiles
//! the measured experiments once into the dense flat form of
//! [`CompiledExperiments`] and reuses one [`ThroughputSolver`] per worker
//! thread, scratch buffers included, across every generation of an
//! evolutionary run. [`average_relative_error`] remains as the naive
//! reference implementation; the engine returns bit-identical values
//! (enforced by the property tests in `tests/proptest_fitness.rs`).
//!
//! Batches run on the workspace's worker pool ([`pmevo_core::pool`]):
//! [`FitnessEngine::evaluate_batch`] scores given mappings, and
//! [`FitnessEngine::build_and_evaluate`] builds the mappings on the
//! workers too and scores each where it was built. Results are returned
//! in submission order and are a pure function of the inputs,
//! independent of worker count and scheduling — which is what lets the
//! island model ([`crate::islands`]) breed and score every island's
//! children in one pass per generation and recover the per-island
//! results by slicing, bit-identically for any worker count.

use pmevo_core::{
    pool, CompiledExperiments, InstId, MeasuredExperiment, ThreeLevelMapping, ThroughputSolver,
};

/// The raw objective pair of one candidate mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Average relative prediction error `D_avg(m)`.
    pub error: f64,
    /// µop volume `V(m) = Σ n · |u|`.
    pub volume: u64,
}

impl Objectives {
    /// Lexicographic comparison used by the hill climber: smaller error
    /// wins; ties (within `tol`) fall back to smaller volume.
    pub fn better_than(&self, other: &Objectives, tol: f64) -> bool {
        if self.error < other.error - tol {
            true
        } else if self.error <= other.error + tol {
            self.volume < other.volume
        } else {
            false
        }
    }
}

/// Computes `D_avg(m)`: the mean of `|t*_m(e) − t| / t` over all measured
/// experiments (paper §4.4).
///
/// This is the **reference implementation**: it re-derives every
/// prediction from scratch through [`ThreeLevelMapping::throughput`].
/// The evolutionary loop evaluates through [`FitnessEngine`], which is
/// bit-identical but allocation-free and batched.
///
/// # Panics
///
/// Panics if `experiments` is empty, contains non-positive measurements,
/// or references instructions outside the mapping.
pub fn average_relative_error(
    mapping: &ThreeLevelMapping,
    experiments: &[MeasuredExperiment],
) -> f64 {
    assert!(!experiments.is_empty(), "no experiments to evaluate");
    let sum: f64 = experiments
        .iter()
        .map(|me| {
            debug_assert!(me.throughput > 0.0, "non-positive measured throughput");
            let predicted = mapping.throughput(&me.experiment);
            (predicted - me.throughput).abs() / me.throughput
        })
        .sum();
    sum / experiments.len() as f64
}

/// Evaluates the objectives of candidate mappings against a compiled
/// experiment set, with one reusable solver per worker thread.
///
/// Create one engine per inference run: construction compiles the
/// experiments once, and the solvers' scratch buffers stay warm across
/// every generation and the final local search. Batches run on
/// [`pmevo_core::pool`], whose threads live for one batch; results are
/// independent of the thread count and of worker scheduling.
///
/// The engine also drives **delta re-evaluation** for the hill climber:
/// [`build_cache`](Self::build_cache) records per-experiment errors of a
/// mapping, and [`try_update`](Self::try_update) re-evaluates only the
/// experiments containing a mutated instruction (via the inverse index of
/// [`CompiledExperiments`]), returning objectives bit-identical to a full
/// evaluation of the mutated mapping.
#[derive(Debug)]
pub struct FitnessEngine {
    compiled: CompiledExperiments,
    /// One solver per worker thread. `solvers[0]` belongs to the calling
    /// thread, which also serves single and delta evaluations.
    solvers: Vec<ThroughputSolver>,
    /// Staged `(experiment, error)` updates of the last
    /// [`try_update`](Self::try_update), applied by
    /// [`commit_update`](Self::commit_update).
    pending: Vec<(u32, f64)>,
    /// State of `solvers[0]`'s loaded-mapping tables for the delta path:
    /// `Synced { dirty }` after [`build_cache`] means the tables match
    /// the hill climber's mapping except possibly at the instruction(s)
    /// in `dirty` (the previous trial's mutation); `Unsynced` after a
    /// full evaluation means [`try_update`] must reload before patching.
    ///
    /// [`build_cache`]: Self::build_cache
    /// [`try_update`]: Self::try_update
    delta_sync: DeltaSync,
    /// Prediction scratch of the batched cache/delta paths.
    batch_preds: Vec<f64>,
}

/// See [`FitnessEngine::delta_sync`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum DeltaSync {
    Unsynced,
    Synced { dirty: Option<InstId> },
}

impl FitnessEngine {
    /// Compiles the experiment set and creates one solver per thread.
    ///
    /// # Panics
    ///
    /// Panics if `experiments` is empty, contains non-positive
    /// measurements, or `num_threads` is zero.
    pub fn new(experiments: &[MeasuredExperiment], num_threads: usize) -> Self {
        assert!(!experiments.is_empty(), "no experiments to evaluate");
        assert!(num_threads > 0, "need at least one thread");
        FitnessEngine {
            compiled: CompiledExperiments::compile(experiments),
            solvers: vec![ThroughputSolver::new(); num_threads],
            pending: Vec::new(),
            delta_sync: DeltaSync::Unsynced,
            batch_preds: Vec::new(),
        }
    }

    /// The compiled experiment set evaluated against.
    pub fn compiled(&self) -> &CompiledExperiments {
        &self.compiled
    }

    /// Number of worker threads used for batch evaluation.
    pub fn num_threads(&self) -> usize {
        self.solvers.len()
    }

    /// Evaluates one mapping on the calling thread (allocation-free after
    /// warm-up).
    pub fn evaluate(&mut self, mapping: &ThreeLevelMapping) -> Objectives {
        // A full evaluation reloads the solver tables wholesale, so any
        // delta baseline previously established is gone.
        self.delta_sync = DeltaSync::Unsynced;
        Objectives {
            error: self.solvers[0].average_error(&self.compiled, mapping),
            volume: mapping.volume(),
        }
    }

    /// Evaluates a batch of mappings across the worker threads. Results
    /// are in batch order and identical for every thread count.
    pub fn evaluate_batch(&mut self, mappings: &[ThreeLevelMapping]) -> Vec<Objectives> {
        // The calling thread works through `solvers[0]` and reloads its
        // tables.
        self.delta_sync = DeltaSync::Unsynced;
        let compiled = &self.compiled;
        pool::map(&mut self.solvers, mappings.len(), |solver, range| {
            mappings[range]
                .iter()
                .map(|m| Objectives {
                    error: solver.average_error(compiled, m),
                    volume: m.volume(),
                })
                .collect()
        })
    }

    /// Builds candidates on the worker threads and scores each where it
    /// was built: `build(i)` returns the mappings of index `i` of `0..n`.
    /// Returns every built mapping with its objectives, in index order
    /// and then in the order `build` returned them. When `build` is a
    /// pure function of its index, the result is identical for every
    /// thread count.
    pub fn build_and_evaluate<I, F>(
        &mut self,
        n: usize,
        build: F,
    ) -> Vec<(ThreeLevelMapping, Objectives)>
    where
        I: IntoIterator<Item = ThreeLevelMapping>,
        F: Fn(usize) -> I + Sync,
    {
        self.delta_sync = DeltaSync::Unsynced;
        let compiled = &self.compiled;
        let built = pool::map(&mut self.solvers, n, |solver, range| {
            range
                .map(|i| {
                    build(i)
                        .into_iter()
                        .map(|m| {
                            let error = solver.average_error(compiled, &m);
                            let volume = m.volume();
                            (m, Objectives { error, volume })
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        built.into_iter().flatten().collect()
    }

    /// Records the per-experiment errors of `mapping`, the starting point
    /// for delta re-evaluation.
    pub fn build_cache(&mut self, mapping: &ThreeLevelMapping) -> ErrorCache {
        let n = self.compiled.num_experiments();
        let mut preds = std::mem::take(&mut self.batch_preds);
        // `predict_mapping` leaves `mapping` loaded in the solver, the
        // tables `try_update` patches.
        self.solvers[0].predict_mapping(&self.compiled, mapping, &mut preds);
        self.delta_sync = DeltaSync::Synced { dirty: None };
        let mut per_exp = Vec::with_capacity(n);
        for (e, &p) in preds.iter().enumerate() {
            let t = self.compiled.measured(e);
            per_exp.push((p - t).abs() / t);
        }
        self.batch_preds = preds;
        let mean = mean_in_order(&per_exp);
        ErrorCache { per_exp, mean }
    }

    /// Evaluates `mapping`, which must differ from the cached mapping
    /// only in the decomposition of `changed`, by re-predicting just the
    /// experiments containing `changed`.
    ///
    /// Returns objectives **bit-identical** to a full
    /// [`evaluate`](Self::evaluate) of `mapping`. The new per-experiment
    /// errors are staged internally; call
    /// [`commit_update`](Self::commit_update) to fold them into the cache
    /// when keeping the mutation, or simply call `try_update` again (for
    /// a different mutation of the same cached mapping) to discard them.
    pub fn try_update(
        &mut self,
        mapping: &ThreeLevelMapping,
        cache: &ErrorCache,
        changed: InstId,
    ) -> Objectives {
        debug_assert_eq!(
            cache.per_exp.len(),
            self.compiled.num_experiments(),
            "ErrorCache does not belong to this engine's experiment set"
        );
        self.pending.clear();
        let affected = self.compiled.experiments_containing(changed);
        if !affected.is_empty() {
            // Bring the solver tables in line with `mapping` as cheaply
            // as possible. `mapping` is always the source of truth, so
            // after a full load, or after patching both the previous
            // trial's instruction (now reverted or committed in
            // `mapping`) and `changed`, the tables equal a full reload.
            match self.delta_sync {
                DeltaSync::Unsynced => self.solvers[0].load_mapping(&self.compiled, mapping),
                DeltaSync::Synced { dirty } => {
                    if let Some(prev) = dirty.filter(|&prev| prev != changed) {
                        self.solvers[0].patch_instruction(&self.compiled, mapping, prev);
                    }
                    self.solvers[0].patch_instruction(&self.compiled, mapping, changed);
                }
            }
            self.delta_sync = DeltaSync::Synced {
                dirty: Some(changed),
            };
            let mut preds = std::mem::take(&mut self.batch_preds);
            self.solvers[0].predict_batch(&self.compiled, affected, &mut preds);
            for (&e, &p) in affected.iter().zip(&preds) {
                let t = self.compiled.measured(e as usize);
                self.pending.push((e, (p - t).abs() / t));
            }
            self.batch_preds = preds;
        }
        // Re-sum over *all* experiments in order, substituting the staged
        // values: same additions in the same order as a full evaluation,
        // so the result is exact, with none of the drift an incremental
        // `sum - old + new` accumulator would build up.
        let n = cache.per_exp.len();
        let mut sum = 0.0f64;
        let mut p = 0usize;
        for (e, &cached) in cache.per_exp.iter().enumerate() {
            let v = if p < self.pending.len() && self.pending[p].0 as usize == e {
                let v = self.pending[p].1;
                p += 1;
                v
            } else {
                cached
            };
            sum += v;
        }
        Objectives {
            error: sum / n as f64,
            volume: mapping.volume(),
        }
    }

    /// Folds the errors staged by the last
    /// [`try_update`](Self::try_update) into `cache`, making the mutated
    /// mapping the new delta baseline.
    pub fn commit_update(&mut self, cache: &mut ErrorCache) {
        debug_assert_eq!(
            cache.per_exp.len(),
            self.compiled.num_experiments(),
            "ErrorCache does not belong to this engine's experiment set"
        );
        for &(e, v) in &self.pending {
            cache.per_exp[e as usize] = v;
        }
        cache.mean = mean_in_order(&cache.per_exp);
        self.pending.clear();
    }
}

/// Per-experiment relative errors of one mapping, the state delta
/// re-evaluation works against (see [`FitnessEngine::build_cache`]).
#[derive(Debug, Clone)]
pub struct ErrorCache {
    per_exp: Vec<f64>,
    mean: f64,
}

impl ErrorCache {
    /// The mean relative error of the cached mapping, equal to what
    /// [`FitnessEngine::evaluate`] would report for it.
    pub fn mean_error(&self) -> f64 {
        self.mean
    }

    /// The cached relative error per experiment.
    pub fn per_experiment(&self) -> &[f64] {
        &self.per_exp
    }
}

/// Sequential in-order mean — the exact arithmetic of
/// [`average_relative_error`]'s `sum / len`.
fn mean_in_order(values: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    for &v in values {
        sum += v;
    }
    sum / values.len() as f64
}

/// Scalarizes a pool of objectives: both metrics are affinely mapped to
/// `[0, 1000]` over the pool's extremes and summed (paper §4.4's
/// `F(m) = Λ1(D_avg(m)) + Λ2(V(m))`). Degenerate ranges map to 0.
pub fn scalarize(pool: &[Objectives]) -> Vec<f64> {
    if pool.is_empty() {
        return Vec::new();
    }
    let (mut lo_e, mut hi_e) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lo_v, mut hi_v) = (u64::MAX, u64::MIN);
    for o in pool {
        lo_e = lo_e.min(o.error);
        hi_e = hi_e.max(o.error);
        lo_v = lo_v.min(o.volume);
        hi_v = hi_v.max(o.volume);
    }
    let span_e = hi_e - lo_e;
    let span_v = (hi_v - lo_v) as f64;
    pool.iter()
        .map(|o| {
            let fe = if span_e > 0.0 {
                1000.0 * (o.error - lo_e) / span_e
            } else {
                0.0
            };
            let fv = if span_v > 0.0 {
                1000.0 * (o.volume - lo_v) as f64 / span_v
            } else {
                0.0
            };
            fe + fv
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{Experiment, InstId, PortSet, UopEntry};

    fn mapping(entries: Vec<Vec<UopEntry>>) -> ThreeLevelMapping {
        ThreeLevelMapping::new(4, entries)
    }

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, PortSet::from_ports(ports))
    }

    #[test]
    fn perfect_mapping_has_zero_error() {
        let m = mapping(vec![vec![uop(1, &[0])]]);
        let exps = vec![MeasuredExperiment::new(
            Experiment::from_counts(&[(InstId(0), 3)]),
            3.0,
        )];
        assert_eq!(average_relative_error(&m, &exps), 0.0);
        assert_eq!(FitnessEngine::new(&exps, 1).evaluate(&m).error, 0.0);
    }

    #[test]
    fn error_is_relative_to_measurement() {
        let m = mapping(vec![vec![uop(1, &[0])]]); // predicts 1.0
        let exps = vec![MeasuredExperiment::new(
            Experiment::singleton(InstId(0)),
            2.0, // measured 2.0 => |1-2|/2 = 0.5
        )];
        assert!((average_relative_error(&m, &exps) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batch_matches_sequential_and_is_parallel_safe() {
        let exps: Vec<MeasuredExperiment> = (1..5)
            .map(|n| {
                MeasuredExperiment::new(Experiment::from_counts(&[(InstId(0), n)]), f64::from(n))
            })
            .collect();
        let mut engine = FitnessEngine::new(&exps, 4);
        let ms: Vec<ThreeLevelMapping> = (1..=8)
            .map(|c| mapping(vec![vec![uop(c, &[0])]]))
            .collect();
        let batch = engine.evaluate_batch(&ms);
        for (m, o) in ms.iter().zip(&batch) {
            assert_eq!(engine.evaluate(m).error, o.error);
            assert_eq!(engine.evaluate(m).volume, o.volume);
        }
        // The engine reference path agrees with the naive reference.
        for (m, o) in ms.iter().zip(&batch) {
            assert_eq!(average_relative_error(m, &exps), o.error);
        }
    }

    #[test]
    fn batch_results_are_thread_count_independent() {
        let exps: Vec<MeasuredExperiment> = (1..6)
            .map(|n| {
                MeasuredExperiment::new(Experiment::from_counts(&[(InstId(0), n)]), f64::from(n))
            })
            .collect();
        let ms: Vec<ThreeLevelMapping> = (1..=13)
            .map(|c| mapping(vec![vec![uop(c, &[0, 1])]]))
            .collect();
        let reference = FitnessEngine::new(&exps, 1).evaluate_batch(&ms);
        for threads in [2, 3, 5, 8] {
            let got = FitnessEngine::new(&exps, threads).evaluate_batch(&ms);
            assert_eq!(got, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn built_batches_come_back_in_index_order_for_every_thread_count() {
        let exps: Vec<MeasuredExperiment> = (1..6)
            .map(|n| {
                MeasuredExperiment::new(Experiment::from_counts(&[(InstId(0), n)]), f64::from(n))
            })
            .collect();
        // Index i builds i % 3 mappings, so some indices build none.
        let build = |i: usize| {
            (0..i % 3).map(move |k| mapping(vec![vec![uop(1 + (i + k) as u32, &[0, 1])]]))
        };
        let want: Vec<(ThreeLevelMapping, Objectives)> = (0..13)
            .flat_map(build)
            .map(|m| {
                let o = FitnessEngine::new(&exps, 1).evaluate(&m);
                (m, o)
            })
            .collect();
        for threads in [1, 2, 3, 8] {
            let got = FitnessEngine::new(&exps, threads).build_and_evaluate(13, build);
            assert_eq!(got, want, "thread count {threads} changed results");
        }
    }

    #[test]
    fn delta_update_matches_full_evaluation() {
        let exps = vec![
            MeasuredExperiment::new(Experiment::singleton(InstId(0)), 1.0),
            MeasuredExperiment::new(Experiment::singleton(InstId(1)), 2.0),
            MeasuredExperiment::new(Experiment::pair(InstId(0), 1, InstId(1), 1), 2.0),
        ];
        let mut engine = FitnessEngine::new(&exps, 1);
        let base = mapping(vec![vec![uop(1, &[0])], vec![uop(2, &[1])]]);
        let mut cache = engine.build_cache(&base);
        assert_eq!(cache.mean_error(), engine.evaluate(&base).error);

        // Mutate instruction 1 only; experiments 1 and 2 are affected.
        let mut mutated = base.clone();
        mutated.set_decomposition(InstId(1), vec![uop(3, &[1])]);
        let delta = engine.try_update(&mutated, &cache, InstId(1));
        let full = engine.evaluate(&mutated);
        assert_eq!(delta, full);

        // Committing makes the mutation the new baseline.
        engine.commit_update(&mut cache);
        assert_eq!(cache.mean_error(), full.error);
        assert_eq!(cache.per_experiment().len(), 3);

        // And a follow-up delta from the committed state stays exact.
        let mut back = mutated.clone();
        back.set_decomposition(InstId(1), vec![uop(2, &[1])]);
        let delta2 = engine.try_update(&back, &cache, InstId(1));
        assert_eq!(delta2, engine.evaluate(&back));
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let exps = vec![
            MeasuredExperiment::new(Experiment::singleton(InstId(0)), 1.0),
            MeasuredExperiment::new(Experiment::singleton(InstId(1)), 1.0),
        ];
        let mut engine = FitnessEngine::new(&exps, 2);
        // A mapping covering only instruction 0: evaluating the {i1}
        // experiment panics inside a worker thread. The batch call must
        // re-raise that panic, not deadlock waiting for a result.
        let bad = ThreeLevelMapping::new(1, vec![vec![uop(1, &[0])]]);
        let batch = vec![bad.clone(), bad];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.evaluate_batch(&batch)
        }));
        assert!(outcome.is_err(), "worker panic was swallowed");

        // After a caught panic the engine stays usable and must not
        // serve the dead batch's leftover results.
        let good = mapping(vec![vec![uop(2, &[0])], vec![uop(1, &[0, 1])]]);
        let fresh = vec![good.clone(), good.clone(), good.clone()];
        let got = engine.evaluate_batch(&fresh);
        assert_eq!(got.len(), 3);
        for o in got {
            assert_eq!(o, engine.evaluate(&good));
        }
    }

    #[test]
    fn scalarization_normalizes_to_0_1000() {
        let pool = vec![
            Objectives { error: 0.0, volume: 10 },
            Objectives { error: 1.0, volume: 0 },
        ];
        let f = scalarize(&pool);
        // First: best error (0) + worst volume (1000); second: converse.
        assert_eq!(f, vec![1000.0, 1000.0]);
    }

    #[test]
    fn scalarization_handles_degenerate_pools() {
        let pool = vec![
            Objectives { error: 0.5, volume: 5 },
            Objectives { error: 0.5, volume: 5 },
        ];
        assert_eq!(scalarize(&pool), vec![0.0, 0.0]);
        assert!(scalarize(&[]).is_empty());
    }

    #[test]
    fn better_than_is_lexicographic() {
        let a = Objectives { error: 0.1, volume: 100 };
        let b = Objectives { error: 0.2, volume: 1 };
        assert!(a.better_than(&b, 1e-9));
        let c = Objectives { error: 0.1, volume: 99 };
        assert!(c.better_than(&a, 1e-9));
        assert!(!a.better_than(&c, 1e-9));
    }
}
