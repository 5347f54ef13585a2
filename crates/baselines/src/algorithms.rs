//! Baseline [`InferenceAlgorithm`]s: the cheap reference points PMEvo's
//! evolutionary inference is compared against in the session API.
//!
//! * [`CountingAlgorithm`] — the front-end-style model: every
//!   instruction gets `round(t*(i) · |P|)` fully-flexible µops, so its
//!   singleton throughput is reproduced but no port structure is
//!   learned. Uses only the `|ISA|` singleton measurements.
//! * [`RandomAlgorithm`] — PMEvo's population initializer without any
//!   search: one random throughput-bounded mapping. The ablation floor.
//! * [`LpAlgorithm`] — least-absolute-deviations regression through the
//!   `pmevo-lp` simplex solver: fits additive per-instruction costs to
//!   singleton (and optionally pair) measurements, then materializes
//!   them as fully-flexible µops. The "linear model" baseline — what a
//!   Gurobi user would try before reaching for evolution.
//!
//! All three produce an [`InferredMapping`] with the same bookkeeping as
//! the evolutionary pipeline, so `Session` reports stay comparable.

use pmevo_core::{
    Experiment, InferenceAlgorithm, InferredMapping, InstId, MeasuredExperiment,
    MeasurementBackend, PortSet, ThreeLevelMapping, UopEntry,
};
use pmevo_lp::Problem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Builds the decomposition "`n` fully-flexible µops" with
/// `n = max(1, round(cost · num_ports))`, whose optimal-scheduler
/// singleton throughput is `n / num_ports ≈ cost`.
fn flexible_decomposition(cost: f64, num_ports: usize) -> Vec<UopEntry> {
    let n = (cost * num_ports as f64).round().max(1.0) as u32;
    vec![UopEntry::new(n, PortSet::first_n(num_ports))]
}

/// Measures the singleton experiments of the universe.
fn measure_singletons(
    num_insts: usize,
    backend: &mut dyn MeasurementBackend,
) -> (Vec<Experiment>, Vec<f64>) {
    let singletons: Vec<Experiment> = (0..num_insts as u32)
        .map(|i| Experiment::singleton(InstId(i)))
        .collect();
    let tp = backend.measure_batch_checked(&singletons);
    (singletons, tp)
}

/// Average relative error of `mapping` on `experiments` (the `D_avg` of
/// paper §4.4, computed through the core model).
fn training_error(mapping: &ThreeLevelMapping, experiments: &[MeasuredExperiment]) -> f64 {
    let sum: f64 = experiments
        .iter()
        .map(|me| (mapping.throughput(&me.experiment) - me.throughput).abs() / me.throughput)
        .sum();
    sum / experiments.len() as f64
}

fn bookkeeping(
    algorithm: &dyn InferenceAlgorithm,
    mapping: ThreeLevelMapping,
    experiments: &[MeasuredExperiment],
    stats_delta: pmevo_core::BackendStats,
    infer_start: Instant,
) -> InferredMapping {
    let error = training_error(&mapping, experiments);
    // Baselines measure their whole corpus up front: one round.
    let rounds = vec![pmevo_core::RoundStats::from_delta(
        0,
        &stats_delta,
        stats_delta.measurements_performed,
        error,
    )];
    InferredMapping {
        algorithm: algorithm.name().to_owned(),
        num_experiments: experiments.len(),
        measurements_performed: stats_delta.measurements_performed,
        benchmarking_time: stats_delta.measurement_time,
        inference_time: infer_start.elapsed() - stats_delta.measurement_time,
        congruent_fraction: 0.0,
        num_classes: mapping.num_insts(),
        training_error: Some(error),
        rounds,
        round_mappings: vec![mapping.clone()],
        mapping,
    }
}

/// The counting baseline: per-instruction µop counts from singleton
/// throughputs, no port structure.
///
/// # Example
///
/// ```
/// use pmevo_baselines::CountingAlgorithm;
/// use pmevo_core::{InferenceAlgorithm, ModelBackend, PortSet, ThreeLevelMapping, UopEntry};
///
/// let gt = ThreeLevelMapping::new(2, vec![vec![UopEntry::new(2, PortSet::from_ports(&[0]))]]);
/// let inferred = CountingAlgorithm.infer(1, 2, &mut ModelBackend::new(gt));
/// // Singleton throughput 2.0 on a 2-port machine -> 4 flexible µops.
/// assert_eq!(inferred.mapping.num_uops_of(pmevo_core::InstId(0)), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingAlgorithm;

impl InferenceAlgorithm for CountingAlgorithm {
    fn name(&self) -> &str {
        "counting"
    }

    fn infer(
        &self,
        num_insts: usize,
        num_ports: usize,
        backend: &mut dyn MeasurementBackend,
    ) -> InferredMapping {
        assert!(num_insts > 0, "empty instruction universe");
        let start = Instant::now();
        let before = backend.stats();
        let (singletons, tp) = measure_singletons(num_insts, backend);
        let stats_delta = backend.stats().since(&before);
        let decomp = tp
            .iter()
            .map(|&t| flexible_decomposition(t, num_ports))
            .collect();
        let mapping = ThreeLevelMapping::new(num_ports, decomp);
        let measured: Vec<MeasuredExperiment> = singletons
            .into_iter()
            .zip(tp)
            .map(|(e, t)| MeasuredExperiment::new(e, t))
            .collect();
        bookkeeping(self, mapping, &measured, stats_delta, start)
    }
}

/// The random baseline: one sample of PMEvo's population initializer
/// (paper §4.4), bounded by the measured singleton throughputs but
/// otherwise unfitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomAlgorithm {
    /// RNG seed for the sampled mapping.
    pub seed: u64,
}

impl RandomAlgorithm {
    /// Creates the baseline with the given sampling seed.
    pub fn new(seed: u64) -> Self {
        RandomAlgorithm { seed }
    }
}

impl InferenceAlgorithm for RandomAlgorithm {
    fn name(&self) -> &str {
        "random"
    }

    fn infer(
        &self,
        num_insts: usize,
        num_ports: usize,
        backend: &mut dyn MeasurementBackend,
    ) -> InferredMapping {
        assert!(num_insts > 0, "empty instruction universe");
        let start = Instant::now();
        let before = backend.stats();
        let (singletons, tp) = measure_singletons(num_insts, backend);
        let stats_delta = backend.stats().since(&before);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mapping = ThreeLevelMapping::sample_random(&mut rng, num_insts, num_ports, &tp);
        let measured: Vec<MeasuredExperiment> = singletons
            .into_iter()
            .zip(tp)
            .map(|(e, t)| MeasuredExperiment::new(e, t))
            .collect();
        bookkeeping(self, mapping, &measured, stats_delta, start)
    }
}

/// The LP-regression baseline: fit per-instruction additive costs `w_i`
/// minimizing `Σ_e |Σ_i c_ie·w_i − t_e|` (least absolute deviations,
/// linearized with split slack variables and solved by the `pmevo-lp`
/// two-phase simplex), then materialize each cost as fully-flexible
/// µops.
///
/// The additive model is exactly what a pure counting view of the
/// machine can express — the LP makes it the *best* such view over the
/// training set, including pair experiments where port contention shows
/// up. Pair experiments are only generated among the first
/// [`max_pair_insts`](Self::max_pair_insts) instructions, because the
/// dense simplex tableau grows quadratically with the experiment count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpAlgorithm {
    /// Pair experiments are generated for instruction ids below this
    /// bound (0 fits singletons only).
    pub max_pair_insts: usize,
}

impl Default for LpAlgorithm {
    fn default() -> Self {
        // 24 instructions -> 276 pair constraints: comfortably inside
        // the dense simplex's budget, enough to expose contention.
        LpAlgorithm { max_pair_insts: 24 }
    }
}

impl LpAlgorithm {
    /// Creates the baseline with an explicit pair-experiment bound.
    pub fn new(max_pair_insts: usize) -> Self {
        LpAlgorithm { max_pair_insts }
    }
}

impl InferenceAlgorithm for LpAlgorithm {
    fn name(&self) -> &str {
        "lp"
    }

    fn infer(
        &self,
        num_insts: usize,
        num_ports: usize,
        backend: &mut dyn MeasurementBackend,
    ) -> InferredMapping {
        assert!(num_insts > 0, "empty instruction universe");
        let start = Instant::now();
        let before = backend.stats();
        let (singletons, tp) = measure_singletons(num_insts, backend);
        let mut experiments: Vec<Experiment> = singletons;
        let bound = self.max_pair_insts.min(num_insts) as u32;
        for a in 0..bound {
            for b in (a + 1)..bound {
                experiments.push(Experiment::pair(InstId(a), 1, InstId(b), 1));
                experiments.push(Experiment::pair(InstId(a), 2, InstId(b), 1));
            }
        }
        let pair_tp = backend.measure_batch_checked(&experiments[tp.len()..]);
        let stats_delta = backend.stats().since(&before);
        let throughputs: Vec<f64> = tp.iter().copied().chain(pair_tp).collect();

        // Fit per-instruction costs w so that Σ_i c_ie·w_i tracks t_e in
        // the least-absolute-deviations sense.
        let rows: Vec<Vec<(usize, f64)>> = experiments
            .iter()
            .map(|exp| {
                exp.iter()
                    .map(|(i, n)| (i.0 as usize, f64::from(n)))
                    .collect()
            })
            .collect();
        let lp = Problem::least_absolute_deviations(num_insts, &rows, &throughputs);
        let solution = lp
            .solve()
            .expect("LAD regression LP is feasible and bounded");

        let decomp = (0..num_insts)
            .map(|i| flexible_decomposition(solution.value(i), num_ports))
            .collect();
        let mapping = ThreeLevelMapping::new(num_ports, decomp);
        let measured: Vec<MeasuredExperiment> = experiments
            .into_iter()
            .zip(throughputs)
            .map(|(e, t)| MeasuredExperiment::new(e, t))
            .collect();
        bookkeeping(self, mapping, &measured, stats_delta, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::ModelBackend;

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, PortSet::from_ports(ports))
    }

    fn gt() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(1, &[0])],
                vec![uop(1, &[0, 1])],
                vec![uop(2, &[2])],
                vec![uop(1, &[0, 1, 2])],
            ],
        )
    }

    #[test]
    fn counting_reproduces_singleton_throughputs() {
        let inferred = CountingAlgorithm.infer(4, 3, &mut ModelBackend::new(gt()));
        assert_eq!(inferred.algorithm, "counting");
        assert_eq!(inferred.num_experiments, 4);
        assert_eq!(inferred.measurements_performed, 4);
        for i in 0..4u32 {
            let e = Experiment::singleton(InstId(i));
            let want = gt().throughput(&e);
            let got = inferred.mapping.throughput(&e);
            assert!(
                (got - want).abs() <= 1.0 / 3.0 + 1e-12,
                "inst {i}: counting {got} vs ground truth {want}"
            );
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = RandomAlgorithm::new(3).infer(4, 3, &mut ModelBackend::new(gt()));
        let b = RandomAlgorithm::new(3).infer(4, 3, &mut ModelBackend::new(gt()));
        assert_eq!(a.mapping, b.mapping);
        assert_ne!(
            a.mapping,
            RandomAlgorithm::new(4)
                .infer(4, 3, &mut ModelBackend::new(gt()))
                .mapping,
        );
    }

    #[test]
    fn lp_with_singletons_only_recovers_singleton_costs() {
        // With singletons as the whole training set the LAD optimum is
        // w_i = t*(i) exactly (zero residual is attainable).
        let machine = ThreeLevelMapping::new(
            3,
            vec![vec![uop(1, &[0])], vec![uop(2, &[1])], vec![uop(3, &[2])]],
        );
        let inferred = LpAlgorithm::new(0).infer(3, 3, &mut ModelBackend::new(machine));
        assert_eq!(inferred.num_experiments, 3);
        for i in 0..3u32 {
            let e = Experiment::singleton(InstId(i));
            let got = inferred.mapping.throughput(&e);
            // Ground-truth singleton throughputs are 1, 2, 3; the
            // flexible-µop materialization quantizes to thirds.
            let want = f64::from(i + 1);
            assert!(
                (got - want).abs() <= 1.0 / 3.0 + 1e-9,
                "inst {i}: lp {got} vs {want}"
            );
        }
    }

    #[test]
    fn lp_default_trains_on_pairs_too() {
        let inferred = LpAlgorithm::default().infer(4, 3, &mut ModelBackend::new(gt()));
        // 4 singletons + 2 experiments per unordered pair of 4 forms.
        assert_eq!(inferred.num_experiments, 4 + 2 * 6);
        assert!(inferred.training_error.unwrap().is_finite());
    }

    #[test]
    fn lp_beats_random_on_training_error() {
        let lp = LpAlgorithm::default().infer(4, 3, &mut ModelBackend::new(gt()));
        let rnd = RandomAlgorithm::new(1).infer(4, 3, &mut ModelBackend::new(gt()));
        // Not a theorem, but with this seed and ground truth the fitted
        // model must explain its training data better than a random one.
        assert!(lp.training_error.unwrap() < rnd.training_error.unwrap());
    }

    #[test]
    fn baselines_fill_uniform_bookkeeping() {
        let inferred = CountingAlgorithm.infer(4, 3, &mut ModelBackend::new(gt()));
        assert_eq!(inferred.congruent_fraction, 0.0);
        assert_eq!(inferred.num_classes, 4);
        assert!(inferred.training_error.is_some());
        assert!(inferred.num_distinct_uops() >= 1);
    }
}
