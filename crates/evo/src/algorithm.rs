//! [`InferenceAlgorithm`] implementation for the PMEvo pipeline, so the
//! evolutionary approach plugs into the session API next to the
//! baseline algorithms of `pmevo-baselines`.

use crate::pipeline::{run, PipelineConfig};
use pmevo_core::{InferenceAlgorithm, InferredMapping, MeasurementBackend};

/// The paper's inference pipeline (Figure 5) as an
/// [`InferenceAlgorithm`]: experiment generation, measurement,
/// congruence filtering, evolution and local search.
///
/// # Example
///
/// ```
/// use pmevo_core::{InferenceAlgorithm, ModelBackend};
/// use pmevo_core::{PortSet, ThreeLevelMapping, UopEntry};
/// use pmevo_evo::{EvoConfig, PipelineConfig, PmEvoAlgorithm};
///
/// let gt = ThreeLevelMapping::new(2, vec![
///     vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
///     vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
/// ]);
/// let algorithm = PmEvoAlgorithm::new(PipelineConfig {
///     evo: EvoConfig { population_size: 30, max_generations: 5, seed: 1, ..EvoConfig::default() },
///     ..PipelineConfig::default()
/// });
/// let inferred = algorithm.infer(2, 2, &mut ModelBackend::new(gt));
/// assert_eq!(inferred.mapping.num_insts(), 2);
/// assert_eq!(inferred.algorithm, "PMEvo");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PmEvoAlgorithm {
    /// The pipeline configuration the algorithm runs with.
    pub config: PipelineConfig,
}

impl PmEvoAlgorithm {
    /// Creates the algorithm with an explicit pipeline configuration.
    pub fn new(config: PipelineConfig) -> Self {
        PmEvoAlgorithm { config }
    }

    /// The default configuration with the given evolution seed — what a
    /// session runs when no algorithm is configured explicitly.
    pub fn with_seed(seed: u64) -> Self {
        let mut config = PipelineConfig::default();
        config.evo.seed = seed;
        PmEvoAlgorithm { config }
    }

    /// [`with_seed`](Self::with_seed) plus an experiment-selection
    /// policy and measurement budget — what a session runs when
    /// `.selection(..)` / `.budget(..)` are configured.
    pub fn with_selection(
        seed: u64,
        selection: pmevo_core::SelectionPolicy,
        budget: pmevo_core::MeasurementBudget,
    ) -> Self {
        let mut algorithm = Self::with_seed(seed);
        algorithm.config.selection = selection;
        algorithm.config.budget = budget;
        algorithm
    }
}

impl InferenceAlgorithm for PmEvoAlgorithm {
    fn name(&self) -> &str {
        "PMEvo"
    }

    fn infer(
        &self,
        num_insts: usize,
        num_ports: usize,
        backend: &mut dyn MeasurementBackend,
    ) -> InferredMapping {
        run(num_insts, num_ports, backend, &self.config)
    }

    fn set_worker_threads(&mut self, threads: usize) {
        self.config.evo.num_threads = threads.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvoConfig;
    use pmevo_core::{ModelBackend, PortSet, ThreeLevelMapping, UopEntry};

    fn gt() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            3,
            vec![
                vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
                vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
                vec![UopEntry::new(2, PortSet::from_ports(&[2]))],
            ],
        )
    }

    #[test]
    fn infer_matches_pipeline_run() {
        let algorithm = PmEvoAlgorithm::new(PipelineConfig {
            evo: EvoConfig {
                population_size: 40,
                max_generations: 10,
                num_threads: 2,
                seed: 5,
                ..EvoConfig::default()
            },
            ..PipelineConfig::default()
        });
        let inferred = algorithm.infer(3, 3, &mut ModelBackend::new(gt()));
        let direct = run(3, 3, &mut ModelBackend::new(gt()), &algorithm.config);
        assert_eq!(inferred.mapping, direct.mapping);
        assert_eq!(inferred.num_experiments, direct.num_experiments);
        assert_eq!(inferred.training_error, direct.training_error);
        assert_eq!(inferred.num_distinct_uops(), direct.num_distinct_uops());
    }

    #[test]
    fn worker_thread_cap_does_not_change_results() {
        let mut a = PmEvoAlgorithm::with_seed(9);
        a.config.evo.population_size = 40;
        a.config.evo.max_generations = 8;
        let mut b = a.clone();
        a.set_worker_threads(1);
        b.set_worker_threads(4);
        let ra = a.infer(3, 3, &mut ModelBackend::new(gt()));
        let rb = b.infer(3, 3, &mut ModelBackend::new(gt()));
        assert_eq!(ra.mapping, rb.mapping);
        assert_eq!(ra.training_error, rb.training_error);
    }
}
