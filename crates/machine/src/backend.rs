//! The simulator-backed [`MeasurementBackend`]: measurement batches run
//! on the cycle-level simulator, chunked across the workspace's worker
//! pool.

use crate::measure::{MeasureConfig, Measurer};
use crate::platform::Platform;
use pmevo_core::{pool, BackendStats, Experiment, MeasurementBackend};
use std::time::Instant;

/// Measures experiment batches on a [`Platform`]'s cycle-level simulator
/// through the [`Measurer`] harness of paper §4.2.
///
/// Batches run on [`pmevo_core::pool`] with up to
/// [`parallelism`](Self::parallelism) worker threads, each measuring
/// through its own [`Measurer`] and claiming contiguous chunks as it
/// finishes the last. The measurement noise stream is a pure function
/// of `(config.seed, experiment)` (see [`Measurer::measure`]), so results
/// are bit-identical for every thread count and batch split.
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, MeasurementBackend};
/// use pmevo_machine::{platforms, MeasureConfig, SimBackend};
///
/// let mut backend = SimBackend::new(platforms::a72(), MeasureConfig::exact());
/// let tp = backend.measure_batch(&[Experiment::singleton(InstId(0))]);
/// assert!(tp[0] > 0.0);
/// assert_eq!(backend.stats().measurements_performed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SimBackend {
    platform: Platform,
    config: MeasureConfig,
    parallelism: usize,
    name: String,
    stats: BackendStats,
}

impl SimBackend {
    /// Creates a backend over `platform`, measuring with all available
    /// cores.
    pub fn new(platform: Platform, config: MeasureConfig) -> Self {
        Self::with_parallelism(platform, config, pool::available_workers())
    }

    /// Creates a backend with an explicit worker-thread cap.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn with_parallelism(platform: Platform, config: MeasureConfig, parallelism: usize) -> Self {
        assert!(parallelism > 0, "need at least one measurement thread");
        let name = format!("sim({})", platform.name());
        SimBackend {
            platform,
            config,
            parallelism,
            name,
            stats: BackendStats::default(),
        }
    }

    /// The platform under measurement.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The measurement configuration.
    pub fn config(&self) -> &MeasureConfig {
        &self.config
    }

    /// The worker-thread cap for batch measurement.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }
}

impl MeasurementBackend for SimBackend {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let start = Instant::now();
        let mut measurers: Vec<Measurer> = (0..self.parallelism.min(experiments.len()).max(1))
            .map(|_| Measurer::new(&self.platform, self.config.clone()))
            .collect();
        let out = pool::map(&mut measurers, experiments.len(), |measurer, range| {
            experiments[range]
                .iter()
                .map(|e| measurer.measure(e))
                .collect()
        });
        self.stats.measurements_requested += experiments.len() as u64;
        self.stats.measurements_performed += experiments.len() as u64;
        self.stats.measurement_time += start.elapsed();
        out
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;
    use pmevo_core::InstId;

    #[test]
    fn parallel_batches_match_sequential_measurement() {
        let p = platforms::skl();
        let exps: Vec<Experiment> = (0..13)
            .map(|i| Experiment::singleton(InstId(i * 7)))
            .collect();
        let mut seq = SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), 1);
        let mut par = SimBackend::with_parallelism(p, MeasureConfig::default(), 4);
        assert_eq!(seq.measure_batch(&exps), par.measure_batch(&exps));
        assert_eq!(par.stats().measurements_performed, 13);
        assert!(par.name().starts_with("sim(SKL"));
    }

    #[test]
    fn incremental_batches_match_one_batch_for_every_parallelism() {
        // The adaptive selection loop submits many small top-k batches
        // instead of one up-front corpus; the chunked parallel
        // measurement (and its per-experiment noise stream) must return
        // the same values however the batch is split across calls and
        // worker threads.
        let p = platforms::tiny();
        let mut exps: Vec<Experiment> = (0..6).map(|i| Experiment::singleton(InstId(i))).collect();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                exps.push(Experiment::pair(InstId(a), 1, InstId(b), 2));
            }
        }
        let mut oneshot = SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), 4);
        let want = oneshot.measure_batch(&exps);
        for threads in [1, 2, 8] {
            for chunk in [1, 3, exps.len()] {
                let mut backend =
                    SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), threads);
                let mut got = Vec::with_capacity(exps.len());
                for sub in exps.chunks(chunk) {
                    got.extend(backend.measure_batch(sub));
                }
                assert_eq!(
                    got, want,
                    "{threads} threads with {chunk}-experiment batches diverged"
                );
                assert_eq!(backend.stats().measurements_performed, exps.len() as u64);
            }
        }
    }

    #[test]
    fn matches_the_measurer_directly() {
        let p = platforms::a72();
        let e = Experiment::pair(InstId(0), 1, InstId(4), 2);
        let want = Measurer::new(&p, MeasureConfig::exact()).measure(&e);
        let mut backend = SimBackend::new(p, MeasureConfig::exact());
        assert_eq!(backend.measure_batch(std::slice::from_ref(&e)), vec![want]);
    }
}
