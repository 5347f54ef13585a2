//! Property test: adaptive-selection pipeline results are bit-identical
//! across fitness-engine worker-thread counts and across measurement
//! backend chunk sizes, for random platforms, budgets and policies.
//!
//! This is the determinism contract the adaptive scheduler inherits
//! from the PR 3 session API: what gets measured (and, from there,
//! everything the pipeline reports) must be a pure function of the
//! configuration and seed — never of how work was split across threads
//! or batches.

use pmevo_core::{
    BackendStats, Experiment, InferredMapping, MeasurementBackend, MeasurementBudget,
    ModelBackend, PortSet, RoundStats, SelectionPolicy, ThreeLevelMapping, UopEntry,
};
use pmevo_evo::{run, AdaptiveTuning, EvoConfig, PipelineConfig};
use proptest::prelude::*;

/// A test decorator that forwards every batch in fixed-size chunks, the
/// way an incremental harness with a bounded submission queue would.
struct ChunkedBackend<B> {
    inner: B,
    chunk: usize,
}

impl<B: MeasurementBackend> MeasurementBackend for ChunkedBackend<B> {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let mut out = Vec::with_capacity(experiments.len());
        for sub in experiments.chunks(self.chunk.max(1)) {
            out.extend(self.inner.measure_batch(sub));
        }
        out
    }
    fn name(&self) -> &str {
        "chunked"
    }
    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// Random ground-truth mappings: 3–6 instructions over 2–4 ports, each
/// with 1–2 µops of non-empty port sets.
fn ground_truth_strategy() -> impl Strategy<Value = ThreeLevelMapping> {
    (2usize..=4).prop_flat_map(|num_ports| {
        let mask_bound = (1u64 << num_ports) - 1;
        collection::vec(
            collection::vec((1u32..3, 1u64..=mask_bound), 1..3),
            3..7,
        )
        .prop_map(move |rows| {
            let decomp = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(count, mask)| UopEntry::new(count, PortSet::from_mask(mask)))
                        .collect()
                })
                .collect();
            ThreeLevelMapping::new(num_ports, decomp)
        })
    })
}

fn policy_strategy() -> impl Strategy<Value = SelectionPolicy> {
    prop_oneof![
        (1usize..4).prop_map(|top_k| SelectionPolicy::Disagreement { top_k }),
        (1usize..4).prop_map(|top_k| SelectionPolicy::Uniform { top_k }),
    ]
}

fn adaptive_config(
    policy: SelectionPolicy,
    budget: u64,
    seed: u64,
    num_threads: usize,
) -> PipelineConfig {
    PipelineConfig {
        selection: policy,
        budget: MeasurementBudget::measurements(budget),
        adaptive: AdaptiveTuning {
            gens_per_round: 2,
            ensemble: 6,
            pool_factor: 3,
            ..AdaptiveTuning::default()
        },
        evo: EvoConfig {
            population_size: 12,
            max_generations: 4,
            local_search_passes: 2,
            num_threads,
            seed,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// The deterministic fingerprint of a pipeline result: everything
/// except the wall-clock fields.
fn fingerprint(result: &InferredMapping) -> (ThreeLevelMapping, Vec<RoundStats>, Vec<ThreeLevelMapping>, u64, usize, String) {
    (
        result.mapping.clone(),
        result.rounds.iter().map(|r| r.without_timing()).collect(),
        result.round_mappings.clone(),
        result.measurements_performed,
        result.num_experiments,
        format!("{:?}", result.training_error),
    )
}

proptest! {
    // Each case runs the full pipeline 7 times; keep the budget small.
    // Override with PROPTEST_CASES=<n>.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adaptive_results_are_thread_and_chunk_independent(
        gt in ground_truth_strategy(),
        policy in policy_strategy(),
        budget in 6u64..30,
        seed in 0u64..1000,
    ) {
        let num_insts = gt.num_insts();
        let num_ports = gt.num_ports();
        let reference = {
            let mut backend = ModelBackend::new(gt.clone());
            let config = adaptive_config(policy, budget, seed, 1);
            fingerprint(&run(num_insts, num_ports, &mut backend, &config))
        };

        // Worker-thread counts must not change anything.
        for threads in [2usize, 8] {
            let mut backend = ModelBackend::new(gt.clone());
            let config = adaptive_config(policy, budget, seed, threads);
            let got = fingerprint(&run(num_insts, num_ports, &mut backend, &config));
            prop_assert_eq!(&got, &reference, "{} worker threads diverged", threads);
        }

        // Backend chunk sizes must not change anything either: the
        // noise-free oracle is trivially per-experiment, and the
        // scheduler must not depend on batch boundaries.
        for chunk in [1usize, 3, 1024] {
            let mut backend = ChunkedBackend { inner: ModelBackend::new(gt.clone()), chunk };
            let config = adaptive_config(policy, budget, seed, 2);
            let got = fingerprint(&run(num_insts, num_ports, &mut backend, &config));
            prop_assert_eq!(&got, &reference, "chunk size {} diverged", chunk);
        }
    }
}
