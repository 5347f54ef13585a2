//! `CachingBackend` under multi-round adaptive selection.
//!
//! The adaptive scheduler submits many small batches across rounds and
//! runs; the cache must never double-bill an experiment it already
//! answered.

use pmevo::core::{
    CachingBackend, MeasurementBackend, MeasurementBudget, ModelBackend, PortSet,
    SelectionPolicy, ThreeLevelMapping, UopEntry,
};
use pmevo::evo::{run, AdaptiveTuning, EvoConfig, PipelineConfig};

fn uop(count: u32, ports: &[usize]) -> UopEntry {
    UopEntry::new(count, PortSet::from_ports(ports))
}

fn ground_truth() -> ThreeLevelMapping {
    ThreeLevelMapping::new(
        3,
        vec![
            vec![uop(1, &[0])],
            vec![uop(1, &[0, 1])],
            vec![uop(2, &[2])],
            vec![uop(1, &[1, 2])],
            vec![uop(1, &[2]), uop(1, &[0])],
        ],
    )
}

fn adaptive_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        selection: SelectionPolicy::Disagreement { top_k: 2 },
        budget: MeasurementBudget::measurements(13),
        adaptive: AdaptiveTuning {
            gens_per_round: 3,
            ..AdaptiveTuning::default()
        },
        evo: EvoConfig {
            population_size: 20,
            max_generations: 6,
            num_threads: 2,
            seed,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// A cached backend, driven through two whole adaptive runs: the
/// second run's submissions are all cache hits, so its rounds bill zero
/// real measurements and its result is bit-identical.
#[test]
fn multi_round_selection_never_double_bills_cached_experiments() {
    let mut stack = CachingBackend::new(ModelBackend::new(ground_truth()));
    let config = adaptive_config(5);

    let first = run(5, 3, &mut stack, &config);
    let after_first = stack.stats();
    // Every real measurement this run performed is a distinct cache
    // entry, and the run billed exactly those.
    assert_eq!(after_first.measurements_performed, stack.cache_size() as u64);
    assert_eq!(first.measurements_performed, after_first.measurements_performed);
    assert!(first.rounds.len() > 1, "expected a multi-round run");

    let second = run(5, 3, &mut stack, &config);
    let after_second = stack.stats();
    // The second run re-requests the seed corpus (and every experiment
    // the first run measured) from the cache for free — its budget only
    // pays for genuinely new experiments, so it may legitimately
    // explore further. The invariant: real measurements grew by exactly
    // the number of new distinct cache entries, never by a re-bill.
    let new_entries = stack.cache_size() as u64 - after_first.measurements_performed;
    assert_eq!(
        after_second.measurements_performed - after_first.measurements_performed,
        new_entries,
        "cache hits were double-billed"
    );
    assert_eq!(second.measurements_performed, new_entries);
    assert!(after_second.measurements_requested > after_first.measurements_requested);
    // The budget caps real measurements per run regardless of cache
    // traffic.
    assert!(second.measurements_performed <= 13);
    // Round 0 resubmits the seed corpus (the five singletons plus the
    // congruence-verification pairs) — all cache hits.
    assert!(second.rounds[0].experiments_submitted >= 5);
    assert_eq!(
        second.rounds[0].experiments_submitted,
        first.rounds[0].experiments_submitted
    );
    assert_eq!(second.rounds[0].measurements_performed, 0);
    // Cached values are identical, so the shared prefix of the two runs
    // evolved identically: the first training error (computed on the
    // seed corpus alone) must match bit for bit.
    assert_eq!(
        second.rounds[0].training_error,
        first.rounds[0].training_error
    );
}
