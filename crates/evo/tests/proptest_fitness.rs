//! Property tests: the compiled, batched and delta evaluation paths of
//! [`FitnessEngine`] return **exactly** (bit-for-bit) the same
//! [`Objectives`] as the naive [`average_relative_error`] reference, on
//! random mappings and random experiment sets.
//!
//! The inputs span the machines the factored path serves and the ones it
//! leaves to the per-experiment kernel: 1–16 ports (the factored path
//! takes up to 12) and rows of 1–3 instructions with counts 1–100
//! (plain, ratio and triple experiments). Decompositions come in two
//! families. The wide one, 1–21 µop bundles per instruction with counts
//! 1–30 on random port sets, makes most rows peak at the full port set.
//! The narrow one, 1–3 bundles of 1–4 µops on 1–3 ports, makes rows peak
//! at small sizes, so the factored path skips the larger ones.
//!
//! CI runs this file on its own with `PROPTEST_CASES=2048`.

use proptest::prelude::*;
use pmevo_core::{Experiment, InstId, MeasuredExperiment, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_evo::{average_relative_error, FitnessEngine, Objectives};
use std::sync::Arc;

const NUM_INSTS: usize = 6;
const MAX_PORTS: usize = 16;

/// Case budget: 2048 in release, where CI runs this file on its own,
/// and 128 in debug, where it runs inside the whole suite (CI's
/// `PROPTEST_CASES` caps both).
const CASES: u32 = if cfg!(debug_assertions) { 128 } else { 2048 };

/// One instruction's decomposition over `ports` ports: 1–21 bundles,
/// each of 1–30 µops on a random non-empty port set.
fn decomposition_strategy(ports: usize) -> impl Strategy<Value = Vec<UopEntry>> {
    proptest::collection::vec((1u32..=30, 1u64..(1 << ports)), 1..=21).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(n, mask)| UopEntry::new(n, PortSet::from_mask(mask)))
            .collect()
    })
}

/// One instruction's decomposition from the narrow family: 1–3
/// bundles, each of 1–4 µops on 1–3 of the `ports` ports.
fn narrow_decomposition_strategy(ports: usize) -> impl Strategy<Value = Vec<UopEntry>> {
    let uop_ports = proptest::collection::vec(0..ports, 1..=3)
        .prop_map(|ps| ps.into_iter().fold(0u64, |mask, p| mask | 1 << p));
    proptest::collection::vec((1u32..=4, uop_ports), 1..=3).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(n, mask)| UopEntry::new(n, PortSet::from_mask(mask)))
            .collect()
    })
}

fn mapping_strategy(ports: usize) -> impl Strategy<Value = ThreeLevelMapping> {
    proptest::collection::vec(decomposition_strategy(ports), NUM_INSTS)
        .prop_map(move |decomp| ThreeLevelMapping::new(ports, decomp))
}

fn narrow_mapping_strategy(ports: usize) -> impl Strategy<Value = ThreeLevelMapping> {
    proptest::collection::vec(narrow_decomposition_strategy(ports), NUM_INSTS)
        .prop_map(move |decomp| ThreeLevelMapping::new(ports, decomp))
}

fn ports_strategy() -> impl Strategy<Value = usize> {
    1..=MAX_PORTS
}

/// Random non-empty measured experiment sets over the instruction
/// universe, with positive measured throughputs unrelated to any mapping
/// (the equivalence must hold for arbitrary labels, not just consistent
/// ones). A row draws 1–3 terms; repeated instructions merge.
fn experiments_strategy() -> impl Strategy<Value = Vec<MeasuredExperiment>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u32..NUM_INSTS as u32, 1u32..=100), 1..=3),
            0.25..8.0f64,
        ),
        1..20,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(counts, tp)| {
                let pairs: Vec<(InstId, u32)> =
                    counts.into_iter().map(|(i, n)| (InstId(i), n)).collect();
                MeasuredExperiment::new(Experiment::from_counts(&pairs), tp)
            })
            .collect()
    })
}

fn reference(mapping: &ThreeLevelMapping, experiments: &[MeasuredExperiment]) -> Objectives {
    Objectives {
        error: average_relative_error(mapping, experiments),
        volume: mapping.volume(),
    }
}

/// Single evaluation and the delta cache's mean, through the engine's
/// full-candidate path, are exactly the naive reference.
fn check_evaluate(m: &ThreeLevelMapping, exps: &[MeasuredExperiment]) -> Result<(), TestCaseError> {
    let mut engine = FitnessEngine::new(exps, 1);
    let got = engine.evaluate(m);
    let want = reference(m, exps);
    prop_assert_eq!(got.error.to_bits(), want.error.to_bits());
    prop_assert_eq!(got.volume, want.volume);
    // Scratch reuse across candidates must not change anything.
    let again = engine.evaluate(m);
    prop_assert_eq!(again.error.to_bits(), want.error.to_bits());
    let cache = engine.build_cache(m);
    prop_assert_eq!(cache.mean_error().to_bits(), want.error.to_bits());
    Ok(())
}

/// Batched evaluation on one thread and over the worker pool equals the
/// reference for every candidate, in order.
fn check_batch(
    ms: Vec<ThreeLevelMapping>,
    exps: &[MeasuredExperiment],
) -> Result<(), TestCaseError> {
    let batch = Arc::new(ms);
    let want: Vec<Objectives> = batch.iter().map(|m| reference(m, exps)).collect();
    for threads in [1, 2] {
        let got = FitnessEngine::new(exps, threads).evaluate_batch(&batch);
        prop_assert_eq!(got.len(), batch.len());
        for (o, w) in got.iter().zip(&want) {
            prop_assert_eq!(o.error.to_bits(), w.error.to_bits());
            prop_assert_eq!(o.volume, w.volume);
        }
    }
    Ok(())
}

/// Delta re-evaluation after a single-instruction mutation equals a full
/// naive evaluation of the mutated mapping, and committing makes the
/// cache agree with it.
fn check_delta(
    m: &ThreeLevelMapping,
    new_decomp: Vec<UopEntry>,
    changed_idx: u32,
    exps: &[MeasuredExperiment],
) -> Result<(), TestCaseError> {
    let mut engine = FitnessEngine::new(exps, 1);
    let mut cache = engine.build_cache(m);
    prop_assert_eq!(
        cache.mean_error().to_bits(),
        reference(m, exps).error.to_bits()
    );

    let changed = InstId(changed_idx);
    let mut mutated = m.clone();
    mutated.set_decomposition(changed, new_decomp);
    let got = engine.try_update(&mutated, &cache, changed);
    let want = reference(&mutated, exps);
    prop_assert_eq!(got.error.to_bits(), want.error.to_bits());
    prop_assert_eq!(got.volume, want.volume);

    engine.commit_update(&mut cache);
    prop_assert_eq!(cache.mean_error().to_bits(), want.error.to_bits());

    // A second mutation from the committed baseline stays exact.
    let mut back = mutated.clone();
    back.set_decomposition(changed, m.decomposition(changed).to_vec());
    let got2 = engine.try_update(&back, &cache, changed);
    let want2 = reference(&back, exps);
    prop_assert_eq!(got2.error.to_bits(), want2.error.to_bits());
    prop_assert_eq!(got2.volume, want2.volume);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn engine_evaluate_is_bit_identical_to_reference(
        m in ports_strategy().prop_flat_map(mapping_strategy),
        exps in experiments_strategy(),
    ) {
        check_evaluate(&m, &exps)?;
    }

    #[test]
    fn batch_evaluation_is_bit_identical_to_reference(
        ms in ports_strategy()
            .prop_flat_map(|ports| proptest::collection::vec(mapping_strategy(ports), 1..6)),
        exps in experiments_strategy(),
    ) {
        check_batch(ms, &exps)?;
    }

    #[test]
    fn delta_update_is_bit_identical_to_reference(
        (m, new_decomp) in ports_strategy()
            .prop_flat_map(|ports| (mapping_strategy(ports), decomposition_strategy(ports))),
        changed_idx in 0..NUM_INSTS as u32,
        exps in experiments_strategy(),
    ) {
        check_delta(&m, new_decomp, changed_idx, &exps)?;
    }

    /// Every path above, on mappings of the narrow family.
    #[test]
    fn narrow_mappings_are_bit_identical_to_reference(
        (ms, new_decomp) in ports_strategy().prop_flat_map(|ports| (
            proptest::collection::vec(narrow_mapping_strategy(ports), 1..6),
            narrow_decomposition_strategy(ports),
        )),
        changed_idx in 0..NUM_INSTS as u32,
        exps in experiments_strategy(),
    ) {
        check_evaluate(&ms[0], &exps)?;
        check_delta(&ms[0], new_decomp, changed_idx, &exps)?;
        check_batch(ms, &exps)?;
    }
}
