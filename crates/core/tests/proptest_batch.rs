//! The per-experiment kernel against the reference:
//! [`ThroughputSolver::predict_batch`] and `predict_all` must return, for
//! every experiment, the **exact bits** of a per-index `predict` and of
//! `ThreeLevelMapping::throughput` — across random platforms, batch sizes
//! 1/7/64, and crafted shapes that force each of the three kernel
//! strategies (union-closure, scatter and zeta).
//!
//! CI runs this file on its own at 2048 cases.

use proptest::prelude::*;
use pmevo_core::{
    CompiledExperiments, Experiment, InstId, MeasuredExperiment, PortSet, ThreeLevelMapping,
    ThroughputSolver, UopEntry,
};

/// Case budget: 2048 in release, where CI runs this file on its own,
/// and 64 in debug, where it runs inside the whole suite (CI's
/// `PROPTEST_CASES` caps both).
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 2048 };

/// A random non-empty port set over `num_ports` ports.
fn port_set(num_ports: usize) -> impl Strategy<Value = PortSet> {
    (1u64..(1u64 << num_ports)).prop_map(PortSet::from_mask)
}

fn three_level_mapping(
    num_ports: usize,
    num_insts: usize,
) -> impl Strategy<Value = ThreeLevelMapping> {
    proptest::collection::vec(
        proptest::collection::vec((1u32..4, port_set(num_ports)), 1..4),
        num_insts,
    )
    .prop_map(move |decomp| {
        ThreeLevelMapping::new(
            num_ports,
            decomp
                .into_iter()
                .map(|entries| entries.into_iter().map(|(n, ps)| UopEntry::new(n, ps)).collect())
                .collect(),
        )
    })
}

fn experiment(num_insts: usize) -> impl Strategy<Value = Experiment> {
    proptest::collection::vec((0..num_insts as u32, 1u32..5), 1..6).prop_map(|counts| {
        counts.into_iter().map(|(i, n)| (InstId(i), n)).collect::<Experiment>()
    })
}

fn compile(experiments: &[Experiment]) -> CompiledExperiments {
    // The measured field is a positive placeholder; prediction never
    // reads it.
    let measured: Vec<MeasuredExperiment> =
        experiments.iter().map(|e| MeasuredExperiment::new(e.clone(), 1.0)).collect();
    CompiledExperiments::compile(&measured)
}

/// Asserts that `predict_batch` over every `chunk`-sized slice of the
/// experiment set, and `predict_all`, both reproduce the bits of a
/// scalar per-index `predict` — on a *fresh* solver each, so no path
/// can lean on scratch state another path left behind.
fn assert_batch_is_bit_identical(mapping: &ThreeLevelMapping, experiments: &[Experiment]) {
    let compiled = compile(experiments);
    let mut scalar = ThroughputSolver::new();
    scalar.load_mapping(&compiled, mapping);
    let reference: Vec<f64> =
        (0..experiments.len()).map(|e| scalar.predict(&compiled, e)).collect();
    // The scalar compiled path itself matches the ad-hoc reference.
    for (e, &t) in experiments.iter().zip(&reference) {
        assert_eq!(t.to_bits(), mapping.throughput(e).to_bits(), "scalar drift on {e}");
    }

    for chunk in [1usize, 7, 64] {
        let mut solver = ThroughputSolver::new();
        solver.load_mapping(&compiled, mapping);
        let mut out = Vec::new();
        let indices: Vec<u32> = (0..experiments.len() as u32).collect();
        for (c, slice) in indices.chunks(chunk).enumerate() {
            solver.predict_batch(&compiled, slice, &mut out);
            assert_eq!(out.len(), slice.len());
            for (&e, &t) in slice.iter().zip(&out) {
                assert_eq!(
                    t.to_bits(),
                    reference[e as usize].to_bits(),
                    "batch size {chunk}, chunk {c}: batch result differs from scalar \
                     predict on experiment {e}"
                );
            }
        }
    }

    let mut solver = ThroughputSolver::new();
    solver.load_mapping(&compiled, mapping);
    let mut all = Vec::new();
    solver.predict_all(&compiled, &mut all);
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&all), bits(&reference), "predict_all differs from scalar predict");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random platforms × random experiment sets: the batched path may
    /// never drift from the scalar one, for any batch size.
    #[test]
    fn batch_matches_scalar_on_random_platforms(
        (m, es) in (1usize..=8).prop_flat_map(|p| three_level_mapping(p, 6)).prop_flat_map(|m| {
            let n = m.num_insts();
            (Just(m), proptest::collection::vec(experiment(n), 1..40))
        })
    ) {
        assert_batch_is_bit_identical(&m, &es);
    }
}

/// Union-closure shape: 8 live ports but only 6 distinct µop masks, so
/// `d · 2^d = 384` undercuts both the zeta (`9 · 2^8 = 2304`) and
/// scatter (`≈ 928`) costs.
fn union_closure_decomp(seed: u32) -> Vec<UopEntry> {
    vec![
        UopEntry::new(1 + seed % 3, PortSet::from_ports(&[0])),
        UopEntry::new(1, PortSet::from_ports(&[1])),
        UopEntry::new(2, PortSet::from_ports(&[2])),
        UopEntry::new(1 + seed % 2, PortSet::from_ports(&[3])),
        UopEntry::new(1, PortSet::from_ports(&[4])),
        UopEntry::new(1, PortSet::from_ports(&[5, 6, 7])),
    ]
}

/// Scatter shape: 6 live ports, 16 distinct *wide* masks (|mask| ≥ 4),
/// so supersets are few (`scatter ≈ 2^6 + 16·4 = 128`) while
/// `d = 16` disables union-closure and zeta stays at `7 · 2^6 = 448`.
fn scatter_decomp(seed: u32) -> Vec<UopEntry> {
    let mut uops = Vec::new();
    let mut masks: Vec<u64> = (0u64..64)
        .filter(|m| m.count_ones() >= 4)
        .collect();
    masks.truncate(16);
    for (i, &m) in masks.iter().enumerate() {
        uops.push(UopEntry::new(1 + (seed + i as u32) % 3, PortSet::from_mask(m)));
    }
    uops
}

/// Zeta shape: 6 live ports, all 21 singleton and pair masks — narrow
/// µops make the scatter cost (`2^6 + 6·32 + 15·16 = 496`) exceed the
/// zeta cost (`448`), and `d = 21` disables union-closure.
fn zeta_decomp(seed: u32) -> Vec<UopEntry> {
    let mut uops = Vec::new();
    let mut i = 0u32;
    for a in 0..6usize {
        uops.push(UopEntry::new(1 + (seed + i) % 3, PortSet::from_ports(&[a])));
        i += 1;
        for b in (a + 1)..6 {
            uops.push(UopEntry::new(1 + (seed + i) % 2, PortSet::from_ports(&[a, b])));
            i += 1;
        }
    }
    uops
}

/// One platform whose instructions force, per experiment, each
/// strategy.
fn strategy_zoo() -> (ThreeLevelMapping, Vec<Experiment>) {
    let mut decomps = Vec::new();
    for s in 0..12 {
        decomps.push(zeta_decomp(s));
    }
    for s in 0..3 {
        decomps.push(union_closure_decomp(s));
    }
    for s in 0..3 {
        decomps.push(scatter_decomp(s));
    }
    let mapping = ThreeLevelMapping::new(8, decomps);
    let mut experiments: Vec<Experiment> = (0..18u32).map(InstId).map(Experiment::singleton).collect();
    // Pairs that mix strategies within one experiment's aggregation.
    experiments.push(Experiment::pair(InstId(0), 2, InstId(12), 1));
    experiments.push(Experiment::pair(InstId(12), 1, InstId(15), 3));
    experiments.push(Experiment::pair(InstId(3), 1, InstId(7), 2));
    (mapping, experiments)
}

/// All three strategies in one batch — bit-identical to scalar across
/// every batch size.
#[test]
fn strategy_zoo_is_bit_identical_across_batch_sizes() {
    let (mapping, experiments) = strategy_zoo();
    assert_batch_is_bit_identical(&mapping, &experiments);
}
