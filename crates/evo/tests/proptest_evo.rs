//! Property tests for the inference engine: experiment generation,
//! congruence partitioning and recombination.

use proptest::prelude::*;
use pmevo_core::{Experiment, InstId, MeasuredExperiment, PortSet, ThreeLevelMapping};
use pmevo_evo::evolution::{recombine, Crossover};
use pmevo_evo::{CongruencePartition, ExperimentGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mapping_strategy(num_ports: usize, num_insts: usize) -> impl Strategy<Value = ThreeLevelMapping> {
    proptest::collection::vec(
        proptest::collection::vec((1u32..4, 1u64..(1 << num_ports)), 1..4),
        num_insts,
    )
    .prop_map(move |decomp| {
        ThreeLevelMapping::new(
            num_ports,
            decomp
                .into_iter()
                .map(|entries| {
                    entries
                        .into_iter()
                        .map(|(n, mask)| pmevo_core::UopEntry::new(n, PortSet::from_mask(mask)))
                        .collect()
                })
                .collect(),
        )
    })
}

/// Two parents over one random machine of 1–16 ports and 1–6
/// instructions, each instruction of 1–21 µop bundles with counts 1–30:
/// the value ranges of `proptest_fitness`. Half the instructions hold
/// one or two single µops, so that one child often gets every µop of
/// an instruction and the crossover names a µop to copy back.
fn parents_strategy() -> impl Strategy<Value = (ThreeLevelMapping, ThreeLevelMapping)> {
    (1usize..=16, 1usize..=6).prop_flat_map(|(ports, insts)| {
        let parent = move || {
            proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec((1u32..=1, 1u64..(1 << ports)), 1..=2),
                    proptest::collection::vec((1u32..=30, 1u64..(1 << ports)), 1..=21),
                ],
                insts,
            )
            .prop_map(move |decomp: Vec<Vec<(u32, u64)>>| {
                ThreeLevelMapping::new(
                    ports,
                    decomp
                        .into_iter()
                        .map(|entries| {
                            entries
                                .into_iter()
                                .map(|(n, mask)| {
                                    pmevo_core::UopEntry::new(n, PortSet::from_mask(mask))
                                })
                                .collect()
                        })
                        .collect(),
                )
            })
        };
        (parent(), parent())
    })
}

proptest! {
    // Case budget: capped so the whole workspace suite stays well under
    // a minute; override downward with PROPTEST_CASES=<n> (see vendored
    // proptest). Cases are drawn from a per-test deterministic seed.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Experiment generation covers every unordered pair exactly once
    /// with the plain pair, plus at most one ratio pair.
    #[test]
    fn pair_generation_counts(
        tps in proptest::collection::vec(0.25..8.0f64, 2..12),
    ) {
        let n = tps.len();
        let gen = ExperimentGenerator::new((0..n as u32).map(InstId).collect());
        let pairs = gen.pairs(&tps);
        let plain = n * (n - 1) / 2;
        prop_assert!(pairs.len() >= plain);
        prop_assert!(pairs.len() <= 2 * plain);
        // No duplicates.
        let mut sorted = pairs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), pairs.len());
    }

    /// The congruence partition is a partition: every instruction has
    /// exactly one representative, representatives represent themselves,
    /// and classes cover the universe.
    #[test]
    fn congruence_is_a_partition(m in mapping_strategy(4, 8)) {
        let ids: Vec<InstId> = (0..8u32).map(InstId).collect();
        let gen = ExperimentGenerator::new(ids.clone());
        let indiv: Vec<f64> = ids
            .iter()
            .map(|&i| m.throughput(&Experiment::singleton(i)))
            .collect();
        let measured: Vec<MeasuredExperiment> = gen
            .all(&indiv)
            .into_iter()
            .map(|e| {
                let t = m.throughput(&e);
                MeasuredExperiment::new(e, t)
            })
            .collect();
        let part = CongruencePartition::compute(&ids, &measured, 0.01);
        let mut covered = 0usize;
        for (rep, members) in part.classes() {
            prop_assert_eq!(part.representative(rep), rep, "rep must represent itself");
            for m in &members {
                prop_assert_eq!(part.representative(*m), rep);
            }
            covered += members.len();
        }
        prop_assert_eq!(covered, ids.len());
        prop_assert_eq!(part.num_classes(), part.representatives().len());
    }

    /// Instructions with identical ground-truth decompositions are
    /// always congruent under exact measurement.
    #[test]
    fn identical_decompositions_merge(m in mapping_strategy(4, 6)) {
        // Duplicate instruction 0's decomposition onto instruction 1.
        let mut decomp: Vec<Vec<pmevo_core::UopEntry>> =
            m.decompositions().map(<[_]>::to_vec).collect();
        decomp[1] = decomp[0].clone();
        let m = ThreeLevelMapping::new(4, decomp);
        let ids: Vec<InstId> = (0..6u32).map(InstId).collect();
        let gen = ExperimentGenerator::new(ids.clone());
        let indiv: Vec<f64> = ids
            .iter()
            .map(|&i| m.throughput(&Experiment::singleton(i)))
            .collect();
        let measured: Vec<MeasuredExperiment> = gen
            .all(&indiv)
            .into_iter()
            .map(|e| {
                let t = m.throughput(&e);
                MeasuredExperiment::new(e, t)
            })
            .collect();
        let part = CongruencePartition::compute(&ids, &measured, 0.01);
        prop_assert_eq!(
            part.representative(InstId(0)),
            part.representative(InstId(1))
        );
    }

    /// Recombination always produces structurally valid children: every
    /// instruction keeps at least one µop, all port sets stay within the
    /// machine, no new port sets are invented, and the two children
    /// together hold the parents' µops, plus one where one child got
    /// them all and the other a copy back.
    #[test]
    fn recombination_children_are_valid(
        (a, b) in parents_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let crossover = Crossover::draw(&mut rng, &a, &b);
        let (c1, c2) = recombine(&a, &b, &crossover);
        for child in [&c1, &c2] {
            prop_assert_eq!(child.num_insts(), a.num_insts());
            prop_assert_eq!(child.num_ports(), a.num_ports());
            for i in 0..a.num_insts() as u32 {
                let id = InstId(i);
                prop_assert!(child.num_uops_of(id) >= 1, "instruction {id} lost all µops");
                let parent_sets: Vec<PortSet> = a
                    .decomposition(id)
                    .iter()
                    .chain(b.decomposition(id))
                    .map(|e| e.ports)
                    .collect();
                for e in child.decomposition(id) {
                    prop_assert!(
                        parent_sets.contains(&e.ports),
                        "child invented µop {} for {id}",
                        e.ports
                    );
                }
            }
        }
        for i in 0..a.num_insts() as u32 {
            let id = InstId(i);
            let parents = a.num_uops_of(id) + b.num_uops_of(id);
            let children = c1.num_uops_of(id) + c2.num_uops_of(id);
            prop_assert!(
                children == parents || children == parents + 1,
                "instruction {id}: the parents hold {parents} µops, the children {children}"
            );
        }
    }
}
