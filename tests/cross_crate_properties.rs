//! Cross-crate property tests: the simulator, the analytical model and
//! the predictors must stay mutually consistent.

use proptest::prelude::*;
use pmevo::baselines::{mca_like, oracle};
use pmevo::core::{Experiment, InstId, ThroughputPredictor};
use pmevo::isa::LoopBuilder;
use pmevo::machine::{platforms, simulate_kernel, MeasureConfig, Measurer};
use pmevo::stats::spearman;

proptest! {
    // Case budget: capped so the whole workspace suite stays well under
    // a minute; override downward with PROPTEST_CASES=<n> (see vendored
    // proptest). Cases are drawn from a per-test deterministic seed.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's Figure 6 premise: for short dependency-free
    /// experiments, the ground-truth bottleneck model tracks the
    /// simulator within a modest relative error (front-end limits put a
    /// floor under measured cycles, so the model is clamped the same
    /// way).
    #[test]
    fn model_tracks_simulator_on_short_experiments(
        a in 0u32..310,
        b in 0u32..310,
        n in 1u32..3,
    ) {
        let p = platforms::skl();
        let e = if a == b {
            Experiment::from_counts(&[(InstId(a), 1 + n)])
        } else {
            Experiment::pair(InstId(a), 1, InstId(b), n)
        };
        // Front-end floor: the machine fetches µops, not instructions.
        let uops: u32 = e
            .iter()
            .map(|(i, n)| p.ground_truth().num_uops_of(i) * n)
            .sum();
        let model = p
            .ground_truth()
            .throughput(&e)
            .max(f64::from(uops) / f64::from(p.fetch_width()));
        let kernel = LoopBuilder::new(p.isa()).build(&e);
        let sim = simulate_kernel(&p, &kernel, 10, 60).cycles_per_instance;
        let rel = (sim - model).abs() / model;
        prop_assert!(rel < 0.35, "model {model} vs sim {sim} for {e} (rel {rel:.2})");
    }

    /// Measured throughput is reproducible (same seed, same value) and
    /// positive.
    #[test]
    fn measurement_is_deterministic(a in 0u32..390, b in 0u32..390) {
        let p = platforms::a72();
        let e = if a == b {
            Experiment::singleton(InstId(a))
        } else {
            Experiment::pair(InstId(a), 1, InstId(b), 1)
        };
        let m = Measurer::new(&p, MeasureConfig::default());
        let t1 = m.measure(&e);
        let t2 = m.measure(&e);
        prop_assert!(t1 > 0.0);
        prop_assert_eq!(t1, t2);
    }
}

/// On ZEN, the ground-truth oracle must rank experiments better than the
/// deliberately coarse llvm-mca model (the Table 4 ordering).
#[test]
fn oracle_outranks_mca_on_zen() {
    let p = platforms::zen();
    let o = oracle(&p);
    let mca = mca_like(&p);
    let measurer = Measurer::new(&p, MeasureConfig::exact());

    let mut experiments = Vec::new();
    for i in (0..300u32).step_by(23) {
        for j in (7..300u32).step_by(41) {
            if i != j {
                experiments.push(Experiment::pair(InstId(i), 2, InstId(j), 1));
            }
        }
    }
    let measured: Vec<f64> = experiments.iter().map(|e| measurer.measure(e)).collect();
    let o_pred: Vec<f64> = experiments.iter().map(|e| o.predict(e)).collect();
    let m_pred: Vec<f64> = experiments.iter().map(|e| mca.predict(e)).collect();

    let o_scc = spearman(&o_pred, &measured);
    let m_scc = spearman(&m_pred, &measured);
    assert!(
        o_scc > 0.6,
        "oracle rank correlation unexpectedly low: {o_scc:.2}"
    );
    assert!(
        o_scc > m_scc - 0.05,
        "oracle ({o_scc:.2}) should not rank behind coarse mca ({m_scc:.2})"
    );

    // And the mca model must systematically over-estimate cycles on ZEN.
    let over = m_pred
        .iter()
        .zip(&measured)
        .filter(|(p, m)| *p > *m)
        .count();
    assert!(
        over * 3 > experiments.len() * 2,
        "expected over-estimation on most experiments ({over}/{})",
        experiments.len()
    );
}

// ---------------------------------------------------------------------------
// Island-model evolution: any island count is invariant under the
// fitness-worker count.

use pmevo::core::{MeasuredExperiment, PortSet, ThreeLevelMapping, UopEntry};
use pmevo::evo::{evolve_islands, EvoConfig, IslandConfig, IslandStart};

/// A deterministic toy ground truth plus training set (all singletons
/// and pairs), parameterized by `seed` with plain arithmetic — every
/// proptest case sees a different machine, with no RNG involved.
fn toy_training(
    seed: u64,
    num_insts: usize,
    num_ports: usize,
) -> (Vec<MeasuredExperiment>, Vec<f64>) {
    let decomp = (0..num_insts)
        .map(|i| {
            let a = (seed as usize + i) % num_ports;
            let b = (seed as usize / 3 + 2 * i + 1) % num_ports;
            vec![UopEntry::new(
                1 + (i as u32 + seed as u32) % 2,
                PortSet::from_ports(&[a, b]),
            )]
        })
        .collect();
    let ground_truth = ThreeLevelMapping::new(num_ports, decomp);
    let mut measured = Vec::new();
    let mut indiv = Vec::new();
    for i in 0..num_insts as u32 {
        let e = Experiment::singleton(InstId(i));
        let t = ground_truth.throughput(&e);
        indiv.push(t);
        measured.push(MeasuredExperiment::new(e, t));
    }
    for i in 0..num_insts as u32 {
        for j in i + 1..num_insts as u32 {
            let e = Experiment::pair(InstId(i), 1, InstId(j), 1);
            let t = ground_truth.throughput(&e);
            measured.push(MeasuredExperiment::new(e, t));
        }
    }
    (measured, indiv)
}

fn evo_config(seed: u64, population: usize, threads: usize) -> EvoConfig {
    EvoConfig {
        population_size: population,
        max_generations: 8,
        stall_generations: 8,
        num_threads: threads,
        seed,
        ..EvoConfig::default()
    }
}

proptest! {
    // Each case runs several full evolutions; keep the budget small
    // (PROPTEST_CASES only caps this downward).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any island count, evolution is independent of the
    /// fitness-worker count: 1, 2 and 8 threads produce bit-identical
    /// winners, histories and final island populations.
    #[test]
    fn island_evolution_is_worker_count_invariant(
        seed in 0u64..10_000,
        islands in 1u32..5,
    ) {
        let (training, indiv) = toy_training(seed, 5, 3);
        let island_config = IslandConfig { count: islands, interval: 2, migrants: 1 };
        let run = |threads: usize| {
            evolve_islands(
                5, 3, &training, &indiv,
                &evo_config(seed, 12, threads),
                &island_config,
                IslandStart::Fresh(Vec::new()), true, None,
            )
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            let out = run(threads);
            prop_assert_eq!(&out.result.mapping, &reference.result.mapping, "threads {}", threads);
            prop_assert_eq!(&out.result.history, &reference.result.history, "threads {}", threads);
            prop_assert_eq!(out.islands.len(), reference.islands.len());
            for (ours, reference_island) in out.islands.iter().zip(&reference.islands) {
                prop_assert_eq!(
                    &ours.population,
                    &reference_island.population,
                    "threads {}", threads
                );
            }
        }
    }
}
