//! Ablation benches for the design decisions called out in DESIGN.md §5:
//!
//! * fitness evaluation with the fast bottleneck algorithm vs the naive
//!   rescan vs the LP solver (the paper's central performance claim:
//!   fitness evaluation speed bounds achievable quality);
//! * evolution with and without the mutation operator (the paper dropped
//!   mutation, §4.4);
//! * pipeline with and without congruence filtering (§4.3).

use criterion::{criterion_group, criterion_main, Criterion};
use pmevo_core::bottleneck::{lp_throughput, throughput_naive};
use pmevo_core::{Experiment, InstId, MeasuredExperiment, ThreeLevelMapping};
use pmevo_evo::{
    average_relative_error, evolve_islands, EvoConfig, FitnessEngine, IslandConfig, IslandStart,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A 12-instruction, 6-port ground truth with measured experiments.
fn training_set() -> (ThreeLevelMapping, Vec<MeasuredExperiment>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(42);
    let indiv = vec![1.0; 12];
    let gt = ThreeLevelMapping::sample_random(&mut rng, 12, 6, &indiv);
    let mut experiments = Vec::new();
    for i in 0..12u32 {
        experiments.push(Experiment::singleton(InstId(i)));
    }
    for a in 0..12u32 {
        for b in (a + 1)..12 {
            experiments.push(Experiment::pair(InstId(a), 1, InstId(b), 1));
            experiments.push(Experiment::pair(InstId(a), 1, InstId(b), 2));
        }
    }
    let measured: Vec<MeasuredExperiment> = experiments
        .into_iter()
        .map(|e| {
            let t = gt.throughput(&e);
            MeasuredExperiment::new(e, t)
        })
        .collect();
    let tp: Vec<f64> = (0..12u32)
        .map(|i| gt.throughput(&Experiment::singleton(InstId(i))))
        .collect();
    (gt, measured, tp)
}

fn bench_fitness_engines(c: &mut Criterion) {
    let (gt, measured, _) = training_set();
    let mut group = c.benchmark_group("fitness_davg");
    group.bench_function("bottleneck_fast", |b| {
        b.iter(|| black_box(average_relative_error(&gt, &measured)))
    });
    group.bench_function("compiled_engine", |b| {
        let mut engine = FitnessEngine::new(&measured, 1);
        b.iter(|| black_box(engine.evaluate(&gt).error))
    });
    group.bench_function("bottleneck_naive", |b| {
        b.iter(|| {
            let sum: f64 = measured
                .iter()
                .map(|me| {
                    let p = throughput_naive(&gt.uop_masses(&me.experiment));
                    (p - me.throughput).abs() / me.throughput
                })
                .sum();
            black_box(sum / measured.len() as f64)
        })
    });
    group.bench_function("lp_solver", |b| {
        b.iter(|| {
            let sum: f64 = measured
                .iter()
                .map(|me| {
                    let p = lp_throughput(&gt.uop_masses(&me.experiment));
                    (p - me.throughput).abs() / me.throughput
                })
                .sum();
            black_box(sum / measured.len() as f64)
        })
    });
    group.finish();
}

fn bench_mutation_ablation(c: &mut Criterion) {
    let (_, measured, tp) = training_set();
    let mut group = c.benchmark_group("evolution");
    group.sample_size(10);
    for (label, rate) in [("no_mutation", 0.0), ("with_mutation", 0.1)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = EvoConfig {
                    population_size: 40,
                    max_generations: 10,
                    mutation_rate: rate,
                    num_threads: 1,
                    seed: 5,
                    ..EvoConfig::default()
                };
                let run = evolve_islands(
                    12,
                    6,
                    &measured,
                    &tp,
                    &config,
                    &IslandConfig::default(),
                    IslandStart::Fresh(Vec::new()),
                    true,
                    None,
                );
                black_box(run.result.objectives.error)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fitness_engines, bench_mutation_ablation);
criterion_main!(benches);
