//! End-to-end integration test: PMEvo inference against the cycle-level
//! simulator recovers a mapping that predicts *held-out* experiments —
//! the core claim of the paper, at toy scale, through the backend API.

use pmevo::core::{
    Experiment, InstId, MeasurementBackend, PortSet, ThreeLevelMapping, ThroughputPredictor,
    UopEntry,
};
use pmevo::core::MappingPredictor;
use pmevo::evo::{run, EvoConfig, PipelineConfig};
use pmevo::isa::synth::tiny_isa;
use pmevo::machine::platform::ExecParams;
use pmevo::machine::{MeasureConfig, Measurer, Platform, PlatformInfo, SimBackend};
use pmevo::stats::mape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn toy_platform() -> Platform {
    let isa = tiny_isa();
    let u = |count, ports: &[usize]| UopEntry::new(count, PortSet::from_ports(ports));
    let decomp = vec![
        vec![u(1, &[0, 1])],
        vec![u(1, &[0])],
        vec![u(3, &[0])],
        vec![u(1, &[2])],
        vec![u(1, &[3]), u(1, &[2])],
        vec![u(1, &[1])],
    ];
    let exec = (0..isa.len())
        .map(|_| ExecParams {
            latency: 2,
            blocking: 1,
        })
        .collect();
    Platform::new(
        "TOY",
        PlatformInfo {
            manufacturer: "test".into(),
            processor: "toy".into(),
            microarch: "toy".into(),
            ports_desc: "4".into(),
            isa_name: "tiny".into(),
            clock_ghz: 1.0,
        },
        isa,
        ThreeLevelMapping::new(4, decomp),
        exec,
        4,
        32,
    )
}

#[test]
fn inferred_mapping_predicts_held_out_experiments() {
    let platform = toy_platform();
    let mut backend = SimBackend::new(platform.clone(), MeasureConfig::exact());

    let config = PipelineConfig {
        evo: EvoConfig {
            population_size: 120,
            max_generations: 35,
            num_threads: 2,
            seed: 20,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    };
    let result = run(
        platform.isa().len(),
        platform.num_ports(),
        &mut backend,
        &config,
    );

    // Training fit must be good on noise-free data.
    let error = result.training_error.expect("PMEvo reports its training error");
    assert!(error < 0.08, "training D_avg too high: {error}");
    // The backend performed exactly the pipeline's training experiments.
    assert_eq!(result.measurements_performed, result.num_experiments as u64);

    // Held-out: random multisets of size 3 (never part of training,
    // which only uses singletons and pairs).
    let mut rng = StdRng::seed_from_u64(77);
    let held_out: Vec<Experiment> = (0..25)
        .map(|_| {
            let counts: Vec<(InstId, u32)> = (0..3)
                .map(|_| (InstId(rng.gen_range(0..6)), 1))
                .collect();
            Experiment::from_counts(&counts)
        })
        .collect();
    let predictor = MappingPredictor::new("pmevo", result.mapping.clone());
    let predictions: Vec<f64> = held_out.iter().map(|e| predictor.predict(e)).collect();
    let measurer = Measurer::new(&platform, MeasureConfig::exact());
    let measured: Vec<f64> = held_out.iter().map(|e| measurer.measure(e)).collect();
    let err = mape(&predictions, &measured);
    assert!(err < 25.0, "held-out MAPE {err:.1}% too high");
}

#[test]
fn inference_without_congruence_filtering_also_works() {
    let platform = toy_platform();
    let mut backend = SimBackend::new(platform.clone(), MeasureConfig::exact());
    let config = PipelineConfig {
        congruence_filtering: false,
        evo: EvoConfig {
            population_size: 100,
            max_generations: 25,
            num_threads: 2,
            seed: 21,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    };
    let result = run(
        platform.isa().len(),
        platform.num_ports(),
        &mut backend,
        &config,
    );
    assert_eq!(result.num_classes, platform.isa().len());
    let error = result.training_error.expect("PMEvo reports its training error");
    assert!(error < 0.12, "unfiltered D_avg {error}");
}

#[test]
fn noise_does_not_break_inference() {
    let platform = toy_platform();
    // The harness's own seeded noise, the robustness scenario of paper
    // §5.1: the median of 5 repetitions at σ = 0.04 spreads by about
    // 0.54 · 0.04 ≈ 0.02.
    let mut backend = SimBackend::new(
        platform.clone(),
        MeasureConfig {
            noise_sigma: 0.04,
            ..MeasureConfig::default()
        },
    );
    let config = PipelineConfig {
        epsilon: 0.08, // wider than the noise level
        evo: EvoConfig {
            population_size: 100,
            max_generations: 25,
            num_threads: 2,
            seed: 22,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    };
    let result = run(
        platform.isa().len(),
        platform.num_ports(),
        &mut backend,
        &config,
    );
    let error = result.training_error.expect("PMEvo reports its training error");
    assert!(error < 0.15, "noisy D_avg {error}");
    assert_eq!(
        backend.stats().measurements_requested,
        result.num_experiments as u64
    );
}
