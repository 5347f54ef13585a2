//! Shared harness for the reproduction binaries (one binary per paper
//! table/figure, listed in README's crate table).
//!
//! Everything here is deliberately boring plumbing: benchmark-set
//! sampling, backend-based measurement, predictor evaluation, the
//! shared CLI flags (`--seed`, `--platform`, `--algorithm`, …) every
//! binary understands, and the artifact cache that lets
//! `table3`/`table4`/`fig7` reuse the mappings inferred by `table2`
//! instead of re-running inference.
//!
//! Measurement and inference go through the session API: a
//! [`SimBackend`] per platform, [`pmevo::Session`] for inference runs,
//! and [`selected_algorithm`] to swap PMEvo for one of the baseline
//! [`InferenceAlgorithm`]s from the command line.

use pmevo::Session;
use pmevo_baselines::{CountingAlgorithm, LpAlgorithm, RandomAlgorithm};
use pmevo_core::{
    Experiment, InferenceAlgorithm, InstId, MeasuredExperiment, MeasurementBackend,
    MeasurementBudget, SelectionPolicy, ThreeLevelMapping, ThroughputPredictor,
};
use pmevo_evo::{EvoConfig, PipelineConfig, PmEvoAlgorithm};
use pmevo_machine::{MeasureConfig, Platform, SimBackend};
use pmevo_stats::AccuracySummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Samples `count` random instruction multisets of the given `size`
/// (uniformly over multisets, as in the paper's benchmark sets, §5.3).
pub fn sample_experiments(
    num_insts: usize,
    size: u32,
    count: usize,
    seed: u64,
) -> Vec<Experiment> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let counts: Vec<(InstId, u32)> = (0..size)
                .map(|_| (InstId(rng.gen_range(0..num_insts as u32)), 1))
                .collect();
            Experiment::from_counts(&counts)
        })
        .collect()
}

/// The default measurement backend for a platform: the cycle-level
/// simulator with the paper's noisy measurement harness, batches
/// chunked across all cores.
pub fn sim_backend(platform: &Platform) -> SimBackend {
    SimBackend::new(platform.clone(), MeasureConfig::default())
}

/// Measures a benchmark set through a backend and pairs experiments
/// with throughputs.
pub fn measure_benchmark_set(
    backend: &mut dyn MeasurementBackend,
    experiments: &[Experiment],
) -> Vec<MeasuredExperiment> {
    let tps = backend.measure_batch(experiments);
    experiments
        .iter()
        .cloned()
        .zip(tps)
        .map(|(e, t)| MeasuredExperiment::new(e, t))
        .collect()
}

/// Evaluates a predictor on a measured benchmark set.
pub fn evaluate_predictor(
    predictor: &dyn ThroughputPredictor,
    benchmark: &[MeasuredExperiment],
) -> (Vec<f64>, AccuracySummary) {
    let predictions: Vec<f64> = benchmark
        .iter()
        .map(|me| predictor.predict(&me.experiment))
        .collect();
    let measured: Vec<f64> = benchmark.iter().map(|me| me.throughput).collect();
    let summary = AccuracySummary::compute(&predictions, &measured);
    (predictions, summary)
}

/// The artifact directory (inferred mappings, heat-map CSVs).
pub fn artifact_dir() -> PathBuf {
    let dir = std::env::var_os("PMEVO_ARTIFACTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts"));
    std::fs::create_dir_all(&dir).expect("create artifact directory");
    dir
}

/// Default pipeline configuration for simulator-scale inference runs.
///
/// The paper ran with a population of 100 000 on real machines over
/// hours; the defaults here are sized so the whole reproduction suite
/// runs in minutes. `scale` multiplies the population size for
/// higher-fidelity runs (`--full` uses 10).
pub fn default_pipeline_config(scale: usize, seed: u64) -> PipelineConfig {
    PipelineConfig {
        epsilon: 0.05,
        congruence_filtering: true,
        evo: EvoConfig {
            population_size: 300 * scale.max(1),
            max_generations: 50,
            seed,
            ..EvoConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Builds the inference session the reproduction binaries run: the
/// selected algorithm over the platform's simulator backend.
/// `selection` and `budget` are recorded in the report (the explicit
/// algorithm must be configured to match — see [`selected_algorithm`]).
pub fn inference_session(
    platform: &Platform,
    algorithm: impl InferenceAlgorithm + Send + 'static,
    seed: u64,
    selection: SelectionPolicy,
    budget: MeasurementBudget,
) -> Session {
    Session::builder()
        .platform(platform.clone())
        .algorithm(algorithm)
        .seed(seed)
        .selection(selection)
        .budget(budget)
        .build()
        .expect("a platform-backed session configuration is always valid")
}

/// The artifact path of an inferred mapping, keyed by algorithm,
/// selection policy, platform and scale — so a baseline run can never
/// masquerade as the PMEvo mapping, and an adaptive (budget-capped) run
/// can never poison the one-shot cache that `table3`/`table4`/`fig7`
/// consume.
pub fn mapping_artifact_path(
    algorithm: &str,
    selection: SelectionPolicy,
    platform: &Platform,
    scale: usize,
) -> PathBuf {
    artifact_dir().join(format!(
        "{}_{}_{}_x{scale}.json",
        algorithm.to_lowercase(),
        selection.slug(),
        platform.name().to_lowercase()
    ))
}

/// Infers a PMEvo mapping for `platform`, caching the result as JSON in
/// the artifact directory (keyed by algorithm, the one-shot selection
/// policy, platform name and scale).
///
/// # Panics
///
/// Panics on I/O or serialization failures, or if inference produces an
/// inconsistent mapping.
pub fn pmevo_mapping_cached(platform: &Platform, scale: usize, seed: u64) -> ThreeLevelMapping {
    let path = mapping_artifact_path("pmevo", SelectionPolicy::OneShot, platform, scale);
    if let Some(m) = load_mapping(&path, platform) {
        return m;
    }
    eprintln!(
        "[pmevo-bench] no cached mapping at {}; running inference (use `table2` to pre-compute)",
        path.display()
    );
    let algorithm = PmEvoAlgorithm::new(default_pipeline_config(scale, seed));
    let report = inference_session(
        platform,
        algorithm,
        seed,
        SelectionPolicy::OneShot,
        MeasurementBudget::UNLIMITED,
    )
    .run();
    save_mapping(&path, &report.mapping);
    report.mapping
}

/// Loads a cached mapping if present and shape-compatible.
pub fn load_mapping(path: &Path, platform: &Platform) -> Option<ThreeLevelMapping> {
    let data = std::fs::read_to_string(path).ok()?;
    let mapping = ThreeLevelMapping::from_json(&data).ok()?;
    (mapping.num_insts() == platform.isa().len()
        && mapping.num_ports() == platform.num_ports())
    .then_some(mapping)
}

/// Saves a mapping as pretty JSON.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn save_mapping(path: &Path, mapping: &ThreeLevelMapping) {
    let json = mapping.to_json_pretty();
    std::fs::write(path, json).expect("write mapping artifact");
}

/// A minimal `--flag value` / `--switch` parser for the reproduction
/// binaries.
///
/// # Example
///
/// ```
/// use pmevo_bench::Args;
///
/// let args = Args::parse_from(["--n", "100", "--full"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("n", 5), 100);
/// assert!(args.has("full"));
/// assert_eq!(args.seed(7), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process's CLI arguments.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (for tests).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut pairs = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next(),
                    _ => None,
                };
                pairs.push((name.to_string(), value));
            } else {
                eprintln!("[pmevo-bench] ignoring stray argument {a:?}");
            }
        }
        Args { pairs }
    }

    /// Whether `--name` was given (with or without value).
    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name` as `usize`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get_str(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}")))
            .unwrap_or(default)
    }

    /// The value of `--name` as `u64`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get_str(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}")))
            .unwrap_or(default)
    }

    /// The shared `--seed` flag, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn seed(&self, default: u64) -> u64 {
        self.get_u64("seed", default)
    }

    /// The raw value of `--name`, if given.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// Resolves the platforms selected by the shared `--platform NAME` flag
/// (default: the three paper platforms; `TINY` is opt-in).
///
/// # Panics
///
/// Panics on an unknown platform name.
pub fn selected_platforms(args: &Args) -> Vec<Platform> {
    use pmevo_machine::platforms;
    match args.get_str("platform") {
        None => vec![platforms::skl(), platforms::zen(), platforms::a72()],
        Some(name) => match name.to_uppercase().as_str() {
            "SKL" => vec![platforms::skl()],
            "ZEN" => vec![platforms::zen()],
            "A72" => vec![platforms::a72()],
            "TINY" => vec![platforms::tiny()],
            other => panic!("unknown platform {other}; expected SKL, ZEN, A72 or TINY"),
        },
    }
}

/// Resolves the shared experiment-selection flags: `--selection
/// one-shot|disagreement|uniform` (default `one-shot`) with `--top-k N`
/// (default 16, clamped to at least 1) for the round-based policies.
///
/// # Panics
///
/// Panics on an unknown policy name or a non-numeric `--top-k`.
pub fn selected_selection(args: &Args) -> SelectionPolicy {
    let top_k = args.get_usize("top-k", 16).max(1);
    match args.get_str("selection").unwrap_or("one-shot") {
        "one-shot" => SelectionPolicy::OneShot,
        "disagreement" => SelectionPolicy::Disagreement { top_k },
        "uniform" => SelectionPolicy::Uniform { top_k },
        other => panic!("unknown selection policy {other}; expected one-shot, disagreement or uniform"),
    }
}

/// Resolves the shared `--budget N` flag (maximum real measurements)
/// into a [`MeasurementBudget`]; absent or 0 means unlimited.
///
/// # Panics
///
/// Panics if the value does not parse.
pub fn selected_budget(args: &Args) -> MeasurementBudget {
    match args.get_u64("budget", 0) {
        0 => MeasurementBudget::UNLIMITED,
        n => MeasurementBudget::measurements(n),
    }
}

/// Resolves the shared `--algorithm NAME` flag into an
/// [`InferenceAlgorithm`] (default: `pmevo`). `scale` and `seed` only
/// affect the algorithms that use them; the shared
/// `--selection`/`--budget`/`--top-k` flags only affect PMEvo.
///
/// # Panics
///
/// Panics on an unknown algorithm name.
pub fn selected_algorithm(
    args: &Args,
    scale: usize,
    seed: u64,
) -> Box<dyn InferenceAlgorithm + Send> {
    match args.get_str("algorithm").unwrap_or("pmevo") {
        "pmevo" => {
            let mut config = default_pipeline_config(scale, seed);
            config.selection = selected_selection(args);
            config.budget = selected_budget(args);
            Box::new(PmEvoAlgorithm::new(config))
        }
        "counting" => Box::new(CountingAlgorithm),
        "random" => Box::new(RandomAlgorithm::new(seed)),
        "lp" => Box::new(LpAlgorithm::default()),
        other => panic!("unknown algorithm {other}; expected pmevo, counting, random or lp"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_machine::platforms;

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let a = sample_experiments(50, 5, 10, 1);
        let b = sample_experiments(50, 5, 10, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|e| e.total_insts() == 5));
        assert_ne!(a, sample_experiments(50, 5, 10, 2));
    }

    #[test]
    fn backend_measurement_pairs_experiments_in_order() {
        let p = platforms::skl();
        let exps = sample_experiments(p.isa().len(), 3, 6, 3);
        let mut backend = SimBackend::new(p.clone(), MeasureConfig::exact());
        let benchmark = measure_benchmark_set(&mut backend, &exps);
        assert_eq!(benchmark.len(), exps.len());
        let measurer = pmevo_machine::Measurer::new(&p, MeasureConfig::exact());
        for (me, e) in benchmark.iter().zip(&exps) {
            assert_eq!(&me.experiment, e);
            assert_eq!(me.throughput, measurer.measure(e));
        }
    }

    #[test]
    fn args_parser_handles_flags_and_values() {
        let args = Args::parse_from(
            ["--n", "42", "--full", "--platform", "zen", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.get_usize("n", 0), 42);
        assert!(args.has("full"));
        assert_eq!(args.seed(0), 9);
        assert_eq!(args.get_str("platform"), Some("zen"));
        assert_eq!(selected_platforms(&args)[0].name(), "ZEN");
        assert_eq!(selected_platforms(&Args::default()).len(), 3);
    }

    #[test]
    fn algorithm_flag_selects_each_implementation() {
        for (flag, name) in [
            ("pmevo", "PMEvo"),
            ("counting", "counting"),
            ("random", "random"),
            ("lp", "lp"),
        ] {
            let args = Args::parse_from(["--algorithm", flag].iter().map(|s| s.to_string()));
            assert_eq!(selected_algorithm(&args, 1, 0).name(), name);
        }
        assert_eq!(selected_algorithm(&Args::default(), 1, 0).name(), "PMEvo");
    }

    #[test]
    fn mapping_cache_roundtrip() {
        let p = platforms::a72();
        let dir = std::env::temp_dir().join(format!("pmevo-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        save_mapping(&path, p.ground_truth());
        let m = load_mapping(&path, &p).expect("roundtrip");
        assert_eq!(&m, p.ground_truth());
        // Mismatched platform is rejected.
        assert!(load_mapping(&path, &platforms::skl()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
