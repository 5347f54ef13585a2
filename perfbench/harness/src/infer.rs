//! The inference phase: repeated `Session::run` over a seeded universe,
//! held-out accuracy against exact simulation, and the probes of the
//! `machine`, `isa`, `evo` and `core` layers.

use crate::adapters::{adapted_backend, stratified_subset, SubsetBackend};
use crate::stats::{median, time_per_call, Metrics};
use crate::trace::{self, Span, Tracer};
use pmevo::machine::{platforms, simulate_kernel, MeasureConfig, Measurer, Platform, SimBackend};
use pmevo::{Session, SessionReport};
use pmevo_bench::{evaluate_predictor, measure_benchmark_set, sample_experiments};
use pmevo_core::{
    CompiledExperiments, InstId, MappingPredictor, MeasuredExperiment, MeasurementBudget,
    SelectionPolicy, ThreeLevelMapping, ThroughputSolver, UopEntry,
};
use pmevo_evo::{
    average_relative_error, CongruencePartition, FitnessEngine, PipelineConfig, PmEvoAlgorithm,
};
use pmevo_isa::LoopBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one workload infers.
#[derive(Debug, Clone)]
pub struct InferSpec {
    pub platform: &'static str,
    /// Size of the class-stratified subset; `None` infers over the full ISA.
    pub forms: Option<usize>,
    pub selection: SelectionPolicy,
    pub budget: MeasurementBudget,
    pub population: usize,
    /// Generations of the final evolution run, always all of them: early
    /// stopping on a stalled best error is off, so every seed pays the
    /// same evolutionary work.
    pub generations: u32,
}

/// The seed every subset is drawn from. Which form of a class is drawn
/// changes the simulator's cost (a divider's pairs simulate many more
/// cycles than an adder's), so one fixed subset keeps the measured work
/// the same on every run seed.
const SUBSET_SEED: u64 = 0;

/// Held-out blocks of five instructions scored against exact simulation.
const HELDOUT_BLOCKS: usize = 512;

/// A session universe: session instruction `i` is platform form `forms[i]`.
pub struct Universe {
    pub platform: Platform,
    pub forms: Vec<InstId>,
}

impl Universe {
    pub fn build(spec: &InferSpec) -> Universe {
        let platform =
            platforms::by_name(spec.platform).expect("workload names a built-in platform");
        let forms = match spec.forms {
            Some(count) => stratified_subset(&platform, count, SUBSET_SEED),
            None => (0..platform.isa().len() as u32).map(InstId).collect(),
        };
        Universe { platform, forms }
    }

    pub fn len(&self) -> usize {
        self.forms.len()
    }

    pub fn names(&self) -> Vec<String> {
        self.forms
            .iter()
            .map(|&f| self.platform.isa().form(f).name.clone())
            .collect()
    }

    /// The platform's ground truth restricted to the universe.
    pub fn ground_truth(&self) -> ThreeLevelMapping {
        let gt = self.platform.ground_truth();
        let decomp = self
            .forms
            .iter()
            .map(|&f| gt.decomposition(f).to_vec())
            .collect();
        ThreeLevelMapping::new(gt.num_ports(), decomp)
    }
}

/// One `Session::run` and what the harness observed around it.
pub struct Rep {
    pub setup_s: f64,
    pub infer_s: f64,
    pub traced: bool,
    pub outcome: Result<Outcome, String>,
}

pub struct Outcome {
    pub report: SessionReport,
    pub checksum: u64,
    pub spans: Vec<Span>,
    /// Every leaf measurement in platform ids (traced reps only).
    pub corpus: Vec<MeasuredExperiment>,
}

/// The deterministic values every run of a seed must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub checksum: u64,
    pub measurements: u64,
    pub classes: usize,
    pub rounds: usize,
}

impl Outcome {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            checksum: self.checksum,
            measurements: self.report.measurements_performed,
            classes: self.report.num_classes,
            rounds: self.report.rounds.len(),
        }
    }
}

fn well_formed(mapping: &ThreeLevelMapping, universe: &Universe) -> Result<(), String> {
    if mapping.num_insts() != universe.len() || mapping.num_ports() != universe.platform.num_ports()
    {
        return Err(format!(
            "mapping shape {}x{} differs from the universe's {}x{}",
            mapping.num_insts(),
            mapping.num_ports(),
            universe.len(),
            universe.platform.num_ports()
        ));
    }
    match (0..mapping.num_insts() as u32).find(|&i| mapping.decomposition(InstId(i)).is_empty()) {
        Some(i) => Err(format!("instruction {i} has no µop")),
        None => Ok(()),
    }
}

/// Builds the universe and the session (timed as set-up), then runs it.
pub fn run_rep(spec: &InferSpec, seed: u64, traced: bool) -> Rep {
    let setup_start = Instant::now();
    let universe = Universe::build(spec);
    let tracer = Tracer::new(traced);
    let log = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let backend = adapted_backend(
        &universe.platform,
        universe.forms.clone(),
        MeasureConfig::default(),
        tracer.clone(),
        log.clone(),
    );
    let mut config = PipelineConfig {
        selection: spec.selection,
        budget: spec.budget,
        ..PipelineConfig::default()
    };
    config.evo.seed = seed;
    config.evo.population_size = spec.population;
    config.evo.max_generations = spec.generations;
    config.evo.stall_generations = u32::MAX;
    let session = Session::builder()
        .universe(universe.len(), universe.platform.num_ports())
        .backend(backend)
        .algorithm(PmEvoAlgorithm::new(config))
        .seed(seed)
        .selection(spec.selection)
        .budget(spec.budget)
        .accuracy_benchmarks(0)
        .build();
    let setup_s = setup_start.elapsed().as_secs_f64();
    let Ok(session) = session else {
        return Rep {
            setup_s,
            infer_s: 0.0,
            traced,
            outcome: Err("session did not build".into()),
        };
    };
    let run_start = Instant::now();
    let result = {
        let _span = tracer.enter("evo.session_run");
        catch_unwind(AssertUnwindSafe(|| session.run()))
    };
    let infer_s = run_start.elapsed().as_secs_f64();
    let outcome = match result {
        Err(_) => Err("Session::run panicked".to_owned()),
        Ok(report) => well_formed(&report.mapping, &universe).map(|()| Outcome {
            checksum: pmevo_core::binfmt::fnv1a(report.mapping.to_json().as_bytes()),
            report,
            spans: tracer.spans(),
            corpus: log
                .map(|l| std::mem::take(&mut *l.lock().expect("measurement log poisoned")))
                .unwrap_or_default(),
        }),
    };
    Rep {
        setup_s,
        infer_s,
        traced,
        outcome,
    }
}

/// Runs reps until the next one would overrun `budget_s` (at least
/// `min_reps`). Traced runs alternate untraced and traced reps so the
/// tracing overhead is measured in the same process.
pub fn run_phase(
    spec: &InferSpec,
    seed: u64,
    budget_s: f64,
    trace: bool,
    min_reps: usize,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = trace && reps.len() % 2 == 1;
        let rep = run_rep(spec, seed, traced);
        eprintln!(
            "rep {}: setup {:.4} s, infer {:.4} s{}",
            reps.len(),
            rep.setup_s,
            rep.infer_s,
            if traced { " (traced)" } else { "" }
        );
        reps.push(rep);
        let typical = median(
            &reps
                .iter()
                .map(|r| r.setup_s + r.infer_s)
                .collect::<Vec<_>>(),
        );
        let elapsed = start.elapsed().as_secs_f64();
        if reps.len() >= min_reps && elapsed + typical > budget_s {
            return reps;
        }
    }
}

/// Held-out MAPE (percent) of `mapping` on seeded blocks of five
/// instructions over the universe, against exact simulated throughput.
pub fn heldout_mape(universe: &Universe, mapping: &ThreeLevelMapping, seed: u64) -> f64 {
    let blocks = sample_experiments(universe.len(), 5, HELDOUT_BLOCKS, seed ^ 0x04E1_D0E7);
    let mut exact = SubsetBackend::new(
        SimBackend::new(universe.platform.clone(), MeasureConfig::exact()),
        universe.forms.clone(),
    );
    let benchmark = measure_benchmark_set(&mut exact, &blocks);
    let predictor = MappingPredictor::new("inferred", mapping.clone());
    evaluate_predictor(&predictor, &benchmark).1.mape
}

/// Per-layer numbers of the traced reps, from their spans.
pub fn span_metrics(reps: &[Rep], metrics: &mut Metrics) {
    let traced: Vec<(&Rep, &Outcome)> = reps
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| (r, o)))
        .collect();
    let mut measure_s = Vec::new();
    let mut share = Vec::new();
    let mut batches = Vec::new();
    let mut us_per = Vec::new();
    let mut self_s = Vec::new();
    let mut self_share = Vec::new();
    let mut round_ms = Vec::new();
    for (rep, o) in &traced {
        let totals = trace::totals(&o.spans);
        let machine = totals
            .get("machine.measure_batch")
            .copied()
            .unwrap_or_default();
        let run = totals.get("evo.session_run").copied().unwrap_or_default();
        let m = machine.total_ns as f64 / 1e9;
        measure_s.push(m);
        share.push(m / rep.infer_s);
        batches.push(machine.calls as f64);
        us_per.push(m * 1e6 / o.report.measurements_performed.max(1) as f64);
        self_s.push(run.self_ns as f64 / 1e9);
        self_share.push(run.self_ns as f64 / run.total_ns.max(1) as f64);
        // Algorithm time between consecutive measurement batches.
        if let Some(root) = o.spans.iter().position(|s| s.name == "evo.session_run") {
            let batch: Vec<&Span> = trace::children(&o.spans, root)
                .filter(|s| s.name == "machine.measure_batch")
                .collect();
            let gaps: Vec<f64> = batch
                .windows(2)
                .map(|w| (w[1].start_ns - w[0].end_ns) as f64 / 1e6)
                .collect();
            if !gaps.is_empty() {
                round_ms.push(median(&gaps));
            }
        }
    }
    metrics.put("machine.measure_s", median(&measure_s));
    metrics.put("machine.measure_share", median(&share));
    metrics.put("machine.batches", median(&batches));
    metrics.put("machine.us_per_measurement", median(&us_per));
    metrics.put("evo.self_s", median(&self_s));
    metrics.put("evo.self_share", median(&self_share));
    metrics.put("evo.round_self_ms", median(&round_ms));
    let untraced: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.infer_s)
        .collect();
    let traced_s: Vec<f64> = traced.iter().map(|(r, _)| r.infer_s).collect();
    metrics.put(
        "trace.overhead_pct",
        100.0 * (median(&traced_s) / median(&untraced) - 1.0),
    );
}

/// The single-threaded probes of the inference layers, on the inputs the
/// traced rep fed them; each checks that it reproduces what the workload
/// saw. Returns the first mismatch as an error.
pub fn probes(
    spec: &InferSpec,
    universe: &Universe,
    outcome: &Outcome,
    seed: u64,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let platform = &universe.platform;
    let config = MeasureConfig::default();
    let report = &outcome.report;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x009B_0BE5);

    // machine + isa: a seeded sample of the run's measured experiments.
    let sample: Vec<&MeasuredExperiment> = (0..48.min(outcome.corpus.len()))
        .map(|_| &outcome.corpus[rng.gen_range(0..outcome.corpus.len())])
        .collect();
    let builder = LoopBuilder::new(platform.isa()).body_len(config.body_len);
    let exact = Measurer::new(platform, MeasureConfig::exact());
    let noisy = Measurer::new(platform, config.clone());
    let (mut build_s, mut sim_s, mut cycles) = (0.0, 0.0, 0u64);
    for me in &sample {
        let kernel = builder.build(&me.experiment);
        build_s += {
            let _span = tracer.enter("isa.loop_build");
            time_per_call(0.002, || {
                black_box(builder.build(black_box(&me.experiment)));
            })
        };
        let _span = tracer.enter("machine.simulate_kernel");
        let start = Instant::now();
        let result = simulate_kernel(
            platform,
            &kernel,
            config.warmup_iters,
            config.warmup_iters + config.measure_iters,
        );
        sim_s += start.elapsed().as_secs_f64();
        cycles += result.total_cycles;
        if result.cycles_per_instance != exact.measure(&me.experiment) {
            return Err(format!(
                "simulate_kernel disagrees with the exact Measurer on {}",
                me.experiment
            ));
        }
        if noisy.measure(&me.experiment) != me.throughput {
            return Err(format!(
                "re-measuring {} does not reproduce the workload's value",
                me.experiment
            ));
        }
    }
    let kernels = sample.len().max(1) as f64;
    metrics.put("isa.loop_build_us", build_s * 1e6 / kernels);
    metrics.put("machine.sim_us_per_kernel", sim_s * 1e6 / kernels);
    metrics.put("machine.sim_cycles", cycles as f64 / kernels);
    metrics.put("machine.sim_mcycles_per_s", cycles as f64 / sim_s / 1e6);

    // The training corpus in session ids.
    let session_id: BTreeMap<InstId, InstId> = universe
        .forms
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, InstId(i as u32)))
        .collect();
    let corpus: Vec<MeasuredExperiment> = outcome
        .corpus
        .iter()
        .map(|me| {
            MeasuredExperiment::new(me.experiment.map_insts(|i| session_id[&i]), me.throughput)
        })
        .collect();
    let ids: Vec<InstId> = (0..universe.len() as u32).map(InstId).collect();

    // evo: congruence over the recorded corpus. One-shot runs partition
    // exactly this corpus; adaptive runs seed congruence by pairwise
    // verification instead, so there the probe only times the call.
    let (partition, congruence_s) = {
        let _span = tracer.enter("evo.congruence");
        let start = Instant::now();
        let partition = CongruencePartition::compute(&ids, &corpus, 0.05);
        (partition, start.elapsed().as_secs_f64())
    };
    metrics.put("evo.congruence_ms", congruence_s * 1e3);
    if !spec.selection.is_adaptive() {
        if partition.num_classes() != report.num_classes {
            return Err(format!(
                "congruence probe found {} classes, the run {}",
                partition.num_classes(),
                report.num_classes
            ));
        }
        // The run trained on the corpus restricted to representatives, in
        // dense representative ids: its training error must reproduce.
        let reps = partition.representatives();
        let dense: BTreeMap<InstId, InstId> = reps
            .iter()
            .enumerate()
            .map(|(k, &r)| (r, InstId(k as u32)))
            .collect();
        let rep_corpus: Vec<MeasuredExperiment> = corpus
            .iter()
            .filter(|me| me.experiment.iter().all(|(i, _)| dense.contains_key(&i)))
            .map(|me| {
                MeasuredExperiment::new(me.experiment.map_insts(|i| dense[&i]), me.throughput)
            })
            .collect();
        let rep_mapping = ThreeLevelMapping::new(
            report.mapping.num_ports(),
            reps.iter()
                .map(|&r| report.mapping.decomposition(r).to_vec())
                .collect(),
        );
        let error = FitnessEngine::new(&rep_corpus, 1)
            .evaluate(&rep_mapping)
            .error;
        if Some(error) != report.training_error {
            return Err(format!(
                "fitness probe error {error} differs from the run's {:?}",
                report.training_error
            ));
        }
    }

    // evo: batch fitness of seeded candidates, and delta re-evaluation.
    let mut engine = FitnessEngine::new(&corpus, 1);
    let indiv: Vec<f64> = {
        let mut t = vec![1.0; universe.len()];
        for me in &corpus {
            if let [(i, 1)] = me.experiment.counts() {
                t[i.index()] = me.throughput;
            }
        }
        t
    };
    let ports = report.mapping.num_ports();
    let mut candidates: Vec<ThreeLevelMapping> = (0..31)
        .map(|_| ThreeLevelMapping::sample_random(&mut rng, universe.len(), ports, &indiv))
        .collect();
    candidates.push(report.mapping.clone());
    let candidates = Arc::new(candidates);
    let mut objectives = Vec::new();
    let batch_s = {
        let _span = tracer.enter("evo.fitness_batch");
        time_per_call(0.05, || objectives = engine.evaluate_batch(&candidates))
    };
    metrics.put(
        "evo.fitness_us_per_candidate",
        batch_s * 1e6 / candidates.len() as f64,
    );
    for (m, o) in candidates.iter().zip(&objectives) {
        if o.error != average_relative_error(m, &corpus) {
            return Err("FitnessEngine::evaluate_batch disagrees with the reference error".into());
        }
    }
    let cache = engine.build_cache(&report.mapping);
    let mutations: Vec<(InstId, ThreeLevelMapping)> = (0..64)
        .map(|_| {
            let inst = InstId(rng.gen_range(0..universe.len() as u32));
            let mut m = report.mapping.clone();
            let ports = pmevo_core::PortSet::from_mask(rng.gen_range(1..1u64 << ports));
            m.set_decomposition(inst, vec![UopEntry::new(rng.gen_range(1..3), ports)]);
            (inst, m)
        })
        .collect();
    let mut deltas = Vec::with_capacity(mutations.len());
    let delta_s = {
        let _span = tracer.enter("evo.fitness_delta");
        time_per_call(0.02, || {
            deltas.clear();
            deltas.extend(
                mutations
                    .iter()
                    .map(|(inst, m)| engine.try_update(m, &cache, *inst)),
            );
        })
    };
    metrics.put(
        "evo.fitness_delta_us",
        delta_s * 1e6 / mutations.len() as f64,
    );
    for ((_, m), d) in mutations.iter().zip(&deltas) {
        if d.error != engine.evaluate(m).error {
            return Err("FitnessEngine::try_update disagrees with a full evaluation".into());
        }
    }

    // core: the batch solver over the training corpus.
    let compiled = CompiledExperiments::compile(&corpus);
    let indices: Vec<u32> = (0..corpus.len() as u32).collect();
    let mut solver = ThroughputSolver::new();
    let mut predicted = Vec::new();
    let solve_s = {
        let _span = tracer.enter("core.predict_batch");
        time_per_call(0.05, || {
            solver.load_mapping(&compiled, &report.mapping);
            solver.predict_batch(&compiled, &indices, &mut predicted);
        })
    };
    metrics.put(
        "core.solver_ns_per_exp",
        solve_s * 1e9 / corpus.len().max(1) as f64,
    );
    if corpus
        .iter()
        .zip(&predicted)
        .any(|(me, &t)| t != report.mapping.throughput(&me.experiment))
    {
        return Err(
            "ThroughputSolver::predict_batch disagrees with the mapping's throughput".into(),
        );
    }
    Ok(())
}
