//! The end-to-end PMEvo pipeline (paper Figure 5).
//!
//! Wires experiment generation → measurement → congruence filtering →
//! evolutionary optimization, and records the bookkeeping reported in
//! paper Table 2 (benchmarking time, inference time, fraction of
//! congruent instructions, number of distinct µops).
//!
//! Measurement goes through a [`MeasurementBackend`] — a simulator
//! ([`SimBackend`](../../pmevo_machine/struct.SimBackend.html)), a
//! recorded artifact ([`pmevo_core::ReplayBackend`]), real hardware, or
//! any decorator stack over those. Benchmarking time and measurement
//! counts come from the backend's [`BackendStats`] delta, so a
//! [`pmevo_core::CachingBackend`] that answers from its cache is not
//! billed again.
//!
//! Every run goes through one *start state*: a [`SessionCheckpoint`]
//! holding the measured corpus, the singleton throughputs, the
//! congruence classes and the round-0 accounting, but no evolution
//! state yet. A fresh run measures until evolution can start and packs
//! that state itself; a resumed run decodes it from the checkpoint
//! file. Evolution, checkpointing and the final bookkeeping then follow
//! a single path for both.

use crate::congruence::{throughput_close, CongruencePartition};
use crate::evolution::EvoConfig;
use crate::expgen::ExperimentGenerator;
use crate::islands::{evolve_islands, EvoState, IslandConfig, IslandControl, IslandObserver, IslandStart};
use crate::selection::{run_adaptive, AdaptiveTuning};
use pmevo_core::checkpoint::{CheckpointPhase, SessionCheckpoint};
use pmevo_core::{
    BackendStats, Experiment, InferredMapping, InstId, MeasuredExperiment, MeasurementBackend,
    MeasurementBudget, RoundStats, SelectionPolicy, ThreeLevelMapping,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Configuration of a full pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Symmetric-relative-difference bound ε for congruence filtering
    /// (paper evaluation: 0.05).
    pub epsilon: f64,
    /// Set to `false` to skip congruence filtering (ablation); every
    /// instruction becomes its own class.
    pub congruence_filtering: bool,
    /// How experiments are chosen: the paper's up-front corpus
    /// ([`SelectionPolicy::OneShot`], the default) or a round-based
    /// adaptive loop (see [`crate::selection`]).
    pub selection: SelectionPolicy,
    /// Measurement budget for the round-based policies (ignored by
    /// [`SelectionPolicy::OneShot`]).
    pub budget: MeasurementBudget,
    /// Tuning of the round-based loop (ignored by
    /// [`SelectionPolicy::OneShot`]).
    pub adaptive: AdaptiveTuning,
    /// Parameters of the evolutionary algorithm.
    pub evo: EvoConfig,
    /// Island topology for every evolution run (one island by default —
    /// the classic loop, bit for bit).
    pub islands: IslandConfig,
    /// Checkpoint/resume configuration; `None` disables both.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epsilon: 0.05,
            congruence_filtering: true,
            selection: SelectionPolicy::OneShot,
            budget: MeasurementBudget::UNLIMITED,
            adaptive: AdaptiveTuning::default(),
            evo: EvoConfig::default(),
            islands: IslandConfig::default(),
            checkpoint: None,
        }
    }
}

/// Checkpoint/resume configuration of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Where the checkpoint artifact is written (atomically: a `.tmp`
    /// sibling is renamed into place on every write).
    pub path: PathBuf,
    /// Write every this many evolution generations; phase boundaries
    /// (pre-polish) are always written. Values `<= 1` write every
    /// generation.
    pub every: u32,
    /// A previously written checkpoint to continue from; `None` starts
    /// fresh. The resumed run re-measures nothing and is bit-identical
    /// to the uninterrupted one (up to wall-clock timings).
    pub resume_from: Option<Box<SessionCheckpoint>>,
    /// Stop the run right after this many checkpoint writes — a
    /// deterministic stand-in for `kill -9` used by the resume tests and
    /// `pmevo-cli infer --halt-after-checkpoints`.
    pub halt_after: Option<u32>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every` generations, no resume, no
    /// halt.
    pub fn new(path: impl Into<PathBuf>, every: u32) -> Self {
        CheckpointConfig {
            path: path.into(),
            every,
            resume_from: None,
            halt_after: None,
        }
    }
}

/// Writes a run's checkpoints on the configured cadence: the start
/// state's header and progress, plus the live evolution state.
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    every: u32,
    halt_after: Option<u32>,
    written: u32,
    generations_seen: u32,
}

impl CheckpointWriter {
    fn new(cfg: &CheckpointConfig) -> Self {
        CheckpointWriter {
            path: cfg.path.clone(),
            every: cfg.every.max(1),
            halt_after: cfg.halt_after,
            written: 0,
            generations_seen: 0,
        }
    }

    /// Writes `state` with the live evolution state `evo` when due:
    /// after every `every`-th generation, and always at the pre-polish
    /// boundary. Returns [`IslandControl::Halt`] once `halt_after`
    /// checkpoints are written.
    pub(crate) fn on_state(&mut self, state: &SessionCheckpoint, evo: &EvoState) -> IslandControl {
        let due = match state.phase {
            CheckpointPhase::PrePolish => true,
            _ => {
                self.generations_seen += 1;
                self.generations_seen.is_multiple_of(self.every)
            }
        };
        if !due {
            return IslandControl::Continue;
        }
        let cp = SessionCheckpoint {
            evo: Some(evo.to_checkpoint()),
            ..state.clone()
        };
        if let Err(e) = cp.save(&self.path) {
            panic!("cannot write checkpoint: {e}");
        }
        self.written += 1;
        if self.halt_after.is_some_and(|n| self.written >= n) {
            return IslandControl::Halt;
        }
        IslandControl::Continue
    }

    /// An [`IslandObserver`] body that checkpoints `state` with every
    /// generation's evolution state.
    pub(crate) fn observer<'a>(
        &'a mut self,
        state: &'a SessionCheckpoint,
    ) -> impl FnMut(&EvoState) -> IslandControl + 'a {
        move |evo| self.on_state(state, evo)
    }
}

/// Expands a mapping over the representative universe back to the full
/// universe: every instruction carries its class representative's
/// decomposition.
fn expand_mapping(
    universe: &[InstId],
    partition: &CongruencePartition,
    rep_index: &BTreeMap<InstId, u32>,
    dense: &ThreeLevelMapping,
    num_ports: usize,
) -> ThreeLevelMapping {
    let full_decomp = universe
        .iter()
        .map(|&id| {
            let rep = partition.representative(id);
            dense.decomposition(InstId(rep_index[&rep])).to_vec()
        })
        .collect();
    ThreeLevelMapping::new(num_ports, full_decomp)
}

/// Runs the full PMEvo pipeline on an instruction universe of
/// `num_insts` forms (ids `0..num_insts`) over a machine with
/// `num_ports` ports, measuring through `backend`, and returns the
/// mapping, expanded to the full universe, with the Table 2
/// bookkeeping. Benchmarking time and measurement counts come from the
/// backend's [`BackendStats`]; inference time is the wall time of this
/// call minus the time this process spent measuring.
///
/// With the default [`SelectionPolicy::OneShot`] the full §4.1 corpus
/// is measured up front; with a round-based policy the pipeline
/// interleaves measurement and evolution rounds under
/// [`PipelineConfig::budget`] (see [`crate::selection`]). In that mode
/// the paper's pair-informed congruence partition is replaced by
/// pairwise-verified seeding (one targeted pair measurement per
/// equally-fast candidate; see `verified_congruence_seed`), skipped
/// when the budget is already spent by the singleton sweep.
///
/// The budget governs the round loop: the singleton sweep is mandatory
/// (inference is undefined without it), so a budget smaller than the
/// universe is exceeded by the seed corpus and no rounds are run.
///
/// With [`CheckpointConfig::resume_from`] set, the run continues that
/// checkpoint instead: nothing is re-measured, budget accounting starts
/// from its [`SessionCheckpoint::used`], and the result is bit-identical
/// to the uninterrupted run's (up to wall-clock timings).
///
/// # Panics
///
/// Panics if `num_insts == 0`, the backend returns the wrong number of
/// results, measurements are not positive and finite, or a resumed
/// checkpoint's header disagrees with the configuration (universe
/// size, port count, seed, islands, population size, selection policy,
/// or budget) or carries no round stats.
pub fn run(
    num_insts: usize,
    num_ports: usize,
    backend: &mut dyn MeasurementBackend,
    config: &PipelineConfig,
) -> InferredMapping {
    assert!(num_insts > 0, "empty instruction universe");
    let run_start: BackendStats = backend.stats();
    let wall_start = Instant::now();
    let resume_from = config.checkpoint.as_ref().and_then(|c| c.resume_from.as_deref());
    let mut state = match resume_from {
        Some(snapshot) => {
            assert_eq!(snapshot.num_insts, num_insts, "checkpoint instruction-universe mismatch");
            assert_eq!(snapshot.num_ports, num_ports, "checkpoint port-count mismatch");
            assert_eq!(snapshot.seed, config.evo.seed, "checkpoint seed mismatch");
            assert_eq!(snapshot.islands, config.islands.count, "checkpoint island-count mismatch");
            assert_eq!(
                snapshot.population_size as usize, config.evo.population_size,
                "checkpoint population-size mismatch"
            );
            assert_eq!(snapshot.selection, config.selection, "checkpoint selection-policy mismatch");
            assert_eq!(snapshot.budget, config.budget, "checkpoint budget mismatch");
            assert!(!snapshot.rounds.is_empty(), "checkpoint without round stats");
            snapshot.clone()
        }
        None => start_state(num_insts, num_ports, backend, config),
    };
    // Accounting so far; the run charges its own measurements on top.
    let prior = state.used;
    let loop_start = backend.stats();

    // The congruence classes (`rep_of[i]` = representative of `i`);
    // evolution runs on the representative universe `0..reps.len()`.
    let universe: Vec<InstId> = (0..num_insts as u32).map(InstId).collect();
    let repr: BTreeMap<InstId, InstId> = state
        .rep_of
        .iter()
        .enumerate()
        .filter(|&(i, &r)| r != i as u32)
        .map(|(i, &r)| (InstId(i as u32), InstId(r)))
        .collect();
    let partition = CongruencePartition::from_representatives(&universe, repr);
    let reps = partition.representatives().to_vec();
    let rep_index: BTreeMap<InstId, u32> = reps
        .iter()
        .enumerate()
        .map(|(k, &id)| (id, k as u32))
        .collect();
    let rep_indiv: Vec<f64> = reps.iter().map(|&id| state.indiv_tp[id.index()]).collect();

    let mut writer = config.checkpoint.as_ref().map(CheckpointWriter::new);
    let evo = if config.selection.is_adaptive() {
        run_adaptive(
            &reps,
            num_ports,
            &rep_indiv,
            backend,
            config,
            &mut state,
            &loop_start,
            writer.as_mut(),
        )
    } else {
        // One-shot (paper Figure 5): a single evolution run over the
        // experiments entirely over representatives, remapped to the
        // representative universe (one island is the paper's classic
        // loop, bit for bit).
        let rep_measured: Vec<MeasuredExperiment> = state
            .measured
            .iter()
            .filter(|me| me.experiment.iter().all(|(i, _)| rep_index.contains_key(&i)))
            .map(|me| {
                let exp = me.experiment.map_insts(|i| InstId(rep_index[&i]));
                MeasuredExperiment::new(exp, me.throughput)
            })
            .collect();
        let start = match state.evo.take() {
            Some(cp) => IslandStart::Resume(EvoState::from_checkpoint(&cp)),
            None => IslandStart::Fresh(Vec::new()),
        };
        let evo = {
            let mut observe = writer.as_mut().map(|w| w.observer(&state));
            evolve_islands(
                reps.len(),
                num_ports,
                &rep_measured,
                &rep_indiv,
                &config.evo,
                &config.islands,
                start,
                true,
                observe.as_mut().map(|f| f as IslandObserver<'_>),
            )
            .result
        };
        state.rounds[0].training_error = evo.objectives.error;
        state.round_mappings.push(evo.mapping.clone());
        evo
    };

    // Expand the representative mappings back to the full universe.
    // Inference time is everything this process did not spend measuring.
    let used = prior.plus(&backend.stats().since(&loop_start));
    let measured_here = backend.stats().since(&run_start).measurement_time;
    let expand = |dense: &ThreeLevelMapping| {
        expand_mapping(&universe, &partition, &rep_index, dense, num_ports)
    };
    InferredMapping {
        algorithm: "PMEvo".to_owned(),
        mapping: expand(&evo.mapping),
        num_experiments: state.measured.len(),
        measurements_performed: used.measurements_performed,
        benchmarking_time: used.measurement_time,
        inference_time: wall_start.elapsed().saturating_sub(measured_here),
        congruent_fraction: partition.merged_fraction(),
        num_classes: partition.num_classes(),
        training_error: Some(evo.objectives.error),
        rounds: state.rounds,
        round_mappings: state.round_mappings.iter().map(expand).collect(),
    }
}

/// Measures a fresh run until evolution can start and packs the result
/// into its start state, phase [`CheckpointPhase::OneShot`] or
/// [`CheckpointPhase::Round`]`(0)`, with no evolution state.
///
/// Both policies start with the singleton sweep. One-shot then measures
/// the full pair corpus and partitions it; the round-based policies seed
/// their classes by pairwise verification under the budget and keep only
/// the experiments entirely over representatives (a merged candidate's
/// measurements are paid for but train nothing — its representative
/// carries the class).
pub(crate) fn start_state(
    num_insts: usize,
    num_ports: usize,
    backend: &mut dyn MeasurementBackend,
    config: &PipelineConfig,
) -> SessionCheckpoint {
    let universe: Vec<InstId> = (0..num_insts as u32).map(InstId).collect();
    let generator = ExperimentGenerator::new(universe.clone());
    let run_start: BackendStats = backend.stats();

    // The singleton sweep — the seed corpus of every policy. Cost is
    // accounted by the backend itself, so deduplicated measurements are
    // not double-counted.
    let singletons = generator.singletons();
    let indiv_tp = backend.measure_batch_checked(&singletons);
    let mut measured: Vec<MeasuredExperiment> = singletons
        .into_iter()
        .zip(indiv_tp.iter().copied())
        .map(|(e, t)| MeasuredExperiment::new(e, t))
        .collect();

    let (partition, phase) = if config.selection.is_adaptive() {
        // The paper's partition needs the full pair corpus — exactly
        // what the budget avoids — and merging from singleton
        // throughputs alone would conflate port-disjoint forms. Verified
        // seeding buys the class structure with one targeted pair
        // measurement per candidate, clamped to whatever the mandatory
        // singleton sweep left of the budget (like the round loop clamps
        // its top-k submissions).
        let seed_used = backend.stats().since(&run_start);
        let (partition, verification) =
            if config.congruence_filtering && !config.budget.is_exhausted(&seed_used) {
                verified_congruence_seed(
                    &universe,
                    &indiv_tp,
                    backend,
                    config.epsilon,
                    config.budget.remaining_measurements(&seed_used),
                )
            } else {
                (CongruencePartition::identity(&universe), Vec::new())
            };
        measured.extend(verification);
        measured.retain(|me| me.experiment.iter().all(|(i, _)| partition.representative(i) == i));
        (partition, CheckpointPhase::Round(0))
    } else {
        let pairs = generator.pairs(&indiv_tp);
        let pair_tp = backend.measure_batch_checked(&pairs);
        for (e, t) in pairs.into_iter().zip(pair_tp) {
            measured.push(MeasuredExperiment::new(e, t));
        }
        let partition = if config.congruence_filtering {
            CongruencePartition::compute(&universe, &measured, config.epsilon)
        } else {
            CongruencePartition::identity(&universe)
        };
        (partition, CheckpointPhase::OneShot)
    };

    let used = backend.stats().since(&run_start);
    SessionCheckpoint {
        seed: config.evo.seed,
        num_insts,
        num_ports,
        islands: config.islands.count,
        population_size: config.evo.population_size as u64,
        selection: config.selection,
        budget: config.budget,
        used,
        indiv_tp,
        rep_of: universe.iter().map(|&i| partition.representative(i).0).collect(),
        measured,
        // Training error is filled in once evolution has run.
        rounds: vec![RoundStats::from_delta(
            0,
            &used,
            used.measurements_performed,
            f64::INFINITY,
        )],
        round_mappings: Vec::new(),
        pool: Vec::new(),
        stream_taken: 0,
        phase,
        evo: None,
    }
}

/// Pairwise-verified congruence seeding for budgeted runs: forms with
/// ε-equal singleton throughput are merge *candidates*; each candidate
/// is merged into its group's leader only after the leader–candidate
/// pair is measured and its throughput equals the sum of the two
/// singleton throughputs (within ε). Identical decompositions always
/// pass this check (doubling every µop mass exactly doubles the
/// bottleneck), while port-disjoint forms that happen to be equally
/// fast overlap when paired, fall short of the sum, and stay separate.
///
/// The check is one-directional: two *different* decompositions that
/// fully conflict through this one pair (e.g. `[{0}]` against
/// `[{0}, {1}]`) can still merge — congruence here, as in the paper, is
/// relative to the measured experiments, and a single pair is a coarser
/// witness than the full corpus. What the budget buys is `O(n)`
/// verification measurements instead of the `O(n²)` corpus — at most
/// `max_pairs` of them when the budget has less room left. Returns the
/// partition plus every verification pair measured, so rejected pairs
/// join the training seed and nothing is measured twice.
fn verified_congruence_seed(
    universe: &[InstId],
    indiv_tp: &[f64],
    backend: &mut dyn MeasurementBackend,
    epsilon: f64,
    max_pairs: Option<u64>,
) -> (CongruencePartition, Vec<MeasuredExperiment>) {
    let mut leaders: Vec<usize> = Vec::new();
    let mut candidates: Vec<(usize, usize)> = Vec::new(); // (form, leader)
    for i in 0..universe.len() {
        match leaders
            .iter()
            .copied()
            .find(|&l| throughput_close(indiv_tp[l], indiv_tp[i], epsilon))
        {
            Some(l) => candidates.push((i, l)),
            None => leaders.push(i),
        }
    }
    // An unverified candidate stays unmerged — the safe direction — so
    // a tight budget truncates verification instead of overshooting.
    if let Some(max) = max_pairs {
        candidates.truncate(usize::try_from(max).unwrap_or(usize::MAX));
    }
    let pairs: Vec<Experiment> = candidates
        .iter()
        .map(|&(i, l)| Experiment::pair(universe[l], 1, universe[i], 1))
        .collect();
    let pair_tp = if pairs.is_empty() {
        Vec::new()
    } else {
        backend.measure_batch_checked(&pairs)
    };
    let mut repr: BTreeMap<InstId, InstId> = BTreeMap::new();
    let mut verification = Vec::with_capacity(pairs.len());
    for ((&(i, l), e), &t) in candidates.iter().zip(&pairs).zip(&pair_tp) {
        if throughput_close(t, indiv_tp[l] + indiv_tp[i], epsilon) {
            repr.insert(universe[i], universe[l]);
        }
        verification.push(MeasuredExperiment::new(e.clone(), t));
    }
    (
        CongruencePartition::from_representatives(universe, repr),
        verification,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{CachingBackend, Experiment, ModelBackend, PortSet, UopEntry};
    use std::time::Duration;

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, PortSet::from_ports(ports))
    }

    /// A 5-instruction ground truth with two congruent pairs.
    fn toy_ground_truth() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(1, &[0, 1])], // i0
                vec![uop(1, &[0, 1])], // i1 (congruent to i0)
                vec![uop(1, &[2])],    // i2
                vec![uop(1, &[2])],    // i3 (congruent to i2)
                vec![uop(2, &[0])],    // i4
            ],
        )
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            evo: EvoConfig {
                population_size: 60,
                max_generations: 30,
                // Extra patience: with this small budget the search can
                // stall a few generations before escaping a local optimum.
                stall_generations: 12,
                num_threads: 2,
                seed: 7,
                ..EvoConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_recovers_toy_machine_behaviour() {
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &small_config());
        // Congruence: 5 forms -> 3 classes.
        assert_eq!(result.num_classes, 3);
        assert!((result.congruent_fraction - 0.4).abs() < 1e-12);
        // The inferred mapping explains the training data well.
        let error = result.training_error.expect("PMEvo reports its training error");
        assert!(error < 0.05, "pipeline error {error}");
        // Expanded mapping covers all 5 instructions and congruent forms
        // share decompositions.
        assert_eq!(result.mapping.num_insts(), 5);
        assert_eq!(
            result.mapping.decomposition(InstId(0)),
            result.mapping.decomposition(InstId(1))
        );
        assert_eq!(
            result.mapping.decomposition(InstId(2)),
            result.mapping.decomposition(InstId(3))
        );
    }

    #[test]
    fn disabled_filtering_keeps_all_classes() {
        let mut cfg = small_config();
        cfg.congruence_filtering = false;
        cfg.evo.max_generations = 5;
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert_eq!(result.num_classes, 5);
        assert_eq!(result.congruent_fraction, 0.0);
    }

    #[test]
    fn bookkeeping_is_populated() {
        let mut cfg = small_config();
        cfg.evo.max_generations = 3;
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert!(result.num_experiments >= 5 + 10);
        assert_eq!(result.measurements_performed, result.num_experiments as u64);
        assert!(result.num_distinct_uops() >= 1);
        assert!(result.inference_time > Duration::ZERO);
    }

    #[test]
    fn cached_measurements_are_not_billed_again() {
        let mut cfg = small_config();
        cfg.evo.max_generations = 2;
        let mut backend = CachingBackend::new(ModelBackend::new(toy_ground_truth()));
        let first = run(5, 3, &mut backend, &cfg);
        assert_eq!(first.measurements_performed, first.num_experiments as u64);
        // The second run over the same universe hits the cache for every
        // experiment: zero real measurements, zero benchmarking time.
        let second = run(5, 3, &mut backend, &cfg);
        assert_eq!(second.num_experiments, first.num_experiments);
        assert_eq!(second.measurements_performed, 0);
        assert_eq!(second.benchmarking_time, Duration::ZERO);
    }

    /// A backend that always returns one measurement, whatever the batch.
    struct BrokenBackend;

    impl MeasurementBackend for BrokenBackend {
        fn measure_batch(&mut self, _experiments: &[Experiment]) -> Vec<f64> {
            vec![1.0]
        }
        fn name(&self) -> &str {
            "broken"
        }
        fn stats(&self) -> BackendStats {
            BackendStats::default()
        }
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn wrong_measurement_count_panics() {
        run(2, 2, &mut BrokenBackend, &small_config());
    }

    #[test]
    fn adaptive_budget_smaller_than_seed_stops_after_singletons() {
        let mut cfg = small_config();
        cfg.selection = SelectionPolicy::Disagreement { top_k: 2 };
        // Less than the 5 mandatory singletons: the seed sweep runs
        // anyway, but verification pairs and all rounds are skipped.
        cfg.budget = MeasurementBudget::measurements(3);
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert_eq!(result.measurements_performed, 5);
        assert_eq!(result.rounds.len(), 1);
        assert_eq!(result.num_experiments, 5);
        // Congruence seeding was skipped → identity partition.
        assert_eq!(result.num_classes, 5);
        assert_eq!(result.congruent_fraction, 0.0);
    }

    #[test]
    fn adaptive_verification_pairs_respect_the_budget() {
        let mut cfg = small_config();
        cfg.selection = SelectionPolicy::Disagreement { top_k: 2 };
        // Room for exactly one verification pair after the 5 singletons.
        cfg.budget = MeasurementBudget::measurements(6);
        let mut backend = ModelBackend::new(toy_ground_truth());
        let result = run(5, 3, &mut backend, &cfg);
        assert_eq!(result.measurements_performed, 6, "budget overshot");
        // Of the two merge candidates (i1→i0, i3→i2) only the first
        // could be verified; the unverified one stays its own class.
        assert_eq!(result.num_classes, 4);
    }
}
