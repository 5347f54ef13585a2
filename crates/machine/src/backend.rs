//! The simulator-backed [`MeasurementBackend`]: measurement batches run
//! on the cycle-level simulator, chunked across the workspace's worker
//! pool, and each distinct measurement kernel is simulated once.

use crate::measure::{MeasureConfig, Measurer};
use crate::platform::Platform;
use pmevo_core::{pool, BackendStats, Experiment, MeasurementBackend};
use std::collections::HashMap;
use std::time::Instant;

/// Measures experiment batches on a [`Platform`]'s cycle-level simulator
/// through the [`Measurer`] harness of paper §4.2.
///
/// Batches run on [`pmevo_core::pool`] with up to
/// [`parallelism`](Self::parallelism) worker threads, each simulating
/// through its own [`Measurer`] and claiming contiguous chunks as it
/// finishes the last. The measurement noise stream is a pure function
/// of `(config.seed, experiment)` (see [`Measurer::measure`]), so results
/// are bit-identical for every thread count and batch split.
///
/// # Measurement memo
///
/// The simulator cannot tell apart forms with equal operand lists,
/// ground-truth decompositions and [`ExecParams`](crate::platform::ExecParams):
/// the loop builder reads a form only through its operands, and the
/// simulator only through its decomposition and execution parameters.
/// The backend therefore sorts the forms into *simulation classes* on
/// its first batch and keys every experiment by its `(class, count)`
/// pairs in [`Experiment::counts`] order, the loop builder's round-robin
/// order. Each key's noise-free throughput is simulated once, on the
/// pool, and remembered for the backend's lifetime; every experiment
/// still gets its own noise, so each value keeps [`Measurer::measure`]'s
/// bits and [`BackendStats`] counts every experiment as performed.
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, MeasurementBackend};
/// use pmevo_machine::{platforms, MeasureConfig, SimBackend};
///
/// let mut backend = SimBackend::new(platforms::a72(), MeasureConfig::exact());
/// let tp = backend.measure_batch(&[Experiment::singleton(InstId(0))]);
/// assert!(tp[0] > 0.0);
/// assert_eq!(backend.stats().measurements_performed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SimBackend {
    platform: Platform,
    config: MeasureConfig,
    parallelism: usize,
    name: String,
    stats: BackendStats,
    /// Simulation class of every form, built on the first batch.
    classes: Option<Vec<u32>>,
    /// Noise-free throughput of every simulation key seen so far.
    memo: HashMap<Vec<(u32, u32)>, f64>,
    /// Kernels simulated so far.
    simulations: u64,
}

impl SimBackend {
    /// Creates a backend over `platform`, measuring with all available
    /// cores.
    pub fn new(platform: Platform, config: MeasureConfig) -> Self {
        Self::with_parallelism(platform, config, pool::available_workers())
    }

    /// Creates a backend with an explicit worker-thread cap.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn with_parallelism(platform: Platform, config: MeasureConfig, parallelism: usize) -> Self {
        assert!(parallelism > 0, "need at least one measurement thread");
        let name = format!("sim({})", platform.name());
        SimBackend {
            platform,
            config,
            parallelism,
            name,
            stats: BackendStats::default(),
            classes: None,
            memo: HashMap::new(),
            simulations: 0,
        }
    }

    /// The platform under measurement.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The measurement configuration.
    pub fn config(&self) -> &MeasureConfig {
        &self.config
    }

    /// The worker-thread cap for batch measurement.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }
}

/// The simulation class of every form of `platform`, numbered by first
/// occurrence: two forms share a class exactly when their operand lists,
/// ground-truth decompositions and execution parameters are all equal.
fn simulation_classes(platform: &Platform) -> Vec<u32> {
    let gt = platform.ground_truth();
    let mut ids = HashMap::new();
    platform
        .isa()
        .iter()
        .map(|(id, form)| {
            let next = ids.len() as u32;
            *ids.entry((
                form.operands.as_slice(),
                gt.decomposition(id),
                platform.exec_params(id),
            ))
            .or_insert(next)
        })
        .collect()
}

impl MeasurementBackend for SimBackend {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let start = Instant::now();
        let classes = self
            .classes
            .get_or_insert_with(|| simulation_classes(&self.platform));
        // Each experiment's noise-free throughput, from the memo, or NaN
        // until the first experiment of its key among `fresh` has been
        // simulated; `waiting` pairs each NaN slot with that index.
        let mut exact = Vec::with_capacity(experiments.len());
        let mut waiting = Vec::new();
        let mut fresh: Vec<&Experiment> = Vec::new();
        let mut unseen: HashMap<Vec<(u32, u32)>, usize> = HashMap::new();
        let mut key = Vec::new();
        for (i, e) in experiments.iter().enumerate() {
            key.clear();
            key.extend(e.counts().iter().map(|&(id, n)| (classes[id.index()], n)));
            if let Some(&tp) = self.memo.get(key.as_slice()) {
                exact.push(tp);
                continue;
            }
            let j = match unseen.get(key.as_slice()) {
                Some(&j) => j,
                None => {
                    unseen.insert(key.clone(), fresh.len());
                    fresh.push(e);
                    fresh.len() - 1
                }
            };
            exact.push(f64::NAN);
            waiting.push((i, j));
        }
        let mut measurers: Vec<Measurer> = (0..self.parallelism.min(fresh.len()).max(1))
            .map(|_| Measurer::new(&self.platform, self.config.clone()))
            .collect();
        let simulated = pool::map(&mut measurers, fresh.len(), |measurer, range| {
            fresh[range].iter().map(|e| measurer.exact(e)).collect()
        });
        for (i, j) in waiting {
            exact[i] = simulated[j];
        }
        let out = exact
            .iter()
            .zip(experiments)
            .map(|(&tp, e)| measurers[0].with_noise(tp, e))
            .collect();
        self.memo
            .extend(unseen.into_iter().map(|(key, j)| (key, simulated[j])));
        self.simulations += simulated.len() as u64;
        self.stats.measurements_requested += experiments.len() as u64;
        self.stats.measurements_performed += experiments.len() as u64;
        self.stats.measurement_time += start.elapsed();
        out
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{ExecParams, PlatformInfo};
    use crate::platforms;
    use pmevo_core::{InstId, PortSet, ThreeLevelMapping, UopEntry};
    use pmevo_isa::{
        Access, InstructionForm, InstructionSet, OpClass, OperandKind, RegClass, Width,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn parallel_batches_match_sequential_measurement() {
        let p = platforms::skl();
        let exps: Vec<Experiment> = (0..13)
            .map(|i| Experiment::singleton(InstId(i * 7)))
            .collect();
        let mut seq = SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), 1);
        let mut par = SimBackend::with_parallelism(p, MeasureConfig::default(), 4);
        assert_eq!(seq.measure_batch(&exps), par.measure_batch(&exps));
        assert_eq!(par.stats().measurements_performed, 13);
        assert!(par.name().starts_with("sim(SKL"));
    }

    #[test]
    fn incremental_batches_match_one_batch_for_every_parallelism() {
        // The adaptive selection loop submits many small top-k batches
        // instead of one up-front corpus; the chunked parallel
        // measurement (and its per-experiment noise stream) must return
        // the same values however the batch is split across calls and
        // worker threads.
        let p = platforms::tiny();
        let mut exps: Vec<Experiment> = (0..6).map(|i| Experiment::singleton(InstId(i))).collect();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                exps.push(Experiment::pair(InstId(a), 1, InstId(b), 2));
            }
        }
        let mut oneshot = SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), 4);
        let want = oneshot.measure_batch(&exps);
        for threads in [1, 2, 8] {
            for chunk in [1, 3, exps.len()] {
                let mut backend =
                    SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), threads);
                let mut got = Vec::with_capacity(exps.len());
                for sub in exps.chunks(chunk) {
                    got.extend(backend.measure_batch(sub));
                }
                assert_eq!(
                    got, want,
                    "{threads} threads with {chunk}-experiment batches diverged"
                );
                assert_eq!(backend.stats().measurements_performed, exps.len() as u64);
            }
        }
    }

    #[test]
    fn matches_the_measurer_directly() {
        let p = platforms::a72();
        let e = Experiment::pair(InstId(0), 1, InstId(4), 2);
        let want = Measurer::new(&p, MeasureConfig::exact()).measure(&e);
        let mut backend = SimBackend::new(p, MeasureConfig::exact());
        assert_eq!(backend.measure_batch(std::slice::from_ref(&e)), vec![want]);
    }

    /// A seeded batch that leans on shared classes: `n` random
    /// experiments of 1–4 forms drawn from classes of several forms, with
    /// counts 1–4, each followed by two twins. The class twin swaps every
    /// form for a random form of its class, so its key repeats the
    /// original's, or holds the same pairs in another order where the
    /// drawn ids sort differently. The operand twin swaps every form for
    /// one with equal decomposition and execution parameters, whose
    /// operands may differ.
    fn leaning_batch(p: &Platform, seed: u64, n: usize) -> Vec<Experiment> {
        let classes = simulation_classes(p);
        let gt = p.ground_truth();
        let mut members: HashMap<u32, Vec<InstId>> = HashMap::new();
        let mut alike: HashMap<_, Vec<InstId>> = HashMap::new();
        for id in p.isa().ids() {
            members.entry(classes[id.index()]).or_default().push(id);
            alike
                .entry((gt.decomposition(id), p.exec_params(id)))
                .or_default()
                .push(id);
        }
        let shared: Vec<InstId> = p
            .isa()
            .ids()
            .filter(|id| members[&classes[id.index()]].len() > 1)
            .collect();
        let pool = if shared.is_empty() {
            p.isa().ids().collect()
        } else {
            shared
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = Vec::with_capacity(3 * n);
        for _ in 0..n {
            let counts: Vec<(InstId, u32)> = (0..rng.gen_range(1..=4))
                .map(|_| (pick(&mut rng, &pool), rng.gen_range(1..=4)))
                .collect();
            let e = Experiment::from_counts(&counts);
            let class_twin = e.map_insts(|id| pick(&mut rng, &members[&classes[id.index()]]));
            let operand_twin = e
                .map_insts(|id| pick(&mut rng, &alike[&(gt.decomposition(id), p.exec_params(id))]));
            batch.extend([e, class_twin, operand_twin]);
        }
        batch
    }

    fn pick(rng: &mut StdRng, forms: &[InstId]) -> InstId {
        forms[rng.gen_range(0..forms.len())]
    }

    /// Experiment pairs the memo must keep apart on the x86-like ISA
    /// (found by search; empty on other ISAs): the same class pair in
    /// both `counts()` orders, and two forms that differ only in their
    /// second operand. Each pair's experiments simulate to different
    /// bits on SKL and ZEN.
    fn sensitive_pairs(p: &Platform) -> Vec<[Experiment; 2]> {
        let id = |name| p.isa().find(name);
        let (Some(add), Some(add_imm), Some(imul), Some(alias)) = (
            id("add_r32_r32"),
            id("add_r32_i32"),
            id("imul_r64_r64"),
            id("alias101_r32_r32"),
        ) else {
            return Vec::new();
        };
        assert!(add < imul && imul < alias);
        vec![
            [
                Experiment::pair(add, 4, imul, 1),
                Experiment::pair(imul, 1, alias, 4),
            ],
            [
                Experiment::pair(add, 2, imul, 1),
                Experiment::pair(add_imm, 2, imul, 1),
            ],
        ]
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn memoized_batches_return_the_measurers_bits() {
        let platforms = [
            platforms::skl(),
            platforms::zen(),
            platforms::a72(),
            platforms::tiny(),
        ];
        for (seed, p) in (0x5EED..).zip(platforms) {
            let pairs = sensitive_pairs(&p);
            let mut exps = leaning_batch(&p, seed, 12);
            exps.extend(pairs.iter().flatten().cloned());
            let classes = simulation_classes(&p);
            let keys: HashSet<Vec<(u32, u32)>> = exps
                .iter()
                .map(|e| e.iter().map(|(id, n)| (classes[id.index()], n)).collect())
                .collect();
            for config in [MeasureConfig::default(), MeasureConfig::exact()] {
                let measurer = Measurer::new(&p, config.clone());
                let want: Vec<f64> = exps.iter().map(|e| measurer.measure(e)).collect();
                for pair in want[want.len() - 2 * pairs.len()..].chunks(2) {
                    assert_ne!(
                        pair[0],
                        pair[1],
                        "{}: a sensitive pair lost its edge",
                        p.name()
                    );
                }
                for threads in [1, 2, 8] {
                    for chunk in [exps.len(), 5] {
                        let mut backend =
                            SimBackend::with_parallelism(p.clone(), config.clone(), threads);
                        let got: Vec<f64> = exps
                            .chunks(chunk)
                            .flat_map(|batch| backend.measure_batch(batch))
                            .collect();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{}: {threads} threads, {chunk}-experiment batches, {config:?}",
                            p.name()
                        );
                        assert_eq!(backend.simulations, keys.len() as u64);
                        assert_eq!(backend.stats().measurements_performed, exps.len() as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn each_distinct_key_is_simulated_once() {
        let p = platforms::skl();
        let id = |name| p.isa().find(name).expect("an x86-like form");
        let (add, sub, add_imm, imul, alias) = (
            id("add_r32_r32"),
            id("sub_r32_r32"),
            id("add_r32_i32"),
            id("imul_r64_r64"),
            id("alias101_r32_r32"),
        );
        // `add`, `sub` and `alias` share a class; `add_imm` has its own.
        let first = [
            Experiment::singleton(add),
            Experiment::singleton(sub),
            Experiment::singleton(add_imm),
            Experiment::pair(add, 1, imul, 2),
            Experiment::pair(sub, 1, imul, 2),
            Experiment::pair(imul, 2, alias, 1),
            Experiment::singleton(add),
        ];
        let mut backend = SimBackend::with_parallelism(p.clone(), MeasureConfig::default(), 2);
        let values = backend.measure_batch(&first);
        assert_eq!(backend.simulations, 4);
        assert_eq!(bits(&backend.measure_batch(&first)), bits(&values));
        assert_eq!(backend.simulations, 4);
        let second = [
            Experiment::singleton(alias),
            Experiment::pair(add, 3, imul, 1),
        ];
        backend.measure_batch(&second);
        assert_eq!(backend.simulations, 5);
        assert_eq!(backend.memo.len(), 5);
        assert_eq!(backend.stats().measurements_requested, 16);
        assert_eq!(backend.stats().measurements_performed, 16);
    }

    #[test]
    fn forms_that_simulate_differently_get_their_own_class() {
        let gpr = |access| OperandKind::Reg {
            class: RegClass::Gpr,
            width: Width::W64,
            access,
        };
        let form = |name: &str, class, dst, quirk| {
            InstructionForm::new(name, class, vec![gpr(dst), gpr(Access::Read)], quirk)
        };
        let mut isa = InstructionSet::new("classes");
        for f in [
            form("base", OpClass::IntAlu, Access::Write, 0),
            // Name, semantic class and quirk are never simulated.
            form("alias", OpClass::Shift, Access::Write, 1),
            form("read_write", OpClass::IntAlu, Access::ReadWrite, 0),
            form("slow", OpClass::IntAlu, Access::Write, 0),
            form("blocking", OpClass::IntAlu, Access::Write, 0),
            form("narrow", OpClass::IntAlu, Access::Write, 0),
        ] {
            isa.push(f);
        }
        let wide = vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))];
        let narrow = vec![UopEntry::new(1, PortSet::from_ports(&[0]))];
        let mut decomp = vec![wide; 5];
        decomp.push(narrow);
        let exec = |latency, blocking| ExecParams { latency, blocking };
        let p = Platform::new(
            "CLASSES",
            PlatformInfo {
                manufacturer: "test".into(),
                processor: "test".into(),
                microarch: "test".into(),
                ports_desc: "2".into(),
                isa_name: "classes".into(),
                clock_ghz: 1.0,
            },
            isa,
            ThreeLevelMapping::new(2, decomp),
            vec![
                exec(1, 1),
                exec(1, 1),
                exec(1, 1),
                exec(3, 1),
                exec(1, 2),
                exec(1, 1),
            ],
            2,
            16,
        );
        assert_eq!(simulation_classes(&p), [0, 0, 1, 2, 3, 4]);
    }
}
