//! The evolutionary algorithm and greedy local search (paper §4.4,
//! Algorithm 1).
//!
//! Structure (quoted from the paper):
//!
//! ```text
//! initialize population randomly
//! while not done:
//!     apply evolutionary operators      (binary recombination; no
//!     evaluate fitness                   mutation — the paper found it
//!     select new population              not worth its fitness budget)
//! perform local search                  (hill climbing on µop counts)
//! return fittest individual
//! ```
//!
//! The loop itself runs in [`crate::islands::evolve_islands`]; this
//! module holds its configuration, its one operator and the local
//! search. The operator comes in two halves: [`Crossover::draw`] makes
//! every random choice of a child pair from the island's stream, and
//! [`recombine`] builds the pair from those choices alone, so the draws
//! stay on the calling thread and the building moves to the workers.

use crate::fitness::{FitnessEngine, Objectives};
use pmevo_core::{pool, InstId, PortSet, ThreeLevelMapping, UopEntry};
use rand::Rng;

/// Tunable parameters of the evolutionary algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct EvoConfig {
    /// Population size `p` (the paper used 100 000 on real machines; the
    /// default here is sized for simulator-scale runs).
    pub population_size: usize,
    /// Hard generation limit.
    pub max_generations: u32,
    /// Stop when the best error has not improved by more than this for
    /// [`stall_generations`](Self::stall_generations) generations.
    pub convergence_tol: f64,
    /// Patience for the convergence check.
    pub stall_generations: u32,
    /// Worker threads for breeding and scoring each generation's
    /// children, and for the initial population's scoring.
    pub num_threads: usize,
    /// Maximum full passes of the hill-climbing local search.
    pub local_search_passes: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EvoConfig {
    fn default() -> Self {
        EvoConfig {
            population_size: 500,
            max_generations: 60,
            convergence_tol: 1e-6,
            stall_generations: 8,
            num_threads: pool::available_workers(),
            local_search_passes: 4,
            seed: 0x90AD,
        }
    }
}

/// Result of an [`evolve_islands`](crate::islands::evolve_islands) run.
#[derive(Debug, Clone)]
pub struct EvoResult {
    /// The fittest mapping after evolution and local search.
    pub mapping: ThreeLevelMapping,
    /// Its objectives on the training experiments.
    pub objectives: Objectives,
    /// Number of generations executed.
    pub generations: u32,
    /// Best `D_avg` per generation (for convergence plots).
    pub history: Vec<f64>,
}

/// The random choices of one binary recombination (paper §4.4), drawn
/// apart from building the children: for each instruction, one side per
/// µop of both parents, and the µop copied back where one child got
/// every µop.
///
/// The island loop draws each pair's crossover from the island's stream
/// on the calling thread, and [`recombine`] builds the children from it
/// on a worker without a stream of its own.
#[derive(Debug)]
pub struct Crossover {
    /// One side per µop, instruction by instruction, each instruction's
    /// µops in the order of `a`'s entries and then `b`'s, an entry of
    /// count `n` standing for `n` single µops: `true` sends the µop to
    /// the first child.
    to_a: Vec<bool>,
    /// Per instruction, the index among its µops of the one copied back
    /// into the child that got none of them.
    repairs: Vec<Option<usize>>,
}

impl Crossover {
    /// Draws the crossover of parents `a` and `b` from `rng`: per
    /// instruction, one `bool` per µop and, where they all came out the
    /// same, one index.
    pub fn draw<R: Rng + ?Sized>(
        rng: &mut R,
        a: &ThreeLevelMapping,
        b: &ThreeLevelMapping,
    ) -> Crossover {
        let n = a.num_insts();
        let mut to_a = Vec::new();
        let mut repairs = Vec::with_capacity(n);
        for i in 0..n {
            let id = InstId(i as u32);
            let total = a.num_uops_of(id) as usize + b.num_uops_of(id) as usize;
            let start = to_a.len();
            to_a.extend((0..total).map(|_| rng.gen::<bool>()));
            let in_a = to_a[start..].iter().filter(|&&side| side).count();
            repairs.push((in_a == 0 || in_a == total).then(|| rng.gen_range(0..total)));
        }
        Crossover { to_a, repairs }
    }
}

/// Binary recombination (paper §4.4): for each instruction, the combined
/// µop multiset of both parents is split into the two children as
/// `crossover` says. Each parent bundle gives each child one entry, of
/// the count of its µops drawn to that side. A child that would receive
/// no µop for an instruction gets a copy of the one `crossover` names,
/// keeping every individual well-formed.
///
/// # Panics
///
/// Panics if `crossover` was not drawn for parents of `a`'s and `b`'s
/// shape.
pub fn recombine(
    a: &ThreeLevelMapping,
    b: &ThreeLevelMapping,
    crossover: &Crossover,
) -> (ThreeLevelMapping, ThreeLevelMapping) {
    let n = a.num_insts();
    assert_eq!(
        crossover.repairs.len(),
        n,
        "crossover drawn for other parents"
    );
    let mut da = Vec::with_capacity(n);
    let mut db = Vec::with_capacity(n);
    let mut offset = 0;
    for i in 0..n {
        let id = InstId(i as u32);
        let total = a.num_uops_of(id) as usize + b.num_uops_of(id) as usize;
        let mut sides = &crossover.to_a[offset..offset + total];
        offset += total;
        // A child holds at most one entry per parent bundle and per µop.
        let bundles = a.decomposition(id).len() + b.decomposition(id).len();
        let in_a = sides.iter().filter(|&&side| side).count();
        let mut ca: Vec<UopEntry> = Vec::with_capacity(in_a.min(bundles).max(1));
        let mut cb: Vec<UopEntry> = Vec::with_capacity((total - in_a).min(bundles).max(1));
        for e in a.decomposition(id).iter().chain(b.decomposition(id)) {
            let (bundle, rest) = sides.split_at(e.count as usize);
            sides = rest;
            let k = bundle.iter().filter(|&&side| side).count() as u32;
            if k > 0 {
                ca.push(UopEntry::new(k, e.ports));
            }
            if k < e.count {
                cb.push(UopEntry::new(e.count - k, e.ports));
            }
        }
        // The child holding every µop holds every bundle whole, in draw
        // order, so the index names the same µop in it.
        if let Some(k) = crossover.repairs[i] {
            if ca.is_empty() {
                ca.push(UopEntry::new(1, nth_uop(&cb, k)));
            } else {
                cb.push(UopEntry::new(1, nth_uop(&ca, k)));
            }
        }
        da.push(ca);
        db.push(cb);
    }
    assert_eq!(
        offset,
        crossover.to_a.len(),
        "crossover drawn for other parents"
    );
    (
        ThreeLevelMapping::new(a.num_ports(), da),
        ThreeLevelMapping::new(a.num_ports(), db),
    )
}

/// The ports of µop `k` of `entries`, an entry of count `n` standing for
/// `n` single µops in order.
fn nth_uop(entries: &[UopEntry], mut k: usize) -> PortSet {
    for e in entries {
        if k < e.count as usize {
            return e.ports;
        }
        k -= e.count as usize;
    }
    panic!("crossover drawn for other parents")
}

/// Greedy hill climbing on µop multiplicities (paper §4.4): for every
/// edge `(i, n, u)`, try `n ± 1` (dropping the µop when `n` reaches 0 and
/// another µop remains) and keep the change if the mapping improves
/// lexicographically in `(D_avg, V)`.
///
/// Each trial mutates a single instruction, so it is scored with the
/// engine's delta path: only the experiments containing that instruction
/// are re-predicted (the inverse index of
/// [`pmevo_core::CompiledExperiments`]), with objectives bit-identical to
/// a full re-evaluation.
pub(crate) fn hill_climb(
    mapping: &mut ThreeLevelMapping,
    engine: &mut FitnessEngine,
    max_passes: u32,
) -> Objectives {
    let mut cache = engine.build_cache(mapping);
    let mut current = Objectives {
        error: cache.mean_error(),
        volume: mapping.volume(),
    };
    for _ in 0..max_passes {
        let mut improved = false;
        for i in 0..mapping.num_insts() {
            let id = InstId(i as u32);
            // Re-read the decomposition after every accepted trial:
            // candidates must build on the kept change, not on a stale
            // snapshot that would silently revert it.
            let mut idx = 0usize;
            loop {
                let entries = mapping.decomposition(id).to_vec();
                let Some(entry) = entries.get(idx).copied() else {
                    break;
                };
                for delta in [1i64, -1] {
                    let new_count = entry.count as i64 + delta;
                    if new_count < 0 || (new_count == 0 && entries.len() == 1) {
                        continue;
                    }
                    let mut cand = entries.clone();
                    cand[idx] = UopEntry::new(new_count as u32, entry.ports);
                    mapping.set_decomposition(id, cand);
                    let obj = engine.try_update(mapping, &cache, id);
                    if obj.better_than(&current, 1e-9) {
                        engine.commit_update(&mut cache);
                        current = obj;
                        improved = true;
                        break; // keep; continue with next entry
                    } else {
                        mapping.set_decomposition(id, entries.clone());
                    }
                }
                // If an accepted trial dropped a µop, the next entry has
                // shifted into this index — examine it before moving on.
                if mapping.decomposition(id).len() == entries.len() {
                    idx += 1;
                }
            }
        }
        if !improved {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::islands::{
        evolve_islands, EvoState, IslandConfig, IslandControl, IslandStart, IslandsEvolution,
    };
    use pmevo_core::{Experiment, MeasuredExperiment, PortSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, PortSet::from_ports(ports))
    }

    /// Ground truth for a 3-instruction, 3-port machine; experiments are
    /// labeled with its exact bottleneck throughputs.
    fn toy_problem() -> (ThreeLevelMapping, Vec<MeasuredExperiment>, Vec<f64>) {
        let gt = ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(1, &[0])],          // i0: port 0 only
                vec![uop(1, &[0, 1])],       // i1: ports 0/1
                vec![uop(1, &[2]), uop(1, &[0, 1])], // i2: two µops
            ],
        );
        let mut exps = Vec::new();
        let ids: Vec<InstId> = (0..3).map(InstId).collect();
        for &i in &ids {
            exps.push(Experiment::singleton(i));
        }
        for a in 0..3usize {
            for b in (a + 1)..3 {
                exps.push(Experiment::pair(ids[a], 1, ids[b], 1));
                exps.push(Experiment::pair(ids[a], 1, ids[b], 2));
                exps.push(Experiment::pair(ids[a], 2, ids[b], 1));
            }
        }
        let measured: Vec<MeasuredExperiment> = exps
            .into_iter()
            .map(|e| {
                let t = gt.throughput(&e);
                MeasuredExperiment::new(e, t)
            })
            .collect();
        let indiv: Vec<f64> = (0..3)
            .map(|i| gt.throughput(&Experiment::singleton(InstId(i))))
            .collect();
        (gt, measured, indiv)
    }

    /// One island started from `initial`, topped up with random
    /// individuals: the paper's classic single-population loop.
    fn evolve_from(
        measured: &[MeasuredExperiment],
        indiv: &[f64],
        config: &EvoConfig,
        initial: Vec<ThreeLevelMapping>,
        local_search: bool,
    ) -> IslandsEvolution {
        evolve_islands(
            3,
            3,
            measured,
            indiv,
            config,
            &IslandConfig::default(),
            IslandStart::Fresh(vec![initial]),
            local_search,
            None,
        )
    }

    #[test]
    fn recombination_preserves_item_count_and_validity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ThreeLevelMapping::new(3, vec![vec![uop(2, &[0]), uop(1, &[1, 2])]]);
        let b = ThreeLevelMapping::new(3, vec![vec![uop(3, &[2])]]);
        for _ in 0..50 {
            let crossover = Crossover::draw(&mut rng, &a, &b);
            let (c1, c2) = recombine(&a, &b, &crossover);
            let items = |m: &ThreeLevelMapping| m.num_uops_of(InstId(0));
            // Items may be duplicated only by the non-empty repair.
            let total = items(&c1) + items(&c2);
            assert!((6..=7).contains(&total), "item total {total}");
            assert!(items(&c1) >= 1 && items(&c2) >= 1);
        }
    }

    /// Splitting bundle by bundle gives the children that splitting
    /// µop by µop gives, repairs included.
    #[test]
    fn recombination_matches_the_per_uop_split() {
        let mut rng = StdRng::seed_from_u64(2);
        let indiv = [1.5, 0.5, 3.0, 2.0];
        for _ in 0..200 {
            let a = ThreeLevelMapping::sample_random(&mut rng, 4, 5, &indiv);
            let b = ThreeLevelMapping::sample_random(&mut rng, 4, 5, &indiv);
            let crossover = Crossover::draw(&mut rng, &a, &b);
            let (mut da, mut db) = (Vec::new(), Vec::new());
            let mut sides = crossover.to_a.iter();
            for i in 0..4 {
                let id = InstId(i as u32);
                let (mut ca, mut cb) = (Vec::new(), Vec::new());
                for e in a.decomposition(id).iter().chain(b.decomposition(id)) {
                    for &side in sides.by_ref().take(e.count as usize) {
                        let child = if side { &mut ca } else { &mut cb };
                        child.push(UopEntry::new(1, e.ports));
                    }
                }
                if let Some(k) = crossover.repairs[i] {
                    if ca.is_empty() {
                        ca.push(cb[k]);
                    } else {
                        cb.push(ca[k]);
                    }
                }
                da.push(ca);
                db.push(cb);
            }
            let want = (ThreeLevelMapping::new(5, da), ThreeLevelMapping::new(5, db));
            assert_eq!(recombine(&a, &b, &crossover), want);
        }
    }

    #[test]
    fn evolution_fits_the_toy_ground_truth() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 60,
            max_generations: 40,
            num_threads: 2,
            seed: 7,
            ..EvoConfig::default()
        };
        let result = evolve_from(&measured, &indiv, &config, Vec::new(), true).result;
        assert!(
            result.objectives.error < 0.05,
            "evolved error {} too high",
            result.objectives.error
        );
        assert!(result.generations >= 1);
        assert_eq!(result.history.len() as u32, result.generations);
    }

    /// What the loop guarantees by construction, checked after every
    /// generation: one history entry per generation, a `best_so_far`
    /// that never rises, and a `stall` counter that resets exactly when
    /// the generation's best beats `best_so_far` by more than
    /// `convergence_tol`. The generation's best itself may rise: survivor
    /// selection keeps each island's `p` best by scalarized error and
    /// volume, which can drop the least-error individual.
    #[test]
    fn history_best_so_far_and_stall_follow_every_generation() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 30,
            max_generations: 25,
            num_threads: 1,
            seed: 3,
            ..EvoConfig::default()
        };
        for count in [1, 2] {
            let islands = IslandConfig {
                count,
                interval: 2,
                ..IslandConfig::default()
            };
            let (mut generations, mut best, mut stall) = (0, f64::INFINITY, 0);
            let (mut resets, mut stalls) = (0, 0);
            let mut observer = |state: &EvoState| {
                generations += 1;
                assert_eq!(state.generations, generations);
                assert_eq!(state.history.len(), generations as usize);
                let gen_best = state.history[state.history.len() - 1];
                if gen_best < best - config.convergence_tol {
                    assert_eq!((state.best_so_far, state.stall), (gen_best, 0));
                    resets += 1;
                } else {
                    assert_eq!((state.best_so_far, state.stall), (best, stall + 1));
                    stalls += 1;
                }
                best = state.best_so_far;
                stall = state.stall;
                IslandControl::Continue
            };
            let run = evolve_islands(
                3,
                3,
                &measured,
                &indiv,
                &config,
                &islands,
                IslandStart::Fresh(Vec::new()),
                false,
                Some(&mut observer),
            );
            assert_eq!(run.result.history.len() as u32, generations);
            assert!(
                resets > 0 && stalls > 0,
                "{count} islands: {resets} resets and {stalls} stalls exercise both branches"
            );
        }
    }

    #[test]
    fn hill_climbing_fixes_a_wrong_multiplicity() {
        let (gt, measured, _) = toy_problem();
        // Perturb the ground truth: i0 gets 3 µops instead of 1.
        let mut broken = gt.clone();
        broken.set_decomposition(InstId(0), vec![uop(3, &[0])]);
        let mut engine = FitnessEngine::new(&measured, 1);
        let before = engine.evaluate(&broken);
        let after = hill_climb(&mut broken, &mut engine, 5);
        assert!(after.error < before.error);
        assert!(after.error < 1e-9, "hill climbing should reach exactness");
    }

    #[test]
    fn warm_start_resumes_and_stays_deterministic() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 20,
            max_generations: 4,
            num_threads: 1,
            seed: 13,
            ..EvoConfig::default()
        };
        let first = evolve_from(&measured, &indiv, &config, Vec::new(), false);
        let population = &first.islands[0].population;
        let resume =
            |pop: Vec<ThreeLevelMapping>| evolve_from(&measured, &indiv, &config, pop, false);
        let a = resume(population.clone());
        let b = resume(population.clone());
        assert_eq!(a.result.mapping, b.result.mapping);
        assert_eq!(a.islands[0].population, b.islands[0].population);
        // Continuing the search never loses the warm start's best error.
        assert!(a.result.objectives.error <= first.result.objectives.error + 1e-12);
        // A short initial population is topped up to size.
        let short = resume(population[..3].to_vec());
        assert_eq!(short.islands[0].population.len(), 20);
    }

    #[test]
    #[should_panic(expected = "initial population larger than the configured population size")]
    fn warm_start_rejects_an_oversized_population() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 4,
            max_generations: 1,
            num_threads: 1,
            seed: 2,
            ..EvoConfig::default()
        };
        // 5 warm individuals into a population of 4: the old top-up path
        // silently truncated these; now it must refuse.
        let first = evolve_from(&measured, &indiv, &config, Vec::new(), false);
        let mut oversized = first.islands[0].population.clone();
        oversized.push(oversized[0].clone());
        evolve_from(&measured, &indiv, &config, oversized, false);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn warm_start_rejects_mismatched_individuals() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 4,
            max_generations: 1,
            num_threads: 1,
            seed: 1,
            ..EvoConfig::default()
        };
        let wrong = vec![ThreeLevelMapping::new(3, vec![vec![uop(1, &[0])]])];
        evolve_from(&measured, &indiv, &config, wrong, false);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 20,
            max_generations: 8,
            num_threads: 3,
            seed: 11,
            ..EvoConfig::default()
        };
        let a = evolve_from(&measured, &indiv, &config, Vec::new(), true).result;
        let b = evolve_from(&measured, &indiv, &config, Vec::new(), true).result;
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.history, b.history);
    }
}
