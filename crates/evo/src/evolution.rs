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
//! module holds its configuration, its operators and the local search.

use crate::fitness::{FitnessEngine, Objectives};
use pmevo_core::{pool, InstId, ThreeLevelMapping, UopEntry};
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
    /// Per-instruction probability of a random µop mutation in children.
    /// The paper eliminated mutation (0.0, the default); non-zero values
    /// exist for the ablation bench.
    pub mutation_rate: f64,
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
            mutation_rate: 0.0,
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

/// Binary recombination (paper §4.4): for each instruction, the combined
/// µop multiset of both parents is split randomly into the two children.
/// A child that would receive no µop for an instruction steals one item
/// back, keeping every individual well-formed.
pub fn recombine<R: Rng + ?Sized>(
    rng: &mut R,
    a: &ThreeLevelMapping,
    b: &ThreeLevelMapping,
) -> (ThreeLevelMapping, ThreeLevelMapping) {
    let num_ports = a.num_ports();
    let n = a.num_insts();
    let mut da = Vec::with_capacity(n);
    let mut db = Vec::with_capacity(n);
    // Item pool, one item per µop occurrence of either parent, and each
    // item's side; both reused across instructions.
    let mut items: Vec<UopEntry> = Vec::new();
    let mut to_a: Vec<bool> = Vec::new();
    for i in 0..n {
        let id = InstId(i as u32);
        items.clear();
        for e in a.decomposition(id).iter().chain(b.decomposition(id)) {
            for _ in 0..e.count {
                items.push(UopEntry::new(1, e.ports));
            }
        }
        // Draw every side first (the draw order of one draw per item),
        // so each child vector is allocated once at its final size.
        to_a.clear();
        to_a.extend(items.iter().map(|_| rng.gen::<bool>()));
        let in_a = to_a.iter().filter(|&&side| side).count();
        let mut ca: Vec<UopEntry> = Vec::with_capacity(in_a.max(1));
        let mut cb: Vec<UopEntry> = Vec::with_capacity((items.len() - in_a).max(1));
        for (item, &side) in items.iter().zip(&to_a) {
            if side {
                ca.push(*item);
            } else {
                cb.push(*item);
            }
        }
        if ca.is_empty() {
            ca.push(cb[rng.gen_range(0..cb.len())]);
        }
        if cb.is_empty() {
            cb.push(ca[rng.gen_range(0..ca.len())]);
        }
        da.push(ca);
        db.push(cb);
    }
    (
        ThreeLevelMapping::new(num_ports, da),
        ThreeLevelMapping::new(num_ports, db),
    )
}

/// Optional mutation operator (ablation only): with probability
/// `rate` per instruction, resample one µop's port set.
pub fn mutate<R: Rng + ?Sized>(rng: &mut R, m: &mut ThreeLevelMapping, rate: f64) {
    if rate <= 0.0 {
        return;
    }
    let num_ports = m.num_ports();
    let full = pmevo_core::PortSet::first_n(num_ports).mask();
    for i in 0..m.num_insts() {
        if rng.gen::<f64>() < rate {
            let id = InstId(i as u32);
            let mut entries = m.decomposition(id).to_vec();
            let idx = rng.gen_range(0..entries.len());
            let ports = loop {
                let mask = rng.gen::<u64>() & full;
                if mask != 0 {
                    break pmevo_core::PortSet::from_mask(mask);
                }
            };
            entries[idx] = UopEntry::new(entries[idx].count, ports);
            m.set_decomposition(id, entries);
        }
    }
}

/// Advances `rng` past one child pair's breeding without building it:
/// afterwards `rng` is where [`recombine`] of `a` and `b` followed by
/// [`mutate`] of both children at `rate` would have left it.
///
/// This must make exactly their draws, in their order. The island loop
/// skips each pair's draws on the calling thread and rebuilds the pair
/// from its start state on a worker, asserting that the rebuild ends
/// where the skip did.
pub fn skip_pair<R: Rng + ?Sized>(
    rng: &mut R,
    a: &ThreeLevelMapping,
    b: &ThreeLevelMapping,
    rate: f64,
) {
    for i in 0..a.num_insts() {
        let id = InstId(i as u32);
        // `recombine`: one side per µop of both parents, and the repair
        // draw when one child got every µop.
        let total = a.num_uops_of(id) as usize + b.num_uops_of(id) as usize;
        let in_a = (0..total).filter(|_| rng.gen::<bool>()).count();
        if in_a == 0 || in_a == total {
            rng.gen_range(0..total);
        }
    }
    for _child in 0..2 {
        skip_mutate(rng, a.num_insts(), a.num_ports(), rate);
    }
}

/// The draws of [`mutate`] on a mapping of `num_insts` instructions over
/// `num_ports` ports.
fn skip_mutate<R: Rng + ?Sized>(rng: &mut R, num_insts: usize, num_ports: usize, rate: f64) {
    if rate <= 0.0 {
        return;
    }
    let full = pmevo_core::PortSet::first_n(num_ports).mask();
    for _ in 0..num_insts {
        if rng.gen::<f64>() < rate {
            // The µop index: `gen_range` draws one word whatever its span.
            rng.next_u64();
            while rng.gen::<u64>() & full == 0 {}
        }
    }
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
    use crate::islands::{evolve_islands, IslandConfig, IslandStart, IslandsEvolution};
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
            let (c1, c2) = recombine(&mut rng, &a, &b);
            let items = |m: &ThreeLevelMapping| m.num_uops_of(InstId(0));
            // Items may be duplicated only by the non-empty repair.
            let total = items(&c1) + items(&c2);
            assert!((6..=7).contains(&total), "item total {total}");
            assert!(items(&c1) >= 1 && items(&c2) >= 1);
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

    #[test]
    fn history_best_error_is_monotone_nonincreasing() {
        let (_gt, measured, indiv) = toy_problem();
        let config = EvoConfig {
            population_size: 30,
            max_generations: 15,
            num_threads: 1,
            seed: 3,
            ..EvoConfig::default()
        };
        let result = evolve_from(&measured, &indiv, &config, Vec::new(), true).result;
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "best error increased: {w:?}");
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
    fn mutation_rate_zero_is_a_no_op() {
        let (gt, ..) = toy_problem();
        let mut m = gt.clone();
        let mut rng = StdRng::seed_from_u64(5);
        mutate(&mut rng, &mut m, 0.0);
        assert_eq!(m, gt);
        // And a rate of 1.0 changes something (with high probability).
        let mut changed = false;
        for seed in 0..8 {
            let mut m2 = gt.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            mutate(&mut rng, &mut m2, 1.0);
            changed |= m2 != gt;
        }
        assert!(changed);
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
