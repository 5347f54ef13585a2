//! Island-model evolution: N subpopulations over one shared fitness
//! pool, with deterministic ring migration.
//!
//! The paper's GA is embarrassingly island-parallel: subpopulations
//! evolve independently and only exchange their best individuals every
//! few generations. [`evolve_islands`] runs the GA in that shape — it is
//! the only entry point to evolution, and one island is the paper's
//! classic single-population loop — while keeping the workspace's
//! bit-identity contract:
//!
//! * **RNG splitting** — island `i` draws from its own `StdRng` stream
//!   seeded with [`island_seed`]`(config.seed, i)`. Island 0's seed *is*
//!   the session seed, so a 1-island run consumes exactly the stream of
//!   the classic single-population loop and reproduces it bit for bit.
//! * **Lockstep generations, one shared pool** — each generation is one
//!   pass over the worker pool for every island's children. The calling
//!   thread draws each child pair's parents and its [`Crossover`] from
//!   the island's stream, so every draw happens there, in pair order.
//!   One [`FitnessEngine::build_and_evaluate`] call then builds every
//!   pair from its recorded crossover with [`recombine`] on the workers,
//!   which draw nothing, and scores the children where they were built.
//!   Results come back in pair order for every worker count, so island
//!   results never depend on thread scheduling.
//! * **Deterministic migration** — every
//!   [`IslandConfig::interval`] generations, each island sends clones of
//!   its [`IslandConfig::migrants`] best individuals (stable
//!   lexicographic `(error, volume, index)` order) to its ring successor
//!   `(i + 1) mod N`, replacing the receiver's worst individuals. All
//!   migrants are chosen from the pre-migration snapshot, so the
//!   exchange is independent of island iteration order.
//!
//! The full loop state lives in [`EvoState`], which converts losslessly
//! to and from [`pmevo_core::checkpoint::EvoCheckpoint`] — the basis of
//! the session checkpoint/resume feature (see [`crate::pipeline`]).

use crate::evolution::{hill_climb, recombine, Crossover, EvoConfig, EvoResult};
use crate::fitness::{scalarize, FitnessEngine, Objectives};
use pmevo_core::checkpoint::{EvoCheckpoint, IslandCheckpoint};
use pmevo_core::{MeasuredExperiment, ThreeLevelMapping};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One child pair of a generation, as the calling thread drew it: the
/// island, the parents' indices in its population, and the crossover.
struct Pair {
    island: usize,
    parents: (usize, usize),
    crossover: Crossover,
    /// Whether the pair keeps its second child.
    both: bool,
}

/// Island-model topology parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandConfig {
    /// Number of islands (1 = the classic single-population loop).
    pub count: u32,
    /// Migrate every this many generations (0 disables migration).
    pub interval: u32,
    /// Individuals each island sends to its ring successor per
    /// migration (clamped to the population size).
    pub migrants: usize,
}

impl Default for IslandConfig {
    fn default() -> Self {
        IslandConfig {
            count: 1,
            interval: 8,
            migrants: 2,
        }
    }
}

/// One island mid-run: its population, the objectives parallel to it,
/// and its private RNG stream.
#[derive(Debug, Clone)]
pub struct Island {
    /// The island's current population.
    pub population: Vec<ThreeLevelMapping>,
    /// Objectives parallel to [`population`](Self::population).
    pub objectives: Vec<Objectives>,
    /// The island's generator stream (split from the session seed via
    /// [`island_seed`]).
    pub rng: StdRng,
}

/// The complete state of the island loop between two generations —
/// everything [`evolve_islands`] needs to continue bit-identically.
#[derive(Debug, Clone)]
pub struct EvoState {
    /// Every island, in ring order.
    pub islands: Vec<Island>,
    /// Generations completed so far.
    pub generations: u32,
    /// Best `D_avg` across all islands per completed generation.
    pub history: Vec<f64>,
    /// Best `D_avg` seen so far (`+inf` before the first generation).
    pub best_so_far: f64,
    /// Generations without convergence-tolerance improvement.
    pub stall: u32,
}

impl EvoState {
    /// The state as serializable checkpoint rows (RNG as raw xoshiro
    /// words, objectives as `(error, volume)` pairs).
    pub fn to_checkpoint(&self) -> EvoCheckpoint {
        EvoCheckpoint {
            islands: self
                .islands
                .iter()
                .map(|isl| IslandCheckpoint {
                    population: isl.population.clone(),
                    objectives: isl.objectives.iter().map(|o| (o.error, o.volume)).collect(),
                    rng: isl.rng.state(),
                })
                .collect(),
            generations: self.generations,
            history: self.history.clone(),
            best_so_far: self.best_so_far,
            stall: self.stall,
        }
    }

    /// Restores loop state from checkpoint rows; the restored run
    /// continues the original bit for bit.
    pub fn from_checkpoint(cp: &EvoCheckpoint) -> EvoState {
        EvoState {
            islands: cp
                .islands
                .iter()
                .map(|isl| Island {
                    population: isl.population.clone(),
                    objectives: isl
                        .objectives
                        .iter()
                        .map(|&(error, volume)| Objectives { error, volume })
                        .collect(),
                    rng: StdRng::from_state(isl.rng),
                })
                .collect(),
            generations: cp.generations,
            history: cp.history.clone(),
            best_so_far: cp.best_so_far,
            stall: cp.stall,
        }
    }
}

/// How [`evolve_islands`] starts: fresh per-island seed populations
/// (topped up with random samples), or a mid-run [`EvoState`] restored
/// from a checkpoint.
#[derive(Debug, Clone)]
pub enum IslandStart {
    /// Start island `i` from the `i`-th seed population (missing or
    /// empty entries are filled with random samples). The outer vector
    /// may be shorter than the island count, never longer.
    Fresh(Vec<Vec<ThreeLevelMapping>>),
    /// Continue a checkpointed run exactly where it stopped.
    Resume(EvoState),
}

/// An observer's verdict after each generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IslandControl {
    /// Keep evolving.
    Continue,
    /// Stop now (used by the checkpoint writer to simulate a kill; the
    /// returned state resumes via [`IslandStart::Resume`]).
    Halt,
}

/// Per-generation observer: sees the post-generation [`EvoState`] (after
/// any migration) and may halt the run. Must not mutate anything the
/// evolution depends on — it exists for checkpoint writing.
pub type IslandObserver<'a> = &'a mut dyn FnMut(&EvoState) -> IslandControl;

/// Outcome of [`evolve_islands`].
#[derive(Debug, Clone)]
pub struct IslandsEvolution {
    /// The fittest individual across all islands (after local search,
    /// when enabled and the run was not halted).
    pub result: EvoResult,
    /// Final per-island populations, for warm-starting a later segment.
    pub islands: Vec<Island>,
    /// Whether an observer halted the run before convergence; a halted
    /// result is provisional (no local search was applied).
    pub halted: bool,
}

/// The RNG seed of island `island` under session seed `base`.
///
/// Island 0 uses `base` itself — a 1-island run is bit-compatible with
/// the pre-island single-population loop. Later islands mix the island
/// index through a SplitMix64 finalizer so their streams are
/// statistically independent of each other and of the base stream.
pub fn island_seed(base: u64, island: u32) -> u64 {
    if island == 0 {
        return base;
    }
    let mut z = base ^ u64::from(island).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lexicographic `(error, volume, index)` order — the stable fitness
/// order migrants are chosen by.
fn cmp_lex(objectives: &[Objectives], x: usize, y: usize) -> std::cmp::Ordering {
    (objectives[x].error, objectives[x].volume, x)
        .partial_cmp(&(objectives[y].error, objectives[y].volume, y))
        .expect("objectives are finite")
}

/// Ring migration: island `i` sends clones of its `migrants` best to
/// island `(i + 1) mod N`, replacing the receiver's worst individuals.
/// All outgoing sets are snapshotted before any replacement happens, so
/// the result is independent of island iteration order.
fn migrate(islands: &mut [Island], migrants: usize) {
    let n = islands.len();
    let outgoing: Vec<Vec<(ThreeLevelMapping, Objectives)>> = islands
        .iter()
        .map(|isl| {
            let m = migrants.min(isl.population.len());
            let mut order: Vec<usize> = (0..isl.population.len()).collect();
            order.sort_unstable_by(|&x, &y| cmp_lex(&isl.objectives, x, y));
            order
                .iter()
                .take(m)
                .map(|&i| (isl.population[i].clone(), isl.objectives[i]))
                .collect()
        })
        .collect();
    for (src, incoming) in outgoing.into_iter().enumerate() {
        let dst = (src + 1) % n;
        let isl = &mut islands[dst];
        let mut order: Vec<usize> = (0..isl.population.len()).collect();
        order.sort_unstable_by(|&x, &y| cmp_lex(&isl.objectives, x, y));
        // The worst slots are the tail of the ascending order.
        let worst: Vec<usize> = order.iter().rev().take(incoming.len()).copied().collect();
        for (slot, (mapping, obj)) in worst.into_iter().zip(incoming) {
            isl.population[slot] = mapping;
            isl.objectives[slot] = obj;
        }
    }
}

/// Runs the island-model evolutionary algorithm over `num_insts`
/// (representative) instructions on a machine with `num_ports` ports.
///
/// `experiments` are the measured training experiments (over the same
/// instruction universe `0..num_insts`), `indiv_tp[i]` the measured
/// individual throughput of instruction `i` (used to bound the random
/// initialization as in paper §4.4). The final greedy local search runs
/// when `local_search` is set; intermediate segments of a round-based
/// run skip it and warm-start the next segment from the returned
/// populations.
///
/// With `islands.count == 1` and a fresh start this is the paper's
/// classic single-population loop; more islands trade per-island
/// population size for diversity and migrate on the ring described in
/// the [module documentation](self).
///
/// `observer`, when given, runs after every generation (post-migration)
/// and may halt the run — the checkpoint writer uses this to both
/// persist [`EvoState`] snapshots and simulate process kills in tests.
///
/// # Panics
///
/// Panics if inputs are empty or inconsistent, a fresh seed individual
/// does not match `num_insts`/`num_ports`, a fresh seed population is
/// larger than `config.population_size`, or a resumed state does not
/// have `islands.count` islands of that size.
#[allow(clippy::too_many_arguments)]
pub fn evolve_islands(
    num_insts: usize,
    num_ports: usize,
    experiments: &[MeasuredExperiment],
    indiv_tp: &[f64],
    config: &EvoConfig,
    islands: &IslandConfig,
    start: IslandStart,
    local_search: bool,
    mut observer: Option<IslandObserver<'_>>,
) -> IslandsEvolution {
    assert!(num_insts > 0, "empty instruction universe");
    assert_eq!(indiv_tp.len(), num_insts, "throughput table size mismatch");
    assert!(config.population_size >= 2, "population too small");
    assert!(islands.count >= 1, "need at least one island");
    let n_islands = islands.count as usize;
    let p = config.population_size;

    // One engine per run: experiments are compiled once and the worker
    // solvers stay warm across every generation and the final local
    // search.
    let mut engine = FitnessEngine::new(experiments, config.num_threads);

    let mut state = match start {
        IslandStart::Fresh(seeds) => {
            assert!(
                seeds.len() <= n_islands,
                "more seed populations ({}) than islands ({n_islands})",
                seeds.len()
            );
            let mut seeds = seeds.into_iter();
            let mut isl_pops = Vec::with_capacity(n_islands);
            let mut rngs = Vec::with_capacity(n_islands);
            for i in 0..n_islands {
                let mut rng = StdRng::seed_from_u64(island_seed(config.seed, i as u32));
                let population = seeds.next().unwrap_or_default();
                assert!(
                    population.len() <= p,
                    "initial population larger than the configured population size \
                     ({} > {p})",
                    population.len()
                );
                for m in &population {
                    assert_eq!(m.num_insts(), num_insts, "initial individual universe mismatch");
                    assert_eq!(m.num_ports(), num_ports, "initial individual port-count mismatch");
                }
                let mut population = population;
                while population.len() < p {
                    population.push(ThreeLevelMapping::sample_random(
                        &mut rng, num_insts, num_ports, indiv_tp,
                    ));
                }
                isl_pops.push(population);
                rngs.push(rng);
            }
            // One merged batch for every island's initial evaluation.
            let flat: Vec<ThreeLevelMapping> = isl_pops.into_iter().flatten().collect();
            let objectives = engine.evaluate_batch(&flat);
            let mut flat = flat.into_iter();
            let mut objectives = objectives.into_iter();
            let islands_vec = rngs
                .into_iter()
                .map(|rng| Island {
                    population: flat.by_ref().take(p).collect(),
                    objectives: objectives.by_ref().take(p).collect(),
                    rng,
                })
                .collect();
            EvoState {
                islands: islands_vec,
                generations: 0,
                history: Vec::new(),
                best_so_far: f64::INFINITY,
                stall: 0,
            }
        }
        IslandStart::Resume(state) => {
            assert_eq!(state.islands.len(), n_islands, "resumed island count mismatch");
            for isl in &state.islands {
                assert_eq!(isl.population.len(), p, "resumed population size mismatch");
                assert_eq!(
                    isl.population.len(),
                    isl.objectives.len(),
                    "resumed objectives length mismatch"
                );
                for m in &isl.population {
                    assert_eq!(m.num_insts(), num_insts, "resumed individual universe mismatch");
                    assert_eq!(m.num_ports(), num_ports, "resumed individual port-count mismatch");
                }
            }
            state
        }
    };

    let mut halted = false;
    // Equivalent to the classic `for gen { ...; if stall { break } }`
    // shape, but with the stall check hoisted to the loop head so a
    // checkpoint taken after any generation resumes into the identical
    // control flow.
    while state.generations < config.max_generations {
        if state.stall >= config.stall_generations {
            break;
        }
        // Children: p new individuals per island from ceil(p / 2) random
        // parent pairs. The calling thread draws each pair's parents and
        // crossover from the island's own stream; one pool pass builds
        // every pair and scores its children where they were built
        // (order-deterministic for every worker count).
        let mut pairs = Vec::with_capacity(n_islands * p.div_ceil(2));
        for (island, isl) in state.islands.iter_mut().enumerate() {
            for j in 0..p.div_ceil(2) {
                let parents = (isl.rng.gen_range(0..p), isl.rng.gen_range(0..p));
                let crossover = Crossover::draw(
                    &mut isl.rng,
                    &isl.population[parents.0],
                    &isl.population[parents.1],
                );
                pairs.push(Pair {
                    island,
                    parents,
                    crossover,
                    // An odd population keeps only the last pair's first
                    // child.
                    both: 2 * j + 1 < p,
                });
            }
        }
        let mut children = engine
            .build_and_evaluate(pairs.len(), |i| {
                let pair = &pairs[i];
                let population = &state.islands[pair.island].population;
                let (c1, c2) = recombine(
                    &population[pair.parents.0],
                    &population[pair.parents.1],
                    &pair.crossover,
                );
                [Some(c1), pair.both.then_some(c2)].into_iter().flatten()
            })
            .into_iter();

        // Pool selection per island: keep the island's p best by
        // scalarized fitness over its own 2p pool.
        for isl in &mut state.islands {
            for (child, objectives) in children.by_ref().take(p) {
                isl.population.push(child);
                isl.objectives.push(objectives);
            }
            let fitness = scalarize(&isl.objectives);
            let mut order: Vec<usize> = (0..isl.population.len()).collect();
            order.sort_by(|&x, &y| {
                fitness[x]
                    .partial_cmp(&fitness[y])
                    .expect("fitness values are finite")
            });
            order.truncate(p);
            // Move the survivors out of the pool; `order` holds distinct
            // indices, so each is taken once.
            let mut pool: Vec<Option<ThreeLevelMapping>> = std::mem::take(&mut isl.population)
                .into_iter()
                .map(Some)
                .collect();
            isl.population = order
                .iter()
                .map(|&idx| pool[idx].take().expect("survivor indices are distinct"))
                .collect();
            isl.objectives = order.iter().map(|&idx| isl.objectives[idx]).collect();
        }
        state.generations += 1;

        let gen_best = state
            .islands
            .iter()
            .flat_map(|isl| isl.objectives.iter().map(|o| o.error))
            .fold(f64::INFINITY, f64::min);
        state.history.push(gen_best);
        if gen_best < state.best_so_far - config.convergence_tol {
            state.best_so_far = gen_best;
            state.stall = 0;
        } else {
            state.stall += 1;
        }

        if n_islands > 1
            && islands.migrants > 0
            && islands.interval > 0
            && state.generations % islands.interval == 0
        {
            migrate(&mut state.islands, islands.migrants);
        }

        if let Some(obs) = observer.as_mut() {
            if obs(&state) == IslandControl::Halt {
                halted = true;
                break;
            }
        }
    }

    // Fittest individual across all islands by lexicographic
    // (error, volume), ties resolved by concatenated island order —
    // identical to the classic loop's `min_by` for one island.
    let (best_isl, best_idx) = state
        .islands
        .iter()
        .enumerate()
        .flat_map(|(k, isl)| (0..isl.population.len()).map(move |i| (k, i)))
        .min_by(|&(kx, x), &(ky, y)| {
            let ox = state.islands[kx].objectives[x];
            let oy = state.islands[ky].objectives[y];
            (ox.error, ox.volume)
                .partial_cmp(&(oy.error, oy.volume))
                .expect("objectives are finite")
        })
        .expect("population is non-empty");
    let mut best = state.islands[best_isl].population[best_idx].clone();
    let best_objectives = if local_search && !halted {
        hill_climb(&mut best, &mut engine, config.local_search_passes)
    } else {
        state.islands[best_isl].objectives[best_idx]
    };

    IslandsEvolution {
        result: EvoResult {
            mapping: best,
            objectives: best_objectives,
            generations: state.generations,
            history: state.history,
        },
        islands: state.islands,
        halted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{Experiment, InstId, PortSet, UopEntry};

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, PortSet::from_ports(ports))
    }

    fn toy_problem() -> (Vec<MeasuredExperiment>, Vec<f64>) {
        let gt = ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(1, &[0])],
                vec![uop(1, &[0, 1])],
                vec![uop(1, &[2]), uop(1, &[0, 1])],
            ],
        );
        let ids: Vec<InstId> = (0..3).map(InstId).collect();
        let mut exps = Vec::new();
        for &i in &ids {
            exps.push(Experiment::singleton(i));
        }
        for a in 0..3usize {
            for b in (a + 1)..3 {
                exps.push(Experiment::pair(ids[a], 1, ids[b], 1));
                exps.push(Experiment::pair(ids[a], 2, ids[b], 1));
            }
        }
        let measured = exps
            .into_iter()
            .map(|e| {
                let t = gt.throughput(&e);
                MeasuredExperiment::new(e, t)
            })
            .collect();
        let indiv = (0..3)
            .map(|i| gt.throughput(&Experiment::singleton(InstId(i))))
            .collect();
        (measured, indiv)
    }

    fn config(seed: u64, threads: usize) -> EvoConfig {
        EvoConfig {
            population_size: 16,
            max_generations: 10,
            num_threads: threads,
            seed,
            ..EvoConfig::default()
        }
    }

    #[test]
    fn island_zero_seed_is_the_session_seed() {
        assert_eq!(island_seed(0x90AD, 0), 0x90AD);
        assert_ne!(island_seed(0x90AD, 1), 0x90AD);
        assert_ne!(island_seed(0x90AD, 1), island_seed(0x90AD, 2));
    }

    #[test]
    fn multi_island_is_worker_count_invariant() {
        let (measured, indiv) = toy_problem();
        let islands = IslandConfig { count: 3, interval: 2, migrants: 2 };
        let run = |threads: usize| {
            evolve_islands(
                3,
                3,
                &measured,
                &indiv,
                &config(5, threads),
                &islands,
                IslandStart::Fresh(Vec::new()),
                true,
                None,
            )
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.result.mapping, b.result.mapping);
        assert_eq!(a.result.history, b.result.history);
        for (x, y) in a.islands.iter().zip(&b.islands) {
            assert_eq!(x.population, y.population);
        }
    }

    #[test]
    fn halt_and_resume_reproduces_the_uninterrupted_run() {
        let (measured, indiv) = toy_problem();
        let cfg = config(9, 2);
        let islands = IslandConfig { count: 2, interval: 3, migrants: 1 };
        let full = evolve_islands(
            3, 3, &measured, &indiv, &cfg, &islands,
            IslandStart::Fresh(Vec::new()), true, None,
        );
        for halt_after in [1u32, 2, 4] {
            let mut snapshot = None;
            let mut hook = |state: &EvoState| {
                if state.generations == halt_after {
                    snapshot = Some(state.to_checkpoint());
                    IslandControl::Halt
                } else {
                    IslandControl::Continue
                }
            };
            let partial = evolve_islands(
                3, 3, &measured, &indiv, &cfg, &islands,
                IslandStart::Fresh(Vec::new()), true, Some(&mut hook),
            );
            assert!(partial.halted);
            let state = EvoState::from_checkpoint(&snapshot.expect("halt fired"));
            let resumed = evolve_islands(
                3, 3, &measured, &indiv, &cfg, &islands,
                IslandStart::Resume(state), true, None,
            );
            assert_eq!(full.result.mapping, resumed.result.mapping);
            assert_eq!(full.result.history, resumed.result.history);
            assert_eq!(full.result.generations, resumed.result.generations);
            for (x, y) in full.islands.iter().zip(&resumed.islands) {
                assert_eq!(x.population, y.population);
                assert_eq!(x.rng.state(), y.rng.state());
            }
        }
    }

    /// FNV-1a over everything a run leaves behind: every island's
    /// population, objectives and RNG words, the history, and the winner
    /// with its objectives and generation count.
    fn run_hash(run: &IslandsEvolution) -> u64 {
        fn put_mapping(bytes: &mut Vec<u8>, m: &ThreeLevelMapping) {
            for entries in m.decompositions() {
                bytes.extend((entries.len() as u64).to_le_bytes());
                for e in entries {
                    bytes.extend(e.count.to_le_bytes());
                    bytes.extend(e.ports.mask().to_le_bytes());
                }
            }
        }
        fn put_objectives(bytes: &mut Vec<u8>, o: &Objectives) {
            bytes.extend(o.error.to_bits().to_le_bytes());
            bytes.extend(o.volume.to_le_bytes());
        }
        let mut bytes = Vec::new();
        for isl in &run.islands {
            for (m, o) in isl.population.iter().zip(&isl.objectives) {
                put_mapping(&mut bytes, m);
                put_objectives(&mut bytes, o);
            }
            for word in isl.rng.state() {
                bytes.extend(word.to_le_bytes());
            }
        }
        for h in &run.result.history {
            bytes.extend(h.to_bits().to_le_bytes());
        }
        put_mapping(&mut bytes, &run.result.mapping);
        put_objectives(&mut bytes, &run.result.objectives);
        bytes.extend(run.result.generations.to_le_bytes());
        pmevo_core::binfmt::fnv1a(&bytes)
    }

    /// Toy runs pinned by absolute hashes: breeding's output bits must
    /// not depend on how or where children are built, nor on the worker
    /// count. Covers one and three islands, and odd populations (the
    /// last pair keeps one child).
    #[test]
    fn runs_match_their_golden_hashes() {
        // (islands, population, hash)
        const GOLDEN: [(u32, usize, u64); 4] = [
            (1, 16, 0x3a58a1d6ea483dce),
            (3, 16, 0xad3cd417edee894d),
            (1, 15, 0x17ca0ffb24d88656),
            (3, 13, 0x13e0e43035090f8f),
        ];
        let (measured, indiv) = toy_problem();
        let mut got = Vec::new();
        for &(count, population, _) in &GOLDEN {
            let hashes: Vec<u64> = [1, 2, 3]
                .into_iter()
                .map(|threads| {
                    let cfg = EvoConfig {
                        population_size: population,
                        ..config(21, threads)
                    };
                    let islands = IslandConfig {
                        count,
                        interval: 2,
                        migrants: 2,
                    };
                    run_hash(&evolve_islands(
                        3,
                        3,
                        &measured,
                        &indiv,
                        &cfg,
                        &islands,
                        IslandStart::Fresh(Vec::new()),
                        true,
                        None,
                    ))
                })
                .collect();
            assert!(
                hashes.windows(2).all(|w| w[0] == w[1]),
                "{count} islands, population {population}: \
                 the worker count changed the run ({hashes:x?})"
            );
            got.push((count, population, hashes[0]));
        }
        let want: Vec<_> = GOLDEN.to_vec();
        assert!(
            got == want,
            "island runs drifted; the new table is:\n{}",
            got.iter()
                .map(|(c, p, h)| format!("            ({c}, {p}, {h:#018x}),"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    #[should_panic(expected = "initial population larger than the configured population size")]
    fn oversized_seed_population_is_rejected() {
        let (measured, indiv) = toy_problem();
        let cfg = config(1, 1);
        let seed_pop: Vec<ThreeLevelMapping> = std::iter::repeat_with(|| {
            ThreeLevelMapping::new(3, vec![vec![uop(1, &[0])]; 3])
        })
        .take(cfg.population_size + 1)
        .collect();
        evolve_islands(
            3,
            3,
            &measured,
            &indiv,
            &cfg,
            &IslandConfig::default(),
            IslandStart::Fresh(vec![seed_pop]),
            false,
            None,
        );
    }
}
