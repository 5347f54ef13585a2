//! The batched prediction engine: long-lived solvers, compile-once
//! batches, LRU-cached results.
//!
//! A [`Predictor`] answers throughput queries against the mappings of a
//! [`MappingStore`]. Its execution path is the workspace's
//! allocation-free solver pipeline: a batch of cache misses is compiled
//! **once** into a [`CompiledExperiments`] (dense interning, flat rows),
//! then solved on the workspace's worker pool ([`pmevo_core::pool`]) by
//! long-lived [`ThroughputSolver`]s, one per worker — after warm-up, the
//! solver performs no per-query heap allocation. Results are memoized in
//! a per-mapping [`LruCache`], so the skewed query streams of real
//! clients (compilers re-asking about hot basic blocks) short-circuit
//! to a hash lookup.
//!
//! Like every parallel layer of this workspace ([`Service::run_many`],
//! the fitness engine), the predictor is **thread-count independent**: a
//! prediction is a pure function of the sequence and the mapping bits,
//! so results are bit-identical for every worker count and for cache
//! hits vs misses. A property test in `tests/proptest_predict.rs`
//! enforces this across 1/2/8 workers × cache on/off.
//!
//! [`Service::run_many`]: ../pmevo/struct.Service.html#method.run_many

use crate::lru::LruCache;
use crate::store::{LoadedArtifact, MappingId, MappingStore, StoreError};
use pmevo_core::{
    pool, CompiledExperiments, Experiment, MeasuredExperiment, ThreeLevelMapping, ThroughputSolver,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Configuration of a [`Predictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Worker threads that solve a large batch of cache misses (at least
    /// 1; results do not depend on the count).
    pub workers: usize,
    /// LRU result-cache capacity *per stored mapping* (0 disables
    /// caching).
    pub cache_capacity: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            workers: pool::available_workers(),
            cache_capacity: 1 << 16,
        }
    }
}

/// Cumulative serving counters of a [`Predictor`], for load reports and
/// the `fig_predict` sweep. All counts are exact and deterministic; the
/// solve-time accumulator is wall-clock and therefore not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Sequences answered (hits and misses).
    pub queries: u64,
    /// Sequences answered from the LRU cache.
    pub cache_hits: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Wall-clock nanoseconds spent solving cache misses (compile +
    /// kernel + reassembly), cumulative across batches.
    pub miss_solve_ns: u64,
}

impl PredictStats {
    /// Fraction of queries answered from the cache, in `[0, 1]` (0 when
    /// nothing was queried).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Sequences that had to be solved (queries not answered from the
    /// cache).
    pub fn misses(&self) -> u64 {
        self.queries - self.cache_hits
    }
}

/// Largest miss count a predictor solves on the calling thread alone
/// instead of fanning out over its worker threads. Starting the workers
/// costs microseconds, so small batches are faster on the calling
/// thread.
const INLINE_MISS_MAX: usize = 128;

/// A throughput-prediction service over a [`MappingStore`]: batched,
/// cached, multi-threaded — the paper's §6 evaluation loop turned into a
/// serving path measured in sequences per second.
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, PortSet, ThreeLevelMapping, UopEntry};
/// use pmevo_predict::{MappingStore, Predictor, PredictorConfig};
///
/// let mut store = MappingStore::new();
/// let id = store.insert(
///     "demo",
///     vec!["add".into(), "mul".into()],
///     ThreeLevelMapping::new(2, vec![
///         vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
///         vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
///     ]),
/// );
/// let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 64 });
///
/// let snapshot = predictor.snapshot();
/// let seqs = vec![
///     snapshot.get(id).parse("mul x4").unwrap(),
///     snapshot.get(id).parse("add; add").unwrap(),
/// ];
/// let cycles = predictor.predict_batch(id, &seqs);
/// assert_eq!(cycles, vec![4.0, 1.0]);
/// // The repeat is served from the cache.
/// assert_eq!(predictor.predict_batch(id, &seqs[..1]), vec![4.0]);
/// assert_eq!(predictor.stats().cache_hits, 1);
/// ```
pub struct Predictor {
    /// The serving snapshot. Readers clone the `Arc` (one refcount bump
    /// under a read lock) and answer whole batches from that immutable
    /// snapshot; [`insert_mapping`](Self::insert_mapping) swaps in a new
    /// `Arc` under the write lock, so in-flight batches drain against the
    /// store they started with.
    store: RwLock<Arc<MappingStore>>,
    /// Per-mapping LRU result caches, keyed by [`MappingId`] index.
    /// Ids are append-only across reloads, so cache entries survive a
    /// snapshot swap (a new version gets a new id and a cold cache).
    caches: Mutex<HashMap<u32, LruCache<Experiment, f64>>>,
    cache_capacity: usize,
    queries: AtomicU64,
    cache_hits: AtomicU64,
    batches: AtomicU64,
    /// Wall-clock nanoseconds spent on the miss path, cumulative.
    miss_solve_ns: AtomicU64,
    /// Queries answered per mapping id, for the stats surface.
    per_mapping: Mutex<HashMap<u32, u64>>,
    /// One solver per worker, warm across batches. Concurrent batches
    /// take turns on the set; `solvers[0]` serves the calling thread.
    solvers: Mutex<Vec<ThroughputSolver>>,
    /// `solvers.len()`, readable without waiting for a solve.
    workers: usize,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor")
            .field("mappings", &self.snapshot().len())
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .finish()
    }
}

impl Predictor {
    /// Wraps `store` as a prediction service with one solver per worker.
    pub fn new(store: MappingStore, config: PredictorConfig) -> Self {
        let workers = config.workers.max(1);
        Predictor {
            store: RwLock::new(Arc::new(store)),
            caches: Mutex::new(HashMap::new()),
            cache_capacity: config.cache_capacity,
            queries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            miss_solve_ns: AtomicU64::new(0),
            per_mapping: Mutex::new(HashMap::new()),
            solvers: Mutex::new(vec![ThroughputSolver::new(); workers]),
            workers,
        }
    }

    /// The current store snapshot.
    ///
    /// The snapshot is immutable: resolve names, parse sequences and
    /// inspect entries against it without holding any lock. A
    /// concurrently-arriving [`insert_mapping`](Self::insert_mapping)
    /// does not change it — re-take a snapshot to observe new versions.
    pub fn snapshot(&self) -> Arc<MappingStore> {
        Arc::clone(&self.store.read().expect("store lock poisoned"))
    }

    /// Registers a new mapping version into the live service, atomically
    /// swapping the store snapshot. Existing [`MappingId`]s keep
    /// answering with the same mapping bits (ids are append-only), and
    /// batches in flight against the previous snapshot drain unchanged;
    /// only *new* snapshots observe the new version as `latest(name)`.
    ///
    /// # Panics
    ///
    /// As for [`MappingStore::insert`].
    pub fn insert_mapping(
        &self,
        name: impl Into<String>,
        inst_names: Vec<String>,
        mapping: ThreeLevelMapping,
    ) -> MappingId {
        let mut guard = self.store.write().expect("store lock poisoned");
        // Clone-on-write: a handful of Arc bumps (entries are shared),
        // then one atomic pointer swap.
        let mut next = MappingStore::clone(&guard);
        let id = next.insert(name, inst_names, mapping);
        *guard = Arc::new(next);
        id
    }

    /// Registers an artifact the caller has already loaded and validated
    /// into the live service — the daemon's hot-reload entry point; see
    /// [`MappingStore::insert_loaded`]. The entry remembers its path, so
    /// under a store budget it is evictable and lazily reloadable.
    ///
    /// The swap is atomic either way: on success new snapshots observe
    /// the new version, and on failure the serving snapshot is exactly
    /// what it was — no partially-inserted entry, no burned version.
    ///
    /// # Errors
    ///
    /// See [`StoreError`]; the store is untouched on every error.
    pub fn insert_loaded(
        &self,
        name: impl Into<String>,
        loaded: LoadedArtifact,
    ) -> Result<MappingId, StoreError> {
        let mut guard = self.store.write().expect("store lock poisoned");
        let mut next = MappingStore::clone(&guard);
        let id = next.insert_loaded(name, loaded)?;
        *guard = Arc::new(next);
        Ok(id)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> PredictStats {
        PredictStats {
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            miss_solve_ns: self.miss_solve_ns.load(Ordering::Relaxed),
        }
    }

    /// Queries answered per stored mapping, as `(label, count)` in id
    /// order — the per-mapping load breakdown of the `stats` verb.
    /// Mappings that were never queried report 0.
    pub fn per_mapping_queries(&self) -> Vec<(String, u64)> {
        let store = self.snapshot();
        let counts = self.per_mapping.lock().expect("counter lock poisoned");
        store
            .ids()
            .map(|id| (store.get(id).label(), counts.get(&id.0).copied().unwrap_or(0)))
            .collect()
    }

    /// Predicts the throughput (cycles per iteration, paper Definition 1)
    /// of every sequence under the stored mapping `id`, in input order.
    ///
    /// Cache hits are answered inline; misses are compiled once and
    /// solved on the calling thread (up to 128 misses, where starting
    /// the workers costs more than the solve) or across every worker.
    /// Both paths run the same batched solver, so the result is
    /// bit-identical for every worker count and cache configuration.
    /// Concurrent calls take turns on the solvers.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store, a sequence references an
    /// instruction outside the mapping's universe, or an evicted
    /// payload's lazy reload fails (serving front ends route through
    /// [`try_predict_batch`](Self::try_predict_batch) to report that
    /// per query instead).
    pub fn predict_batch(&self, id: MappingId, sequences: &[Experiment]) -> Vec<f64> {
        self.try_predict_batch(id, sequences)
            .unwrap_or_else(|e| panic!("mapping unavailable: {e}"))
    }

    /// [`predict_batch`](Self::predict_batch) that surfaces lazy-reload
    /// failures instead of panicking — the serving daemon's entry point,
    /// where a corrupt artifact on disk must degrade one mapping's
    /// queries, not the process.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of the failed payload (re)load; no counters
    /// are advanced and the cache is untouched then.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store or a sequence references an
    /// instruction outside the mapping's universe.
    pub fn try_predict_batch(
        &self,
        id: MappingId,
        sequences: &[Experiment],
    ) -> Result<Vec<f64>, StoreError> {
        // Pin the batch to one snapshot: a concurrent reload swaps the
        // store pointer but cannot touch this entry.
        let store = self.snapshot();
        let stored = store.get_arc(id);
        // Resolve the payload once, up front: the whole batch — cache
        // writes included — solves against this one `Arc`, so a
        // concurrent eviction cannot change the bits mid-batch.
        let mapping = stored.mapping()?;
        let num_insts = stored.num_insts();
        for e in sequences {
            if let Some((inst, _)) = e.iter().last() {
                assert!(
                    inst.index() < num_insts,
                    "sequence instruction {inst} outside mapping {} ({num_insts} instructions)",
                    stored.label()
                );
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(sequences.len() as u64, Ordering::Relaxed);
        *self
            .per_mapping
            .lock()
            .expect("counter lock poisoned")
            .entry(id.0)
            .or_insert(0) += sequences.len() as u64;

        let mut results = vec![0.0f64; sequences.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        if self.cache_capacity == 0 {
            // Caching is off: everything is a miss, and the cache lock
            // never needs to be touched on this path.
            miss_idx.extend(0..sequences.len());
        } else {
            {
                let mut caches = self.caches.lock().expect("cache poisoned");
                let cache = caches
                    .entry(id.0)
                    .or_insert_with(|| LruCache::new(self.cache_capacity));
                for (i, e) in sequences.iter().enumerate() {
                    match cache.get(e) {
                        Some(&t) => results[i] = t,
                        None => miss_idx.push(i),
                    }
                }
            }
            self.cache_hits
                .fetch_add((sequences.len() - miss_idx.len()) as u64, Ordering::Relaxed);
        }
        if miss_idx.is_empty() {
            return Ok(results);
        }

        let solve_start = std::time::Instant::now();
        // Compile the misses once: dense interning + flat rows. The
        // measured field is a placeholder (the compiler demands positive
        // throughputs); prediction never reads it.
        let compiled = CompiledExperiments::compile(
            &miss_idx
                .iter()
                .map(|&i| MeasuredExperiment::new(sequences[i].clone(), 1.0))
                .collect::<Vec<_>>(),
        );
        let n = miss_idx.len();
        let mut solvers = self.solvers.lock().expect("solver set poisoned");
        let workers = if n <= INLINE_MISS_MAX { 1 } else { solvers.len() };
        let solved = pool::map(&mut solvers[..workers], n, |solver, range| {
            solver.load_mapping(&compiled, &mapping);
            let indices: Vec<u32> = (range.start as u32..range.end as u32).collect();
            let mut out = Vec::with_capacity(range.len());
            solver.predict_batch(&compiled, &indices, &mut out);
            out
        });
        drop(solvers);
        for (&i, t) in miss_idx.iter().zip(solved) {
            results[i] = t;
        }
        self.miss_solve_ns
            .fetch_add(solve_start.elapsed().as_nanos() as u64, Ordering::Relaxed);

        if self.cache_capacity > 0 {
            let mut caches = self.caches.lock().expect("cache poisoned");
            let cache = caches
                .entry(id.0)
                .or_insert_with(|| LruCache::new(self.cache_capacity));
            for &i in &miss_idx {
                cache.insert(sequences[i].clone(), results[i]);
            }
        }
        Ok(results)
    }

    /// Predicts a single sequence — [`predict_batch`](Self::predict_batch)
    /// with a batch of one.
    pub fn predict(&self, id: MappingId, sequence: &Experiment) -> f64 {
        self.predict_batch(id, std::slice::from_ref(sequence))[0]
    }

    /// Answers a mixed batch in which every query names its mapping,
    /// returning throughputs in input order — the entry point for front
    /// ends whose streams interleave platforms (the CLI's serving mode,
    /// the `fig_predict` sweep). Queries are grouped per mapping and
    /// each group goes through [`predict_batch`](Self::predict_batch).
    ///
    /// # Panics
    ///
    /// As for [`predict_batch`](Self::predict_batch).
    pub fn predict_routed(&self, queries: &[(MappingId, Experiment)]) -> Vec<f64> {
        self.try_predict_routed(queries)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("mapping unavailable: {e}")))
            .collect()
    }

    /// [`predict_routed`](Self::predict_routed) that surfaces
    /// lazy-reload failures per query: when one mapping's payload cannot
    /// be (re)loaded, every query routed to it gets that `Err` while the
    /// other mappings' queries answer normally — one rotten artifact on
    /// disk must not take down the window it was coalesced into.
    pub fn try_predict_routed(
        &self,
        queries: &[(MappingId, Experiment)],
    ) -> Vec<Result<f64, StoreError>> {
        let mut out: Vec<Result<f64, StoreError>> = vec![Ok(0.0); queries.len()];
        let mut ids: Vec<MappingId> = queries.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let (slots, seqs): (Vec<usize>, Vec<Experiment>) = queries
                .iter()
                .enumerate()
                .filter(|(_, (gid, _))| *gid == id)
                .map(|(slot, (_, e))| (slot, e.clone()))
                .unzip();
            match self.try_predict_batch(id, &seqs) {
                Ok(values) => {
                    for (slot, t) in slots.into_iter().zip(values) {
                        out[slot] = Ok(t);
                    }
                }
                Err(e) => {
                    for slot in slots {
                        out[slot] = Err(e.clone());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{InstId, PortSet, UopEntry};

    fn demo_store() -> (MappingStore, MappingId) {
        let mut store = MappingStore::new();
        let id = store.insert(
            "demo",
            vec!["add".into(), "mul".into(), "store".into()],
            ThreeLevelMapping::new(
                3,
                vec![
                    vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
                    vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
                    vec![UopEntry::new(1, PortSet::from_ports(&[2]))],
                ],
            ),
        );
        (store, id)
    }

    fn demo_sequences() -> Vec<Experiment> {
        vec![
            Experiment::from_counts(&[(InstId(0), 2), (InstId(1), 1)]),
            Experiment::singleton(InstId(1)),
            Experiment::from_counts(&[(InstId(0), 2), (InstId(1), 1)]), // duplicate of [0]
            Experiment::from_counts(&[(InstId(2), 5)]),
        ]
    }

    #[test]
    fn batch_matches_reference_throughput_bitwise() {
        let (store, id) = demo_store();
        let mapping = store.get(id).mapping().unwrap();
        let predictor = Predictor::new(store, PredictorConfig { workers: 3, cache_capacity: 8 });
        let seqs = demo_sequences();
        let got = predictor.predict_batch(id, &seqs);
        for (e, t) in seqs.iter().zip(&got) {
            assert_eq!(t.to_bits(), mapping.throughput(e).to_bits(), "mismatch on {e}");
        }
    }

    #[test]
    fn cache_hits_are_counted_and_bit_identical() {
        let (store, id) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 8 });
        let seqs = demo_sequences();
        let first = predictor.predict_batch(id, &seqs);
        // In-batch duplicates are both misses (4 queries, 0 hits).
        assert_eq!(predictor.stats().queries, 4);
        assert_eq!(predictor.stats().cache_hits, 0);
        let second = predictor.predict_batch(id, &seqs);
        assert_eq!(predictor.stats().cache_hits, 4);
        assert_eq!(predictor.stats().batches, 2);
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
        assert!((predictor.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_off_still_answers_identically() {
        let (store, id) = demo_store();
        let cached = Predictor::new(store, PredictorConfig { workers: 1, cache_capacity: 8 });
        let (store2, id2) = demo_store();
        let uncached = Predictor::new(store2, PredictorConfig { workers: 1, cache_capacity: 0 });
        let seqs = demo_sequences();
        let a = cached.predict_batch(id, &seqs);
        let b = uncached.predict_batch(id2, &seqs);
        assert_eq!(
            a.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(uncached.stats().cache_hits, 0);
        let again = uncached.predict_batch(id2, &seqs);
        assert_eq!(uncached.stats().cache_hits, 0);
        assert_eq!(again[0].to_bits(), a[0].to_bits());
    }

    #[test]
    fn routed_batches_interleave_mappings_in_input_order() {
        let (mut store, a) = demo_store();
        let b = store.insert(
            "other",
            vec!["x".into()],
            ThreeLevelMapping::new(1, vec![vec![UopEntry::new(3, PortSet::from_ports(&[0]))]]),
        );
        let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 8 });
        let queries = vec![
            (a, Experiment::singleton(InstId(1))),           // mul on port 0 → 1.0
            (b, Experiment::singleton(InstId(0))),           // 3 µops on 1 port → 3.0
            (a, Experiment::from_counts(&[(InstId(2), 4)])), // 4 stores on port 2 → 4.0
        ];
        assert_eq!(predictor.predict_routed(&queries), vec![1.0, 3.0, 4.0]);
        assert_eq!(predictor.predict_routed(&[]), Vec::<f64>::new());
    }

    #[test]
    fn single_query_and_empty_batch() {
        let (store, id) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig::default());
        assert_eq!(predictor.predict(id, &Experiment::singleton(InstId(1))), 1.0);
        assert_eq!(predictor.predict_batch(id, &[]), Vec::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "outside mapping")]
    fn out_of_universe_sequences_are_rejected_up_front() {
        let (store, id) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig { workers: 1, cache_capacity: 0 });
        predictor.predict(id, &Experiment::singleton(InstId(40)));
    }

    #[test]
    fn hot_reload_swaps_snapshots_and_keeps_old_ids_answering() {
        let (store, v1) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 8 });
        let before = predictor.snapshot();
        let add = Experiment::singleton(InstId(0));
        let old_answer = predictor.predict(v1, &add); // add on {0,1} → 0.5

        // Deploy a new version of "demo" where add is single-ported.
        let v2 = predictor.insert_mapping(
            "demo",
            vec!["add".into(), "mul".into(), "store".into()],
            ThreeLevelMapping::new(
                3,
                vec![
                    vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
                    vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
                    vec![UopEntry::new(1, PortSet::from_ports(&[2]))],
                ],
            ),
        );
        // The pre-reload snapshot still routes latest → v1 (drain
        // semantics); a fresh snapshot sees v2.
        assert_eq!(before.latest("demo"), Some(v1));
        let after = predictor.snapshot();
        assert_eq!(after.latest("demo"), Some(v2));
        assert_eq!(after.get(v2).label(), "demo@2");
        // Both versions answer with their own bits.
        assert_eq!(predictor.predict(v1, &add).to_bits(), old_answer.to_bits());
        assert_eq!(predictor.predict(v2, &add), 1.0);
    }

    #[test]
    fn load_artifact_rejects_garbage_without_touching_the_store() {
        let (store, _) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig { workers: 1, cache_capacity: 0 });
        let before = predictor.snapshot().len();
        // A second version of "demo" whose name table is not the first's.
        let loaded = LoadedArtifact {
            inst_names: vec!["x".into()],
            mapping: ThreeLevelMapping::new(1, vec![vec![UopEntry::new(1, PortSet::from_ports(&[0]))]]),
            path: "x.bin".into(),
        };
        assert!(matches!(
            predictor.insert_loaded("demo", loaded),
            Err(StoreError::NameTableMismatch { .. })
        ));
        assert_eq!(predictor.snapshot().len(), before);
    }

    #[test]
    fn per_mapping_counters_break_down_the_query_load() {
        let (mut store, a) = demo_store();
        let b = store.insert(
            "other",
            vec!["x".into()],
            ThreeLevelMapping::new(1, vec![vec![UopEntry::new(1, PortSet::from_ports(&[0]))]]),
        );
        let predictor = Predictor::new(store, PredictorConfig { workers: 1, cache_capacity: 8 });
        predictor.predict_batch(a, &demo_sequences());
        predictor.predict(b, &Experiment::singleton(InstId(0)));
        predictor.predict(b, &Experiment::singleton(InstId(0)));
        assert_eq!(
            predictor.per_mapping_queries(),
            vec![("demo@1".to_string(), 4), ("other@1".to_string(), 2)]
        );
    }

    #[test]
    fn batches_slightly_larger_than_the_pool_complete() {
        // Batches of 1-9 misses on a 4-worker predictor. They all solve
        // on the calling thread; chunk counts just above the worker
        // count are covered by the pool's own ordering test.
        let (store, id) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig { workers: 4, cache_capacity: 0 });
        for n in 1..=9u32 {
            let seqs: Vec<Experiment> = (0..n)
                .map(|k| Experiment::from_counts(&[(InstId(k % 3), k + 1)]))
                .collect();
            assert_eq!(predictor.predict_batch(id, &seqs).len(), seqs.len());
        }
    }

    #[test]
    fn batches_larger_than_the_pool_complete() {
        let (store, id) = demo_store();
        let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 0 });
        let seqs: Vec<Experiment> = (0..257u32)
            .map(|k| Experiment::from_counts(&[(InstId(k % 3), 1 + k % 5)]))
            .collect();
        let got = predictor.predict_batch(id, &seqs);
        assert_eq!(got.len(), 257);
        assert!(got.iter().all(|t| *t > 0.0));
    }
}
