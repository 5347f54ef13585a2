//! Property tests: a [`Predictor`]'s batch predictions are **bit
//! identical** across 1/2/8 workers and across cache-on/cache-off, and
//! they agree bit-for-bit with the naive per-sequence reference path
//! (`ThreeLevelMapping::throughput`) — on random mappings and random
//! query streams (ISSUE 5 satellite).

use pmevo_core::{Experiment, InstId, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_predict::{MappingStore, Predictor, PredictorConfig};
use proptest::prelude::*;

const NUM_INSTS: usize = 6;
const NUM_PORTS: usize = 4;

fn mapping_strategy() -> impl Strategy<Value = ThreeLevelMapping> {
    proptest::collection::vec(
        proptest::collection::vec((1u32..4, 1u64..(1 << NUM_PORTS)), 1..4),
        NUM_INSTS,
    )
    .prop_map(|decomp| {
        ThreeLevelMapping::new(
            NUM_PORTS,
            decomp
                .into_iter()
                .map(|entries| {
                    entries
                        .into_iter()
                        .map(|(n, mask)| UopEntry::new(n, PortSet::from_mask(mask)))
                        .collect()
                })
                .collect(),
        )
    })
}

/// Random query streams with duplicates (indices into a small pool of
/// random sequences), so the cache actually serves hits mid-stream.
/// More than half of them are longer than 128 queries, so their first
/// 200-query batch is all misses and fans out over the workers.
fn stream_strategy() -> impl Strategy<Value = Vec<Experiment>> {
    let pool = proptest::collection::vec(
        proptest::collection::vec((0u32..NUM_INSTS as u32, 1u32..5), 1..5),
        1..12,
    );
    (pool, proptest::collection::vec(0usize..1024, 1..300)).prop_map(
        |(pool, picks)| {
            let pool: Vec<Experiment> = pool
                .into_iter()
                .map(|counts| {
                    let pairs: Vec<(InstId, u32)> =
                        counts.into_iter().map(|(i, n)| (InstId(i), n)).collect();
                    Experiment::from_counts(&pairs)
                })
                .collect();
            picks.into_iter().map(|p| pool[p % pool.len()].clone()).collect()
        },
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|t| t.to_bits()).collect()
}

/// Serves `stream` through a fresh predictor in `chunk`-sized batches —
/// later batches can hit cache entries written by earlier ones, and the
/// chunk size steers which miss path runs (single sequences and batches
/// of up to 128 misses on the calling thread, or more than 128 misses
/// across every worker).
fn serve(
    mapping: &ThreeLevelMapping,
    stream: &[Experiment],
    workers: usize,
    cache: usize,
    chunk: usize,
) -> Vec<f64> {
    let mut store = MappingStore::new();
    let names = (0..NUM_INSTS).map(|i| format!("i{i}")).collect();
    let id = store.insert("P", names, mapping.clone());
    let predictor = Predictor::new(store, PredictorConfig { workers, cache_capacity: cache });
    let mut out = Vec::with_capacity(stream.len());
    for chunk in stream.chunks(chunk) {
        out.extend(predictor.predict_batch(id, chunk));
    }
    out
}

proptest! {
    // Each case serves 9 predictor configurations × 4 batch sizes; 48
    // cases keep the suite around a second (override downward with
    // PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole serving contract: for random mappings and random
    /// skewed query streams, every (worker count × cache mode × batch
    /// size) serving configuration returns byte-for-byte the same
    /// answers as the naive reference path. Batch sizes 1, 7 and 64 solve
    /// their misses on the calling thread; a 200-query batch of a stream
    /// longer than 128 queries starts with more than 128 misses, which
    /// the 2- and 8-worker predictors split across their workers.
    #[test]
    fn predictions_are_bit_identical_across_workers_and_cache_modes(
        mapping in mapping_strategy(),
        stream in stream_strategy(),
    ) {
        let reference: Vec<f64> = stream.iter().map(|e| mapping.throughput(e)).collect();
        let reference_bits = bits(&reference);
        for workers in [1usize, 2, 8] {
            for cache in [0usize, 4, 1 << 12] {
                for chunk in [1usize, 7, 64, 200] {
                    let served = serve(&mapping, &stream, workers, cache, chunk);
                    prop_assert_eq!(
                        bits(&served),
                        reference_bits.clone(),
                        "{} workers, cache capacity {}, batch size {}",
                        workers,
                        cache,
                        chunk
                    );
                }
            }
        }
    }

    /// Store versioning never mixes answers: two versions of the same
    /// name answer with their own mapping's bits, and `latest` routes to
    /// the newest.
    #[test]
    fn versioned_entries_answer_independently(
        m1 in mapping_strategy(),
        m2 in mapping_strategy(),
        stream in stream_strategy(),
    ) {
        let names = |n: usize| (0..n).map(|i| format!("i{i}")).collect::<Vec<_>>();
        let mut store = MappingStore::new();
        let v1 = store.insert("P", names(NUM_INSTS), m1.clone());
        let v2 = store.insert("P", names(NUM_INSTS), m2.clone());
        prop_assert_eq!(store.latest("P"), Some(v2));
        let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 64 });
        let got1 = predictor.predict_batch(v1, &stream);
        let got2 = predictor.predict_batch(v2, &stream);
        let want1: Vec<f64> = stream.iter().map(|e| m1.throughput(e)).collect();
        let want2: Vec<f64> = stream.iter().map(|e| m2.throughput(e)).collect();
        prop_assert_eq!(bits(&got1), bits(&want1));
        prop_assert_eq!(bits(&got2), bits(&want2));
    }
}
