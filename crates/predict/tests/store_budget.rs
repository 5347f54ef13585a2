//! Fleet-scale acceptance for the memory-budgeted [`MappingStore`]
//! (ISSUE 9 tentpole): a store holding 1000 `name@version` binary
//! artifacts under a byte budget far below their total size must answer
//! every query **byte-identically** to an unbudgeted store, at every
//! worker count — the budget buys memory with reload latency, never
//! with answers.

use pmevo_core::{Experiment, InstId, MappingArtifact, PortSet, ThreeLevelMapping, UopEntry};
use pmevo_predict::{MappingId, MappingStore, Predictor, PredictorConfig};
use std::path::{Path, PathBuf};

const NAMES: usize = 40;
const VERSIONS: usize = 25;

/// Deterministic xorshift64* stream — no external RNG needed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Shape of one fleet name: all its versions share the instruction
/// universe (so their name tables intern) and the port count.
fn fleet_shape(name_idx: usize) -> (usize, usize) {
    let num_ports = 2 + name_idx % 4;
    let num_insts = 4 + name_idx % 7;
    (num_ports, num_insts)
}

fn fleet_names(name_idx: usize) -> Vec<String> {
    let (_, num_insts) = fleet_shape(name_idx);
    (0..num_insts).map(|i| format!("n{name_idx}_op{i}")).collect()
}

/// One version's mapping: same shape as every other version of the
/// name, different decomposition content.
fn fleet_mapping(name_idx: usize, version: usize) -> ThreeLevelMapping {
    let (num_ports, num_insts) = fleet_shape(name_idx);
    let mut rng = Rng(0x9e37_79b9 + (name_idx as u64) * 1009 + version as u64);
    let decomp = (0..num_insts)
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|_| {
                    let mask = 1 + rng.below((1 << num_ports) - 1);
                    UopEntry::new(1 + rng.below(2) as u32, PortSet::from_mask(mask))
                })
                .collect()
        })
        .collect();
    ThreeLevelMapping::new(num_ports, decomp)
}

/// Writes the full 1000-artifact fleet into `dir`, returning
/// `paths[name_idx][version_idx]`.
fn write_fleet(dir: &Path) -> Vec<Vec<PathBuf>> {
    std::fs::create_dir_all(dir).expect("scratch dir");
    (0..NAMES)
        .map(|n| {
            (0..VERSIONS)
                .map(|v| {
                    let path = dir.join(format!("n{n}_v{v}.bin"));
                    let artifact =
                        MappingArtifact::new(fleet_names(n), fleet_mapping(n, v));
                    std::fs::write(&path, artifact.to_bytes()).expect("write artifact");
                    path
                })
                .collect()
        })
        .collect()
}

fn build_store(paths: &[Vec<PathBuf>], budget: Option<u64>) -> MappingStore {
    let mut store = MappingStore::with_budget(budget);
    for (n, versions) in paths.iter().enumerate() {
        for path in versions {
            store
                .insert_from_file(format!("N{n}"), path.to_str().unwrap(), None)
                .expect("fleet artifact registers");
        }
    }
    store
}

/// A seeded query stream across the whole fleet (every version is
/// addressable and queried, not just `latest`).
fn workload(store: &MappingStore, total: usize) -> Vec<(MappingId, Experiment)> {
    let ids: Vec<MappingId> = store.ids().collect();
    let mut rng = Rng(0xf1ee_7000_abcd_ef01);
    (0..total)
        .map(|_| {
            let id = ids[rng.below(ids.len() as u64) as usize];
            let num_insts = store.get(id).num_insts() as u64;
            let counts: Vec<(InstId, u32)> = (0..1 + rng.below(3))
                .map(|_| (InstId(rng.below(num_insts) as u32), 1 + rng.below(3) as u32))
                .collect();
            (id, Experiment::from_counts(&counts))
        })
        .collect()
}

fn answer(store: MappingStore, workers: usize, queries: &[(MappingId, Experiment)]) -> Vec<u64> {
    let predictor =
        Predictor::new(store, PredictorConfig { workers, cache_capacity: 0 });
    let mut bits = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(64) {
        for result in predictor.try_predict_routed(chunk) {
            bits.push(result.expect("fleet artifacts stay readable").to_bits());
        }
    }
    bits
}

#[test]
fn thousand_mapping_store_under_budget_answers_bit_identically() {
    let dir = std::env::temp_dir().join(format!("pmevo_store_budget_test_{}", std::process::id()));
    let paths = write_fleet(&dir);

    let reference_store = build_store(&paths, None);
    assert_eq!(reference_store.len(), NAMES * VERSIONS);
    // `name@version` addressing reaches every entry, and versions of a
    // name share one interned name table (same allocation).
    let id13 = reference_store.lookup("N7", 13).expect("N7@13 exists");
    assert_eq!(reference_store.get(id13).label(), "N7@13");
    let id14 = reference_store.lookup("N7", 14).expect("N7@14 exists");
    assert!(
        std::ptr::eq(
            reference_store.get(id13).inst_names().as_ptr(),
            reference_store.get(id14).inst_names().as_ptr()
        ),
        "versions of one name intern one table"
    );

    let total_payload: u64 =
        reference_store.ids().map(|id| reference_store.get(id).payload_bytes()).sum();
    let budget = total_payload / 4;
    let queries = workload(&reference_store, 4000);
    let reference = answer(reference_store, 1, &queries);

    for workers in [1usize, 2, 8] {
        let store = build_store(&paths, Some(budget));
        let bits = answer(store, workers, &queries);
        assert_eq!(
            bits, reference,
            "budgeted store ({workers} workers) must answer bit-identically"
        );
    }

    // The budget machinery must actually have been exercised — and the
    // byte account must respect the cap once the stream has drained.
    let store = build_store(&paths, Some(budget));
    let predictor = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 0 });
    for chunk in queries.chunks(64) {
        for result in predictor.try_predict_routed(chunk) {
            result.expect("fleet artifacts stay readable");
        }
    }
    let stats = predictor.snapshot().residency_stats();
    assert_eq!(stats.budget, Some(budget));
    assert!(stats.evictions > 0, "a quarter budget must evict: {stats:?}");
    assert!(stats.reloads > 0, "evicted payloads must have reloaded: {stats:?}");
    assert!(
        stats.resident_bytes <= budget,
        "the byte account respects the cap: {stats:?}"
    );
    let resident = predictor.snapshot().resident_count();
    assert!(
        resident < NAMES * VERSIONS,
        "not everything can be resident under a quarter budget"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
