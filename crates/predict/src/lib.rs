//! # pmevo-predict — the throughput-prediction serving layer
//!
//! PMEvo's end product is a port mapping; the natural high-QPS workload
//! against that product is llvm-mca-style basic-block throughput
//! prediction (the paper only does this once, in its §6 evaluation).
//! This crate turns the workspace's inference output into a serving
//! subsystem:
//!
//! * [`MappingStore`] — a versioned, shard-by-instruction,
//!   **memory-budgeted** store of inferred mapping artifacts
//!   (`name@version` addressing, immutable `Arc`-shared entries,
//!   deterministic sharded mnemonic resolution, interned name tables,
//!   LRU payload eviction + lazy artifact reload under a byte budget);
//!   stores clone in O(entries) Arc bumps, which is what makes the
//!   [`Predictor`]'s hot reload an atomic snapshot swap
//!   ([`Predictor::insert_mapping`]);
//! * [`Predictor`] — batched throughput queries through the
//!   allocation-free [`pmevo_core::ThroughputSolver`] path: sequences
//!   are compiled once ([`pmevo_core::CompiledExperiments`] interning),
//!   solved on the workspace's worker pool, and memoized in a
//!   per-mapping [`LruCache`];
//! * the sequence grammar itself lives in `pmevo-core`
//!   ([`pmevo_core::parse_sequence`]) so every front end — this crate,
//!   `pmevo-cli predict`, the `fig_predict` sweep — parses identically.
//!
//! Results are **bit-identical** across worker counts and cache
//! configurations (property-tested), so the serving layer inherits the
//! reproducibility contract of the inference layers beneath it.
//!
//! ```
//! use pmevo_core::{PortSet, ThreeLevelMapping, UopEntry};
//! use pmevo_predict::{MappingStore, Predictor, PredictorConfig};
//!
//! let mut store = MappingStore::new();
//! let id = store.insert(
//!     "SKL",
//!     vec!["add".into(), "mul".into()],
//!     ThreeLevelMapping::new(2, vec![
//!         vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
//!         vec![UopEntry::new(1, PortSet::from_ports(&[1]))],
//!     ]),
//! );
//! let service = Predictor::new(store, PredictorConfig { workers: 2, cache_capacity: 1024 });
//! let block = service.snapshot().get(id).parse("add x2; mul").unwrap();
//! // Three µops over two ports, optimally scheduled: 1.5 cycles.
//! assert_eq!(service.predict(id, &block), 1.5);
//! ```

#![deny(missing_docs)]

mod lru;
mod predictor;
mod store;

pub use lru::LruCache;
pub use predictor::{PredictStats, Predictor, PredictorConfig};
pub use store::{
    load_artifact_file, validate_mapping_name, LoadedArtifact, MappingId, MappingStore,
    ResidencyStats, StoreError, StoredMapping, NUM_SHARDS,
};
