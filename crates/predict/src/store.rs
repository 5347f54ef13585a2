//! The versioned, memory-budgeted mapping store behind the serving layer.
//!
//! A serving process holds the inferred port mappings of every machine
//! it answers for — in the fleet-scale regime one mapping per
//! user/platform pair, thousands of `name@version` entries per process.
//! [`MappingStore`] models exactly that: mappings are registered under a
//! *name*, every registration gets a monotonically increasing *version*,
//! and queries address either an exact [`MappingId`] or the latest
//! version of a name (both through a name→versions index, so routing is
//! O(1)/O(log v) no matter how many entries are stored). Nothing is ever
//! mutated in place, so an id handed to a client stays valid (and keeps
//! answering with the same mapping bits) across deployments of newer
//! versions.
//!
//! # Residency and the byte budget
//!
//! A store created with [`MappingStore::with_budget`] keeps its
//! decomposition payloads *resident-or-evicted*: every entry's metadata
//! (name, version, shapes) and its instruction-name table stay resident
//! forever — they are what sequence parsing and routing touch — while
//! the `ThreeLevelMapping` payload of entries registered from an
//! artifact file ([`MappingStore::insert_from_file`]) may be evicted
//! when the estimated resident bytes exceed the budget, least recently
//! used first. An evicted payload lazily reloads from its artifact on
//! the next query. Because artifacts are immutable while registered and
//! both codecs re-normalize deterministically, a reload yields the same
//! bits the entry was registered with — predictions are byte-identical
//! under any budget (the *lazy-reload determinism contract*, enforced by
//! `tests/store_budget.rs`).
//!
//! Name tables are **interned**: registering a new version of a name
//! whose instruction names are unchanged shares the previous version's
//! table (`Arc`), so a thousand versions of one platform pay for one
//! name table — the binary artifact format makes the same move on disk.
//!
//! Each name table is **sharded by instruction**: names are distributed
//! over [`NUM_SHARDS`] sorted runs by a deterministic FNV-1a hash, so
//! resolving a mnemonic against a several-hundred-form ISA
//! binary-searches a run of a few dozen entries instead of one big table.

use crate::lru::LruCache;
use pmevo_core::json::{self, Value};
use pmevo_core::{
    parse_sequence, Experiment, InstId, MappingArtifact, SequenceParseError, ThreeLevelMapping,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Number of instruction-name shards per stored mapping.
pub const NUM_SHARDS: usize = 16;

/// FNV-1a, the shard hash: stable across runs, platforms and Rust
/// versions (unlike `std`'s `RandomState`), so shard layout — and with
/// it any layout-dependent iteration — is deterministic.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % NUM_SHARDS as u64) as usize
}

/// A handle to one immutable entry of a [`MappingStore`].
///
/// Ids are dense indices in registration order; they never dangle and
/// never change meaning for the lifetime of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MappingId(pub u32);

impl MappingId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MappingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Why a store operation failed — reading, decoding or re-validating a
/// mapping artifact. Every variant names the offending path, so a
/// failure among thousands of fleet artifacts is diagnosable from the
/// message alone. `Clone`, so a lazy-reload failure can be fanned out to
/// every query of a routed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The artifact file could not be read.
    Io {
        /// Path of the unreadable file.
        path: String,
        /// The I/O failure.
        what: String,
    },
    /// The artifact's bytes do not decode (bad JSON, corrupt binary).
    Decode {
        /// Path of the undecodable file.
        path: String,
        /// The decode failure (with a byte offset for binary artifacts).
        what: String,
    },
    /// The artifact decodes but its shape disagrees with what the entry
    /// was registered with (instruction or port counts changed).
    ShapeMismatch {
        /// Path of the mismatched artifact.
        path: String,
        /// The disagreement.
        what: String,
    },
    /// A binary artifact's embedded name table disagrees with the
    /// resident one — the artifact belongs to a different instruction
    /// universe than the entry it should back.
    NameTableMismatch {
        /// Path of the mismatched artifact.
        path: String,
        /// The first disagreement.
        what: String,
    },
    /// A JSON artifact was offered without an instruction-name table
    /// (JSON mapping artifacts carry only the decomposition).
    MissingNames {
        /// Path of the artifact.
        path: String,
    },
    /// The mapping name is not registrable (it would collide with the
    /// `name@version` / `NAME=file` grammars).
    BadName {
        /// The rejected name.
        name: String,
        /// Why it is rejected.
        why: String,
    },
}

impl StoreError {
    fn io(path: &str, e: &std::io::Error) -> Self {
        StoreError::Io { path: path.to_owned(), what: e.to_string() }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, what } => write!(f, "cannot read {path}: {what}"),
            StoreError::Decode { path, what } => {
                write!(f, "invalid mapping artifact {path}: {what}")
            }
            StoreError::ShapeMismatch { path, what } => {
                write!(f, "mapping artifact {path} does not fit its entry: {what}")
            }
            StoreError::NameTableMismatch { path, what } => {
                write!(f, "instruction names in {path} do not match: {what}")
            }
            StoreError::MissingNames { path } => write!(
                f,
                "JSON artifact {path} carries no instruction names; register it \
                 via a platform or convert it to the binary format"
            ),
            StoreError::BadName { name, why } => {
                write!(f, "invalid mapping name {name:?}: {why}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Checks that `name` is registrable: printable, non-empty, and free of
/// the characters the serving grammars reserve (`@` separates
/// `name@version` labels, `=` separates `NAME=file` specs, whitespace
/// delimits protocol tokens).
pub fn validate_mapping_name(name: &str) -> Result<(), StoreError> {
    let bad = |why: &str| {
        Err(StoreError::BadName { name: name.to_owned(), why: why.to_owned() })
    };
    if name.is_empty() {
        return bad("must not be empty");
    }
    if let Some(c) = name.chars().find(|c| matches!(c, '@' | '=')) {
        return bad(&format!(
            "must not contain {c:?} (reserved by the name@version / NAME=file grammars)"
        ));
    }
    if name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return bad("must not contain whitespace or control characters");
    }
    Ok(())
}

/// A mapping artifact read from disk: the decomposition, the name table
/// it is indexed by, and where it came from (so the store can go back).
#[derive(Debug, Clone)]
pub struct LoadedArtifact {
    /// Instruction names, indexed by [`InstId`].
    pub inst_names: Vec<String>,
    /// The decomposition tables.
    pub mapping: ThreeLevelMapping,
    /// The path the artifact was read from.
    pub path: String,
}

/// Reads a mapping artifact from `path`, sniffing the format by content:
/// files starting with the `PMEVOBIN` magic decode through the binary
/// codec (which embeds the name table), everything else parses as JSON
/// (which does not — `json_names` must supply the table then).
///
/// When `json_names` is provided for a binary artifact it is checked
/// against the embedded table, so callers that *know* the instruction
/// universe (platform registries, reload paths) catch a swapped file at
/// load time instead of at first mis-resolved query.
///
/// # Errors
///
/// See [`StoreError`]; every variant names `path`.
pub fn load_artifact_file(
    path: &str,
    json_names: Option<&[String]>,
) -> Result<LoadedArtifact, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, &e))?;
    if MappingArtifact::sniff(&bytes) {
        let artifact = MappingArtifact::from_bytes(&bytes)
            .map_err(|e| StoreError::Decode { path: path.to_owned(), what: e.to_string() })?;
        let (inst_names, mapping) = artifact.into_parts();
        if let Some(expected) = json_names {
            if expected != inst_names.as_slice() {
                let what = diff_names(expected, &inst_names);
                return Err(StoreError::NameTableMismatch { path: path.to_owned(), what });
            }
        }
        Ok(LoadedArtifact { inst_names, mapping, path: path.into() })
    } else {
        let text = std::str::from_utf8(&bytes).map_err(|_| StoreError::Decode {
            path: path.to_owned(),
            what: "not a binary artifact and not UTF-8 JSON".to_owned(),
        })?;
        let mapping = ThreeLevelMapping::from_json(text)
            .map_err(|e| StoreError::Decode { path: path.to_owned(), what: e.to_string() })?;
        let inst_names = json_names
            .ok_or(StoreError::MissingNames { path: path.to_owned() })?
            .to_vec();
        if inst_names.len() != mapping.num_insts() {
            return Err(StoreError::ShapeMismatch {
                path: path.to_owned(),
                what: format!(
                    "{} instruction names for a {}-instruction mapping",
                    inst_names.len(),
                    mapping.num_insts()
                ),
            });
        }
        Ok(LoadedArtifact { inst_names, mapping, path: path.into() })
    }
}

/// First point of disagreement between two name tables, for error text.
fn diff_names(expected: &[String], got: &[String]) -> String {
    if expected.len() != got.len() {
        return format!("{} names expected, artifact has {}", expected.len(), got.len());
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        Some(i) => format!("name {i} is {:?}, expected {:?}", got[i], expected[i]),
        None => "tables are equal".to_owned(), // unreachable from the caller
    }
}

/// The interned instruction-name table of one platform: the flat table
/// plus the sharded resolution index. Shared (`Arc`) across every
/// version of a name whose instruction universe is unchanged.
#[derive(Debug)]
struct NameTable {
    /// Instruction names, indexed by `InstId`.
    inst_names: Vec<String>,
    /// Sharded name → id index: `shards[shard_of(name)]` is sorted by
    /// name for binary search.
    shards: [Vec<(String, InstId)>; NUM_SHARDS],
}

impl NameTable {
    fn build(inst_names: Vec<String>) -> Self {
        let mut shards: [Vec<(String, InstId)>; NUM_SHARDS] = Default::default();
        for (i, n) in inst_names.iter().enumerate() {
            shards[shard_of(n)].push((n.clone(), InstId(i as u32)));
        }
        for shard in &mut shards {
            shard.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        NameTable { inst_names, shards }
    }

    /// Deterministic estimate of the table's resident bytes (names are
    /// held twice: flat table + shard index).
    fn cost(&self) -> u64 {
        64 + self
            .inst_names
            .iter()
            .map(|n| 2 * n.len() as u64 + 96)
            .sum::<u64>()
    }
}

/// Deterministic estimate of a decomposition payload's resident bytes:
/// an outer `Vec` spine plus per-instruction `Vec` headers plus 16
/// aligned bytes per `UopEntry`. An estimate by design — it is the unit
/// of the budget accounting, not an allocator measurement — but it is a
/// pure function of the mapping, so budget behavior is reproducible.
/// The formula predates [`ThreeLevelMapping`]'s flat layout (one bundle
/// buffer plus one `u32` offset per instruction) and no longer describes
/// it; it stays as the budget unit so that every budget keeps its
/// meaning.
fn payload_cost(mapping: &ThreeLevelMapping) -> u64 {
    let entries: usize = mapping.decompositions().map(<[_]>::len).sum();
    48 + 24 * mapping.num_insts() as u64 + 16 * entries as u64
}

/// One immutable mapping registered in a [`MappingStore`]: its
/// name/version identity and shape metadata (always resident), the
/// interned instruction-name table (always resident), and the
/// decomposition payload (resident or evicted under a budget).
#[derive(Debug)]
pub struct StoredMapping {
    name: String,
    version: u32,
    /// Process-unique residency key (ids are per-store, uids are
    /// per-`Residency`, which snapshots share).
    uid: u64,
    num_insts: usize,
    num_ports: usize,
    payload_cost: u64,
    names: Arc<NameTable>,
    /// The artifact path the payload reloads from; `None` for pinned
    /// entries (registered from memory — nothing to reload from, so
    /// they are never evicted).
    source: Option<String>,
    /// The decomposition payload; `None` while evicted.
    payload: Mutex<Option<Arc<ThreeLevelMapping>>>,
    residency: Arc<Residency>,
}

impl StoredMapping {
    /// The name the mapping was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The 1-based version among same-name registrations.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The `name@version` label used in serving output.
    pub fn label(&self) -> String {
        format!("{}@{}", self.name, self.version)
    }

    /// The decomposition payload, shared — the handle a batch holds
    /// across its whole solve, so a concurrent eviction (or snapshot
    /// swap) never changes the bits in flight.
    ///
    /// Resident payloads are returned directly (and marked
    /// recently-used); evicted payloads are reloaded from the entry's
    /// artifact and re-validated against the resident metadata first.
    ///
    /// # Errors
    ///
    /// A lazy reload can fail — unreadable file, corrupt artifact, or an
    /// artifact that no longer matches the entry's shape or name table.
    /// See [`StoreError`].
    pub fn mapping(&self) -> Result<Arc<ThreeLevelMapping>, StoreError> {
        // Fast path: clone the Arc under the payload lock, then touch
        // the recency list *after* dropping it — no thread ever waits on
        // the residency lock while holding a payload lock, which is what
        // lets the evictor (residency → payload order) lock freely.
        if let Some(m) = self.payload.lock().expect("payload lock poisoned").clone() {
            self.residency.touch(self.uid);
            return Ok(m);
        }
        // Slow path: reload from the artifact with no locks held; the
        // losing thread of a concurrent race adopts the winner's Arc.
        let loaded = self.reload()?;
        let mut slot = self.payload.lock().expect("payload lock poisoned");
        let (mapping, installed) = match &*slot {
            Some(winner) => (Arc::clone(winner), false),
            None => {
                let m = Arc::new(loaded);
                *slot = Some(Arc::clone(&m));
                (m, true)
            }
        };
        drop(slot);
        if installed {
            self.residency.charge_reload(self.uid, self.payload_cost);
        } else {
            self.residency.touch(self.uid);
        }
        Ok(mapping)
    }

    /// Reads and re-validates this entry's artifact.
    fn reload(&self) -> Result<ThreeLevelMapping, StoreError> {
        let path = self.source.as_deref().unwrap_or_else(|| {
            // Pinned entries are never evicted, so their payload is
            // always resident and the slow path is unreachable.
            unreachable!("pinned entry {} lost its payload", self.label())
        });
        let loaded = load_artifact_file(path, Some(&self.names.inst_names))?;
        if loaded.mapping.num_insts() != self.num_insts
            || loaded.mapping.num_ports() != self.num_ports
        {
            return Err(StoreError::ShapeMismatch {
                path: path.to_owned(),
                what: format!(
                    "artifact is {}×{} (insts×ports), entry was registered as {}×{}",
                    loaded.mapping.num_insts(),
                    loaded.mapping.num_ports(),
                    self.num_insts,
                    self.num_ports
                ),
            });
        }
        Ok(loaded.mapping)
    }

    /// Whether the decomposition payload is currently resident.
    pub fn is_resident(&self) -> bool {
        self.payload.lock().expect("payload lock poisoned").is_some()
    }

    /// The payload's estimated resident size in bytes (the unit the
    /// budget accounting is kept in).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_cost
    }

    /// The artifact path this entry (re)loads from, if it was registered
    /// from a file.
    pub fn source_path(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Number of instructions the mapping covers.
    pub fn num_insts(&self) -> usize {
        self.num_insts
    }

    /// Number of execution ports of the mapped machine.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// The instruction names, indexed by [`InstId`].
    pub fn inst_names(&self) -> &[String] {
        &self.names.inst_names
    }

    /// Resolves an instruction name through the sharded index.
    pub fn resolve(&self, inst_name: &str) -> Option<InstId> {
        let shard = &self.names.shards[shard_of(inst_name)];
        shard
            .binary_search_by(|(n, _)| n.as_str().cmp(inst_name))
            .ok()
            .map(|idx| shard[idx].1)
    }

    /// Parses one line of the sequence grammar
    /// ([`pmevo_core::parse_sequence`]) against this mapping's
    /// instruction names. An unknown-instruction error carries the
    /// nearest known name as a suggestion, so every serving front end —
    /// the offline pipe and the daemon both parse through here — reports
    /// typos identically.
    ///
    /// # Errors
    ///
    /// See [`SequenceParseError`].
    pub fn parse(&self, line: &str) -> Result<Experiment, SequenceParseError> {
        parse_sequence(line, |name| self.resolve(name)).map_err(|e| match e {
            SequenceParseError::UnknownInstruction { name, suggestion: None } => {
                let suggestion = pmevo_core::suggest::nearest(
                    &name,
                    self.names.inst_names.iter().map(String::as_str),
                )
                .map(str::to_owned);
                SequenceParseError::UnknownInstruction { name, suggestion }
            }
            other => other,
        })
    }
}

/// Residency counters of a store, as reported by
/// [`MappingStore::residency_stats`] (and the daemon's `!stats` verb).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyStats {
    /// The byte budget, if the store has one.
    pub budget: Option<u64>,
    /// Estimated bytes of resident decomposition payloads.
    pub resident_bytes: u64,
    /// Estimated bytes of interned name tables (always resident; counted
    /// once per distinct table, however many versions share it).
    pub name_bytes: u64,
    /// Payload evictions since the store was created.
    pub evictions: u64,
    /// Lazy payload reloads since the store was created.
    pub reloads: u64,
}

/// The budget bookkeeping shared by every snapshot of one store: clones
/// (the [`Predictor`](crate::Predictor)'s atomic snapshot swaps) share
/// the same `Residency`, so one process keeps one byte budget however
/// many snapshots are in flight.
#[derive(Debug)]
struct Residency {
    budget: Option<u64>,
    uid_counter: AtomicU64,
    inner: Mutex<ResidencyInner>,
}

#[derive(Debug)]
struct ResidencyInner {
    resident_bytes: u64,
    name_bytes: u64,
    evictions: u64,
    reloads: u64,
    /// Recency of *evictable resident* payloads: uid → payload cost,
    /// MRU-ordered by the cache's own list. The budget is bytes rather
    /// than entries, so eviction pops from this LRU until the byte
    /// account fits instead of relying on its capacity.
    recency: LruCache<u64, u64>,
    /// Every evictable entry, so the evictor can reach a victim's
    /// payload slot. `Weak`: the registry must not keep dropped
    /// snapshots' entries alive.
    entries: HashMap<u64, Weak<StoredMapping>>,
}

impl Residency {
    fn new(budget: Option<u64>) -> Arc<Self> {
        Arc::new(Residency {
            budget,
            uid_counter: AtomicU64::new(0),
            inner: Mutex::new(ResidencyInner {
                resident_bytes: 0,
                name_bytes: 0,
                evictions: 0,
                reloads: 0,
                recency: LruCache::new(usize::MAX),
                entries: HashMap::new(),
            }),
        })
    }

    fn next_uid(&self) -> u64 {
        self.uid_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Accounts a freshly inserted entry (payload resident), interned
    /// name-table bytes included only when the table is new.
    fn admit(&self, entry: &Arc<StoredMapping>, fresh_table: bool) {
        let mut inner = self.inner.lock().expect("residency lock poisoned");
        if fresh_table {
            inner.name_bytes += entry.names.cost();
        }
        inner.resident_bytes += entry.payload_cost;
        if entry.source.is_some() {
            inner.recency.insert(entry.uid, entry.payload_cost);
            inner.entries.insert(entry.uid, Arc::downgrade(entry));
        }
        self.evict_to_budget(&mut inner, entry.uid);
    }

    /// Marks `uid` most recently used.
    fn touch(&self, uid: u64) {
        let mut inner = self.inner.lock().expect("residency lock poisoned");
        inner.recency.get(&uid);
    }

    /// Accounts a lazy reload of `uid` and evicts colder entries if the
    /// budget is now exceeded.
    fn charge_reload(&self, uid: u64, cost: u64) {
        let mut inner = self.inner.lock().expect("residency lock poisoned");
        inner.reloads += 1;
        inner.resident_bytes += cost;
        inner.recency.insert(uid, cost);
        self.evict_to_budget(&mut inner, uid);
    }

    /// Evicts least-recently-used payloads until `resident_bytes` fits
    /// the budget. `current` (the entry being admitted or reloaded) is
    /// never evicted — evicting what a caller is about to use would
    /// thrash by construction.
    fn evict_to_budget(&self, inner: &mut ResidencyInner, current: u64) {
        let Some(budget) = self.budget else { return };
        while inner.resident_bytes > budget {
            let Some((uid, cost)) = inner.recency.pop_lru() else { break };
            if uid == current {
                // Only the current entry is left; it stays resident even
                // if it alone exceeds the budget (a budget must degrade
                // throughput, never availability).
                inner.recency.insert(uid, cost);
                break;
            }
            let entry = inner.entries.get(&uid).and_then(Weak::upgrade);
            match entry {
                Some(entry) => {
                    // Lock order residency → payload is safe: readers
                    // never wait on residency while holding a payload
                    // lock (see `StoredMapping::mapping`).
                    *entry.payload.lock().expect("payload lock poisoned") = None;
                    inner.evictions += 1;
                }
                None => {
                    // Every snapshot holding the entry is gone; its
                    // bytes went with it.
                    inner.entries.remove(&uid);
                }
            }
            inner.resident_bytes -= cost;
        }
    }

    fn stats(&self) -> ResidencyStats {
        let inner = self.inner.lock().expect("residency lock poisoned");
        ResidencyStats {
            budget: self.budget,
            resident_bytes: inner.resident_bytes,
            name_bytes: inner.name_bytes,
            evictions: inner.evictions,
            reloads: inner.reloads,
        }
    }
}

/// The versioned, memory-budgeted store of inferred mappings a
/// prediction service answers from.
///
/// Entries are stored behind [`Arc`]s, so cloning a store is a handful of
/// reference-count bumps — that is what makes the [`Predictor`]'s hot
/// mapping reload an atomic *snapshot swap*: the new store is an
/// Arc-clone of the old plus one entry, and readers holding the old
/// snapshot keep answering from it until they drop it. Clones share one
/// [`ResidencyStats`] account (see [`Self::with_budget`]).
///
/// [`Predictor`]: crate::Predictor
///
/// # Example
///
/// Register two versions of a platform's mapping and resolve sequence
/// terms against the newest one:
///
/// ```
/// use pmevo_core::{PortSet, ThreeLevelMapping, UopEntry};
/// use pmevo_predict::MappingStore;
///
/// let uop = |ports: &[usize]| vec![UopEntry::new(1, PortSet::from_ports(ports))];
/// let names = || vec!["add".to_string(), "mul".to_string()];
///
/// let mut store = MappingStore::new();
/// let v1 = store.insert("SKL", names(), ThreeLevelMapping::new(2, vec![uop(&[0]), uop(&[1])]));
/// let v2 = store.insert("SKL", names(), ThreeLevelMapping::new(2, vec![uop(&[0, 1]), uop(&[1])]));
/// assert_eq!(store.latest("SKL"), Some(v2));
/// assert_ne!(v1, v2);
///
/// let skl = store.get(v2);
/// assert_eq!(skl.label(), "SKL@2");
/// let seq = skl.parse("add; mul x2").unwrap();
/// assert_eq!(seq.total_insts(), 3);
/// // The superseded version stays addressable — ids never dangle.
/// assert_eq!(store.get(v1).label(), "SKL@1");
/// ```
#[derive(Debug, Clone)]
pub struct MappingStore {
    entries: Vec<Arc<StoredMapping>>,
    /// name → ids of that name's versions, ascending by version (and by
    /// id — versions are assigned in registration order), so `latest` is
    /// a `last()` and `lookup` a binary search.
    index: HashMap<String, Vec<MappingId>>,
    residency: Arc<Residency>,
}

impl Default for MappingStore {
    fn default() -> Self {
        MappingStore::new()
    }
}

impl MappingStore {
    /// Creates an empty, unbudgeted store: every payload stays resident.
    pub fn new() -> Self {
        MappingStore::with_budget(None)
    }

    /// Creates an empty store whose resident decomposition payloads are
    /// bounded by `budget` estimated bytes (`None` = unbounded).
    ///
    /// Only entries registered from an artifact file
    /// ([`Self::insert_from_file`]) are evictable; in-memory
    /// registrations are pinned (there is nothing to reload them from)
    /// but still count toward the resident total. Snapshots share the
    /// account: however many clones a [`Predictor`](crate::Predictor)
    /// has in flight, the process keeps one budget.
    pub fn with_budget(budget: Option<u64>) -> Self {
        MappingStore {
            entries: Vec::new(),
            index: HashMap::new(),
            residency: Residency::new(budget),
        }
    }

    /// The byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.residency.budget
    }

    /// Registers a mapping under `name` with its instruction-name table,
    /// returning the id of the new entry. The entry's version is one
    /// more than the newest same-name entry (starting at 1). Entries
    /// registered this way are pinned — never evicted — because there is
    /// no artifact to reload them from; use
    /// [`Self::insert_from_file`] for evictable registrations.
    ///
    /// # Panics
    ///
    /// Panics if `inst_names` does not have exactly one name per mapping
    /// instruction, or if `name` is not registrable (contains `@`, `=`,
    /// whitespace or control characters — see [`validate_mapping_name`];
    /// serving front ends validate specs before reaching this point).
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        inst_names: Vec<String>,
        mapping: ThreeLevelMapping,
    ) -> MappingId {
        let name = name.into();
        if let Err(e) = validate_mapping_name(&name) {
            panic!("{e}");
        }
        self.insert_inner(name, inst_names, mapping, None)
    }

    /// Registers a mapping from an artifact *file*, remembering the path
    /// so the payload can be evicted under a byte budget and lazily
    /// reloaded on the next query. Binary artifacts bring their own name
    /// table; JSON artifacts need one via `json_names` (when provided
    /// for a binary artifact, it is verified against the embedded
    /// table).
    ///
    /// The registration is atomic: any failure — unreadable file, bad
    /// name, corrupt artifact, name-table mismatch — leaves the store
    /// exactly as it was, with no entry inserted and no version burned.
    ///
    /// # Errors
    ///
    /// See [`StoreError`].
    pub fn insert_from_file(
        &mut self,
        name: impl Into<String>,
        path: &str,
        json_names: Option<&[String]>,
    ) -> Result<MappingId, StoreError> {
        let name = name.into();
        validate_mapping_name(&name)?;
        let loaded = load_artifact_file(path, json_names)?;
        self.insert_loaded(name, loaded)
    }

    /// Registers an already-loaded artifact ([`load_artifact_file`]),
    /// remembering its path like [`Self::insert_from_file`] — for
    /// callers that run extra validation (platform shape checks) between
    /// loading and registering without paying a second disk read.
    ///
    /// Atomic like [`Self::insert_from_file`]: every error leaves the
    /// store exactly as it was.
    ///
    /// # Errors
    ///
    /// See [`StoreError`].
    pub fn insert_loaded(
        &mut self,
        name: impl Into<String>,
        loaded: LoadedArtifact,
    ) -> Result<MappingId, StoreError> {
        let name = name.into();
        validate_mapping_name(&name)?;
        // If this is version ≥ 2 of `name`, its instruction universe and
        // port count must match the prior version — same check a lazy
        // reload runs, moved to registration time where the error is
        // actionable.
        if let Some(&prev) = self.index.get(&name).and_then(|v| v.last()) {
            let prev = &self.entries[prev.index()];
            if prev.names.inst_names != loaded.inst_names {
                return Err(StoreError::NameTableMismatch {
                    path: loaded.path.clone(),
                    what: diff_names(&prev.names.inst_names, &loaded.inst_names),
                });
            }
            if prev.num_ports != loaded.mapping.num_ports() {
                return Err(StoreError::ShapeMismatch {
                    path: loaded.path.clone(),
                    what: format!(
                        "{} ports, prior version {}@{} has {}",
                        loaded.mapping.num_ports(),
                        prev.name,
                        prev.version,
                        prev.num_ports
                    ),
                });
            }
        }
        Ok(self.insert_inner(name, loaded.inst_names, loaded.mapping, Some(loaded.path)))
    }

    fn insert_inner(
        &mut self,
        name: String,
        inst_names: Vec<String>,
        mapping: ThreeLevelMapping,
        source: Option<String>,
    ) -> MappingId {
        assert_eq!(
            inst_names.len(),
            mapping.num_insts(),
            "instruction-name table ({} names) does not match the mapping ({} instructions)",
            inst_names.len(),
            mapping.num_insts()
        );
        let versions = self.index.entry(name.clone()).or_default();
        let prev = versions.last().map(|&id| &self.entries[id.index()]);
        let version = prev.map_or(0, |e| e.version) + 1;
        // Intern: a new version of an unchanged instruction universe
        // shares its predecessor's table.
        let (names, fresh_table) = match prev {
            Some(p) if p.names.inst_names == inst_names => (Arc::clone(&p.names), false),
            _ => (Arc::new(NameTable::build(inst_names)), true),
        };
        let entry = Arc::new(StoredMapping {
            name,
            version,
            uid: self.residency.next_uid(),
            num_insts: mapping.num_insts(),
            num_ports: mapping.num_ports(),
            payload_cost: payload_cost(&mapping),
            names,
            source,
            payload: Mutex::new(Some(Arc::new(mapping))),
            residency: Arc::clone(&self.residency),
        });
        self.residency.admit(&entry, fresh_table);
        let id = MappingId(self.entries.len() as u32);
        self.entries.push(entry);
        versions.push(id);
        id
    }

    /// The entry behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this store.
    pub fn get(&self, id: MappingId) -> &StoredMapping {
        &self.entries[id.index()]
    }

    /// The entry behind `id`, shared — for holding a mapping across a
    /// store snapshot swap (in-flight batches drain against it).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this store.
    pub fn get_arc(&self, id: MappingId) -> Arc<StoredMapping> {
        Arc::clone(&self.entries[id.index()])
    }

    /// The id of the newest entry registered under `name`.
    pub fn latest(&self, name: &str) -> Option<MappingId> {
        self.index.get(name).and_then(|v| v.last()).copied()
    }

    /// The id of the entry registered under `name` with exactly
    /// `version`.
    pub fn lookup(&self, name: &str, version: u32) -> Option<MappingId> {
        let versions = self.index.get(name)?;
        versions
            .binary_search_by_key(&version, |&id| self.entries[id.index()].version)
            .ok()
            .map(|i| versions[i])
    }

    /// All entry ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = MappingId> {
        (0..self.entries.len() as u32).map(MappingId)
    }

    /// Number of stored entries (all versions counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The store's residency counters (shared across snapshots).
    pub fn residency_stats(&self) -> ResidencyStats {
        self.residency.stats()
    }

    /// Number of entries whose payload is currently resident.
    pub fn resident_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_resident()).count()
    }

    /// A JSON inventory of the store (labels, shapes, residency — no
    /// decomposition payload), for a serving process's introspection
    /// endpoint.
    pub fn inventory_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(e.name.clone())),
                    ("version".into(), Value::UInt(u64::from(e.version))),
                    ("num_insts".into(), Value::UInt(e.num_insts() as u64)),
                    ("num_ports".into(), Value::UInt(e.num_ports() as u64)),
                    ("resident".into(), Value::Bool(e.is_resident())),
                    ("bytes".into(), Value::UInt(e.payload_bytes())),
                ])
            })
            .collect();
        json::write_compact(&Value::Obj(vec![("mappings".into(), Value::Arr(entries))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::{PortSet, UopEntry};

    fn mapping(num_ports: usize, ports: &[&[usize]]) -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            num_ports,
            ports
                .iter()
                .map(|ps| vec![UopEntry::new(1, PortSet::from_ports(ps))])
                .collect(),
        )
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("inst_{i}")).collect()
    }

    /// A directory private to one test of one test process, removed
    /// when the test ends.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(test: &str) -> ScratchDir {
            let dir =
                std::env::temp_dir().join(format!("pmevo_store_{test}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            ScratchDir(dir)
        }

        fn path(&self, file: &str) -> std::path::PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Writes a binary artifact into a test's scratch dir.
    fn scratch_bin(
        dir: &ScratchDir,
        file: &str,
        names: &[String],
        m: &ThreeLevelMapping,
    ) -> String {
        let path = dir.path(file);
        let artifact = MappingArtifact::new(names.to_vec(), m.clone());
        std::fs::write(&path, artifact.to_bytes()).expect("write artifact");
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn versions_increase_per_name_and_ids_stay_valid() {
        let mut store = MappingStore::new();
        let a1 = store.insert("A", names(1), mapping(1, &[&[0]]));
        let b1 = store.insert("B", names(1), mapping(2, &[&[1]]));
        let a2 = store.insert("A", names(1), mapping(1, &[&[0]]));
        assert_eq!(store.get(a1).label(), "A@1");
        assert_eq!(store.get(b1).label(), "B@1");
        assert_eq!(store.get(a2).label(), "A@2");
        assert_eq!(store.latest("A"), Some(a2));
        assert_eq!(store.latest("B"), Some(b1));
        assert_eq!(store.latest("C"), None);
        assert_eq!(store.lookup("A", 1), Some(a1));
        assert_eq!(store.lookup("A", 3), None);
        assert_eq!(store.len(), 3);
        assert_eq!(store.ids().count(), 3);
    }

    #[test]
    fn indexed_routing_scales_to_thousands_of_entries() {
        // Regression for the O(n)-scan latest/lookup/insert paths: with
        // 3000 entries over 30 names every operation still answers
        // correctly (and the index keeps them O(log) — a linear rescan
        // here made reload storms quadratic).
        let mut store = MappingStore::new();
        let mut ids = Vec::new();
        for _round in 0..100 {
            for n in 0..30 {
                ids.push(store.insert(format!("plat_{n}"), names(1), mapping(1, &[&[0]])));
            }
        }
        assert_eq!(store.len(), 3000);
        for n in 0..30 {
            let name = format!("plat_{n}");
            let latest = store.latest(&name).unwrap();
            assert_eq!(store.get(latest).version(), 100);
            assert_eq!(store.get(latest).name(), name);
            for v in [1u32, 37, 100] {
                let id = store.lookup(&name, v).unwrap();
                assert_eq!(store.get(id).version(), v);
                assert_eq!(store.get(id).name(), name);
            }
            assert_eq!(store.lookup(&name, 0), None);
            assert_eq!(store.lookup(&name, 101), None);
        }
        // Ids are registration-ordered and dense.
        assert_eq!(ids.len(), 3000);
        assert!(ids.iter().enumerate().all(|(i, id)| id.index() == i));
    }

    #[test]
    fn name_tables_are_interned_across_versions() {
        let mut store = MappingStore::new();
        let v1 = store.insert("A", names(2), mapping(1, &[&[0], &[0]]));
        let v2 = store.insert("A", names(2), mapping(1, &[&[0], &[0]]));
        let renamed: Vec<String> = vec!["x".into(), "y".into()];
        let v3 = store.insert("A", renamed, mapping(1, &[&[0], &[0]]));
        assert!(Arc::ptr_eq(&store.get(v1).names, &store.get(v2).names));
        assert!(!Arc::ptr_eq(&store.get(v2).names, &store.get(v3).names));
        // Interned tables are counted once.
        let stats = store.residency_stats();
        let one_table = NameTable::build(names(2)).cost();
        let other = NameTable::build(vec!["x".into(), "y".into()]).cost();
        assert_eq!(stats.name_bytes, one_table + other);
    }

    #[test]
    fn names_with_reserved_characters_are_rejected() {
        for bad in ["a@b", "a=b", "", "a b", "a\tb", "@", "v@1"] {
            assert!(
                validate_mapping_name(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
        for good in ["SKL", "user-42/skl", "a.b.c", "πλάτφορμα"] {
            assert!(validate_mapping_name(good).is_ok(), "{good:?} must pass");
        }
        let err = validate_mapping_name("SKL@2").unwrap_err();
        assert!(err.to_string().contains("name@version"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid mapping name")]
    fn insert_panics_on_reserved_names() {
        MappingStore::new().insert("A@1", names(1), mapping(1, &[&[0]]));
    }

    #[test]
    fn sharded_resolution_finds_every_name_and_only_those() {
        let n = 100;
        let mut store = MappingStore::new();
        let ports: Vec<&[usize]> = (0..n).map(|_| &[0usize][..]).collect();
        let id = store.insert("big", names(n), mapping(1, &ports));
        let stored = store.get(id);
        for i in 0..n {
            assert_eq!(stored.resolve(&format!("inst_{i}")), Some(InstId(i as u32)));
        }
        assert_eq!(stored.resolve("inst_100"), None);
        assert_eq!(stored.resolve(""), None);
        // Every name landed in exactly one shard.
        let total: usize = stored.names.shards.iter().map(Vec::len).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn parse_resolves_through_the_store_entry() {
        let mut store = MappingStore::new();
        let id = store.insert("P", names(3), mapping(2, &[&[0], &[1], &[0, 1]]));
        let e = store.get(id).parse("inst_2 x2; inst_0").unwrap();
        assert_eq!(e.count_of(InstId(2)), 2);
        assert_eq!(e.count_of(InstId(0)), 1);
        assert!(matches!(
            store.get(id).parse("inst_9"),
            Err(SequenceParseError::UnknownInstruction { .. })
        ));
    }

    #[test]
    fn artifact_roundtrip_loads() {
        let m = mapping(3, &[&[0, 2], &[1]]);
        let mut store = MappingStore::new();
        let id = store.insert("rt", names(2), ThreeLevelMapping::from_json(&m.to_json()).unwrap());
        assert_eq!(*store.get(id).mapping().unwrap(), m);
        assert!(ThreeLevelMapping::from_json("{not json").is_err());
    }

    #[test]
    fn file_registration_sniffs_both_formats() {
        let m = mapping(2, &[&[0], &[1]]);
        let dir = ScratchDir::new("sniff");
        let json_path = dir.path("fmt.json");
        std::fs::write(&json_path, m.to_json_pretty()).unwrap();
        let bin_path = scratch_bin(&dir, "fmt.bin", &names(2), &m);

        let mut store = MappingStore::new();
        let jn = names(2);
        let j = store
            .insert_from_file("J", json_path.to_str().unwrap(), Some(&jn))
            .unwrap();
        let b = store.insert_from_file("B", &bin_path, None).unwrap();
        assert_eq!(*store.get(j).mapping().unwrap(), m);
        assert_eq!(*store.get(b).mapping().unwrap(), m);
        assert_eq!(store.get(b).inst_names(), &names(2)[..]);
        assert_eq!(store.get(b).source_path(), Some(bin_path.as_str()));

        // JSON without names is rejected; bin with wrong names too.
        let err = store
            .insert_from_file("J2", json_path.to_str().unwrap(), None)
            .unwrap_err();
        assert!(matches!(err, StoreError::MissingNames { .. }), "{err}");
        let wrong: Vec<String> = vec!["q".into(), "r".into()];
        let err = store.insert_from_file("B2", &bin_path, Some(&wrong)).unwrap_err();
        assert!(matches!(err, StoreError::NameTableMismatch { .. }), "{err}");
        assert!(err.to_string().contains(&bin_path), "{err}");
    }

    #[test]
    fn failed_file_registration_leaves_the_store_untouched() {
        let m = mapping(1, &[&[0]]);
        let dir = ScratchDir::new("atomic");
        let bin = scratch_bin(&dir, "atomic_v1.bin", &names(1), &m);
        let mut store = MappingStore::new();
        store.insert_from_file("A", &bin, None).unwrap();
        let len = store.len();
        let stats = store.residency_stats();

        // Unreadable path, bad name, corrupt artifact, name mismatch:
        // none of them may insert an entry or burn a version.
        let other: Vec<String> = vec!["different".into()];
        let wrong_names = scratch_bin(&dir, "atomic_other.bin", &other, &m);
        let corrupt = {
            let p = dir.path("atomic_corrupt.bin");
            let mut bytes = MappingArtifact::new(names(1), m.clone()).to_bytes();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&p, bytes).unwrap();
            p.to_str().unwrap().to_owned()
        };
        let attempts = [
            store.insert_from_file("A", "/no/such/file.bin", None).unwrap_err(),
            store.insert_from_file("A@2", &bin, None).unwrap_err(),
            store.insert_from_file("A", &corrupt, None).unwrap_err(),
            store.insert_from_file("A", &wrong_names, None).unwrap_err(),
        ];
        assert!(matches!(attempts[0], StoreError::Io { .. }));
        assert!(matches!(attempts[1], StoreError::BadName { .. }));
        assert!(matches!(attempts[2], StoreError::Decode { .. }));
        assert!(matches!(attempts[3], StoreError::NameTableMismatch { .. }));
        assert_eq!(store.len(), len);
        assert_eq!(store.residency_stats().resident_bytes, stats.resident_bytes);
        assert_eq!(store.residency_stats().name_bytes, stats.name_bytes);
        // The next successful registration gets version 2, not 3+.
        let v2 = store.insert_from_file("A", &bin, None).unwrap();
        assert_eq!(store.get(v2).version(), 2);
    }

    #[test]
    fn budgeted_store_evicts_lru_and_reloads_lazily() {
        let m = mapping(2, &[&[0], &[1], &[0, 1]]);
        let n = names(3);
        let dir = ScratchDir::new("evict");
        let paths: Vec<String> = (0..4)
            .map(|i| scratch_bin(&dir, &format!("evict_{i}.bin"), &n, &m))
            .collect();
        let cost = payload_cost(&m);
        // Room for two payloads.
        let mut store = MappingStore::with_budget(Some(2 * cost));
        let ids: Vec<MappingId> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| store.insert_from_file(format!("p{i}"), p, None).unwrap())
            .collect();
        // Inserting 4 entries under a 2-payload budget evicted the two
        // oldest.
        assert!(!store.get(ids[0]).is_resident());
        assert!(!store.get(ids[1]).is_resident());
        assert!(store.get(ids[2]).is_resident());
        assert!(store.get(ids[3]).is_resident());
        let stats = store.residency_stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.reloads, 0);
        assert_eq!(stats.resident_bytes, 2 * cost);

        // Querying an evicted entry reloads it (and evicts the coldest
        // resident one).
        let reloaded = store.get(ids[0]).mapping().unwrap();
        assert_eq!(*reloaded, m);
        let stats = store.residency_stats();
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.evictions, 3);
        assert!(store.get(ids[0]).is_resident());
        assert!(!store.get(ids[2]).is_resident(), "LRU resident entry was evicted");
        assert!(store.get(ids[3]).is_resident());
        assert_eq!(store.resident_count(), 2);
    }

    #[test]
    fn reload_failures_name_the_path_and_heal_on_retry() {
        let m = mapping(1, &[&[0]]);
        let dir = ScratchDir::new("heal");
        let path = scratch_bin(&dir, "heal.bin", &names(1), &m);
        let mut store = MappingStore::with_budget(Some(0));
        let id = store.insert_from_file("H", &path, None).unwrap();
        // Budget 0: nothing stays resident except while in use — the
        // admit-time eviction pass spares only the current entry when it
        // is the sole one... which it is, so evict by inserting another.
        let other = scratch_bin(&dir, "heal_other.bin", &names(1), &m);
        store.insert_from_file("H2", &other, None).unwrap();
        assert!(!store.get(id).is_resident());

        // Break the artifact; the lazy reload must fail with the path.
        std::fs::write(&path, b"garbage").unwrap();
        let err = store.get(id).mapping().unwrap_err();
        assert!(err.to_string().contains(&path), "{err}");
        // Restore it; the next query heals.
        std::fs::write(&path, MappingArtifact::new(names(1), m.clone()).to_bytes()).unwrap();
        assert_eq!(*store.get(id).mapping().unwrap(), m);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let m = mapping(1, &[&[0]]);
        let mut store = MappingStore::with_budget(Some(1)); // absurdly small
        let pinned = store.insert("mem", names(1), m.clone());
        let dir = ScratchDir::new("pin");
        let path = scratch_bin(&dir, "pin_other.bin", &names(1), &m);
        let filed = store.insert_from_file("file", &path, None).unwrap();
        let _ = store.get(filed).mapping().unwrap();
        // The in-memory entry survives any budget pressure.
        assert!(store.get(pinned).is_resident());
        assert_eq!(*store.get(pinned).mapping().unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "does not match the mapping")]
    fn name_table_shape_is_enforced() {
        MappingStore::new().insert("bad", names(1), mapping(1, &[&[0], &[0]]));
    }

    #[test]
    fn clones_share_entries_and_diverge_on_insert() {
        let mut a = MappingStore::new();
        let v1 = a.insert("A", names(1), mapping(1, &[&[0]]));
        let snapshot = a.clone();
        let v2 = a.insert("A", names(1), mapping(1, &[&[0]]));
        // The clone is an O(entries) Arc bump: same entry objects ...
        assert!(Arc::ptr_eq(&a.get_arc(v1), &snapshot.get_arc(v1)));
        // ... but inserts after the snapshot do not leak into it.
        assert_eq!(a.len(), 2);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(a.latest("A"), Some(v2));
        assert_eq!(snapshot.latest("A"), Some(v1));
    }

    #[test]
    fn inventory_lists_every_entry() {
        let mut store = MappingStore::new();
        store.insert("A", names(1), mapping(2, &[&[0]]));
        store.insert("A", names(1), mapping(2, &[&[1]]));
        let inv = store.inventory_json();
        let doc = json::parse(&inv).unwrap();
        let arr = doc.get("mappings").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("version").and_then(Value::as_u64), Some(2));
        assert!(matches!(arr[0].get("resident"), Some(Value::Bool(true))));
    }
}
