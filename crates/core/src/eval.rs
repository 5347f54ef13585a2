//! The compile-then-evaluate half of the fitness engine (paper §4.4–4.5).
//!
//! PMEvo's wall-clock budget is dominated by the inner loop
//! `candidate mapping × experiment → t*_m(e)`. The ad-hoc path
//! ([`ThreeLevelMapping::throughput`]) rebuilds a [`MassVector`] and
//! allocates a fresh `2^|P|` zeta-transform buffer for every single
//! evaluation. This module separates *compilation* from *execution* so
//! that all of that state is built once and reused:
//!
//! * [`CompiledExperiments`] interns the instruction ids of a measured
//!   experiment set into dense indices and stores the per-experiment
//!   `(instruction, count)` rows in flat arrays — plus the inverse index
//!   (instruction → experiments containing it) that enables delta
//!   re-evaluation after a single-instruction mutation.
//! * [`ThroughputSolver`] owns the mass-aggregation scratch and the
//!   zeta-transform buffer, so `t*_m(e)` becomes allocation-free once the
//!   buffers have grown to their steady-state sizes.
//!
//! Both halves return **bit-identical** results to the naive reference
//! path (`uop_masses` + `throughput_fast`): masses are accumulated in the
//! same order with the same arithmetic, and the enumeration is literally
//! the same function ([`kernel_from_compacted`]). The full-candidate
//! entry point [`ThroughputSolver::predict_mapping`] may instead score
//! every experiment from per-instruction `f32` subset-sum tables; there
//! the bits match because every mass is an integer of at most `2^24`,
//! exact in `f32` (see `crate::factored`), not because of the addition
//! order. The
//! equivalence is enforced by unit tests here and a property test in
//! `pmevo-evo`.

use crate::bottleneck_impl::{
    kernel_from_compacted, masses_kernel, MassVector, MAX_ENUMERABLE_PORTS,
};
use crate::factored::{exact_in_f32, SubsetTables, MAX_FACTORED_PORTS};
use crate::{Experiment, InstId, MeasuredExperiment, PortSet, ThreeLevelMapping, MAX_PORTS};

/// A measured experiment set compiled into dense, flat index form.
///
/// Instruction ids are interned in first-occurrence order; every
/// experiment becomes a row of `(dense instruction, count)` terms in two
/// parallel flat arrays, with the measured throughput alongside. The
/// inverse index maps each dense instruction to the (ascending) list of
/// experiments containing it, which is what makes single-instruction
/// delta re-evaluation possible: a mutation of instruction `i` can only
/// change the predictions of `experiments_containing(i)`.
///
/// # Example
///
/// ```
/// use pmevo_core::{CompiledExperiments, Experiment, InstId, MeasuredExperiment};
///
/// let data = vec![
///     MeasuredExperiment::new(Experiment::singleton(InstId(3)), 1.0),
///     MeasuredExperiment::new(Experiment::pair(InstId(3), 2, InstId(5), 1), 2.0),
/// ];
/// let compiled = CompiledExperiments::compile(&data);
/// assert_eq!(compiled.num_experiments(), 2);
/// assert_eq!(compiled.num_insts(), 2); // ids 3 and 5, interned densely
/// assert_eq!(compiled.experiments_containing(InstId(5)), &[1]);
/// assert_eq!(compiled.experiments_containing(InstId(3)), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledExperiments {
    /// Dense index → original instruction id.
    inst_ids: Vec<InstId>,
    /// Original `InstId::index()` → dense index (`u32::MAX` if absent).
    dense_of: Vec<u32>,
    /// Row boundaries: experiment `e` owns terms
    /// `row_offsets[e]..row_offsets[e + 1]`.
    row_offsets: Vec<u32>,
    /// Dense instruction index per term.
    row_insts: Vec<u32>,
    /// Instruction multiplicity per term, pre-widened to `f64`.
    row_counts: Vec<f64>,
    /// Measured throughput per experiment.
    measured: Vec<f64>,
    /// Inverse-index boundaries: dense instruction `d` appears in
    /// experiments `inst_exps[inst_offsets[d]..inst_offsets[d + 1]]`.
    inst_offsets: Vec<u32>,
    /// Experiment indices per dense instruction, ascending.
    inst_exps: Vec<u32>,
    /// The largest row count-sum `Σ_t n_t`: with the largest µop total
    /// per instruction it bounds every subset mass (the exactness guard
    /// of [`ThroughputSolver::predict_mapping`]).
    max_row_weight: u64,
}

impl CompiledExperiments {
    /// Compiles a measured experiment set into dense flat form.
    ///
    /// # Panics
    ///
    /// Panics if a measured throughput is not positive and finite (such a
    /// measurement would make the relative error undefined).
    pub fn compile(experiments: &[MeasuredExperiment]) -> Self {
        let mut inst_ids: Vec<InstId> = Vec::new();
        let mut dense_of: Vec<u32> = Vec::new();
        let mut row_offsets: Vec<u32> = Vec::with_capacity(experiments.len() + 1);
        let mut row_insts: Vec<u32> = Vec::new();
        let mut row_counts: Vec<f64> = Vec::new();
        let mut measured: Vec<f64> = Vec::with_capacity(experiments.len());
        let mut max_row_weight = 0u64;
        row_offsets.push(0);
        for me in experiments {
            assert!(
                me.throughput.is_finite() && me.throughput > 0.0,
                "non-positive measured throughput {} for {}",
                me.throughput,
                me.experiment
            );
            let mut weight = 0u64;
            for (inst, n) in me.experiment.iter() {
                weight += u64::from(n);
                let slot = inst.index();
                if slot >= dense_of.len() {
                    dense_of.resize(slot + 1, u32::MAX);
                }
                let dense = if dense_of[slot] == u32::MAX {
                    let d = inst_ids.len() as u32;
                    dense_of[slot] = d;
                    inst_ids.push(inst);
                    d
                } else {
                    dense_of[slot]
                };
                row_insts.push(dense);
                row_counts.push(f64::from(n));
            }
            max_row_weight = max_row_weight.max(weight);
            row_offsets.push(row_insts.len() as u32);
            measured.push(me.throughput);
        }

        // Inverse index by counting sort, which leaves each instruction's
        // experiment list in ascending order.
        let num_insts = inst_ids.len();
        let mut inst_offsets = vec![0u32; num_insts + 1];
        for &d in &row_insts {
            inst_offsets[d as usize + 1] += 1;
        }
        for i in 0..num_insts {
            inst_offsets[i + 1] += inst_offsets[i];
        }
        let mut cursor = inst_offsets.clone();
        let mut inst_exps = vec![0u32; row_insts.len()];
        for e in 0..measured.len() {
            let (lo, hi) = (row_offsets[e] as usize, row_offsets[e + 1] as usize);
            for &d in &row_insts[lo..hi] {
                let c = &mut cursor[d as usize];
                inst_exps[*c as usize] = e as u32;
                *c += 1;
            }
        }

        CompiledExperiments {
            inst_ids,
            dense_of,
            row_offsets,
            row_insts,
            row_counts,
            measured,
            inst_offsets,
            inst_exps,
            max_row_weight,
        }
    }

    /// Number of compiled experiments.
    pub fn num_experiments(&self) -> usize {
        self.measured.len()
    }

    /// Number of *distinct* instructions appearing in any experiment.
    pub fn num_insts(&self) -> usize {
        self.inst_ids.len()
    }

    /// The interned instruction ids, indexed by dense index.
    pub fn inst_ids(&self) -> &[InstId] {
        &self.inst_ids
    }

    /// The dense index of `inst`, if it appears in any experiment.
    pub fn dense_of(&self, inst: InstId) -> Option<usize> {
        match self.dense_of.get(inst.index()) {
            Some(&d) if d != u32::MAX => Some(d as usize),
            _ => None,
        }
    }

    /// The measured throughput of experiment `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn measured(&self, e: usize) -> f64 {
        self.measured[e]
    }

    /// All measured throughputs, indexed by experiment.
    pub fn measured_all(&self) -> &[f64] {
        &self.measured
    }

    /// The `(instruction, count)` terms of experiment `e`, in the
    /// (ascending-id) order of the source [`Experiment`].
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn row(&self, e: usize) -> impl Iterator<Item = (InstId, f64)> + '_ {
        let (lo, hi) = self.row_bounds(e);
        self.row_insts[lo..hi]
            .iter()
            .zip(&self.row_counts[lo..hi])
            .map(|(&d, &n)| (self.inst_ids[d as usize], n))
    }

    /// The experiments containing `inst`, ascending. Empty when `inst`
    /// appears in no experiment (then a mutation of `inst` cannot change
    /// any prediction).
    pub fn experiments_containing(&self, inst: InstId) -> &[u32] {
        match self.dense_of(inst) {
            Some(d) => {
                let (lo, hi) = (
                    self.inst_offsets[d] as usize,
                    self.inst_offsets[d + 1] as usize,
                );
                &self.inst_exps[lo..hi]
            }
            None => &[],
        }
    }

    fn row_bounds(&self, e: usize) -> (usize, usize) {
        (
            self.row_offsets[e] as usize,
            self.row_offsets[e + 1] as usize,
        )
    }
}

/// Reusable execution state of the bottleneck algorithm: after warm-up,
/// every throughput computation and every fitness evaluation through this
/// solver is free of heap allocations.
///
/// The solver owns five kinds of scratch:
///
/// * the kernel buffers (subset-sum buffer and union table, grown to
///   the largest sizes seen),
/// * the compacted `(mask, mass)` aggregation table,
/// * a [`MassVector`] for the ad-hoc [`mapping_throughput`] path,
/// * the *loaded mapping*: the candidate's µop decompositions flattened
///   into dense arrays, indexed by [`CompiledExperiments`] dense
///   instruction indices (see [`load_mapping`]),
/// * the per-instruction subset-sum tables of the factored path of
///   [`predict_mapping`].
///
/// Mass aggregation in the compiled path does not build a
/// [`MassVector`] of port sets — masses are compacted to dense masks on
/// the fly and merged in the reused aggregation table, which is exactly
/// equivalent (compaction is injective and monotone on subsets of the
/// live ports, so per-µop addition order is preserved).
///
/// One solver per thread: the evolutionary engine gives each of its
/// workers its own solver and reuses them across all generations.
///
/// [`mapping_throughput`]: Self::mapping_throughput
/// [`load_mapping`]: Self::load_mapping
/// [`predict_mapping`]: Self::predict_mapping
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, PortSet, ThreeLevelMapping, ThroughputSolver, UopEntry};
///
/// let m = ThreeLevelMapping::new(
///     2,
///     vec![
///         vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
///         vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
///     ],
/// );
/// let e = Experiment::pair(InstId(0), 2, InstId(1), 1);
/// let mut solver = ThroughputSolver::new();
/// assert_eq!(solver.mapping_throughput(&m, &e), m.throughput(&e));
/// assert_eq!(solver.mapping_throughput(&m, &e), 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThroughputSolver {
    /// Subset-sum buffer of the scatter and zeta strategies; only
    /// `sum[..1 << k]` is used per call.
    sum: Vec<f64>,
    /// Union table of the union-closure strategy; `unions[..1 << d]`.
    unions: Vec<u32>,
    /// Compacted `(mask, mass)` aggregation table, ascending by mask.
    entries: Vec<(u32, f64)>,
    /// Mass aggregation scratch for the ad-hoc (non-compiled) path.
    masses: MassVector,
    /// Loaded mapping: µop bundle boundaries per dense instruction.
    dec_offsets: Vec<u32>,
    /// Loaded mapping: port set per µop bundle.
    dec_ports: Vec<PortSet>,
    /// Loaded mapping: bundle multiplicity, pre-widened to `f64`.
    dec_counts: Vec<f64>,
    /// Loaded mapping: union of port sets per dense instruction.
    dec_unions: Vec<PortSet>,
    /// Tagged `(mask‖sequence, contribution)` pairs of the sort-merge
    /// aggregation path (see [`aggregate_row`](Self::aggregate_row)).
    agg_raw: Vec<(u64, f64)>,
    /// Prediction scratch of [`average_error`](Self::average_error).
    batch_out: Vec<f64>,
    /// Per-instruction subset-sum tables of the factored path.
    tables: SubsetTables,
}

/// Above this many µop contributions per experiment, [`ThroughputSolver`]
/// aggregates by push-then-sort-then-merge instead of binary-search
/// insertion — `Vec::insert` shifts the tail on every distinct mask,
/// which is quadratic for mask-diverse sequences.
const AGG_SORT_THRESHOLD: usize = 16;

impl ThroughputSolver {
    /// Creates a solver with empty scratch buffers.
    pub fn new() -> Self {
        ThroughputSolver::default()
    }

    /// Computes `t*_m(e)` of `e` under `mapping` — the reusable-state
    /// equivalent of [`ThreeLevelMapping::throughput`].
    ///
    /// # Panics
    ///
    /// Panics if `e` references an instruction outside the mapping or
    /// more than [`MAX_ENUMERABLE_PORTS`] ports are live.
    pub fn mapping_throughput(&mut self, mapping: &ThreeLevelMapping, e: &Experiment) -> f64 {
        self.masses.clear();
        for (inst, n) in e.iter() {
            for entry in mapping.decomposition(inst) {
                self.masses
                    .add(entry.ports, f64::from(n) * f64::from(entry.count));
            }
        }
        masses_kernel(&self.masses, &mut self.entries, &mut self.sum, &mut self.unions)
    }

    /// Flattens `mapping`'s µop decompositions into the solver's dense
    /// tables, keyed by `compiled`'s dense instruction indices.
    ///
    /// Subsequent [`predict`](Self::predict) and
    /// [`predict_batch`](Self::predict_batch) calls evaluate against the
    /// loaded mapping; loading again replaces it. The flattening is
    /// amortized over the experiments evaluated per candidate and reuses
    /// the table allocations across candidates.
    ///
    /// # Panics
    ///
    /// Panics if an experiment instruction is outside the mapping.
    pub fn load_mapping(&mut self, compiled: &CompiledExperiments, mapping: &ThreeLevelMapping) {
        self.dec_offsets.clear();
        self.dec_ports.clear();
        self.dec_counts.clear();
        self.dec_unions.clear();
        self.dec_offsets.push(0);
        for &id in compiled.inst_ids() {
            let mut union = PortSet::EMPTY;
            for entry in mapping.decomposition(id) {
                self.dec_ports.push(entry.ports);
                self.dec_counts.push(f64::from(entry.count));
                union = union.union(entry.ports);
            }
            self.dec_offsets.push(self.dec_ports.len() as u32);
            self.dec_unions.push(union);
        }
    }

    /// Re-synchronizes only `changed`'s slice of the loaded-mapping
    /// tables with `mapping`, assuming every *other* instruction's slice
    /// is already in sync — the `O(|decomposition|)` companion of
    /// [`load_mapping`](Self::load_mapping) for single-instruction
    /// mutations (the hill climber's move).
    ///
    /// Falls back to a full reload when the bundle count changed (the
    /// flat tables cannot absorb a length change in place) and is a no-op
    /// for instructions absent from the experiment set (their slices are
    /// never read).
    ///
    /// # Panics
    ///
    /// Panics if no mapping has been loaded for `compiled`.
    pub fn patch_instruction(
        &mut self,
        compiled: &CompiledExperiments,
        mapping: &ThreeLevelMapping,
        changed: InstId,
    ) {
        assert_eq!(
            self.dec_unions.len(),
            compiled.num_insts(),
            "load_mapping must precede patch_instruction"
        );
        let Some(d) = compiled.dense_of(changed) else {
            return;
        };
        let decomp = mapping.decomposition(changed);
        let (lo, hi) = (self.dec_offsets[d] as usize, self.dec_offsets[d + 1] as usize);
        if hi - lo != decomp.len() {
            self.load_mapping(compiled, mapping);
            return;
        }
        let mut union = PortSet::EMPTY;
        for (slot, entry) in decomp.iter().enumerate() {
            self.dec_ports[lo + slot] = entry.ports;
            self.dec_counts[lo + slot] = f64::from(entry.count);
            union = union.union(entry.ports);
        }
        self.dec_unions[d] = union;
    }

    /// Predicts the throughput of compiled experiment `e` under the
    /// mapping loaded by [`load_mapping`](Self::load_mapping).
    ///
    /// Bit-identical to
    /// `mapping.throughput(&experiments[e].experiment)`, without any heap
    /// allocation after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or more than
    /// [`MAX_ENUMERABLE_PORTS`] ports are live. Calling this without a
    /// loaded mapping for `compiled` is a logic error (debug-asserted).
    pub fn predict(&mut self, compiled: &CompiledExperiments, e: usize) -> f64 {
        let k = self.aggregate_row(compiled, e);
        if k == 0 {
            return 0.0;
        }
        kernel_from_compacted(&self.entries, k, &mut self.sum, &mut self.unions)
    }

    /// Aggregates experiment `e`'s µop masses into `self.entries`
    /// (compacted, distinct, ascending) and returns the live-port count
    /// `k` — `0` means an all-dead experiment with `entries` left empty.
    ///
    /// Two merge paths produce the identical entry list:
    ///
    /// * **Binary-search insertion** for small contribution counts: keeps
    ///   `entries` sorted, adds repeats in encounter order.
    /// * **Push-sort-merge** above [`AGG_SORT_THRESHOLD`]: every
    ///   contribution is tagged with its encounter sequence number and
    ///   pushed, then sorted unstably by the composite key
    ///   `mask · 2³² + seq` — all keys distinct, so the order is total
    ///   and deterministic: ascending mask, encounter order within a
    ///   mask. The adjacent-merge then performs the same additions in
    ///   the same order as the insertion path, without its `O(d²)`
    ///   tail-shifting.
    fn aggregate_row(&mut self, compiled: &CompiledExperiments, e: usize) -> usize {
        debug_assert_eq!(
            self.dec_unions.len(),
            compiled.num_insts(),
            "load_mapping must precede predict"
        );
        self.entries.clear();
        let (lo, hi) = compiled.row_bounds(e);
        // Pass 1: the live ports of this experiment under the mapping,
        // and the total µop contribution count (for the path choice).
        let mut live = PortSet::EMPTY;
        let mut contributions = 0usize;
        for t in lo..hi {
            let d = compiled.row_insts[t] as usize;
            live = live.union(self.dec_unions[d]);
            contributions +=
                (self.dec_offsets[d + 1] - self.dec_offsets[d]) as usize;
        }
        let k = live.len();
        if k == 0 {
            return 0;
        }
        assert!(
            k <= MAX_ENUMERABLE_PORTS,
            "{k} live ports exceed the subset-enumeration limit ({MAX_ENUMERABLE_PORTS})"
        );
        // When the live ports are exactly {0, …, k−1} (the common case on
        // a fully used machine), compaction is the identity and the
        // per-bit translation can be skipped. Same masks either way.
        let identity = live == PortSet::first_n(k);
        let mut position = [0u8; MAX_PORTS];
        if !identity {
            for (dense, p) in live.iter().enumerate() {
                position[p] = dense as u8;
            }
        }
        // Pass 2: aggregate masses per compacted mask. Compaction is
        // injective and monotone on subsets of the live ports, so both
        // merge paths combine the same µops in the same order as the
        // reference path's `MassVector` and yield the same ascending
        // entry list.
        let sort_path = contributions > AGG_SORT_THRESHOLD;
        if sort_path {
            self.agg_raw.clear();
        }
        let mut seq = 0u64;
        for t in lo..hi {
            let d = compiled.row_insts[t] as usize;
            let n = compiled.row_counts[t];
            let (dlo, dhi) = (self.dec_offsets[d] as usize, self.dec_offsets[d + 1] as usize);
            for u in dlo..dhi {
                let mask = if identity {
                    self.dec_ports[u].mask() as u32
                } else {
                    let mut mask = 0u32;
                    for p in self.dec_ports[u].iter() {
                        mask |= 1 << position[p];
                    }
                    mask
                };
                let contribution = n * self.dec_counts[u];
                if sort_path {
                    self.agg_raw.push(((u64::from(mask) << 32) | seq, contribution));
                    seq += 1;
                } else {
                    match self.entries.binary_search_by_key(&mask, |&(m, _)| m) {
                        Ok(idx) => self.entries[idx].1 += contribution,
                        Err(idx) => self.entries.insert(idx, (mask, contribution)),
                    }
                }
            }
        }
        if sort_path {
            // In-place pattern-defeating quicksort: no allocation, and
            // deterministic despite instability because the keys are
            // pairwise distinct (each carries a unique sequence number).
            self.agg_raw.sort_unstable_by_key(|&(key, _)| key);
            for &(key, contribution) in &self.agg_raw {
                let mask = (key >> 32) as u32;
                match self.entries.last_mut() {
                    Some(last) if last.0 == mask => last.1 += contribution,
                    _ => self.entries.push((mask, contribution)),
                }
            }
        }
        k
    }

    /// Predicts the throughput of every compiled experiment in `indices`
    /// under the loaded mapping, into `out` (cleared first, parallel to
    /// `indices`): [`predict`](Self::predict) per index, allocation-free
    /// once `out` has grown to the batch size.
    ///
    /// # Panics
    ///
    /// As for [`predict`](Self::predict), for any index in the batch.
    pub fn predict_batch(
        &mut self,
        compiled: &CompiledExperiments,
        indices: &[u32],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(indices.iter().map(|&e| self.predict(compiled, e as usize)));
    }

    /// Predicts every compiled experiment under the loaded mapping, into
    /// `out` (cleared first, indexed by experiment): [`predict`](Self::predict)
    /// over `0..num_experiments()`.
    ///
    /// # Panics
    ///
    /// As for [`predict`](Self::predict).
    pub fn predict_all(&mut self, compiled: &CompiledExperiments, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..compiled.num_experiments()).map(|e| self.predict(compiled, e)));
    }

    /// Loads `mapping` (as [`load_mapping`](Self::load_mapping) does) and
    /// predicts every compiled experiment under it into `out` (cleared
    /// first, indexed by experiment) — bit-identical per slot to
    /// [`predict_all`](Self::predict_all) after a load.
    ///
    /// This is the full-candidate entry point of the fitness loop. On
    /// machines of up to 12 ports whose subset masses are provably exact
    /// `f32` integers (the largest row count-sum times the largest
    /// per-instruction µop total is at most `2^24`), it builds one `f32`
    /// subset-sum table per instruction and scores every row from the
    /// tables; integer sums up to `2^24` are exact in `f32` in any order,
    /// so the bits match the per-experiment kernel. Otherwise it runs
    /// [`predict_all`](Self::predict_all). Allocation-free after warm-up.
    ///
    /// # Panics
    ///
    /// As for [`load_mapping`](Self::load_mapping) and
    /// [`predict`](Self::predict).
    pub fn predict_mapping(
        &mut self,
        compiled: &CompiledExperiments,
        mapping: &ThreeLevelMapping,
        out: &mut Vec<f64>,
    ) {
        self.load_mapping(compiled, mapping);
        let ports = mapping.num_ports();
        if !self.factored_path_applies(compiled, ports) {
            self.predict_all(compiled, out);
            return;
        }
        self.tables
            .build(ports, &self.dec_offsets, &self.dec_ports, &self.dec_counts);
        out.clear();
        for e in 0..compiled.num_experiments() {
            let (lo, hi) = compiled.row_bounds(e);
            out.push(
                self.tables
                    .predict_row(&compiled.row_insts[lo..hi], &compiled.row_counts[lo..hi]),
            );
        }
    }

    /// Whether [`predict_mapping`](Self::predict_mapping) may score the
    /// loaded mapping over `ports` ports from subset-sum tables: not on
    /// zero ports or more than [`MAX_FACTORED_PORTS`], and not when a
    /// subset mass might not be an exact `f32` integer.
    fn factored_path_applies(&self, compiled: &CompiledExperiments, ports: usize) -> bool {
        if !(1..=MAX_FACTORED_PORTS).contains(&ports) {
            return false;
        }
        // Loaded counts are `u32`s widened to `f64`, so the casts back
        // are exact.
        let max_uops = self
            .dec_offsets
            .windows(2)
            .map(|w| {
                self.dec_counts[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&n| n as u64)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        exact_in_f32(compiled.max_row_weight, max_uops)
    }

    /// Computes `D_avg(m)` over the compiled set: predicts every
    /// experiment through [`predict_mapping`](Self::predict_mapping) and
    /// averages the relative errors in experiment order — bit-identical
    /// to the naive reference (`average_relative_error` in `pmevo-evo`).
    ///
    /// # Panics
    ///
    /// Panics if `compiled` is empty or an experiment references an
    /// instruction outside the mapping.
    pub fn average_error(
        &mut self,
        compiled: &CompiledExperiments,
        mapping: &ThreeLevelMapping,
    ) -> f64 {
        let n = compiled.num_experiments();
        assert!(n > 0, "no experiments to evaluate");
        let mut preds = std::mem::take(&mut self.batch_out);
        self.predict_mapping(compiled, mapping, &mut preds);
        let mut sum = 0.0f64;
        for (e, &p) in preds.iter().enumerate() {
            let t = compiled.measured(e);
            sum += (p - t).abs() / t;
        }
        self.batch_out = preds;
        sum / n as f64
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UopEntry;

    fn ps(ports: &[usize]) -> PortSet {
        PortSet::from_ports(ports)
    }

    fn uop(count: u32, ports: &[usize]) -> UopEntry {
        UopEntry::new(count, ps(ports))
    }

    fn figure4_mapping() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(2, &[0])],
                vec![uop(1, &[0, 1])],
                vec![uop(1, &[0, 1])],
                vec![uop(1, &[0, 1]), uop(1, &[2])],
            ],
        )
    }

    fn figure4_experiments() -> Vec<MeasuredExperiment> {
        let m = figure4_mapping();
        let mut exps = Vec::new();
        for i in 0..4u32 {
            exps.push(Experiment::singleton(InstId(i)));
            for j in (i + 1)..4 {
                exps.push(Experiment::pair(InstId(i), 2, InstId(j), 1));
            }
        }
        exps.into_iter()
            .map(|e| {
                let t = m.throughput(&e);
                MeasuredExperiment::new(e, t)
            })
            .collect()
    }

    #[test]
    fn compile_interns_and_indexes_both_ways() {
        let data = vec![
            MeasuredExperiment::new(Experiment::pair(InstId(7), 1, InstId(2), 3), 2.0),
            MeasuredExperiment::new(Experiment::singleton(InstId(7)), 1.0),
            MeasuredExperiment::new(Experiment::singleton(InstId(4)), 1.5),
        ];
        let c = CompiledExperiments::compile(&data);
        assert_eq!(c.num_experiments(), 3);
        assert_eq!(c.num_insts(), 3);
        // Interning is first-occurrence order over sorted experiment rows.
        assert_eq!(c.inst_ids(), &[InstId(2), InstId(7), InstId(4)]);
        assert_eq!(c.dense_of(InstId(7)), Some(1));
        assert_eq!(c.dense_of(InstId(0)), None);
        assert_eq!(c.measured(2), 1.5);
        // Rows reproduce the source experiments.
        let row0: Vec<(InstId, f64)> = c.row(0).collect();
        assert_eq!(row0, vec![(InstId(2), 3.0), (InstId(7), 1.0)]);
        // Inverse index is ascending per instruction.
        assert_eq!(c.experiments_containing(InstId(7)), &[0, 1]);
        assert_eq!(c.experiments_containing(InstId(2)), &[0]);
        assert_eq!(c.experiments_containing(InstId(4)), &[2]);
        assert_eq!(c.experiments_containing(InstId(63)), &[0u32; 0]);
    }

    #[test]
    #[should_panic(expected = "non-positive measured throughput")]
    fn compile_rejects_bad_measurements() {
        CompiledExperiments::compile(&[MeasuredExperiment::new(
            Experiment::singleton(InstId(0)),
            0.0,
        )]);
    }

    #[test]
    fn solver_mapping_throughput_matches_ad_hoc_path() {
        let m = figure4_mapping();
        let mut solver = ThroughputSolver::new();
        for me in figure4_experiments() {
            let a = solver.mapping_throughput(&m, &me.experiment);
            let b = m.throughput(&me.experiment);
            assert_eq!(a.to_bits(), b.to_bits(), "mismatch on {}", me.experiment);
        }
    }

    #[test]
    fn compiled_predictions_match_naive_reference_bitwise() {
        let m = figure4_mapping();
        let data = figure4_experiments();
        let compiled = CompiledExperiments::compile(&data);
        let mut solver = ThroughputSolver::new();
        solver.load_mapping(&compiled, &m);
        for (e, me) in data.iter().enumerate() {
            let fast = solver.predict(&compiled, e);
            let naive = m.throughput(&me.experiment);
            assert_eq!(fast.to_bits(), naive.to_bits(), "mismatch on {}", me.experiment);
            let t = compiled.measured(e);
            assert_eq!(
                ((fast - t).abs() / t).to_bits(),
                ((naive - me.throughput).abs() / me.throughput).to_bits()
            );
        }
    }

    #[test]
    fn average_error_is_exact_and_reusable_across_mappings() {
        let data = figure4_experiments();
        let compiled = CompiledExperiments::compile(&data);
        let mut solver = ThroughputSolver::new();

        let reference = |m: &ThreeLevelMapping| -> f64 {
            let sum: f64 = data
                .iter()
                .map(|me| (m.throughput(&me.experiment) - me.throughput).abs() / me.throughput)
                .sum();
            sum / data.len() as f64
        };

        let exact = figure4_mapping();
        assert_eq!(solver.average_error(&compiled, &exact), 0.0);

        // A wrong mapping through the *same* solver (scratch reuse).
        let mut wrong = exact.clone();
        wrong.set_decomposition(InstId(0), vec![uop(4, &[0])]);
        let got = solver.average_error(&compiled, &wrong);
        assert_eq!(got.to_bits(), reference(&wrong).to_bits());
        assert!(got > 0.0);

        // And back to the exact mapping: no stale loaded state.
        assert_eq!(solver.average_error(&compiled, &exact), 0.0);
    }

    /// Masses beyond `2^24` are not all exact `f32` integers, so
    /// `predict_mapping` must take the per-experiment path, whose
    /// additions follow the reference order, and match the reference
    /// mean (`average_relative_error`'s arithmetic) bit for bit. Masses
    /// of at most `2^24` take the factored path, with the same bits.
    #[test]
    fn huge_counts_take_the_per_experiment_path_with_the_same_bits() {
        // Checks the bits first, so that with the guard disabled the
        // failure names the wrong prediction, then the path taken.
        let check = |m: &ThreeLevelMapping, data: &[MeasuredExperiment], factored: bool| {
            let sum: f64 = data
                .iter()
                .map(|me| (m.throughput(&me.experiment) - me.throughput).abs() / me.throughput)
                .sum();
            let reference = sum / data.len() as f64;
            let compiled = CompiledExperiments::compile(data);
            let mut solver = ThroughputSolver::new();
            assert_eq!(
                solver.average_error(&compiled, m).to_bits(),
                reference.to_bits()
            );
            solver.load_mapping(&compiled, m);
            assert_eq!(
                solver.factored_path_applies(&compiled, m.num_ports()),
                factored
            );
        };

        // Masses near `2^64`. With these counts the first row's
        // bottleneck {0, 1} rounds differently as `n·a + n·b` (the
        // reference) and as `n·(a + b)` (a table sum).
        let huge = ThreeLevelMapping::new(
            3,
            vec![
                vec![
                    uop(u32::MAX - 959_580, &[0]),
                    uop(u32::MAX - 580_982, &[0, 1]),
                ],
                vec![uop(1, &[1, 2]), uop(5, &[2])],
            ],
        );
        let huge_rows = vec![
            MeasuredExperiment::new(
                Experiment::from_counts(&[(InstId(0), u32::MAX - 693_980)]),
                1.0,
            ),
            MeasuredExperiment::new(Experiment::pair(InstId(0), 1, InstId(1), u32::MAX), 2.0),
            MeasuredExperiment::new(Experiment::singleton(InstId(1)), 0.5),
        ];
        check(&huge, &huge_rows, false);

        // Odd masses just above `2^24`, which `f32` cannot hold:
        // `2^24 + 1` alone and `2^24 + 3` with instruction 1's µops.
        let above = ThreeLevelMapping::new(
            3,
            vec![
                vec![uop((1 << 24) + 1, &[0])],
                vec![uop(1, &[1]), uop(1, &[0, 1])],
            ],
        );
        let small_rows = vec![
            MeasuredExperiment::new(Experiment::singleton(InstId(0)), 1.0),
            MeasuredExperiment::new(Experiment::pair(InstId(0), 1, InstId(1), 1), 2.0),
            MeasuredExperiment::new(Experiment::singleton(InstId(1)), 0.5),
        ];
        check(&above, &small_rows, false);

        // Rows of count-sum `W = 2^23` under instructions of at most
        // `T = 2` µops: `W · T = 2^24` is the largest bound the factored
        // path takes.
        let wide_rows = vec![
            MeasuredExperiment::new(
                Experiment::from_counts(&[(InstId(0), (1 << 23) - 693_980)]),
                1.0,
            ),
            MeasuredExperiment::new(
                Experiment::pair(InstId(0), 1, InstId(1), (1 << 23) - 1),
                2.0,
            ),
            MeasuredExperiment::new(Experiment::singleton(InstId(1)), 0.5),
        ];
        check(&figure4_mapping(), &wide_rows, true);
    }

    #[test]
    fn empty_decomposition_and_unused_instructions_are_handled() {
        // Instruction 1 never appears in the experiments; instruction 0's
        // mapping may legally decompose to nothing after normalization,
        // and an experiment may hold no instruction at all.
        let data = vec![
            MeasuredExperiment::new(Experiment::singleton(InstId(0)), 2.0),
            MeasuredExperiment::new(Experiment::from_counts(&[]), 2.0),
        ];
        let compiled = CompiledExperiments::compile(&data);
        let m = ThreeLevelMapping::new(2, vec![vec![], vec![uop(1, &[0])]]);
        let mut solver = ThroughputSolver::new();
        // Predicted 0 against measured 2 → relative error 1.
        assert_eq!(solver.average_error(&compiled, &m), 1.0);
        assert_eq!(compiled.experiments_containing(InstId(1)), &[0u32; 0]);
    }
}
