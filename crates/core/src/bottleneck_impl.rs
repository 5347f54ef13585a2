//! The bottleneck simulation algorithm (paper §4.5) and an LP reference.
//!
//! Both compute the throughput `t*_m(e)` of paper Definition 3 for a
//! two-level problem instance given as a [`MassVector`]: the multiset of
//! µops (identified by port sets) with real-valued masses. Three-level
//! problems reduce to this form via
//! [`ThreeLevelMapping::uop_masses`](crate::ThreeLevelMapping::uop_masses)
//! (paper §3.2).
//!
//! The bottleneck algorithm implements Equation 1 of the paper:
//!
//! ```text
//! t*_m(e) = max over non-empty Q ⊆ P of
//!           (Σ { e(u) | Ports(u) ⊆ Q }) / |Q|
//! ```
//!
//! [`throughput_fast`] aggregates masses per port-subset and then runs
//! the cheapest of three exact strategies over the `k` live ports:
//! enumerating only the *unions* of µop port sets (`Θ(d · 2^d)` for `d`
//! distinct µops — the optimal bottleneck set is always such a union),
//! scattering each mass to every superset of its port set
//! (`Θ(Σ_i 2^(k − |mask_i|) + 2^k)`), or a subset-sum (zeta) transform
//! (`Θ(k · 2^k)` independent of the number of µops);
//! [`throughput_naive`] re-scans all µops for every
//! subset (`Θ(2^|P|) · |µops|`) and is the textbook reference tests
//! compare the fast path with;
//! [`lp_throughput`] solves the linear program with the simplex solver and
//! is the reference for correctness tests and the Figure 8 comparison.

use crate::{PortSet, MAX_PORTS};
use pmevo_lp::{Problem, Relation};

/// Largest number of *live* ports (ports actually usable by some µop of
/// the experiment) for which subset enumeration is permitted.
///
/// `2^26` doubles are 512 MiB of scratch; beyond that the enumeration is
/// clearly the wrong tool and the LP solver should be used instead.
pub const MAX_ENUMERABLE_PORTS: usize = 26;

/// A multiset of µops with fractional masses, the input of the two-level
/// throughput computation.
///
/// µops are identified by their [`PortSet`]; adding mass for an existing
/// port set merges with the previous entry. This merging is one of the
/// "aggressive performance optimizations" the paper alludes to: the
/// throughput LP only depends on total mass per distinct port set.
///
/// # Example
///
/// ```
/// use pmevo_core::bottleneck::{throughput_fast, MassVector};
/// use pmevo_core::PortSet;
///
/// let mut mv = MassVector::new();
/// mv.add(PortSet::from_ports(&[0, 1]), 2.0);
/// mv.add(PortSet::from_ports(&[0]), 1.0);
/// mv.add(PortSet::from_ports(&[0, 1]), 1.0); // merges with the first add
/// assert_eq!(mv.len(), 2);
/// assert_eq!(throughput_fast(&mv), 2.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MassVector {
    items: Vec<(PortSet, f64)>,
}

impl MassVector {
    /// Creates an empty mass vector.
    pub fn new() -> Self {
        MassVector { items: Vec::new() }
    }

    /// Adds `mass` units of the µop executable on `ports`.
    ///
    /// Zero-mass additions and empty port sets with zero mass are ignored.
    ///
    /// # Complexity
    ///
    /// Entries are kept sorted by [`PortSet`], so merging with an existing
    /// µop costs `O(log n)` (binary search) and inserting a new one costs
    /// `O(n)` (shift), where `n` is the number of *distinct* port sets —
    /// in practice a handful, bounded by the experiment's µop diversity,
    /// not by its total mass. The sorted order is also what makes
    /// structural equality semantic equality and keeps downstream
    /// iteration deterministic. (The compiled evaluation path in
    /// [`crate::ThroughputSolver`] skips this type entirely and merges
    /// compacted masks straight into its own sorted `entries` table.)
    ///
    /// # Panics
    ///
    /// Panics if `mass` is negative or if `ports` is empty while `mass` is
    /// positive (such an experiment has no feasible schedule).
    pub fn add(&mut self, ports: PortSet, mass: f64) {
        assert!(mass >= 0.0, "negative µop mass {mass}");
        if mass == 0.0 {
            return;
        }
        assert!(
            !ports.is_empty(),
            "µop with positive mass but no ports has no feasible schedule"
        );
        match self.items.binary_search_by_key(&ports, |&(p, _)| p) {
            Ok(idx) => self.items[idx].1 += mass,
            Err(idx) => self.items.insert(idx, (ports, mass)),
        }
    }

    /// Removes every entry while keeping the allocation, so the vector
    /// can be refilled without touching the heap (the reuse pattern of
    /// [`crate::ThroughputSolver`]).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Number of distinct µops (distinct port sets).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the vector holds no mass.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(port set, mass)` entries in port-set order.
    pub fn iter(&self) -> impl Iterator<Item = (PortSet, f64)> + '_ {
        self.items.iter().copied()
    }

    /// Total mass across all µops.
    pub fn total_mass(&self) -> f64 {
        self.items.iter().map(|&(_, m)| m).sum()
    }

    /// Union of all port sets with positive mass.
    pub fn live_ports(&self) -> PortSet {
        self.items
            .iter()
            .fold(PortSet::EMPTY, |acc, &(p, _)| acc.union(p))
    }
}

impl FromIterator<(PortSet, f64)> for MassVector {
    fn from_iter<I: IntoIterator<Item = (PortSet, f64)>>(iter: I) -> Self {
        let mut mv = MassVector::new();
        for (p, m) in iter {
            mv.add(p, m);
        }
        mv
    }
}

/// Like [`compact`], but also returns the dense-index → global-port
/// table, for callers that must translate results back (the bottleneck
/// set extraction in [`crate::allocation`]).
pub(crate) fn compact_for_allocation(
    masses: &MassVector,
    live: PortSet,
) -> (Vec<(u32, f64)>, Vec<usize>) {
    let dense_to_global: Vec<usize> = live.iter().collect();
    (compact(masses, live), dense_to_global)
}

/// Compacts the ports of `live` to dense indices and returns, for each
/// µop, its compacted mask alongside its mass.
fn compact(masses: &MassVector, live: PortSet) -> Vec<(u32, f64)> {
    // position[p] = dense index of global port p
    let mut position = [0u8; MAX_PORTS];
    for (dense, p) in live.iter().enumerate() {
        position[p] = dense as u8;
    }
    masses
        .iter()
        .map(|(ports, mass)| {
            let mut mask = 0u32;
            for p in ports.iter() {
                mask |= 1 << position[p];
            }
            (mask, mass)
        })
        .collect()
}

/// The exact strategies of the bottleneck kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Union-closure enumeration, `Θ(d · 2^d)` for `d` distinct µops.
    UnionClosure,
    /// Superset scatter, `Θ(Σ_i 2^(k − |mask_i|) + 2^k)`.
    Scatter,
    /// Subset-sum (zeta) transform, `Θ(k · 2^k)` independent of `d`.
    Zeta,
}

/// Picks the cheapest exact strategy for compacted, distinct, ascending
/// `(mask, mass)` entries over `k` live ports, by predicted operation
/// count:
///
/// * **Union-closure enumeration** (`Θ(d · 2^d)` for `d` distinct µops):
///   the optimal bottleneck set `Q*` can always be taken as the union of
///   the µop port sets it contains (shrinking `Q*` to that union keeps
///   the numerator and can only shrink `|Q|`), so enumerating the `2^d`
///   unions suffices. For the singleton and pair experiments of the
///   paper's experiment scheme `d` is 1–6 while machines have 8–10
///   ports, making this the common case.
/// * **Superset scatter** (`Θ(Σ_i 2^(k − |mask_i|) + 2^k)`): add each
///   mass directly to every superset of its mask, then scan. Wins when
///   µops are moderately many but wide, so the subset lattice stays
///   sparse.
/// * **Zeta transform** (`Θ(k · 2^k)`, independent of `d`) as the dense
///   fallback: it bounds a row of many narrow µops, where scatter alone
///   can cost up to `3^k`.
///
/// The strategies add the same masses in different orders, so their
/// bits are certain to agree only when every sum is exact (integer
/// masses with a total of at most `2^53`, as in every three-level
/// evaluation). The choice is therefore a pure function of
/// `(entries, k)`: every caller gets the same strategy, and the same
/// bits, for the same input.
fn choose_strategy(entries: &[(u32, f64)], k: usize) -> Strategy {
    let d = entries.len();
    let size = 1usize << k;
    let zeta_cost = (k as u64 + 1) << k;
    let scatter_cost = (size as u64)
        + entries
            .iter()
            .map(|&(mask, _)| 1u64 << (k - mask.count_ones() as usize))
            .sum::<u64>();
    if d < 16 && (d as u64) << d < zeta_cost.min(scatter_cost) {
        Strategy::UnionClosure
    } else if scatter_cost < zeta_cost {
        Strategy::Scatter
    } else {
        Strategy::Zeta
    }
}

/// Runs one strategy over compacted entries. `sum` and `unions` are
/// caller-owned scratch so the hot path can reuse them
/// ([`crate::ThroughputSolver`]); they are grown on demand.
fn kernel_with_strategy(
    strategy: Strategy,
    entries: &[(u32, f64)],
    k: usize,
    sum: &mut Vec<f64>,
    unions: &mut Vec<u32>,
) -> f64 {
    if strategy == Strategy::UnionClosure {
        return union_closure_max(entries, k, unions);
    }
    let size = 1usize << k;
    if sum.len() < size {
        sum.resize(size, 0.0);
    }
    let sum = &mut sum[..size];
    sum.fill(0.0);
    if strategy == Strategy::Scatter {
        let full = (size - 1) as u32;
        for &(mask, mass) in entries {
            let complement = full & !mask;
            let mut extra = complement;
            loop {
                sum[(mask | extra) as usize] += mass;
                if extra == 0 {
                    break;
                }
                extra = (extra - 1) & complement;
            }
        }
    } else {
        for &(mask, mass) in entries {
            sum[mask as usize] += mass;
        }
        zeta_transform(sum, k);
    }
    max_quotient(sum, k)
}

/// Computes Equation 1 from compacted, distinct, ascending
/// `(mask, mass)` entries over `k` live ports, with the cheapest exact
/// strategy per [`choose_strategy`].
pub(crate) fn kernel_from_compacted(
    entries: &[(u32, f64)],
    k: usize,
    sum: &mut Vec<f64>,
    unions: &mut Vec<u32>,
) -> f64 {
    kernel_with_strategy(choose_strategy(entries, k), entries, k, sum, unions)
}

/// The union-closure strategy of [`kernel_from_compacted`]: for every
/// subset `S` of the distinct µops, form `U = ⋃_{i ∈ S} mask_i`
/// (incrementally, via the subset's lowest member) and score the mass
/// contained in `U`. Division is deferred to one per subset *size* as in
/// [`max_quotient`], which is exact because division by a positive
/// constant is monotone.
fn union_closure_max(entries: &[(u32, f64)], k: usize, unions: &mut Vec<u32>) -> f64 {
    let d = entries.len();
    let size = 1usize << d;
    if unions.len() < size {
        unions.resize(size, 0);
    }
    let unions = &mut unions[..size];
    unions[0] = 0;
    let mut best_by_size = [0.0f64; MAX_ENUMERABLE_PORTS + 1];
    for s in 1..size {
        let low = s.trailing_zeros() as usize;
        let u = unions[s & (s - 1)] | entries[low].0;
        unions[s] = u;
        let mut contained = 0.0f64;
        for &(mask, mass) in entries {
            if mask & !u == 0 {
                contained += mass;
            }
        }
        let c = u.count_ones() as usize;
        if contained > best_by_size[c] {
            best_by_size[c] = contained;
        }
    }
    best_quotient(&best_by_size, k)
}

/// The zeta (subset-sum) transform in place over the `2^k` masks of
/// `sum`: afterwards `sum[Q] = Σ { mass(u) | ports(u) ⊆ Q }`.
///
/// The transform walks each bit's set-half in contiguous blocks
/// (`sum[q..q + b] += sum[q - b..q]` element-wise), which performs the
/// same additions in the same ascending-`q` order as the textbook masked
/// loop but without a data-dependent branch per element.
pub(crate) fn zeta_transform<T: Copy + std::ops::AddAssign>(sum: &mut [T], k: usize) {
    let size = 1usize << k;
    debug_assert_eq!(sum.len(), size);
    for bit in 0..k {
        let b = 1usize << bit;
        let mut q = b;
        while q < size {
            let (lo, hi) = sum.split_at_mut(q);
            for (dst, src) in hi[..b].iter_mut().zip(&lo[q - b..]) {
                *dst += *src;
            }
            q += b << 1;
        }
    }
}

/// The best `sum[Q] / |Q|` over non-empty `Q`, with one division per
/// subset *size* instead of per subset: division by a positive constant
/// is monotone, so reducing to a per-size maximum first is exact.
fn max_quotient(sum: &[f64], k: usize) -> f64 {
    let mut best_by_size = [0.0f64; MAX_ENUMERABLE_PORTS + 1];
    for (q, &s) in sum.iter().enumerate().skip(1) {
        let c = q.count_ones() as usize;
        if s > best_by_size[c] {
            best_by_size[c] = s;
        }
    }
    best_quotient(&best_by_size, k)
}

/// Shared tail of the per-size reduction: `max_c best_by_size[c] / c`
/// over sizes `1..=k`. Every strategy funnels through this one function
/// so the division/rounding behavior cannot drift between them.
pub(crate) fn best_quotient(best_by_size: &[f64], k: usize) -> f64 {
    let mut best = 0.0f64;
    for (c, &s) in best_by_size.iter().enumerate().take(k + 1).skip(1) {
        let t = s / (c as f64);
        if t > best {
            best = t;
        }
    }
    best
}

/// Computes `t*_m(e)` with the bottleneck simulation algorithm: mass
/// aggregation followed by union-closure enumeration, superset scatter
/// or the subset-sum transform, whichever is predicted to be cheapest
/// (all three are exact; see `kernel_from_compacted`).
///
/// Only the *live* ports (those usable by at least one µop with positive
/// mass) are enumerated; dead ports can never belong to a bottleneck set
/// `Q*` because removing them from `Q` only increases the quotient of
/// Equation 1.
///
/// Allocates fresh scratch per call; the evolutionary hot loop uses
/// [`crate::ThroughputSolver`], which reuses its buffers across calls and
/// returns bit-identical results (same kernel, same compacted input).
///
/// Returns `0.0` for an empty experiment.
///
/// # Panics
///
/// Panics if more than [`MAX_ENUMERABLE_PORTS`] ports are live.
pub fn throughput_fast(masses: &MassVector) -> f64 {
    let mut entries = Vec::new();
    let mut sum = Vec::new();
    let mut unions = Vec::new();
    masses_kernel(masses, &mut entries, &mut sum, &mut unions)
}

/// Compacts a (sorted, duplicate-free) [`MassVector`] over its live ports
/// and runs [`kernel_from_compacted`] — the single compaction shared by
/// [`throughput_fast`] (fresh scratch) and
/// [`crate::ThroughputSolver::mapping_throughput`] (reused scratch), so
/// their bit-identity cannot drift.
///
/// # Panics
///
/// Panics if more than [`MAX_ENUMERABLE_PORTS`] ports are live.
pub(crate) fn masses_kernel(
    masses: &MassVector,
    entries: &mut Vec<(u32, f64)>,
    sum: &mut Vec<f64>,
    unions: &mut Vec<u32>,
) -> f64 {
    let live = masses.live_ports();
    let k = live.len();
    if k == 0 {
        return 0.0;
    }
    assert!(
        k <= MAX_ENUMERABLE_PORTS,
        "{k} live ports exceed the subset-enumeration limit ({MAX_ENUMERABLE_PORTS}); \
         use lp_throughput instead"
    );
    let mut position = [0u8; MAX_PORTS];
    for (dense, p) in live.iter().enumerate() {
        position[p] = dense as u8;
    }
    entries.clear();
    for (ports, mass) in masses.iter() {
        let mut mask = 0u32;
        for p in ports.iter() {
            mask |= 1 << position[p];
        }
        entries.push((mask, mass));
    }
    kernel_from_compacted(entries, k, sum, unions)
}

/// Computes `t*_m(e)` by direct enumeration: for every non-empty subset of
/// live ports, all µops are scanned to accumulate the contained mass.
///
/// This is the textbook reading of Equation 1 and serves as a test
/// reference for [`throughput_fast`]; both return identical values.
///
/// # Panics
///
/// Panics if more than [`MAX_ENUMERABLE_PORTS`] ports are live.
pub fn throughput_naive(masses: &MassVector) -> f64 {
    let live = masses.live_ports();
    let k = live.len();
    if k == 0 {
        return 0.0;
    }
    assert!(
        k <= MAX_ENUMERABLE_PORTS,
        "{k} live ports exceed the subset-enumeration limit ({MAX_ENUMERABLE_PORTS})"
    );
    let compacted = compact(masses, live);
    let mut best = 0.0f64;
    for q in 1u32..(1u32 << k) {
        let mut s = 0.0;
        for &(mask, mass) in &compacted {
            if mask & !q == 0 {
                s += mass;
            }
        }
        let t = s / f64::from(q.count_ones());
        if t > best {
            best = t;
        }
    }
    best
}

/// Computes `t*_m(e)` by solving the linear program of paper Definition 3
/// with the [`pmevo_lp`] simplex solver.
///
/// Variables are created only for edges `(u, k) ∈ M`, so constraint (D)
/// (`x_uk = 0` for non-edges) is implicit. Used for cross-checking the
/// bottleneck algorithm (paper Appendix A) and for the running-time
/// comparison of Figure 8.
///
/// Returns `0.0` for an empty experiment.
///
/// # Panics
///
/// Panics if the LP solver fails, which cannot happen for well-formed
/// inputs: the program is always feasible (every µop has a port) and
/// bounded (t ≥ 0).
pub fn lp_throughput(masses: &MassVector) -> f64 {
    if masses.is_empty() {
        return 0.0;
    }
    let live = masses.live_ports();
    let ports: Vec<usize> = live.iter().collect();
    let num_uops = masses.len();

    // Variable layout: x_{u,k} for each edge, then t last.
    let mut edge_vars: Vec<Vec<(usize, usize)>> = Vec::with_capacity(num_uops); // (port, var)
    let mut next_var = 0usize;
    for (uop_ports, _) in masses.iter() {
        let vars = uop_ports
            .iter()
            .map(|p| {
                let v = next_var;
                next_var += 1;
                (p, v)
            })
            .collect();
        edge_vars.push(vars);
    }
    let t_var = next_var;
    let mut problem = Problem::minimize(t_var + 1);
    problem.set_objective_coeff(t_var, 1.0);

    // (A): Σ_k x_uk = mass(u)
    for (u, (_, mass)) in masses.iter().enumerate() {
        let terms: Vec<(usize, f64)> = edge_vars[u].iter().map(|&(_, v)| (v, 1.0)).collect();
        problem.add_constraint(&terms, Relation::Eq, mass);
    }
    // (B): Σ_u x_uk − t ≤ 0 for each live port k
    for &port in &ports {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for vars in &edge_vars {
            for &(p, v) in vars {
                if p == port {
                    terms.push((v, 1.0));
                }
            }
        }
        terms.push((t_var, -1.0));
        problem.add_constraint(&terms, Relation::Le, 0.0);
    }

    problem
        .solve()
        .expect("throughput LP is feasible and bounded by construction")
        .objective()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ports: &[usize]) -> PortSet {
        PortSet::from_ports(ports)
    }

    fn example1() -> MassVector {
        // Figure 2 / Example 1: {add↦2, mul↦1, store↦1}
        let mut mv = MassVector::new();
        mv.add(ps(&[0, 1]), 2.0); // add ×2
        mv.add(ps(&[0]), 1.0); // mul
        mv.add(ps(&[2]), 1.0); // store
        mv
    }

    /// The crafted shapes of `tests/proptest_batch.rs` really do force
    /// the strategies they claim to — pinned here against the cost
    /// model so a model change cannot silently hollow out that suite.
    #[test]
    fn cost_model_picks_the_expected_strategy_per_shape() {
        // 6 narrow µops over 8 live ports: union-closure enumeration.
        let uc: Vec<(u32, f64)> =
            vec![(0b1, 1.0), (0b10, 1.0), (0b100, 2.0), (0b1000, 1.0), (0b10000, 1.0), (0b11100000, 1.0)];
        assert_eq!(choose_strategy(&uc, 8), Strategy::UnionClosure);
        // 16 wide (|mask| ≥ 4) µops over 6 ports: sparse superset
        // lattice, so scatter wins and d = 16 rules out union-closure.
        let wide: Vec<(u32, f64)> = (0u32..64)
            .filter(|m| m.count_ones() >= 4)
            .take(16)
            .map(|m| (m, 1.0))
            .collect();
        assert_eq!(choose_strategy(&wide, 6), Strategy::Scatter);
        // All 21 singleton + pair masks over 6 ports: dense and narrow,
        // the zeta transform's home turf.
        let mut narrow: Vec<(u32, f64)> =
            (0u32..64).filter(|m| (1..=2).contains(&m.count_ones())).map(|m| (m, 1.0)).collect();
        narrow.sort_unstable_by_key(|&(m, _)| m);
        assert_eq!(narrow.len(), 21);
        assert_eq!(choose_strategy(&narrow, 6), Strategy::Zeta);
    }

    /// The cost model may hand an input to any strategy, so all three
    /// must return the same bits wherever every partial sum is exact:
    /// integer masses with a total of at most `2^53`, which every
    /// three-level evaluation yields (products of `u32` counts). Scaled
    /// to fractions, the same inputs are the control: there the three
    /// addition orders round differently.
    #[test]
    fn strategies_agree_bitwise_on_exact_integer_masses() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut sum, mut unions) = (Vec::new(), Vec::new());
        let mut solve = |entries: &[(u32, f64)], k: usize| {
            [Strategy::UnionClosure, Strategy::Scatter, Strategy::Zeta]
                .map(|s| kernel_with_strategy(s, entries, k, &mut sum, &mut unions).to_bits())
        };
        let mut fractional_disagreements = 0;
        for draw in 0..20_000usize {
            let k = 1 + (next() % 10) as usize;
            let full = (1u32 << k) - 1;
            let mut masks: Vec<u32> = (0..1 + next() % 10)
                .map(|_| 1 + (next() % u64::from(full)) as u32)
                .collect();
            // Every one of the `k` ports is live, as the callers compact.
            let union = masks.iter().fold(0, |acc, &m| acc | m);
            if union != full {
                masks.push(full & !union);
            }
            masks.sort_unstable();
            masks.dedup();
            // At most 11 masses of at most 2^49 each: the total stays
            // below 2^53.
            let bits = [3, 24, 49][draw % 3];
            let integer: Vec<(u32, f64)> = masks
                .iter()
                .map(|&m| (m, (1 + (next() >> (64 - bits))) as f64))
                .collect();
            assert!(integer.iter().map(|&(_, x)| x).sum::<f64>() <= (1u64 << 53) as f64);
            let [uc, sc, zt] = solve(&integer, k);
            assert!(
                uc == sc && sc == zt,
                "strategies disagree on {integer:?} over {k} ports: {:?}",
                [uc, sc, zt].map(f64::from_bits)
            );
            let fractional: Vec<(u32, f64)> = integer.iter().map(|&(m, x)| (m, x * 0.1)).collect();
            let [uc, sc, zt] = solve(&fractional, k);
            if uc != sc || sc != zt {
                fractional_disagreements += 1;
            }
        }
        assert!(
            fractional_disagreements > 0,
            "no fractional control input told the strategies apart"
        );
    }

    #[test]
    fn example1_throughput_is_1_5_in_all_engines() {
        let mv = example1();
        assert!((throughput_fast(&mv) - 1.5).abs() < 1e-12);
        assert!((throughput_naive(&mv) - 1.5).abs() < 1e-12);
        assert!((lp_throughput(&mv) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_experiment_has_zero_throughput() {
        let mv = MassVector::new();
        assert_eq!(throughput_fast(&mv), 0.0);
        assert_eq!(throughput_naive(&mv), 0.0);
        assert_eq!(lp_throughput(&mv), 0.0);
    }

    #[test]
    fn single_uop_single_port() {
        let mut mv = MassVector::new();
        mv.add(ps(&[3]), 4.0);
        assert_eq!(throughput_fast(&mv), 4.0);
        assert_eq!(throughput_naive(&mv), 4.0);
        assert!((lp_throughput(&mv) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mass_spreads_over_wide_uop() {
        let mut mv = MassVector::new();
        mv.add(ps(&[0, 1, 2, 3]), 4.0);
        assert_eq!(throughput_fast(&mv), 1.0);
    }

    #[test]
    fn disjoint_uops_do_not_interfere() {
        let mut mv = MassVector::new();
        mv.add(ps(&[0]), 2.0);
        mv.add(ps(&[1]), 3.0);
        assert_eq!(throughput_fast(&mv), 3.0);
    }

    #[test]
    fn partial_overlap_bottleneck() {
        // u1 on {0}, u2 on {0,1}: Q={0,1} gives (2+2)/2 = 2; Q={0} gives 2.
        let mut mv = MassVector::new();
        mv.add(ps(&[0]), 2.0);
        mv.add(ps(&[0, 1]), 2.0);
        assert_eq!(throughput_fast(&mv), 2.0);
        // Make the narrow µop the constraint: Q={0} -> 3.
        let mut mv2 = MassVector::new();
        mv2.add(ps(&[0]), 3.0);
        mv2.add(ps(&[0, 1]), 1.0);
        assert_eq!(throughput_fast(&mv2), 3.0);
    }

    #[test]
    fn dead_ports_are_ignored() {
        // µops live on high port numbers only; enumeration must compact.
        let mut mv = MassVector::new();
        mv.add(ps(&[40, 63]), 2.0);
        mv.add(ps(&[40]), 1.0);
        assert_eq!(throughput_fast(&mv), 1.5);
        assert_eq!(throughput_naive(&mv), 1.5);
        assert!((lp_throughput(&mv) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fractional_masses() {
        let mut mv = MassVector::new();
        mv.add(ps(&[0, 1]), 0.5);
        mv.add(ps(&[1]), 0.25);
        assert!((throughput_fast(&mv) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn merging_is_equivalent_to_separate_adds() {
        let mut a = MassVector::new();
        a.add(ps(&[0, 2]), 1.0);
        a.add(ps(&[0, 2]), 2.0);
        let mut b = MassVector::new();
        b.add(ps(&[0, 2]), 3.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a.total_mass(), 3.0);
        assert_eq!(a.live_ports(), ps(&[0, 2]));
    }

    #[test]
    #[should_panic(expected = "no feasible schedule")]
    fn positive_mass_on_empty_ports_panics() {
        let mut mv = MassVector::new();
        mv.add(PortSet::EMPTY, 1.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_mass_panics() {
        let mut mv = MassVector::new();
        mv.add(ps(&[0]), -1.0);
    }

    #[test]
    fn from_iterator_collects_and_merges() {
        let mv: MassVector = [(ps(&[0]), 1.0), (ps(&[0]), 2.0), (ps(&[1]), 1.0)]
            .into_iter()
            .collect();
        assert_eq!(mv.len(), 2);
        assert_eq!(mv.total_mass(), 4.0);
    }

    #[test]
    fn all_three_engines_agree_on_stress_cases() {
        // Hand-picked awkward shapes: chains, stars, near-uniform overlap.
        let cases: Vec<MassVector> = vec![
            [(ps(&[0, 1]), 1.0), (ps(&[1, 2]), 1.0), (ps(&[2, 3]), 1.0)]
                .into_iter()
                .collect(),
            [
                (ps(&[0]), 1.0),
                (ps(&[0, 1]), 1.0),
                (ps(&[0, 1, 2]), 1.0),
                (ps(&[0, 1, 2, 3]), 1.0),
            ]
            .into_iter()
            .collect(),
            [(ps(&[0, 3]), 2.5), (ps(&[1, 3]), 0.5), (ps(&[0, 1]), 1.5)]
                .into_iter()
                .collect(),
        ];
        for mv in cases {
            let f = throughput_fast(&mv);
            let n = throughput_naive(&mv);
            let l = lp_throughput(&mv);
            assert!((f - n).abs() < 1e-12, "fast {f} != naive {n} for {mv:?}");
            assert!((f - l).abs() < 1e-7, "fast {f} != lp {l} for {mv:?}");
        }
    }

    #[test]
    fn bottleneck_equals_lp_on_hand_written_mappings() {
        // Fast, deterministic companion to the randomized
        // `tests/bottleneck_equals_lp.rs` suite: the bottleneck algebra
        // must agree with the simplex solver on hand-written mappings
        // exercised across every instruction pair.
        use crate::{Experiment, InstId, ThreeLevelMapping, UopEntry};

        let uop = |count, ports: &[usize]| UopEntry::new(count, ps(ports));

        // (a) The paper's Figure 4 mapping (store splits into two µops).
        let figure4 = ThreeLevelMapping::new(
            3,
            vec![
                vec![uop(2, &[0])],
                vec![uop(1, &[0, 1])],
                vec![uop(1, &[0, 1])],
                vec![uop(1, &[0, 1]), uop(1, &[2])],
            ],
        );
        // (b) A Skylake-flavoured 6-port sketch: ALU / MUL / load / store
        // with asymmetric port overlap and a 3-µop instruction.
        let skl_like = ThreeLevelMapping::new(
            6,
            vec![
                vec![uop(1, &[0, 1, 5])],
                vec![uop(1, &[1])],
                vec![uop(1, &[2, 3])],
                vec![uop(1, &[2, 3]), uop(1, &[4])],
                vec![uop(2, &[0, 5]), uop(1, &[4])],
            ],
        );
        // (c) A heavy-multiplicity mapping where one instruction floods a
        // narrow port and another spreads thin across all four.
        let lopsided = ThreeLevelMapping::new(
            4,
            vec![
                vec![uop(4, &[0])],
                vec![uop(1, &[0, 1, 2, 3])],
                vec![uop(2, &[1, 2]), uop(2, &[2, 3])],
            ],
        );

        for (name, m) in [
            ("figure4", &figure4),
            ("skl_like", &skl_like),
            ("lopsided", &lopsided),
        ] {
            let n = m.num_insts() as u32;
            let mut experiments = Vec::new();
            for i in 0..n {
                experiments.push(Experiment::singleton(InstId(i)));
                for j in (i + 1)..n {
                    experiments.push(Experiment::pair(InstId(i), 2, InstId(j), 1));
                }
            }
            for e in &experiments {
                let masses = m.uop_masses(e);
                let fast = throughput_fast(&masses);
                let lp = lp_throughput(&masses);
                assert!(
                    (fast - lp).abs() < 1e-7,
                    "{name}: bottleneck {fast} != LP {lp} for {e}"
                );
            }
        }
    }
}
