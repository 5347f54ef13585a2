//! The factored fitness kernel: every compiled experiment of one
//! candidate mapping scored from per-instruction subset-sum tables.
//!
//! In a three-level evaluation the mass of µop `u` in experiment `e` is
//! `Σ_t n_t · count_t(u)`, so the subset mass of Equation 1 (paper §4.5)
//! splits by instruction:
//!
//! ```text
//! m_e(Q) = Σ_t n_t · Z_{i_t}[Q],   Z_i[Q] = Σ { count(u) | (i, count, u) ∈ N, ports(u) ⊆ Q }
//! t*_m(e) = max_c (max_{|Q| = c} m_e(Q)) / c
//! ```
//!
//! [`SubsetTables`] builds one table `Z_i` per instruction once per
//! candidate and then scores each experiment row with one fused pass over
//! the subsets — no per-experiment mass aggregation and no per-experiment
//! zeta transform.
//!
//! **Invariant: small integer masses.** Every `n_t` and every `count(u)`
//! is a `u32`, so every table entry, every product `n_t · Z` and every
//! row sum is an integer. The tables hold `f32`: when the largest
//! possible experiment mass fits in `2^24` (checked by the caller before
//! it takes this path, see [`exact_in_f32`]), every one of those
//! integers is exact in `f32` whatever the addition order. Each per-size
//! maximum is widened to `f64`, so the quotient tail sees the exact
//! integer the per-experiment kernel sums in `f64` too, and both funnel
//! through the same [`best_quotient`]. Subsets that include ports no µop
//! of the experiment can use never raise the result: dropping those
//! ports keeps the mass and shrinks `|Q|`, and rounded division is
//! monotone. So every prediction has the bits of the per-experiment
//! path, which enumerates the live ports only.
//!
//! **Layout.** The `2^|P| − 1` non-empty subsets are grouped by size,
//! each group zero-padded to a multiple of [`LANES`] slots, so every
//! per-size maximum is a fixed-width `[f32; LANES]` loop (zero padding
//! cannot raise a maximum of non-negative masses). On a 9-port machine
//! the 511 subsets take 552 slots, 2.2 KiB per instruction.

use crate::bottleneck_impl::{best_quotient, zeta_transform};
use crate::PortSet;

/// Slots per chunk of a table: eight `f32`s make each per-size maximum a
/// fixed-width inner loop the autovectorizer turns into packed compares.
const LANES: usize = 8;

/// Widest machine the factored path serves: a table holds `2^|P|` `f32`
/// slots per instruction, so 12 ports cost 16 KiB per instruction. Wider
/// machines, and port-less ones, use the per-experiment kernel.
pub(crate) const MAX_FACTORED_PORTS: usize = 12;

/// Whether every subset mass of an experiment set is an exact `f32`
/// integer: `max_row_weight` is the largest row count-sum `Σ_t n_t` and
/// `max_uops` the largest per-instruction µop total `Σ_u count(u)`, so
/// their product bounds every mass, and all integers up to `2^24` are
/// exact. Checked in `u128`, so it cannot overflow.
pub(crate) fn exact_in_f32(max_row_weight: u64, max_uops: u64) -> bool {
    u128::from(max_row_weight) * u128::from(max_uops) <= 1u128 << 24
}

/// Reusable state of the factored kernel: the subset layout for one port
/// count, the per-instruction tables of the current candidate, and the
/// scratch of the table build and of long rows. Allocation-free once
/// grown to the largest sizes seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubsetTables {
    /// Port count the layout below was built for.
    ports: Option<usize>,
    /// Chunk boundaries per subset size: size `c` owns chunks
    /// `groups[c - 1]..groups[c]` of every table.
    groups: Vec<usize>,
    /// Grouped slot of every non-empty port mask (`slot_of[0]` unused).
    slot_of: Vec<u32>,
    /// Chunks per instruction table.
    stride: usize,
    /// Instruction-major tables: dense instruction `d` owns chunks
    /// `d * stride..(d + 1) * stride`. Padding slots stay zero.
    tables: Vec<[f32; LANES]>,
    /// Mask-indexed buffer of the zeta build.
    natural: Vec<f32>,
    /// Row sums of rows with three or more terms.
    acc: Vec<[f32; LANES]>,
}

impl SubsetTables {
    /// Builds the grouped layout for `ports` ports, unless it is current.
    fn set_layout(&mut self, ports: usize) {
        if self.ports == Some(ports) {
            return;
        }
        let size = 1usize << ports;
        let mut per_size = [0usize; MAX_FACTORED_PORTS + 1];
        for q in 1..size {
            per_size[q.count_ones() as usize] += 1;
        }
        self.groups.clear();
        self.groups.push(0);
        let mut next = [0usize; MAX_FACTORED_PORTS + 1];
        for c in 1..=ports {
            let start = self.groups[c - 1];
            next[c] = start * LANES;
            self.groups.push(start + per_size[c].div_ceil(LANES));
        }
        self.stride = self.groups[ports];
        self.slot_of.clear();
        self.slot_of.resize(size, 0);
        for q in 1..size {
            let c = q.count_ones() as usize;
            self.slot_of[q] = next[c] as u32;
            next[c] += 1;
        }
        // Tables of another layout have their padding elsewhere.
        self.tables.clear();
        self.ports = Some(ports);
    }

    /// Builds `Z_d` for every dense instruction `d` of a loaded mapping
    /// over `ports` ports: `offsets[d]..offsets[d + 1]` delimit its µops
    /// in `uop_ports` and `counts`. Every count must be an integer of at
    /// most `2^24`, so the `f32` casts are exact.
    ///
    /// Per instruction the cheaper of two exact builds runs: a superset
    /// scatter (`Σ_u 2^(|P| − |u|)` additions) or a zeta transform over a
    /// mask-indexed buffer (`|P| · 2^(|P| − 1)` additions) followed by a
    /// copy into the grouped layout.
    pub(crate) fn build(
        &mut self,
        ports: usize,
        offsets: &[u32],
        uop_ports: &[PortSet],
        counts: &[f64],
    ) {
        debug_assert!((1..=MAX_FACTORED_PORTS).contains(&ports));
        self.set_layout(ports);
        let stride = self.stride;
        let insts = offsets.len() - 1;
        if self.tables.len() != insts * stride {
            self.tables.clear();
            self.tables.resize(insts * stride, [0.0; LANES]);
        }
        let size = 1usize << ports;
        if self.natural.len() < size {
            self.natural.resize(size, 0.0);
        }
        let full = (size - 1) as u32;
        for (d, table) in self.tables.chunks_exact_mut(stride).enumerate() {
            let (lo, hi) = (offsets[d] as usize, offsets[d + 1] as usize);
            if prefers_scatter(ports, &uop_ports[lo..hi]) {
                table.fill([0.0; LANES]);
                for (p, &count) in uop_ports[lo..hi].iter().zip(&counts[lo..hi]) {
                    let mask = p.mask() as u32;
                    let complement = full & !mask;
                    let mut extra = complement;
                    loop {
                        let s = self.slot_of[(mask | extra) as usize] as usize;
                        table[s / LANES][s % LANES] += count as f32;
                        if extra == 0 {
                            break;
                        }
                        extra = (extra - 1) & complement;
                    }
                }
            } else {
                let natural = &mut self.natural[..size];
                natural.fill(0.0);
                for (p, &count) in uop_ports[lo..hi].iter().zip(&counts[lo..hi]) {
                    natural[p.mask() as usize] += count as f32;
                }
                zeta_transform(natural, ports);
                // Every real slot is overwritten; padding stays zero.
                for (q, &z) in natural.iter().enumerate().skip(1) {
                    let s = self.slot_of[q] as usize;
                    table[s / LANES][s % LANES] = z;
                }
            }
        }
    }

    /// Predicts one experiment row — dense instructions `insts` with
    /// multiplicities `counts` — from the tables of the last
    /// [`build`](Self::build). Every subset mass of the row must be an
    /// integer of at most `2^24` (see [`exact_in_f32`]).
    pub(crate) fn predict_row(&mut self, insts: &[u32], counts: &[f64]) -> f64 {
        let ports = self.ports.expect("build precedes predict_row");
        let stride = self.stride;
        let table = |d: u32| d as usize * stride..(d as usize + 1) * stride;
        let mut best_by_size = [0.0f64; MAX_FACTORED_PORTS + 1];
        match *insts {
            [] => return 0.0,
            [a] => {
                // n · max Z = max n · Z: the products are exact integers.
                let za = &self.tables[table(a)];
                for c in 1..=ports {
                    let g = self.groups[c - 1]..self.groups[c];
                    best_by_size[c] = counts[0] * f64::from(group_max(&za[g]));
                }
            }
            [a, b] => {
                let (za, zb) = (&self.tables[table(a)], &self.tables[table(b)]);
                let (na, nb) = (counts[0] as f32, counts[1] as f32);
                for c in 1..=ports {
                    let g = self.groups[c - 1]..self.groups[c];
                    best_by_size[c] = f64::from(pair_group_max(&za[g.clone()], na, &zb[g], nb));
                }
            }
            [a, b, ..] => {
                if self.acc.len() < stride {
                    self.acc.resize(stride, [0.0; LANES]);
                }
                let acc = &mut self.acc[..stride];
                let (za, zb) = (&self.tables[table(a)], &self.tables[table(b)]);
                let (na, nb) = (counts[0] as f32, counts[1] as f32);
                for ((s, x), y) in acc.iter_mut().zip(za).zip(zb) {
                    for l in 0..LANES {
                        s[l] = na * x[l] + nb * y[l];
                    }
                }
                for (&d, &n) in insts.iter().zip(counts).skip(2) {
                    let n = n as f32;
                    for (s, z) in acc.iter_mut().zip(&self.tables[table(d)]) {
                        for l in 0..LANES {
                            s[l] += n * z[l];
                        }
                    }
                }
                for c in 1..=ports {
                    best_by_size[c] =
                        f64::from(group_max(&acc[self.groups[c - 1]..self.groups[c]]));
                }
            }
        }
        best_quotient(&best_by_size, ports)
    }
}

/// Whether the superset scatter builds a table over `ports` ports from
/// µops on `uops` with fewer additions than the zeta transform.
fn prefers_scatter(ports: usize, uops: &[PortSet]) -> bool {
    let scatter_cost: u64 = uops.iter().map(|p| 1u64 << (ports - p.len())).sum();
    let zeta_cost = ((ports as u64) << ports) / 2;
    scatter_cost <= zeta_cost
}

/// The largest slot of one size group.
fn group_max(group: &[[f32; LANES]]) -> f32 {
    let mut best = [0.0f32; LANES];
    for z in group {
        for l in 0..LANES {
            best[l] = if z[l] > best[l] { z[l] } else { best[l] };
        }
    }
    lane_max(best)
}

/// The largest `na · a + nb · b` over the slots of one size group.
fn pair_group_max(a: &[[f32; LANES]], na: f32, b: &[[f32; LANES]], nb: f32) -> f32 {
    let mut best = [0.0f32; LANES];
    for (x, y) in a.iter().zip(b) {
        for l in 0..LANES {
            let v = na * x[l] + nb * y[l];
            best[l] = if v > best[l] { v } else { best[l] };
        }
    }
    lane_max(best)
}

fn lane_max(lanes: [f32; LANES]) -> f32 {
    lanes
        .into_iter()
        .fold(0.0, |m, v| if v > m { v } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_groups_subsets_by_size_with_padding() {
        let mut t = SubsetTables::default();
        t.set_layout(9);
        // Sizes 1..=9 hold 9, 36, 84, 126, 126, 84, 36, 9, 1 subsets.
        let chunks: Vec<usize> = t.groups.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(chunks, vec![2, 5, 11, 16, 16, 11, 5, 2, 1]);
        assert_eq!(t.stride * LANES, 552);
        // Every non-empty mask has its own slot, inside its size group.
        let mut seen = vec![false; t.stride * LANES];
        for q in 1usize..512 {
            let s = t.slot_of[q] as usize;
            assert!(!seen[s], "slot {s} assigned twice");
            seen[s] = true;
            let c = q.count_ones() as usize;
            assert!((t.groups[c - 1] * LANES..t.groups[c] * LANES).contains(&s));
        }
    }

    #[test]
    fn scatter_and_zeta_builds_agree_with_the_definition() {
        // Per port count, one instruction of narrow µops (zeta build) and
        // one of wide µops (scatter build); both must equal `Z`.
        for ports in 2..=MAX_FACTORED_PORTS {
            let full = (1u64 << ports) - 1;
            let mut narrow: Vec<PortSet> = (0..ports).map(|p| PortSet::from_mask(1 << p)).collect();
            narrow.extend((1..ports).map(|p| PortSet::from_mask(0b11 << (p - 1))));
            let wide = [PortSet::from_mask(full), PortSet::from_mask(full & !1)];
            assert!(!prefers_scatter(ports, &narrow));
            assert!(prefers_scatter(ports, &wide));
            let uop_ports: Vec<PortSet> = narrow.iter().chain(&wide).copied().collect();
            let counts: Vec<f64> = (0..uop_ports.len()).map(|i| (i + 1) as f64).collect();
            let offsets = [0, narrow.len() as u32, uop_ports.len() as u32];
            let mut t = SubsetTables::default();
            t.build(ports, &offsets, &uop_ports, &counts);
            for d in 0..2 {
                let (lo, hi) = (offsets[d] as usize, offsets[d + 1] as usize);
                for q in 1..=full {
                    let want: f64 = (lo..hi)
                        .filter(|&u| uop_ports[u].mask() & !q == 0)
                        .map(|u| counts[u])
                        .sum();
                    let want = want as f32;
                    let s = t.slot_of[q as usize] as usize;
                    assert_eq!(t.tables[d * t.stride + s / LANES][s % LANES], want);
                }
            }
        }
    }

    /// Tables of equal total length but another layout (5 instructions
    /// on 4 ports, then 2 on 6 ports: 20 chunks each) must not leak
    /// stale values into the new layout's padding.
    #[test]
    fn padding_stays_zero_across_layouts() {
        // Every real 4-port slot holds mass: four single-port µops each.
        let mut t = SubsetTables::default();
        let singles: Vec<PortSet> = (0..20).map(|i| PortSet::from_mask(1 << (i % 4))).collect();
        t.build(4, &[0, 4, 8, 12, 16, 20], &singles, &[7.0; 20]);
        assert_eq!(t.tables.len(), 20);
        // Narrow µops, so both instructions take the zeta build, which
        // writes real slots only.
        let mut narrow: Vec<PortSet> = (0..6).map(|p| PortSet::from_mask(1 << p)).collect();
        narrow.extend((1..6).map(|p| PortSet::from_mask(0b11 << (p - 1))));
        assert!(!prefers_scatter(6, &narrow));
        let uops: Vec<PortSet> = narrow.iter().chain(&narrow).copied().collect();
        t.build(6, &[0, 11, 22], &uops, &[1.0; 22]);
        assert_eq!(t.tables.len(), 20);
        let real: Vec<usize> = t.slot_of[1..].iter().map(|&s| s as usize).collect();
        for d in 0..2 {
            for s in (0..t.stride * LANES).filter(|s| !real.contains(s)) {
                assert_eq!(
                    t.tables[d * t.stride + s / LANES][s % LANES],
                    0.0,
                    "padding slot {s}"
                );
            }
        }
    }

    #[test]
    fn exactness_guard_stops_at_two_to_the_24() {
        assert!(exact_in_f32(1 << 12, 1 << 12));
        assert!(!exact_in_f32(1 << 12, (1 << 12) + 1));
        assert!(exact_in_f32(1, 1 << 24));
        assert!(!exact_in_f32(1, (1 << 24) + 1));
        assert!(!exact_in_f32(u64::MAX, u64::MAX));
        assert!(exact_in_f32(0, u64::MAX));
        // The bound is tight: 2^24 + 1 is the first integer `f32` rounds.
        assert_eq!((1u32 << 24) as f32 as u32, 1 << 24);
        assert_ne!(((1u32 << 24) + 1) as f32 as u32, (1 << 24) + 1);
    }
}
