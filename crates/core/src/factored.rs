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
//! candidate, with its per-size maxima `S_i[c] = max_{|Q| = c} Z_i[Q]`,
//! and then scores each experiment row from the tables — no
//! per-experiment mass aggregation and no per-experiment zeta transform.
//!
//! **Bounds.** A maximum of a sum is at most the sum of the maxima, so
//! the largest row mass of size `c`, `M_c = max_{|Q| = c} m_e(Q)`, is at
//! most `B_c = Σ_t n_t · S_{i_t}[c]`. The full port set `P` is the only
//! subset of its size, so `B_|P| = M_|P|`: a row starts from that exact
//! quotient and scans the subsets of size `c` only when `B_c / c` is
//! above its best quotient so far. A one-term row has `B_c = M_c` and
//! scans nothing. Skipping is exact in any visiting order: a skipped
//! size has `M_c / c ≤ B_c / c ≤` a quotient already found. Sizes are
//! visited in ascending order, which finds small bottleneck sets (two
//! loads on two load ports) before the large sizes, whose bounds then
//! fall short.
//!
//! **Invariant: small integer masses.** Every `n_t` and every `count(u)`
//! is a `u32`, so every table entry, every product `n_t · Z`, every row
//! sum and every bound is an integer. The tables hold `f32`: when the
//! largest possible experiment mass fits in `2^24` (checked by the
//! caller before it takes this path, see [`exact_in_f32`]), every one of
//! those integers is exact in `f32` whatever the addition order. A row
//! keeps its best quotient as a fraction of such integers and compares
//! fractions by cross-multiplying in `f64` (products below `2^28`, so
//! exact); the one division at the end rounds the exact largest
//! quotient. The per-experiment kernel sums the same integers in `f64`
//! and takes the largest of its rounded per-size quotients, which is the
//! same number, because rounded division is monotone. Subsets that
//! include ports no µop of the experiment can use never raise the result
//! either: dropping those ports keeps the mass and shrinks `|Q|`. So
//! every prediction has the bits of the per-experiment path, which
//! enumerates the live ports only.
//!
//! **Layout.** The `2^|P| − 1` non-empty subsets are grouped by size,
//! each group zero-padded to a multiple of [`LANES`] slots, so every
//! per-size maximum is a fixed-width `[f32; LANES]` loop (zero padding
//! cannot raise a maximum of non-negative masses). On a 9-port machine
//! the 511 subsets take 552 slots, 2.2 KiB per instruction.

use crate::bottleneck_impl::zeta_transform;
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
/// count, the per-instruction tables and maxima of the current
/// candidate, and the scratch of the table build and of long rows.
/// Allocation-free once grown to the largest sizes seen.
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
    /// Per-size maxima of every table: `size_max[d][c]` is
    /// `S_d[c] = max_{|Q| = c} Z_d[Q]`, for sizes `1..=ports`.
    size_max: Vec<[f32; MAX_FACTORED_PORTS + 1]>,
    /// Mask-indexed buffer of the zeta build.
    natural: Vec<f32>,
    /// Row sums of one size group, for rows of three or more terms.
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

    /// Builds `Z_d` and its per-size maxima `S_d` for every dense
    /// instruction `d` of a loaded mapping over `ports` ports:
    /// `offsets[d]..offsets[d + 1]` delimit its µops in `uop_ports` and
    /// `counts`. Every count must be an integer of at most `2^24`, so the
    /// `f32` casts are exact.
    ///
    /// Per instruction the cheaper of two exact builds runs: a superset
    /// scatter (`Σ_u 2^(|P| − |u|)` additions) or a zeta transform over a
    /// mask-indexed buffer (`|P| · 2^(|P| − 1)` additions) followed by a
    /// copy into the grouped layout. One pass over the finished table
    /// then takes its maxima.
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
        self.size_max.resize(insts, [0.0; MAX_FACTORED_PORTS + 1]);
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
            let size_max = &mut self.size_max[d];
            for c in 1..=ports {
                size_max[c] = group_max(&table[self.groups[c - 1]..self.groups[c]]);
            }
        }
    }

    /// Predicts one experiment row — dense instructions `insts` with
    /// multiplicities `counts` — from the tables and maxima of the last
    /// [`build`](Self::build). Every subset mass of the row must be an
    /// integer of at most `2^24` (see [`exact_in_f32`]).
    ///
    /// The row starts from its mass on the full port set and scans the
    /// subsets of size `c` only when the bound `B_c = Σ_t n_t · S_t[c]`
    /// gives `B_c / c` above the best quotient so far (see the module
    /// docs). A one-term row scans nothing: its bounds are its maxima.
    pub(crate) fn predict_row(&mut self, insts: &[u32], counts: &[f64]) -> f64 {
        let ports = self.ports.expect("build precedes predict_row");
        let mut bound = [0.0f32; MAX_FACTORED_PORTS + 1];
        for (&d, &n) in insts.iter().zip(counts) {
            let n = n as f32;
            for (b, &s) in bound.iter_mut().zip(&self.size_max[d as usize]) {
                *b += n * s;
            }
        }
        // The full port set is the only subset of its size, so its bound
        // is the row's exact mass there. The best quotient so far is kept
        // as `best_mass / best_size` and compared by cross-multiplying:
        // every product is an integer below 2^28, exact in `f64`.
        let (mut best_mass, mut best_size) = (f64::from(bound[ports]), ports as f64);
        for c in 1..ports {
            let (b, size) = (f64::from(bound[c]), c as f64);
            if b * best_size <= best_mass * size {
                continue;
            }
            let m = if insts.len() == 1 {
                b
            } else {
                f64::from(self.row_group_max(insts, counts, c))
            };
            if m * best_size > best_mass * size {
                (best_mass, best_size) = (m, size);
            }
        }
        best_mass / best_size
    }

    /// The largest row mass `Σ_t n_t · Z_t[Q]` over the subsets `Q` of
    /// size `c`: a fused loop for two terms, and a sum into scratch for
    /// more.
    fn row_group_max(&mut self, insts: &[u32], counts: &[f64], c: usize) -> f32 {
        let g = self.groups[c - 1]..self.groups[c];
        let at = |d: u32| d as usize * self.stride;
        let group = |d: u32| &self.tables[at(d) + g.start..at(d) + g.end];
        if let [a, b] = *insts {
            return pair_group_max(group(a), counts[0] as f32, group(b), counts[1] as f32);
        }
        if self.acc.len() < g.len() {
            self.acc.resize(g.len(), [0.0; LANES]);
        }
        let acc = &mut self.acc[..g.len()];
        acc.fill([0.0; LANES]);
        for (&d, &n) in insts.iter().zip(counts) {
            let n = n as f32;
            for (s, z) in acc.iter_mut().zip(group(d)) {
                for l in 0..LANES {
                    s[l] += n * z[l];
                }
            }
        }
        group_max(acc)
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
    use crate::{Experiment, InstId, ThreeLevelMapping, UopEntry};

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

    /// Tables of `m`, dense instruction `d` being `InstId(d)`.
    fn tables_of(m: &ThreeLevelMapping) -> SubsetTables {
        let (mut offsets, mut uop_ports, mut counts) = (vec![0], Vec::new(), Vec::new());
        for i in 0..m.num_insts() {
            for e in m.decomposition(InstId(i as u32)) {
                uop_ports.push(e.ports);
                counts.push(f64::from(e.count));
            }
            offsets.push(uop_ports.len() as u32);
        }
        let mut t = SubsetTables::default();
        t.build(m.num_ports(), &offsets, &uop_ports, &counts);
        t
    }

    /// Overwrites every slot of size `c` in every table, but not the
    /// maxima, with a mass above any row's: a row that scans size `c`
    /// then predicts too much.
    fn poison_size(t: &mut SubsetTables, c: usize) {
        let g = t.groups[c - 1]..t.groups[c];
        for table in t.tables.chunks_exact_mut(t.stride) {
            table[g.clone()].fill([1e6; LANES]);
        }
    }

    /// Predicts `row` from `t` and checks it against
    /// `ThreeLevelMapping::throughput` bit for bit.
    fn check_row(t: &mut SubsetTables, m: &ThreeLevelMapping, row: &[(u32, u32)]) -> f64 {
        let insts: Vec<u32> = row.iter().map(|&(d, _)| d).collect();
        let counts: Vec<f64> = row.iter().map(|&(_, n)| f64::from(n)).collect();
        let got = t.predict_row(&insts, &counts);
        let e: Vec<(InstId, u32)> = row.iter().map(|&(d, n)| (InstId(d), n)).collect();
        let want = m.throughput(&Experiment::from_counts(&e));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "row {row:?}: {got} != {want}"
        );
        got
    }

    fn nine_ports(decomp: &[&[(u32, &[usize])]]) -> ThreeLevelMapping {
        let decomp = decomp
            .iter()
            .map(|uops| {
                uops.iter()
                    .map(|&(n, ports)| UopEntry::new(n, PortSet::from_ports(ports)))
                    .collect()
            })
            .collect();
        ThreeLevelMapping::new(9, decomp)
    }

    /// Two loads on `{2, 3}` beside ALU µops on `{0, 1, 5, 6}`: the
    /// quotient peaks at size 2, whose bound beats the full set's 1/3,
    /// and bounds rule out size 1 and every size above 2.
    #[test]
    fn a_small_size_bottleneck_skips_every_larger_size() {
        let alu: &[(u32, &[usize])] = &[(1, &[0, 1, 5, 6])];
        let load: &[(u32, &[usize])] = &[(1, &[2, 3])];
        let m = nine_ports(&[alu, load, alu]);
        let mut t = tables_of(&m);
        for c in [1, 3, 4, 5, 6, 7, 8] {
            poison_size(&mut t, c);
        }
        assert_eq!(check_row(&mut t, &m, &[(0, 1), (1, 2)]), 1.0);
        assert_eq!(check_row(&mut t, &m, &[(0, 1), (2, 1), (1, 4)]), 2.0);
    }

    /// Nine µops on every port outweigh the narrow ones: no bound beats
    /// the full set's 11/9, so no size is scanned.
    #[test]
    fn a_full_set_bottleneck_skips_every_other_size() {
        let wide: &[(u32, &[usize])] = &[(9, &[0, 1, 2, 3, 4, 5, 6, 7, 8]), (1, &[0, 1])];
        let m = nine_ports(&[wide, &[(1, &[2, 3, 4, 5, 6, 7, 8])]]);
        let mut t = tables_of(&m);
        for c in 1..9 {
            poison_size(&mut t, c);
        }
        assert_eq!(check_row(&mut t, &m, &[(0, 1), (1, 1)]), 11.0 / 9.0);
    }

    /// The bound of size 3 is one µop on `{0, 1, 2}`, 1/3, equal to the
    /// full set's 3/9: a size whose bound only ties is skipped.
    #[test]
    fn a_bound_equal_to_the_best_quotient_skips_its_size() {
        let m = nine_ports(&[&[(1, &[0, 1, 2])], &[(2, &[3, 4, 5, 6, 7, 8])]]);
        let mut t = tables_of(&m);
        poison_size(&mut t, 3);
        assert_eq!(check_row(&mut t, &m, &[(0, 1), (1, 1)]), 1.0 / 3.0);
    }

    /// A one-term row is served from its maxima: no slot is read.
    #[test]
    fn a_one_term_row_reads_the_maxima_alone() {
        let m = nine_ports(&[&[(2, &[2, 3]), (1, &[0, 1, 5, 6]), (1, &[4])]]);
        let mut t = tables_of(&m);
        for c in 1..=9 {
            poison_size(&mut t, c);
        }
        assert_eq!(check_row(&mut t, &m, &[(0, 3)]), 3.0);
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
