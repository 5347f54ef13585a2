//! Port mappings in the two-level and three-level models (paper §3).

use crate::bottleneck_impl::{throughput_fast, MassVector};
use crate::{Experiment, InstId, PortSet, MAX_PORTS};
use rand::Rng;

/// One edge bundle of the three-level mapping: `count` instances of the
/// µop executable on `ports` (a labeled edge `(i, n, u)` of paper
/// Definition 4, with the instruction implicit in the containing table).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash,
)]
pub struct UopEntry {
    /// Multiplicity `n` of the µop in the instruction's decomposition.
    pub count: u32,
    /// The port set identifying the µop.
    pub ports: PortSet,
}

impl UopEntry {
    /// Creates an entry of `count` µops executable on `ports`.
    pub fn new(count: u32, ports: PortSet) -> Self {
        UopEntry { count, ports }
    }
}

/// A port mapping in the two-level model: each instruction maps directly
/// to the set of ports able to execute it (paper Definition 2).
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, PortSet, TwoLevelMapping};
///
/// // Two instructions: i0 on port 0 only, i1 on ports {0, 1}.
/// let m = TwoLevelMapping::new(2, vec![
///     PortSet::from_ports(&[0]),
///     PortSet::from_ports(&[0, 1]),
/// ]);
/// let e = Experiment::from_counts(&[(InstId(0), 1), (InstId(1), 1)]);
/// assert_eq!(m.throughput(&e), 1.0); // i1 moves to port 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelMapping {
    num_ports: usize,
    ports_of: Vec<PortSet>,
}

impl TwoLevelMapping {
    /// Creates a mapping over `num_ports` ports with the given
    /// per-instruction port sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_ports > MAX_PORTS` or any port set mentions a port
    /// `>= num_ports`.
    pub fn new(num_ports: usize, ports_of: Vec<PortSet>) -> Self {
        assert!(num_ports <= MAX_PORTS, "{num_ports} ports out of range");
        let valid = PortSet::first_n(num_ports);
        for (i, ps) in ports_of.iter().enumerate() {
            assert!(
                ps.is_subset_of(valid),
                "instruction {i} uses ports {ps} outside the {num_ports}-port machine"
            );
        }
        TwoLevelMapping { num_ports, ports_of }
    }

    /// Number of ports of the machine.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Number of instructions covered by the mapping.
    pub fn num_insts(&self) -> usize {
        self.ports_of.len()
    }

    /// The ports able to execute `inst` (paper's `Ports(m, i)`).
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn ports_of(&self, inst: InstId) -> PortSet {
        self.ports_of[inst.index()]
    }

    /// The optimal-scheduler throughput `t*_m(e)` of `e` under this
    /// mapping, computed with the bottleneck simulation algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `e` references an instruction outside the mapping.
    pub fn throughput(&self, e: &Experiment) -> f64 {
        let mut masses = MassVector::new();
        for (inst, n) in e.iter() {
            masses.add(self.ports_of(inst), f64::from(n));
        }
        throughput_fast(&masses)
    }
}

/// A port mapping in the three-level model: instructions decompose into
/// µops, which map to ports (paper Definition 4).
///
/// The decomposition table stores, for each instruction, the list of
/// `(count, port set)` bundles. µops are identified by their port set, and
/// the table keeps entries of one instruction sorted by port set with
/// duplicates merged, so structural equality is semantic equality. All
/// bundles live in one buffer, instruction after instruction, with each
/// instruction's end in a second one: a mapping is two allocations
/// however many instructions it covers.
///
/// # Example
///
/// The paper's Figure 4 mapping, where `store` decomposes into two
/// different µops:
///
/// ```
/// use pmevo_core::{Experiment, InstId, PortSet, ThreeLevelMapping, UopEntry};
///
/// let u1 = PortSet::from_ports(&[0]);      // U1 -> P1
/// let u2 = PortSet::from_ports(&[0, 1]);   // U2 -> P1, P2
/// let u3 = PortSet::from_ports(&[2]);      // U3 -> P3
/// let m = ThreeLevelMapping::new(3, vec![
///     vec![UopEntry::new(2, u1)],                        // mul = 2×U1
///     vec![UopEntry::new(1, u2)],                        // add = U2
///     vec![UopEntry::new(1, u2)],                        // sub = U2
///     vec![UopEntry::new(1, u2), UopEntry::new(1, u3)],  // store = U2 + U3
/// ]);
/// let e = Experiment::from_counts(&[(InstId(0), 1), (InstId(3), 1)]);
/// assert_eq!(m.throughput(&e), 2.0); // both mul µops pile on P1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreeLevelMapping {
    num_ports: usize,
    /// Every instruction's normalized bundles, in instruction order.
    entries: Vec<UopEntry>,
    /// Instruction `i`'s bundles are `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
}

impl ThreeLevelMapping {
    /// Creates a three-level mapping over `num_ports` ports.
    ///
    /// Each inner vector is the µop decomposition of one instruction.
    /// Entries are normalized (sorted by port set, duplicates merged,
    /// zero counts and empty port sets dropped).
    ///
    /// # Panics
    ///
    /// Panics if `num_ports > MAX_PORTS` or an entry mentions a port
    /// `>= num_ports`.
    pub fn new(num_ports: usize, decomp: Vec<Vec<UopEntry>>) -> Self {
        assert!(num_ports <= MAX_PORTS, "{num_ports} ports out of range");
        let valid = PortSet::first_n(num_ports);
        let mut entries = Vec::with_capacity(decomp.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(decomp.len() + 1);
        offsets.push(0);
        for row in decomp {
            entries.extend(Self::normalize_entries(row, valid));
            offsets.push(Self::offset(entries.len()));
        }
        ThreeLevelMapping {
            num_ports,
            entries,
            offsets,
        }
    }

    fn normalize_entries(mut entries: Vec<UopEntry>, valid: PortSet) -> Vec<UopEntry> {
        for e in &entries {
            assert!(
                e.ports.is_subset_of(valid),
                "µop ports {} outside the machine's port set {valid}",
                e.ports
            );
        }
        entries.retain(|e| e.count > 0 && !e.ports.is_empty());
        entries.sort_unstable_by_key(|e| e.ports);
        entries.dedup_by(|later, earlier| {
            if later.ports == earlier.ports {
                earlier.count += later.count;
                true
            } else {
                false
            }
        });
        entries
    }

    fn offset(len: usize) -> u32 {
        u32::try_from(len).expect("more than u32::MAX µop bundles in one mapping")
    }

    /// Number of ports of the machine.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Number of instructions covered by the mapping.
    pub fn num_insts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The µop decomposition of `inst`.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn decomposition(&self, inst: InstId) -> &[UopEntry] {
        let i = inst.index();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// All decompositions, in instruction-id order.
    pub fn decompositions(&self) -> impl ExactSizeIterator<Item = &[UopEntry]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.entries[w[0] as usize..w[1] as usize])
    }

    /// Replaces the decomposition of `inst` (re-normalizing it).
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range or entries mention invalid ports.
    pub fn set_decomposition(&mut self, inst: InstId, entries: Vec<UopEntry>) {
        let valid = PortSet::first_n(self.num_ports);
        let entries = Self::normalize_entries(entries, valid);
        let i = inst.index();
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        let new_end = Self::offset(start as usize + entries.len());
        self.entries.splice(start as usize..end as usize, entries);
        for offset in &mut self.offsets[i + 1..] {
            *offset = *offset - end + new_end;
        }
    }

    /// The µop volume `V(m) = Σ n · |u|` (paper §4.4), the compactness
    /// objective of the evolutionary algorithm.
    pub fn volume(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| u64::from(e.count) * e.ports.len() as u64)
            .sum()
    }

    /// Number of *distinct* µops (distinct port sets) used anywhere in the
    /// mapping — the "number of µops" column of paper Table 2.
    pub fn num_distinct_uops(&self) -> usize {
        let mut sets: Vec<PortSet> = self.entries.iter().map(|e| e.ports).collect();
        sets.sort_unstable();
        sets.dedup();
        sets.len()
    }

    /// Total number of µop instances of one `inst` instance.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is out of range.
    pub fn num_uops_of(&self, inst: InstId) -> u32 {
        self.decomposition(inst).iter().map(|e| e.count).sum()
    }

    /// Reduces `e` to the µop multiset of the two-level model: the
    /// experiment `e' = {u ↦ Σ_(i,n,u)∈N e(i)·n}` of paper §3.2.
    ///
    /// # Panics
    ///
    /// Panics if `e` references an instruction outside the mapping.
    pub fn uop_masses(&self, e: &Experiment) -> MassVector {
        let mut masses = MassVector::new();
        for (inst, n) in e.iter() {
            for entry in self.decomposition(inst) {
                masses.add(entry.ports, f64::from(n) * f64::from(entry.count));
            }
        }
        masses
    }

    /// The optimal-scheduler throughput `t*_m(e)` under this mapping,
    /// computed by reduction to the two-level model and the bottleneck
    /// simulation algorithm (paper §3.2 + §4.5).
    ///
    /// # Panics
    ///
    /// Panics if `e` references an instruction outside the mapping.
    pub fn throughput(&self, e: &Experiment) -> f64 {
        throughput_fast(&self.uop_masses(e))
    }

    /// Serializes the mapping as compact JSON (`{"num_ports":…,"decomp":…}`,
    /// port sets as raw masks — the shape a serde derive would emit).
    pub fn to_json(&self) -> String {
        crate::json::write_compact(&self.to_json_value())
    }

    /// Serializes the mapping as 2-space-indented JSON.
    pub fn to_json_pretty(&self) -> String {
        crate::json::write_pretty(&self.to_json_value())
    }

    /// The mapping as a [`crate::json::Value`] tree, for embedding into
    /// larger documents (session reports, artifact bundles).
    pub fn to_json_value(&self) -> crate::json::Value {
        use crate::json::Value;
        let decomp = self
            .decompositions()
            .map(|entries| {
                Value::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("count".into(), Value::UInt(u64::from(e.count))),
                                ("ports".into(), Value::UInt(e.ports.mask())),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        Value::Obj(vec![
            ("num_ports".into(), Value::UInt(self.num_ports as u64)),
            ("decomp".into(), Value::Arr(decomp)),
        ])
    }

    /// Parses a mapping from the JSON produced by [`Self::to_json`] /
    /// [`Self::to_json_pretty`], re-validating and re-normalizing it.
    pub fn from_json(input: &str) -> Result<Self, MappingJsonError> {
        let doc = crate::json::parse(input).map_err(MappingJsonError::Parse)?;
        Self::from_json_value(&doc)
    }

    /// Reads a mapping from an already-parsed [`crate::json::Value`]
    /// tree (the inverse of [`Self::to_json_value`]).
    pub fn from_json_value(doc: &crate::json::Value) -> Result<Self, MappingJsonError> {
        let shape = |what: &str| MappingJsonError::Shape(what.to_owned());
        let num_ports = doc
            .get("num_ports")
            .and_then(|v| v.as_u64())
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| shape("missing integer field `num_ports`"))?;
        if num_ports > MAX_PORTS {
            return Err(shape(&format!("num_ports {num_ports} exceeds {MAX_PORTS}")));
        }
        let valid = PortSet::first_n(num_ports);
        let rows = doc
            .get("decomp")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| shape("missing array field `decomp`"))?;
        let mut decomp = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let entries = row
                .as_arr()
                .ok_or_else(|| shape(&format!("decomp[{i}] is not an array")))?;
            let mut parsed = Vec::with_capacity(entries.len());
            for entry in entries {
                let count = entry
                    .get("count")
                    .and_then(|v| v.as_u64())
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| shape(&format!("decomp[{i}]: bad `count`")))?;
                let mask = entry
                    .get("ports")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| shape(&format!("decomp[{i}]: bad `ports`")))?;
                let ports = PortSet::from_mask(mask);
                if !ports.is_subset_of(valid) {
                    return Err(shape(&format!(
                        "decomp[{i}]: ports {ports} outside the {num_ports}-port machine"
                    )));
                }
                parsed.push(UopEntry::new(count, ports));
            }
            decomp.push(parsed);
        }
        Ok(ThreeLevelMapping::new(num_ports, decomp))
    }

    /// Samples a random mapping as in the paper's population
    /// initialization (§4.4): for each instruction, 1 to `|P|` distinct
    /// random µops, each with multiplicity in `[1, ⌈t*(i) · |u|⌉]` where
    /// `t*(i)` is the measured individual throughput of the instruction.
    ///
    /// # Panics
    ///
    /// Panics if `indiv_throughput.len()` disagrees with `num_insts`, if
    /// `num_ports` is 0 or `> MAX_PORTS`.
    pub fn sample_random<R: Rng + ?Sized>(
        rng: &mut R,
        num_insts: usize,
        num_ports: usize,
        indiv_throughput: &[f64],
    ) -> Self {
        assert!(num_ports > 0 && num_ports <= MAX_PORTS);
        assert_eq!(indiv_throughput.len(), num_insts);
        let full = PortSet::first_n(num_ports).mask();
        let decomp = (0..num_insts)
            .map(|i| {
                let num_uops = rng.gen_range(1..=num_ports);
                let mut entries = Vec::with_capacity(num_uops);
                for _ in 0..num_uops {
                    // Random non-empty subset of the machine's ports.
                    let ports = loop {
                        let mask = rng.gen::<u64>() & full;
                        if mask != 0 {
                            break PortSet::from_mask(mask);
                        }
                    };
                    let width = ports.len() as f64;
                    let hi = (indiv_throughput[i] * width).ceil().max(1.0) as u32;
                    entries.push(UopEntry::new(rng.gen_range(1..=hi), ports));
                }
                entries
            })
            .collect();
        ThreeLevelMapping::new(num_ports, decomp)
    }
}

/// Failure to read a [`ThreeLevelMapping`] from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingJsonError {
    /// The input was not valid JSON.
    Parse(crate::json::ParseError),
    /// The JSON was valid but not a mapping of the expected shape.
    Shape(String),
}

impl std::fmt::Display for MappingJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingJsonError::Parse(e) => write!(f, "{e}"),
            MappingJsonError::Shape(msg) => write!(f, "invalid mapping JSON: {msg}"),
        }
    }
}

impl std::error::Error for MappingJsonError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure4_mapping() -> ThreeLevelMapping {
        let u1 = PortSet::from_ports(&[0]);
        let u2 = PortSet::from_ports(&[0, 1]);
        let u3 = PortSet::from_ports(&[2]);
        ThreeLevelMapping::new(
            3,
            vec![
                vec![UopEntry::new(2, u1)],
                vec![UopEntry::new(1, u2)],
                vec![UopEntry::new(1, u2)],
                vec![UopEntry::new(1, u2), UopEntry::new(1, u3)],
            ],
        )
    }

    #[test]
    fn two_level_example1_throughput() {
        // Figure 2 / Example 1 of the paper.
        let m = TwoLevelMapping::new(
            3,
            vec![
                PortSet::from_ports(&[0]),
                PortSet::from_ports(&[0, 1]),
                PortSet::from_ports(&[0, 1]),
                PortSet::from_ports(&[2]),
            ],
        );
        let e = Experiment::from_counts(&[(InstId(1), 2), (InstId(0), 1), (InstId(3), 1)]);
        assert!((m.throughput(&e) - 1.5).abs() < 1e-12);
        assert_eq!(m.num_ports(), 3);
        assert_eq!(m.num_insts(), 4);
        assert_eq!(m.ports_of(InstId(0)), PortSet::from_ports(&[0]));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn two_level_rejects_out_of_range_ports() {
        TwoLevelMapping::new(2, vec![PortSet::from_ports(&[5])]);
    }

    #[test]
    fn three_level_volume_and_uops() {
        let m = figure4_mapping();
        // V = 2*1 (mul) + 1*2 (add) + 1*2 (sub) + 1*2 + 1*1 (store) = 9
        assert_eq!(m.volume(), 9);
        assert_eq!(m.num_distinct_uops(), 3);
        assert_eq!(m.num_uops_of(InstId(0)), 2);
        assert_eq!(m.num_uops_of(InstId(3)), 2);
    }

    #[test]
    fn three_level_throughputs_match_paper_intuition() {
        let m = figure4_mapping();
        // A single mul has 2 µops on one port: throughput 2.
        assert_eq!(m.throughput(&Experiment::singleton(InstId(0))), 2.0);
        // add+sub share two ports: 1 cycle.
        assert_eq!(
            m.throughput(&Experiment::pair(InstId(1), 1, InstId(2), 1)),
            1.0
        );
        // store alone: its two µops go to different ports.
        assert_eq!(m.throughput(&Experiment::singleton(InstId(3))), 1.0);
    }

    #[test]
    fn normalization_merges_duplicate_uops() {
        let u = PortSet::from_ports(&[0, 1]);
        let m = ThreeLevelMapping::new(
            2,
            vec![vec![
                UopEntry::new(1, u),
                UopEntry::new(2, u),
                UopEntry::new(0, PortSet::from_ports(&[0])),
                UopEntry::new(3, PortSet::EMPTY),
            ]],
        );
        assert_eq!(m.decomposition(InstId(0)), &[UopEntry::new(3, u)]);
    }

    #[test]
    fn set_decomposition_renormalizes() {
        let mut m = figure4_mapping();
        let u = PortSet::from_ports(&[1]);
        m.set_decomposition(InstId(0), vec![UopEntry::new(1, u), UopEntry::new(1, u)]);
        assert_eq!(m.decomposition(InstId(0)), &[UopEntry::new(2, u)]);
    }

    #[test]
    fn set_decomposition_grows_and_shrinks_a_middle_instruction() {
        let (p0, p1, p2) = (
            PortSet::from_ports(&[0]),
            PortSet::from_ports(&[1]),
            PortSet::from_ports(&[2]),
        );
        let rows = |middle: Vec<UopEntry>| {
            vec![
                vec![UopEntry::new(2, p0)],
                middle,
                vec![UopEntry::new(1, p1), UopEntry::new(1, p2)],
                vec![UopEntry::new(1, p0)],
            ]
        };
        let mut m = ThreeLevelMapping::new(3, rows(vec![UopEntry::new(1, p1)]));
        let grown = vec![
            UopEntry::new(1, p2),
            UopEntry::new(3, p0),
            UopEntry::new(1, p1),
        ];
        m.set_decomposition(InstId(1), grown.clone());
        assert_eq!(m, ThreeLevelMapping::new(3, rows(grown)));
        assert_eq!(m.decomposition(InstId(1)).len(), 3);
        let shrunk = vec![UopEntry::new(4, p2)];
        m.set_decomposition(InstId(1), shrunk.clone());
        assert_eq!(m, ThreeLevelMapping::new(3, rows(shrunk)));
        assert_eq!(m.decomposition(InstId(2)).len(), 2);
        assert_eq!(m.decomposition(InstId(3)), &[UopEntry::new(1, p0)]);
        assert_eq!(m.decompositions().len(), 4);
    }

    #[test]
    fn uop_mass_reduction_matches_section_3_2() {
        let m = figure4_mapping();
        let e = Experiment::from_counts(&[(InstId(0), 2), (InstId(3), 1)]);
        let masses = m.uop_masses(&e);
        // 2 muls contribute 4×U1; the store contributes 1×U2, 1×U3.
        let items: Vec<(PortSet, f64)> = masses.iter().collect();
        assert!(items.contains(&(PortSet::from_ports(&[0]), 4.0)));
        assert!(items.contains(&(PortSet::from_ports(&[0, 1]), 1.0)));
        assert!(items.contains(&(PortSet::from_ports(&[2]), 1.0)));
    }

    #[test]
    fn sample_random_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let tps = vec![1.0, 2.5, 0.5];
        let m = ThreeLevelMapping::sample_random(&mut rng, 3, 4, &tps);
        assert_eq!(m.num_insts(), 3);
        assert_eq!(m.num_ports(), 4);
        for i in 0..3 {
            let entries = m.decomposition(InstId(i as u32));
            assert!(!entries.is_empty());
            for e in entries {
                assert!(e.count >= 1);
                let hi = (tps[i] * e.ports.len() as f64).ceil().max(1.0) as u32;
                assert!(e.count <= hi, "count {} > bound {hi}", e.count);
                assert!(!e.ports.is_empty());
                assert!(e.ports.is_subset_of(PortSet::first_n(4)));
            }
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = figure4_mapping();
        for json in [m.to_json(), m.to_json_pretty()] {
            let back = ThreeLevelMapping::from_json(&json).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn json_rejects_garbage_and_bad_shapes() {
        assert!(matches!(
            ThreeLevelMapping::from_json("not json"),
            Err(MappingJsonError::Parse(_))
        ));
        assert!(matches!(
            ThreeLevelMapping::from_json("{\"decomp\":[]}"),
            Err(MappingJsonError::Shape(_))
        ));
        // Ports outside the declared machine must not pass validation.
        assert!(matches!(
            ThreeLevelMapping::from_json(
                "{\"num_ports\":2,\"decomp\":[[{\"count\":1,\"ports\":8}]]}"
            ),
            Err(MappingJsonError::Shape(_))
        ));
    }
}
