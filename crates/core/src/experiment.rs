//! Experiments: multisets of instructions with measured throughputs.

use crate::json::Value;
use crate::InstId;
use std::fmt;

/// A multiset of instructions, the unit of measurement and prediction.
///
/// Following paper §3.1, an experiment abstracts from instruction order
/// because PMEvo only uses sequences the scheduler may reorder freely. The
/// representation is a sorted, duplicate-merged list of
/// `(instruction, count)` pairs, so structurally equal multisets compare
/// equal.
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId};
///
/// let e = Experiment::from_counts(&[(InstId(3), 1), (InstId(1), 2), (InstId(3), 1)]);
/// assert_eq!(e.count_of(InstId(3)), 2);
/// assert_eq!(e.total_insts(), 4);
/// assert_eq!(e.num_distinct(), 2);
/// ```
#[derive(
    Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash,
)]
pub struct Experiment {
    counts: Vec<(InstId, u32)>,
}

impl Experiment {
    /// Creates an experiment from `(instruction, count)` pairs.
    ///
    /// Pairs are sorted and duplicates merged; zero counts are dropped.
    pub fn from_counts(counts: &[(InstId, u32)]) -> Self {
        let mut v: Vec<(InstId, u32)> = counts.iter().copied().filter(|&(_, n)| n > 0).collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        v.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        Experiment { counts: v }
    }

    /// The singleton experiment `{inst ↦ 1}` used for individual
    /// throughput measurement (paper §4.1, experiment kind 1).
    pub fn singleton(inst: InstId) -> Self {
        Experiment {
            counts: vec![(inst, 1)],
        }
    }

    /// The pair experiment `{a ↦ m, b ↦ n}` (paper §4.1, kinds 2 and 3).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; use [`from_counts`](Self::from_counts) for
    /// self-pairs.
    pub fn pair(a: InstId, m: u32, b: InstId, n: u32) -> Self {
        assert_ne!(a, b, "pair experiment needs two distinct instructions");
        Experiment::from_counts(&[(a, m), (b, n)])
    }

    /// The sorted `(instruction, count)` pairs.
    pub fn counts(&self) -> &[(InstId, u32)] {
        &self.counts
    }

    /// Multiplicity of `inst` in the experiment (0 if absent).
    pub fn count_of(&self, inst: InstId) -> u32 {
        self.counts
            .binary_search_by_key(&inst, |&(i, _)| i)
            .map(|idx| self.counts[idx].1)
            .unwrap_or(0)
    }

    /// Total number of instruction instances, counting multiplicity.
    pub fn total_insts(&self) -> u32 {
        self.counts.iter().map(|&(_, n)| n).sum()
    }

    /// Number of distinct instruction forms.
    pub fn num_distinct(&self) -> usize {
        self.counts.len()
    }

    /// Whether the experiment contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(instruction, count)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (InstId, u32)> + '_ {
        self.counts.iter().copied()
    }

    /// Returns a copy with every instruction id replaced through `f`.
    ///
    /// Used by congruence filtering to rewrite experiments onto class
    /// representatives; counts of instructions mapped to the same id merge.
    #[must_use]
    pub fn map_insts(&self, mut f: impl FnMut(InstId) -> InstId) -> Experiment {
        let remapped: Vec<(InstId, u32)> = self.counts.iter().map(|&(i, n)| (f(i), n)).collect();
        Experiment::from_counts(&remapped)
    }

    /// The experiment as an array of `[id, count]` pairs.
    pub(crate) fn to_json_value(&self) -> Value {
        let pair = |(i, n): (InstId, u32)| {
            Value::Arr(vec![Value::UInt(u64::from(i.0)), Value::UInt(u64::from(n))])
        };
        Value::Arr(self.iter().map(pair).collect())
    }

    /// Reads an experiment back from [`Self::to_json_value`]'s form,
    /// naming `what` in every error. An empty experiment or a zero count
    /// is rejected: neither describes a loop that can be measured.
    pub(crate) fn from_json_value(v: &Value, what: &str) -> Result<Experiment, String> {
        let rows = v
            .as_arr()
            .ok_or_else(|| format!("{what} must be an array of [inst, count] pairs"))?;
        let mut counts = Vec::with_capacity(rows.len());
        for (k, row) in rows.iter().enumerate() {
            let pair = row
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{what}[{k}] must be an [inst, count] pair"))?;
            let id = pair[0]
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("{what}[{k}] instruction id must be a u32"))?;
            let count = pair[1]
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{what}[{k}] count must be a positive u32"))?;
            counts.push((InstId(id), count));
        }
        if counts.is_empty() {
            return Err(format!("{what} must not be empty"));
        }
        Ok(Experiment::from_counts(&counts))
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, (i, c)) in self.counts.iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}↦{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(InstId, u32)> for Experiment {
    fn from_iter<I: IntoIterator<Item = (InstId, u32)>>(iter: I) -> Self {
        let v: Vec<(InstId, u32)> = iter.into_iter().collect();
        Experiment::from_counts(&v)
    }
}

/// An experiment together with its measured throughput in cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredExperiment {
    /// The instruction multiset that was measured.
    pub experiment: Experiment,
    /// Measured steady-state throughput in cycles per experiment instance
    /// (paper Definition 1).
    pub throughput: f64,
}

impl MeasuredExperiment {
    /// Pairs an experiment with its measured throughput.
    pub fn new(experiment: Experiment, throughput: f64) -> Self {
        MeasuredExperiment {
            experiment,
            throughput,
        }
    }

    /// The row as `{"experiment": [[id, count], …], "throughput": t}`,
    /// the format of measurement artifacts and checkpoints alike.
    pub(crate) fn to_json_value(&self) -> Value {
        Value::Obj(vec![
            ("experiment".into(), self.experiment.to_json_value()),
            ("throughput".into(), Value::Num(self.throughput)),
        ])
    }

    /// Reads a row back from [`Self::to_json_value`]'s form, naming
    /// `what` in every error. The throughput must be positive and finite.
    pub(crate) fn from_json_value(v: &Value, what: &str) -> Result<Self, String> {
        let experiment = v
            .get("experiment")
            .ok_or_else(|| format!("{what} needs a field `experiment`"))
            .and_then(|e| Experiment::from_json_value(e, &format!("{what}.experiment")))?;
        let throughput = match v.get("throughput") {
            Some(&Value::Num(t)) => t,
            Some(&Value::UInt(t)) => t as f64,
            _ => return Err(format!("{what} needs a number field `throughput`")),
        };
        if !(throughput.is_finite() && throughput > 0.0) {
            return Err(format!("{what}.throughput must be positive and finite"));
        }
        Ok(MeasuredExperiment::new(experiment, throughput))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_sorts_merges_and_drops_zero() {
        let e = Experiment::from_counts(&[(InstId(5), 2), (InstId(1), 0), (InstId(5), 1), (InstId(2), 3)]);
        assert_eq!(e.counts(), &[(InstId(2), 3), (InstId(5), 3)]);
        assert_eq!(e.total_insts(), 6);
        assert_eq!(e.num_distinct(), 2);
    }

    #[test]
    fn structural_equality_is_multiset_equality() {
        let a = Experiment::from_counts(&[(InstId(1), 1), (InstId(2), 2)]);
        let b = Experiment::from_counts(&[(InstId(2), 2), (InstId(1), 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_and_pair() {
        let s = Experiment::singleton(InstId(7));
        assert_eq!(s.total_insts(), 1);
        assert_eq!(s.count_of(InstId(7)), 1);
        let p = Experiment::pair(InstId(1), 1, InstId(2), 3);
        assert_eq!(p.count_of(InstId(2)), 3);
        assert_eq!(p.num_distinct(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_rejects_equal_instructions() {
        Experiment::pair(InstId(1), 1, InstId(1), 1);
    }

    #[test]
    fn count_of_absent_is_zero() {
        let e = Experiment::singleton(InstId(0));
        assert_eq!(e.count_of(InstId(9)), 0);
        assert!(!e.is_empty());
        assert!(Experiment::from_counts(&[]).is_empty());
    }

    #[test]
    fn map_insts_merges_collapsed_ids() {
        let e = Experiment::from_counts(&[(InstId(1), 1), (InstId(2), 2)]);
        let m = e.map_insts(|_| InstId(0));
        assert_eq!(m.counts(), &[(InstId(0), 3)]);
    }

    #[test]
    fn display_and_collect() {
        let e: Experiment = [(InstId(0), 1), (InstId(4), 2)].into_iter().collect();
        assert_eq!(e.to_string(), "{i0↦1, i4↦2}");
    }
}
