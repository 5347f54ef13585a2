//! Experiment generation (paper §4.1).
//!
//! Three kinds of experiments are generated from an instruction universe:
//!
//! 1. a singleton `{i ↦ 1}` per instruction form, measuring its
//!    individual throughput `t*(i)`;
//! 2. an unweighted pair `{iA ↦ 1, iB ↦ 1}` per pair of forms;
//! 3. a ratio pair `{iA ↦ 1, iB ↦ n}` with `n = ⌈t*(iA)/t*(iB)⌉` per
//!    pair with `t*(iA) > t*(iB)`, which saturates the faster form's
//!    ports enough to expose partial conflicts.

use pmevo_core::{Experiment, InstId};

/// Generates the experiment sets of paper §4.1.
///
/// # Example
///
/// ```
/// use pmevo_core::InstId;
/// use pmevo_evo::ExperimentGenerator;
///
/// let ids = vec![InstId(0), InstId(1), InstId(2)];
/// let gen = ExperimentGenerator::new(ids);
/// assert_eq!(gen.singletons().len(), 3);
/// // Individual throughputs: i0 twice as slow as i1 => ratio pair {i0, 2×i1}.
/// let pairs = gen.pairs(&[2.0, 1.0, 1.0]);
/// assert!(pairs.len() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentGenerator {
    insts: Vec<InstId>,
}

impl ExperimentGenerator {
    /// Creates a generator over the given instruction universe.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty or contains duplicates.
    pub fn new(insts: Vec<InstId>) -> Self {
        assert!(!insts.is_empty(), "empty instruction universe");
        let mut sorted = insts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), insts.len(), "duplicate instruction ids");
        ExperimentGenerator { insts }
    }

    /// The instruction universe.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// Kind-1 experiments: one singleton per form, in universe order.
    pub fn singletons(&self) -> Vec<Experiment> {
        self.insts.iter().map(|&i| Experiment::singleton(i)).collect()
    }

    /// Kind-2 and kind-3 experiments, given the measured individual
    /// throughputs (indexed like [`insts`](Self::insts)).
    ///
    /// Duplicate experiments (a ratio pair with `n = 1` coincides with
    /// the plain pair) are emitted once. Equivalent to collecting
    /// [`candidates`](Self::candidates), which streams the same
    /// experiments lazily.
    ///
    /// # Panics
    ///
    /// Panics if `indiv_tp` has the wrong length or contains
    /// non-positive values.
    pub fn pairs(&self, indiv_tp: &[f64]) -> Vec<Experiment> {
        self.candidates(indiv_tp).collect()
    }

    /// Streams the kind-2 and kind-3 pair experiments lazily, in the
    /// same deterministic order [`pairs`](Self::pairs) materializes
    /// them: for every unordered pair (universe order) the plain pair,
    /// then the ratio pair when its multiplier exceeds 1.
    ///
    /// This is the candidate source of the adaptive experiment
    /// scheduler ([`crate::selection`]): the full `O(n²)` corpus is
    /// never materialized, candidates are pulled into a bounded pool as
    /// the measurement budget allows.
    ///
    /// # Example
    ///
    /// ```
    /// use pmevo_core::InstId;
    /// use pmevo_evo::ExperimentGenerator;
    ///
    /// let gen = ExperimentGenerator::new((0..40).map(InstId).collect());
    /// let tp = vec![1.0; 40];
    /// // Pull the first chunk without generating all 780 pairs.
    /// let chunk: Vec<_> = gen.candidates(&tp).take(8).collect();
    /// assert_eq!(chunk.len(), 8);
    /// assert_eq!(gen.candidates(&tp).count(), gen.pairs(&tp).len());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `indiv_tp` has the wrong length or contains
    /// non-positive values.
    pub fn candidates<'a>(&'a self, indiv_tp: &'a [f64]) -> CandidateStream<'a> {
        assert_eq!(indiv_tp.len(), self.insts.len(), "throughput table size");
        assert!(
            indiv_tp.iter().all(|&t| t > 0.0),
            "non-positive individual throughput"
        );
        CandidateStream {
            insts: &self.insts,
            indiv_tp,
            a: 0,
            b: 1,
            pending: None,
        }
    }

    /// The full experiment set: singletons followed by pairs.
    pub fn all(&self, indiv_tp: &[f64]) -> Vec<Experiment> {
        let mut out = self.singletons();
        out.extend(self.pairs(indiv_tp));
        out
    }
}

/// The lazy pair-experiment stream behind
/// [`ExperimentGenerator::candidates`].
///
/// Iteration order is a pure function of the universe and the
/// individual-throughput table, so two streams over equal inputs yield
/// identical sequences — adaptive runs stay deterministic.
#[derive(Debug, Clone)]
pub struct CandidateStream<'a> {
    insts: &'a [InstId],
    indiv_tp: &'a [f64],
    /// Cursor: next unordered pair `(a, b)` with `a < b`.
    a: usize,
    b: usize,
    /// Ratio pair of the current `(a, b)`, emitted after the plain pair.
    pending: Option<Experiment>,
}

impl Iterator for CandidateStream<'_> {
    type Item = Experiment;

    fn next(&mut self) -> Option<Experiment> {
        if let Some(ratio) = self.pending.take() {
            return Some(ratio);
        }
        if self.b >= self.insts.len() {
            return None;
        }
        let (a, b) = (self.a, self.b);
        let (ia, ib) = (self.insts[a], self.insts[b]);
        // Kind 3: saturate the faster instruction.
        let (slow, fast, ts, tf) = if self.indiv_tp[a] > self.indiv_tp[b] {
            (ia, ib, self.indiv_tp[a], self.indiv_tp[b])
        } else {
            (ib, ia, self.indiv_tp[b], self.indiv_tp[a])
        };
        if ts > tf {
            let n = (ts / tf).ceil() as u32;
            if n > 1 {
                self.pending = Some(Experiment::pair(slow, 1, fast, n));
            }
        }
        self.b += 1;
        if self.b >= self.insts.len() {
            self.a += 1;
            self.b = self.a + 1;
        }
        Some(Experiment::pair(ia, 1, ib, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<InstId> {
        (0..n).map(InstId).collect()
    }

    #[test]
    fn candidate_stream_matches_materialized_pairs() {
        let g = ExperimentGenerator::new(ids(7));
        let tp = [1.0, 2.5, 0.5, 1.0, 3.0, 1.25, 2.0];
        let streamed: Vec<Experiment> = g.candidates(&tp).collect();
        assert_eq!(streamed, g.pairs(&tp));
        // Lazy pulls see the same prefix.
        let prefix: Vec<Experiment> = g.candidates(&tp).take(5).collect();
        assert_eq!(prefix[..], streamed[..5]);
    }

    #[test]
    fn singleton_count_matches_universe() {
        let g = ExperimentGenerator::new(ids(5));
        let s = g.singletons();
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|e| e.total_insts() == 1));
    }

    #[test]
    fn plain_pairs_cover_all_unordered_pairs() {
        let g = ExperimentGenerator::new(ids(4));
        let pairs = g.pairs(&[1.0; 4]);
        // Equal throughputs: no ratio pairs, only C(4,2) = 6 plain pairs.
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|e| e.total_insts() == 2));
    }

    #[test]
    fn ratio_pairs_use_ceiling_ratio() {
        let g = ExperimentGenerator::new(ids(2));
        // t(i0) = 2.5, t(i1) = 1 => n = ceil(2.5) = 3.
        let pairs = g.pairs(&[2.5, 1.0]);
        assert_eq!(pairs.len(), 2);
        let ratio = &pairs[1];
        assert_eq!(ratio.count_of(InstId(0)), 1);
        assert_eq!(ratio.count_of(InstId(1)), 3);
    }

    #[test]
    fn ratio_pair_with_n_equal_one_is_not_duplicated() {
        let g = ExperimentGenerator::new(ids(2));
        // Ratio 1.2 => n = 2; ratio 1.0 => no extra experiment.
        assert_eq!(g.pairs(&[1.2, 1.0]).len(), 2);
        assert_eq!(g.pairs(&[1.0, 1.0]).len(), 1);
    }

    #[test]
    fn all_concatenates_singletons_and_pairs() {
        let g = ExperimentGenerator::new(ids(3));
        let all = g.all(&[1.0, 2.0, 4.0]);
        // 3 singletons + 3 plain pairs + 3 ratio pairs.
        assert_eq!(all.len(), 9);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_panic() {
        ExperimentGenerator::new(vec![InstId(0), InstId(0)]);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_throughput_panics() {
        ExperimentGenerator::new(ids(2)).pairs(&[0.0, 1.0]);
    }
}
