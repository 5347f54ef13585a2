//! Corpus replay: stream basic blocks through a throughput predictor
//! and account for every block that cannot be predicted.
//!
//! One basic block is one [`Experiment`] — the multiset of its resolved
//! instruction forms — exactly the quantity PMEvo's mappings predict
//! steady-state throughput for. Replay resolves every line of every
//! block, batches all fully-mapped blocks through one
//! [`Predictor::predict_batch`] call, and aggregates the failures into
//! an [`Accounting`] whose JSON rendering is deterministic: fixed field
//! order, no wall-clock, a checksum over all predicted cycles in block
//! order. Two replays of the same corpus against the same mapping are
//! byte-identical regardless of predictor worker count.

use crate::corpus::parse_corpus;
use crate::normalize::normalize;
use crate::parse::parse_line;
use crate::uarch::Resolver;
use pmevo_core::binfmt::fnv1a;
use pmevo_core::json::{self, Value};
use pmevo_core::{Experiment, InstId};
use pmevo_predict::{MappingId, Predictor};
use std::collections::BTreeMap;

/// Accounting key for lines the tokenizer rejected (alongside the
/// [`crate::Unmapped::reason`] keys for resolver failures).
pub const MALFORMED_LINE: &str = "malformed_line";

/// The outcome of one basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockResult {
    /// Every line resolved; predicted steady-state cycles per iteration.
    Cycles(f64),
    /// At least one line failed; the block is excluded from prediction.
    Unmapped {
        /// 1-based corpus line of the *first* failing instruction.
        line: u32,
        /// 1-based column of the failing token (the mnemonic's column
        /// for resolver failures, which concern the whole instruction).
        column: u32,
        /// Stable accounting reason (`unknown_mnemonic`, ...).
        reason: &'static str,
        /// Human-readable description of the first failure.
        detail: String,
    },
}

/// One replayed block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockOutcome {
    /// 1-based corpus line the block starts at.
    pub start_line: u32,
    /// Number of instruction lines in the block.
    pub insts: u32,
    /// Prediction or first failure.
    pub result: BlockResult,
}

/// Deterministic corpus-level accounting: totals, per-reason failure
/// counts, and a checksum over the predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Total basic blocks in the corpus.
    pub blocks: u64,
    /// Blocks whose every instruction resolved.
    pub mapped_blocks: u64,
    /// Total instruction lines.
    pub insts: u64,
    /// Instruction lines that individually resolved (counted even inside
    /// blocks that failed on another line, so instruction-level coverage
    /// is honest).
    pub mapped_insts: u64,
    /// Failure reason → number of *blocks* whose first failure had it.
    pub by_reason: BTreeMap<&'static str, u64>,
    /// FNV-1a over the bits of every predicted cycle count, in block
    /// order: equal checksums mean bit-identical replay results.
    pub checksum: u64,
}

impl Accounting {
    /// Fraction of instruction lines that resolved, in `[0, 1]`.
    pub fn inst_coverage(&self) -> f64 {
        if self.insts == 0 {
            return 1.0;
        }
        self.mapped_insts as f64 / self.insts as f64
    }

    /// Fraction of blocks that were fully mapped, in `[0, 1]`.
    pub fn block_coverage(&self) -> f64 {
        if self.blocks == 0 {
            return 1.0;
        }
        self.mapped_blocks as f64 / self.blocks as f64
    }
}

/// A full replay: per-block outcomes in corpus order plus accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// One outcome per basic block, in corpus order.
    pub outcomes: Vec<BlockOutcome>,
    /// The aggregate accounting.
    pub accounting: Accounting,
}

/// Replays a corpus against one stored mapping.
///
/// Every line of every block is resolved (even after a block has already
/// failed, so `mapped_insts` reflects true instruction-level coverage);
/// all fully-mapped blocks go through the predictor as one batch. The
/// result is a pure function of `(corpus, resolver, mapping)` —
/// predictor worker count and cache configuration do not change a byte
/// of it.
pub fn replay(corpus: &str, resolver: &Resolver<'_>, predictor: &Predictor, id: MappingId) -> Replay {
    let blocks = parse_corpus(corpus);
    let mut outcomes: Vec<BlockOutcome> = Vec::with_capacity(blocks.len());
    let mut experiments: Vec<Experiment> = Vec::new();
    // Index into `outcomes` for each experiment, to write cycles back.
    let mut mapped_at: Vec<usize> = Vec::new();
    let mut acc = Accounting {
        blocks: blocks.len() as u64,
        mapped_blocks: 0,
        insts: 0,
        mapped_insts: 0,
        by_reason: BTreeMap::new(),
        checksum: 0,
    };

    for block in &blocks {
        let mut counts: BTreeMap<InstId, u32> = BTreeMap::new();
        let mut failure: Option<(u32, u32, &'static str, String)> = None;
        for (line_no, text) in &block.lines {
            acc.insts += 1;
            let resolved = match parse_line(text) {
                Err(e) => Err((*line_no, e.column as u32, MALFORMED_LINE, e.to_string())),
                Ok(None) => continue,
                Ok(Some(inst)) => match resolver.resolve(&normalize(&inst)) {
                    Ok(id) => Ok(id),
                    Err(u) => Err((*line_no, inst.column as u32, u.reason(), u.to_string())),
                },
            };
            match resolved {
                Ok(id) => {
                    acc.mapped_insts += 1;
                    *counts.entry(id).or_insert(0) += 1;
                }
                Err(f) => {
                    failure.get_or_insert(f);
                }
            }
        }
        let insts = block.lines.len() as u32;
        match failure {
            None => {
                let pairs: Vec<(InstId, u32)> = counts.into_iter().collect();
                mapped_at.push(outcomes.len());
                experiments.push(Experiment::from_counts(&pairs));
                outcomes.push(BlockOutcome {
                    start_line: block.start_line,
                    insts,
                    // Placeholder until the batch prediction lands below.
                    result: BlockResult::Cycles(f64::NAN),
                });
                acc.mapped_blocks += 1;
            }
            Some((line, column, reason, detail)) => {
                *acc.by_reason.entry(reason).or_insert(0) += 1;
                outcomes.push(BlockOutcome {
                    start_line: block.start_line,
                    insts,
                    result: BlockResult::Unmapped { line, column, reason, detail },
                });
            }
        }
    }

    let cycles = predictor.predict_batch(id, &experiments);
    for (&at, &t) in mapped_at.iter().zip(&cycles) {
        outcomes[at].result = BlockResult::Cycles(t);
    }
    // FNV-1a over the raw bits of every prediction, in block order.
    let bits: Vec<u8> = cycles.iter().flat_map(|t| t.to_bits().to_le_bytes()).collect();
    acc.checksum = fnv1a(&bits);
    Replay { outcomes, accounting: acc }
}

/// Renders accounting as one compact JSON object with a fixed field
/// order and no wall-clock content — the byte-determinism anchor that
/// CI double-runs and `cmp`s.
pub fn accounting_json(acc: &Accounting) -> String {
    let by_reason = acc
        .by_reason
        .iter()
        .map(|(&reason, &n)| (reason.to_string(), Value::UInt(n)))
        .collect();
    json::write_compact(&Value::Obj(vec![
        ("blocks".into(), Value::UInt(acc.blocks)),
        ("mapped_blocks".into(), Value::UInt(acc.mapped_blocks)),
        ("insts".into(), Value::UInt(acc.insts)),
        ("mapped_insts".into(), Value::UInt(acc.mapped_insts)),
        ("inst_coverage".into(), Value::Num(acc.inst_coverage())),
        ("block_coverage".into(), Value::Num(acc.block_coverage())),
        ("by_reason".into(), Value::Obj(by_reason)),
        ("checksum".into(), Value::UInt(acc.checksum)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::synthetic_corpus;
    use crate::uarch::skl;
    use pmevo_isa::synth::synthetic_x86;
    use pmevo_machine::platforms;
    use pmevo_predict::{MappingStore, PredictorConfig};

    fn skl_predictor(workers: usize) -> (Predictor, MappingId) {
        let p = platforms::skl();
        let mut store = MappingStore::new();
        let names = p.isa().forms().iter().map(|f| f.name.clone()).collect();
        let id = store.insert(p.name(), names, p.ground_truth().clone());
        (Predictor::new(store, PredictorConfig { workers, cache_capacity: 1024 }), id)
    }

    #[test]
    fn replay_predicts_mapped_blocks_and_accounts_failures() {
        let isa = synthetic_x86();
        let resolver = Resolver::new(skl(), &isa);
        let (predictor, id) = skl_predictor(1);
        let corpus = "addq %rax, %rbx\nimulq %rcx, %rdx\n\nfrobq %rax\n\nadd al, bl\n";
        let r = replay(corpus, &resolver, &predictor, id);
        assert_eq!(r.accounting.blocks, 3);
        assert_eq!(r.accounting.mapped_blocks, 1);
        assert_eq!(r.accounting.insts, 4);
        assert_eq!(r.accounting.mapped_insts, 2);
        assert!(matches!(r.outcomes[0].result, BlockResult::Cycles(t) if t > 0.0));
        assert_eq!(r.accounting.by_reason.get("unknown_mnemonic"), Some(&1));
        assert_eq!(r.accounting.by_reason.get("unsupported_operands"), Some(&1));
    }

    #[test]
    fn replay_is_identical_across_worker_counts() {
        let isa = synthetic_x86();
        let resolver = Resolver::new(skl(), &isa);
        let corpus = synthetic_corpus(120, 9);
        let (p1, id1) = skl_predictor(1);
        let baseline = replay(&corpus, &resolver, &p1, id1);
        for workers in [2, 8] {
            let (p, id) = skl_predictor(workers);
            let r = replay(&corpus, &resolver, &p, id);
            assert_eq!(r, baseline, "workers={workers}");
            assert_eq!(accounting_json(&r.accounting), accounting_json(&baseline.accounting));
        }
    }

    #[test]
    fn accounting_json_shape_is_stable() {
        let acc = Accounting {
            blocks: 2,
            mapped_blocks: 1,
            insts: 5,
            mapped_insts: 4,
            by_reason: BTreeMap::from([(MALFORMED_LINE, 1)]),
            checksum: 7,
        };
        assert_eq!(
            accounting_json(&acc),
            "{\"blocks\":2,\"mapped_blocks\":1,\"insts\":5,\"mapped_insts\":4,\
             \"inst_coverage\":0.8,\"block_coverage\":0.5,\
             \"by_reason\":{\"malformed_line\":1},\"checksum\":7}"
        );
    }

    #[test]
    fn malformed_lines_carry_line_and_column() {
        let isa = synthetic_x86();
        let resolver = Resolver::new(skl(), &isa);
        let (predictor, id) = skl_predictor(1);
        let r = replay("addq %rax, %rbx\nmov rax, @x\n", &resolver, &predictor, id);
        match &r.outcomes[0].result {
            BlockResult::Unmapped { line, column, reason, .. } => {
                assert_eq!(*line, 2);
                assert_eq!(*column, 10);
                assert_eq!(*reason, MALFORMED_LINE);
            }
            other => panic!("expected unmapped block, got {other:?}"),
        }
    }
}
