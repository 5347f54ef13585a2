//! The throughput-predictor abstraction shared by PMEvo and all baselines,
//! plus the instruction-sequence grammar and wire records of the serving
//! layer.

use crate::json::{self, Value};
use crate::{Experiment, InstId, ThreeLevelMapping, ThroughputSolver};
use std::cell::RefCell;
use std::fmt;

/// A model that predicts the steady-state throughput of an experiment.
///
/// Implementors include mappings inferred by PMEvo, ground-truth mappings
/// (the "uops.info" baseline), and the IACA-, llvm-mca- and Ithemal-like
/// baselines in `pmevo-baselines`. Predictions are in cycles per
/// experiment instance, the unit of paper Definition 1.
pub trait ThroughputPredictor {
    /// Predicts the throughput of `e` in cycles.
    fn predict(&self, e: &Experiment) -> f64;

    /// A short human-readable name for result tables.
    fn name(&self) -> &str;
}

/// Predicts throughput from a port mapping with the bottleneck simulation
/// algorithm, i.e. under the paper's optimal-scheduler model.
///
/// This is how an inferred PMEvo mapping and the uops.info-style ground
/// truth mapping are evaluated in paper §5.3.
///
/// # Example
///
/// ```
/// use pmevo_core::{
///     Experiment, InstId, MappingPredictor, PortSet, ThroughputPredictor,
///     ThreeLevelMapping, UopEntry,
/// };
///
/// let m = ThreeLevelMapping::new(2, vec![
///     vec![UopEntry::new(1, PortSet::from_ports(&[0, 1]))],
/// ]);
/// let p = MappingPredictor::new("demo", m);
/// let e = Experiment::from_counts(&[(InstId(0), 4)]);
/// assert_eq!(p.predict(&e), 2.0);
/// assert_eq!(p.name(), "demo");
/// ```
#[derive(Debug, Clone)]
pub struct MappingPredictor {
    name: String,
    mapping: ThreeLevelMapping,
    /// Reused bottleneck scratch: predictors are queried thousands of
    /// times over benchmark sets, and the solver makes each query
    /// allocation-free after warm-up. Predictors are used from one thread
    /// at a time (a `RefCell`, not a lock).
    solver: RefCell<ThroughputSolver>,
}

impl MappingPredictor {
    /// Wraps a three-level mapping as a predictor.
    pub fn new(name: impl Into<String>, mapping: ThreeLevelMapping) -> Self {
        MappingPredictor {
            name: name.into(),
            mapping,
            solver: RefCell::new(ThroughputSolver::new()),
        }
    }

    /// The underlying mapping.
    pub fn mapping(&self) -> &ThreeLevelMapping {
        &self.mapping
    }
}

impl ThroughputPredictor for MappingPredictor {
    fn predict(&self, e: &Experiment) -> f64 {
        self.solver.borrow_mut().mapping_throughput(&self.mapping, e)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Why a line of the sequence grammar could not be parsed — see
/// [`parse_sequence`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SequenceParseError {
    /// The line contained no instruction terms (empty, whitespace, or a
    /// `#` comment).
    Empty,
    /// A term named an instruction the resolver does not know.
    UnknownInstruction {
        /// The unresolved instruction name, verbatim.
        name: String,
        /// The nearest known instruction name, when one is plausibly
        /// what the user meant. [`parse_sequence`] itself leaves this
        /// `None` (it only sees a resolver closure); name-table owners
        /// like `pmevo-predict`'s `StoredMapping::parse` fill it in via
        /// [`crate::suggest::nearest`].
        suggestion: Option<String>,
    },
    /// A term's repeat count was not a positive integer.
    BadCount {
        /// The offending term, verbatim.
        term: String,
    },
}

impl fmt::Display for SequenceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceParseError::Empty => write!(f, "empty instruction sequence"),
            SequenceParseError::UnknownInstruction { name, suggestion } => {
                write!(f, "unknown instruction form {name:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
            SequenceParseError::BadCount { term } => {
                write!(f, "bad repeat count in term {term:?} (expected a positive integer)")
            }
        }
    }
}

impl std::error::Error for SequenceParseError {}

/// Parses one line of the asm-like sequence grammar used by the
/// prediction-serving layer (`pmevo-predict`, `pmevo-cli predict`) into
/// an [`Experiment`].
///
/// The grammar is deliberately order-free, matching the model (paper
/// §3.1 experiments are multisets):
///
/// * terms are separated by `;`, `,` or newlines-within-the-line
///   (whitespace around terms is ignored);
/// * a term is an instruction-form name, optionally followed by a repeat
///   count: `add_r64_r64 * 3`, `add_r64_r64 x3` or `add_r64_r64:3`;
/// * text after `#` is a comment;
/// * names are resolved through `resolve`, so the same parser serves any
///   instruction universe (a platform ISA, a store shard, dense
///   `i<N>` ids, ...).
///
/// Repeated mentions of the same form accumulate, exactly like
/// [`Experiment::from_counts`].
///
/// # Errors
///
/// Returns [`SequenceParseError::Empty`] for a blank or comment-only
/// line, and the other variants for malformed terms.
///
/// # Example
///
/// ```
/// use pmevo_core::{parse_sequence, Experiment, InstId};
///
/// let names = ["add", "mul", "store"];
/// let resolve = |name: &str| {
///     names.iter().position(|n| *n == name).map(|i| InstId(i as u32))
/// };
/// let e = parse_sequence("add; mul x2; add # a comment", resolve).unwrap();
/// assert_eq!(e, Experiment::from_counts(&[(InstId(0), 2), (InstId(1), 2)]));
/// ```
pub fn parse_sequence(
    line: &str,
    mut resolve: impl FnMut(&str) -> Option<InstId>,
) -> Result<Experiment, SequenceParseError> {
    let line = line.split('#').next().unwrap_or("");
    let mut counts: Vec<(InstId, u32)> = Vec::new();
    for term in line.split([';', ',']) {
        let term = term.trim();
        if term.is_empty() {
            continue;
        }
        // `name * n`, `name xN` and `name:n` all mean "n copies of name";
        // a bare name means one copy.
        let (name, count) = if let Some((name, n)) = term.rsplit_once(['*', ':']) {
            (name.trim_end(), parse_count(n, term)?)
        } else if let Some((name, x)) = term.rsplit_once(char::is_whitespace) {
            let x = x.trim();
            match x.strip_prefix(['x', 'X']) {
                Some(n) if !n.is_empty() => (name.trim_end(), parse_count(n, term)?),
                _ => return Err(SequenceParseError::BadCount { term: term.to_owned() }),
            }
        } else {
            (term, 1)
        };
        let id = resolve(name).ok_or_else(|| SequenceParseError::UnknownInstruction {
            name: name.to_owned(),
            suggestion: None,
        })?;
        counts.push((id, count));
    }
    if counts.is_empty() {
        return Err(SequenceParseError::Empty);
    }
    Ok(Experiment::from_counts(&counts))
}

fn parse_count(text: &str, term: &str) -> Result<u32, SequenceParseError> {
    match text.trim().parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(SequenceParseError::BadCount { term: term.to_owned() }),
    }
}

/// One response record of the line-oriented serving protocol.
///
/// Every front end that answers sequence lines — `pmevo-cli predict`
/// offline, the `pmevo-serve` daemon over a socket — emits exactly these
/// records, one compact JSON object per line, so a daemon's per-client
/// response stream is **byte-identical** to the offline run of the same
/// input lines. `line` is the client's 1-based input line number.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRecord {
    /// A successfully predicted sequence:
    /// `{"line":N,"mapping":"NAME@V","cycles":T}`.
    Cycles {
        /// 1-based input line number.
        line: u64,
        /// `name@version` label of the mapping that answered.
        mapping: String,
        /// Predicted steady-state throughput in cycles per iteration.
        cycles: f64,
    },
    /// A line that could not be answered:
    /// `{"line":N,"error":"..."}`.
    Error {
        /// 1-based input line number.
        line: u64,
        /// Human-readable failure description.
        message: String,
    },
}

impl ServeRecord {
    /// The record as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let value = match self {
            ServeRecord::Cycles { line, mapping, cycles } => Value::Obj(vec![
                ("line".into(), Value::UInt(*line)),
                ("mapping".into(), Value::Str(mapping.clone())),
                ("cycles".into(), Value::Num(*cycles)),
            ]),
            ServeRecord::Error { line, message } => Value::Obj(vec![
                ("line".into(), Value::UInt(*line)),
                ("error".into(), Value::Str(message.clone())),
            ]),
        };
        json::write_compact(&value)
    }
}

/// A control verb of the serving protocol — see [`parse_control`].
///
/// Deliberately *not* `#[non_exhaustive]`: adding a verb must break every
/// consumer's `match` so no front end silently ignores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlVerb {
    /// `!stats` — report serving counters (QPS, cache hit rate,
    /// per-mapping query counts, live connections).
    Stats,
    /// `!mappings` — list every loaded mapping as a `name@version` label
    /// with its per-mapping query count, in store order (load order).
    Mappings,
    /// `!reload NAME=file.json` — load a new version of `NAME`'s mapping
    /// into the store and atomically swap it in; in-flight batches drain
    /// against the old version.
    Reload {
        /// Platform / mapping name to register the new version under.
        name: String,
        /// Path (on the daemon's filesystem) of the mapping artifact.
        path: String,
    },
    /// `!shutdown` — flush pending work and stop the daemon.
    Shutdown,
}

/// Parses a control line of the serving protocol.
///
/// Control lines start with `!` (after optional leading whitespace); the
/// prefix cannot collide with the sequence grammar, whose terms are
/// instruction-form names. Returns:
///
/// * `None` — not a control line (feed it to the sequence path);
/// * `Some(Ok(verb))` — a recognized [`ControlVerb`];
/// * `Some(Err(message))` — started with `!` but is not a valid verb.
///
/// # Example
///
/// ```
/// use pmevo_core::{parse_control, ControlVerb};
///
/// assert_eq!(parse_control("add x2"), None);
/// assert_eq!(parse_control("!stats"), Some(Ok(ControlVerb::Stats)));
/// assert_eq!(parse_control("!mappings"), Some(Ok(ControlVerb::Mappings)));
/// assert_eq!(
///     parse_control("!reload SKL=skl_v2.json"),
///     Some(Ok(ControlVerb::Reload { name: "SKL".into(), path: "skl_v2.json".into() }))
/// );
/// assert!(parse_control("!frobnicate").unwrap().is_err());
/// ```
pub fn parse_control(line: &str) -> Option<Result<ControlVerb, String>> {
    let rest = line.trim_start().strip_prefix('!')?;
    let rest = rest.trim();
    let (verb, arg) = match rest.split_once(char::is_whitespace) {
        Some((v, a)) => (v, a.trim()),
        None => (rest, ""),
    };
    Some(match verb {
        "stats" if arg.is_empty() => Ok(ControlVerb::Stats),
        "mappings" if arg.is_empty() => Ok(ControlVerb::Mappings),
        "shutdown" if arg.is_empty() => Ok(ControlVerb::Shutdown),
        "reload" => match arg.split_once('=') {
            Some((name, path)) if !name.trim().is_empty() && !path.trim().is_empty() => {
                Ok(ControlVerb::Reload {
                    name: name.trim().to_owned(),
                    path: path.trim().to_owned(),
                })
            }
            _ => Err("reload expects NAME=file.json".to_owned()),
        },
        "stats" | "mappings" | "shutdown" => Err(format!("{verb} takes no argument")),
        other => Err(format!(
            "unknown control verb {other:?} (expected stats, mappings, reload or shutdown)"
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstId, PortSet, TwoLevelMapping, UopEntry};

    #[test]
    fn two_level_lift_matches_two_level_throughput() {
        let two = TwoLevelMapping::new(
            3,
            vec![
                PortSet::from_ports(&[0]),
                PortSet::from_ports(&[0, 1]),
                PortSet::from_ports(&[2]),
            ],
        );
        // Lift every instruction to one µop on its port set.
        let lifted = (0..two.num_insts())
            .map(|i| vec![UopEntry::new(1, two.ports_of(InstId(i as u32)))])
            .collect();
        let p = MappingPredictor::new("lifted", ThreeLevelMapping::new(3, lifted));
        for e in [
            Experiment::singleton(InstId(0)),
            Experiment::pair(InstId(0), 1, InstId(1), 2),
            Experiment::from_counts(&[(InstId(0), 1), (InstId(1), 1), (InstId(2), 3)]),
        ] {
            assert!((p.predict(&e) - two.throughput(&e)).abs() < 1e-12);
        }
    }

    fn resolve_dense(name: &str) -> Option<InstId> {
        name.strip_prefix('i')?.parse::<u32>().ok().map(InstId)
    }

    #[test]
    fn sequence_grammar_accepts_all_count_spellings() {
        for line in ["i0; i1*2; i1", "i0, i1 x3", "i1:2 , i1;i0", "  i0 ;i1 * 2 ; i1  "] {
            let e = parse_sequence(line, resolve_dense).unwrap();
            assert_eq!(e, Experiment::from_counts(&[(InstId(0), 1), (InstId(1), 3)]), "{line:?}");
        }
    }

    #[test]
    fn sequence_grammar_strips_comments_and_merges_duplicates() {
        let e = parse_sequence("i4; i4; i4 # three of the same", resolve_dense).unwrap();
        assert_eq!(e, Experiment::from_counts(&[(InstId(4), 3)]));
    }

    #[test]
    fn sequence_grammar_rejects_bad_lines() {
        for line in ["", "   ", "# only a comment", "; ; ;"] {
            assert_eq!(parse_sequence(line, resolve_dense), Err(SequenceParseError::Empty), "{line:?}");
        }
        assert_eq!(
            parse_sequence("i0; nope", resolve_dense),
            Err(SequenceParseError::UnknownInstruction { name: "nope".into(), suggestion: None })
        );
        for line in ["i0 * 0", "i0:x", "i0 y3", "i0 x", "i0 *"] {
            assert!(
                matches!(parse_sequence(line, resolve_dense), Err(SequenceParseError::BadCount { .. })),
                "{line:?}"
            );
        }
    }

    #[test]
    fn serve_records_serialize_to_the_wire_format() {
        let ok = ServeRecord::Cycles { line: 3, mapping: "SKL@2".into(), cycles: 1.5 };
        assert_eq!(ok.to_json_line(), r#"{"line":3,"mapping":"SKL@2","cycles":1.5}"#);
        let err = ServeRecord::Error { line: 9, message: "unknown instruction form \"nope\"".into() };
        assert_eq!(err.to_json_line(), r#"{"line":9,"error":"unknown instruction form \"nope\""}"#);
    }

    #[test]
    fn control_grammar_accepts_verbs_and_rejects_noise() {
        assert_eq!(parse_control("  !stats  "), Some(Ok(ControlVerb::Stats)));
        assert_eq!(parse_control("!mappings"), Some(Ok(ControlVerb::Mappings)));
        assert_eq!(parse_control("!shutdown"), Some(Ok(ControlVerb::Shutdown)));
        assert_eq!(
            parse_control("!reload TINY = /tmp/v2.json"),
            Some(Ok(ControlVerb::Reload { name: "TINY".into(), path: "/tmp/v2.json".into() }))
        );
        assert_eq!(parse_control("add x2"), None);
        assert_eq!(parse_control(""), None);
        for bad in
            ["!reload", "!reload TINY", "!reload =x.json", "!stats now", "!mappings all", "!zap"]
        {
            assert!(matches!(parse_control(bad), Some(Err(_))), "{bad:?}");
        }
    }

    #[test]
    fn predictor_is_usable_as_trait_object() {
        let m = ThreeLevelMapping::new(
            1,
            vec![vec![UopEntry::new(2, PortSet::from_ports(&[0]))]],
        );
        let p: Box<dyn ThroughputPredictor> = Box::new(MappingPredictor::new("obj", m));
        assert_eq!(p.predict(&Experiment::singleton(InstId(0))), 2.0);
        assert_eq!(p.name(), "obj");
    }
}
