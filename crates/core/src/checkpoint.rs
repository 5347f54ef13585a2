//! Versioned checkpoints of long-running inference sessions.
//!
//! Adaptive measure→evolve sessions on real hardware run for hours
//! (paper Table 2); a process restart must not throw that work away.
//! This module defines the *artifact* side of checkpoint/resume: a
//! [`SessionCheckpoint`] captures everything the round-based pipeline
//! needs to continue bit-identically — per-island populations and RNG
//! states, generation counters, selection-round progress, the measured
//! corpus, the candidate-pool cursor, and the [`MeasurementBudget`]
//! accounting carried in [`BackendStats`] — serialized through the
//! [`crate::json`] codec.
//!
//! The evolution state is stored in primitive form ([`EvoCheckpoint`] /
//! [`IslandCheckpoint`]): this crate does not know the evolutionary
//! algorithm's types, so `pmevo-evo` converts its island state to and
//! from these rows.
//!
//! # Format and versioning
//!
//! A checkpoint is a single JSON object starting with
//! `"format": "pmevo-checkpoint"` and `"version": 1`
//! ([`CHECKPOINT_VERSION`]). Decoding rejects unknown versions with
//! [`CheckpointError::Version`] instead of guessing; a future format
//! bump must keep decoding version-1 artifacts or fail loudly (pinned
//! by the golden fixture under `tests/fixtures/`). Finite floats
//! round-trip bit-exactly through the codec; the two fields that can
//! legitimately hold `+inf` mid-run (a round's not-yet-filled training
//! error and the evolution `best_so_far` before the first generation)
//! are encoded as `null`.
//!
//! Writes are atomic: the artifact is written to a `.tmp` sibling and
//! renamed into place, so a crash mid-write leaves the previous
//! checkpoint intact.

use crate::backend::BackendStats;
use crate::json::{self, ParseError, Value};
use crate::selection::{MeasurementBudget, RoundStats, SelectionPolicy};
use crate::{Experiment, MeasuredExperiment, ThreeLevelMapping};
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Where in the pipeline a checkpoint was taken — the resume entry
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// Mid-evolution of a one-shot run (full corpus already measured).
    OneShot,
    /// Mid-evolution of adaptive measurement round `n` (0 = the segment
    /// after the seed corpus).
    Round(u32),
    /// All measurement rounds done, final polish not yet finished; the
    /// polish re-runs deterministically from the stored populations.
    PrePolish,
}

/// One island's serialized mid-run state: its population, the
/// objectives parallel to it (`(error, volume)` pairs), and the raw RNG
/// state of its generator stream.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandCheckpoint {
    /// The island's population after its last pool selection.
    pub population: Vec<ThreeLevelMapping>,
    /// `(D_avg, volume)` objectives parallel to
    /// [`population`](Self::population).
    pub objectives: Vec<(f64, u64)>,
    /// The xoshiro256++ state of the island's RNG stream.
    pub rng: [u64; 4],
}

/// Serialized evolution-loop state between two generations.
#[derive(Debug, Clone, PartialEq)]
pub struct EvoCheckpoint {
    /// Every island, in ring order.
    pub islands: Vec<IslandCheckpoint>,
    /// Generations completed so far in the current segment.
    pub generations: u32,
    /// Best `D_avg` per completed generation.
    pub history: Vec<f64>,
    /// Best `D_avg` seen so far (`+inf` before the first generation;
    /// encoded as `null`).
    pub best_so_far: f64,
    /// Generations without convergence-tolerance improvement.
    pub stall: u32,
}

/// A complete, versioned snapshot of a running inference session —
/// everything needed to resume it bit-identically in a new process.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The session's evolution seed (resume validates it against the
    /// resuming configuration).
    pub seed: u64,
    /// Full instruction-universe size.
    pub num_insts: usize,
    /// Number of execution ports.
    pub num_ports: usize,
    /// Configured island count.
    pub islands: u32,
    /// Configured population size per island.
    pub population_size: u64,
    /// The experiment-selection policy of the run.
    pub selection: SelectionPolicy,
    /// The measurement budget of the run.
    pub budget: MeasurementBudget,
    /// Backend accounting at checkpoint time (relative to run start) —
    /// the resumed process adds its own delta on top for budget checks.
    pub used: BackendStats,
    /// Measured singleton throughput per full-universe instruction.
    pub indiv_tp: Vec<f64>,
    /// Congruence-class representative per full-universe instruction
    /// (`rep_of[i]` is the representative id of instruction `i`).
    pub rep_of: Vec<u32>,
    /// Every measured experiment in original instruction ids, in
    /// measurement order (seed corpus first).
    pub measured: Vec<MeasuredExperiment>,
    /// Per-round accounting so far (an in-flight round's training error
    /// is still `+inf`, encoded as `null`).
    pub rounds: Vec<RoundStats>,
    /// Best dense (representative-universe) mapping at the end of each
    /// *completed* round.
    pub round_mappings: Vec<ThreeLevelMapping>,
    /// The adaptive candidate pool (unmeasured, in generator order).
    pub pool: Vec<Experiment>,
    /// How many candidates the streaming generator has yielded — the
    /// resume fast-forwards a fresh stream by this count.
    pub stream_taken: u64,
    /// Where the run was when the checkpoint was taken.
    pub phase: CheckpointPhase,
    /// Mid-segment evolution state. `None` only in a run's start state,
    /// before evolution has run; every written checkpoint stores it.
    pub evo: Option<EvoCheckpoint>,
}

/// Why a checkpoint could not be written or read back.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Reading or writing the artifact file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The artifact is not valid JSON; carries the byte offset.
    Parse(ParseError),
    /// The JSON is valid but not a checkpoint of the expected shape.
    Shape(String),
    /// The artifact was written by an incompatible format version.
    Version {
        /// The version the artifact declares.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error on {path}: {message}")
            }
            CheckpointError::Parse(e) => write!(f, "{e}"),
            CheckpointError::Shape(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn phase_to_json(p: CheckpointPhase) -> Value {
    match p {
        CheckpointPhase::OneShot => Value::Str("one-shot".into()),
        CheckpointPhase::PrePolish => Value::Str("pre-polish".into()),
        CheckpointPhase::Round(n) => {
            Value::Obj(vec![("round".into(), Value::UInt(u64::from(n)))])
        }
    }
}

fn phase_from_json(v: &Value) -> Result<CheckpointPhase, String> {
    match v {
        Value::Str(s) if s == "one-shot" => Ok(CheckpointPhase::OneShot),
        Value::Str(s) if s == "pre-polish" => Ok(CheckpointPhase::PrePolish),
        Value::Obj(_) => {
            let n = v
                .get("round")
                .and_then(Value::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("phase object needs an integer `round` field")?;
            Ok(CheckpointPhase::Round(n))
        }
        _ => Err("phase must be \"one-shot\", \"pre-polish\" or {\"round\": n}".into()),
    }
}

fn stats_to_json(s: &BackendStats) -> Value {
    Value::Obj(vec![
        ("measurements_requested".into(), Value::UInt(s.measurements_requested)),
        ("measurements_performed".into(), Value::UInt(s.measurements_performed)),
        (
            "measurement_time_ns".into(),
            Value::UInt(u64::try_from(s.measurement_time.as_nanos()).unwrap_or(u64::MAX)),
        ),
    ])
}

fn stats_from_json(v: &Value) -> Result<BackendStats, String> {
    let uint = |name: &str| {
        v.get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("`used` needs an integer field `{name}`"))
    };
    Ok(BackendStats {
        measurements_requested: uint("measurements_requested")?,
        measurements_performed: uint("measurements_performed")?,
        measurement_time: Duration::from_nanos(uint("measurement_time_ns")?),
    })
}

fn f64_from_json(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Num(f) => Ok(*f),
        Value::UInt(n) => Ok(*n as f64),
        Value::Null => Ok(f64::INFINITY),
        _ => Err(format!("{what} must be a number or null")),
    }
}

impl EvoCheckpoint {
    fn to_json_value(&self) -> Value {
        let islands = self
            .islands
            .iter()
            .map(|isl| {
                Value::Obj(vec![
                    (
                        "population".into(),
                        Value::Arr(
                            isl.population
                                .iter()
                                .map(ThreeLevelMapping::to_json_value)
                                .collect(),
                        ),
                    ),
                    (
                        "objectives".into(),
                        Value::Arr(
                            isl.objectives
                                .iter()
                                .map(|&(e, vol)| {
                                    Value::Arr(vec![Value::Num(e), Value::UInt(vol)])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "rng".into(),
                        Value::Arr(isl.rng.iter().map(|&w| Value::UInt(w)).collect()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("islands".into(), Value::Arr(islands)),
            ("generations".into(), Value::UInt(u64::from(self.generations))),
            (
                "history".into(),
                Value::Arr(self.history.iter().map(|&h| Value::Num(h)).collect()),
            ),
            ("best_so_far".into(), Value::Num(self.best_so_far)),
            ("stall".into(), Value::UInt(u64::from(self.stall))),
        ])
    }

    fn from_json_value(v: &Value) -> Result<Self, String> {
        let islands = v
            .get("islands")
            .and_then(Value::as_arr)
            .ok_or("evo state needs an array field `islands`")?
            .iter()
            .enumerate()
            .map(|(i, isl)| {
                let ctx = format!("evo.islands[{i}]");
                let population = isl
                    .get("population")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{ctx} needs an array field `population`"))?
                    .iter()
                    .map(|m| {
                        ThreeLevelMapping::from_json_value(m)
                            .map_err(|e| format!("{ctx}.population: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let objectives = isl
                    .get("objectives")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("{ctx} needs an array field `objectives`"))?
                    .iter()
                    .enumerate()
                    .map(|(k, pair)| {
                        let row = pair
                            .as_arr()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| format!("{ctx}.objectives[{k}] must be [error, volume]"))?;
                        let error = f64_from_json(&row[0], &format!("{ctx}.objectives[{k}].error"))?;
                        let volume = row[1]
                            .as_u64()
                            .ok_or_else(|| format!("{ctx}.objectives[{k}].volume must be a u64"))?;
                        Ok::<(f64, u64), String>((error, volume))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let rng_arr = isl
                    .get("rng")
                    .and_then(Value::as_arr)
                    .filter(|a| a.len() == 4)
                    .ok_or_else(|| format!("{ctx} needs a 4-element array field `rng`"))?;
                let mut rng = [0u64; 4];
                for (k, w) in rng_arr.iter().enumerate() {
                    rng[k] = w
                        .as_u64()
                        .ok_or_else(|| format!("{ctx}.rng[{k}] must be a u64"))?;
                }
                if population.len() != objectives.len() {
                    return Err(format!(
                        "{ctx}: population ({}) and objectives ({}) lengths differ",
                        population.len(),
                        objectives.len()
                    ));
                }
                Ok(IslandCheckpoint { population, objectives, rng })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let uint = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("evo state needs an integer field `{name}`"))
        };
        let history = v
            .get("history")
            .and_then(Value::as_arr)
            .ok_or("evo state needs an array field `history`")?
            .iter()
            .enumerate()
            .map(|(i, h)| f64_from_json(h, &format!("evo.history[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let best_so_far = f64_from_json(
            v.get("best_so_far").unwrap_or(&Value::Null),
            "evo.best_so_far",
        )?;
        Ok(EvoCheckpoint {
            islands,
            generations: u32::try_from(uint("generations")?)
                .map_err(|_| "evo.generations overflows u32".to_owned())?,
            history,
            best_so_far,
            stall: u32::try_from(uint("stall")?)
                .map_err(|_| "evo.stall overflows u32".to_owned())?,
        })
    }
}

impl SessionCheckpoint {
    /// The checkpoint as a [`Value`] tree (see the
    /// [module documentation](self) for the format).
    pub fn to_json_value(&self) -> Value {
        Value::Obj(vec![
            ("format".into(), Value::Str("pmevo-checkpoint".into())),
            ("version".into(), Value::UInt(CHECKPOINT_VERSION)),
            ("seed".into(), Value::UInt(self.seed)),
            ("num_insts".into(), Value::UInt(self.num_insts as u64)),
            ("num_ports".into(), Value::UInt(self.num_ports as u64)),
            ("islands".into(), Value::UInt(u64::from(self.islands))),
            ("population_size".into(), Value::UInt(self.population_size)),
            ("selection".into(), self.selection.to_json_value()),
            ("budget".into(), self.budget.to_json_value()),
            ("used".into(), stats_to_json(&self.used)),
            (
                "indiv_tp".into(),
                Value::Arr(self.indiv_tp.iter().map(|&t| Value::Num(t)).collect()),
            ),
            (
                "rep_of".into(),
                Value::Arr(self.rep_of.iter().map(|&r| Value::UInt(u64::from(r))).collect()),
            ),
            (
                "measured".into(),
                Value::Arr(self.measured.iter().map(MeasuredExperiment::to_json_value).collect()),
            ),
            (
                "rounds".into(),
                Value::Arr(self.rounds.iter().map(RoundStats::to_json_value).collect()),
            ),
            (
                "round_mappings".into(),
                Value::Arr(
                    self.round_mappings
                        .iter()
                        .map(ThreeLevelMapping::to_json_value)
                        .collect(),
                ),
            ),
            (
                "pool".into(),
                Value::Arr(self.pool.iter().map(Experiment::to_json_value).collect()),
            ),
            ("stream_taken".into(), Value::UInt(self.stream_taken)),
            ("phase".into(), phase_to_json(self.phase)),
            (
                "evo".into(),
                self.evo
                    .as_ref()
                    .map(EvoCheckpoint::to_json_value)
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Serializes the checkpoint as compact JSON.
    pub fn to_json(&self) -> String {
        json::write_compact(&self.to_json_value())
    }

    /// Reads a checkpoint from an already-parsed [`Value`] tree.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Version`] for artifacts of a different format
    /// version, [`CheckpointError::Shape`] for everything else malformed.
    pub fn from_json_value(doc: &Value) -> Result<Self, CheckpointError> {
        let shape = |msg: String| CheckpointError::Shape(msg);
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| shape("missing integer field `version`".into()))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        match doc.get("format") {
            Some(Value::Str(s)) if s == "pmevo-checkpoint" => {}
            _ => return Err(shape("missing `\"format\": \"pmevo-checkpoint\"`".into())),
        }
        let uint = |name: &str| {
            doc.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| shape(format!("missing integer field `{name}`")))
        };
        let as_usize = |n: u64, name: &str| {
            usize::try_from(n).map_err(|_| shape(format!("field `{name}` overflows usize")))
        };
        let selection = doc
            .get("selection")
            .ok_or_else(|| shape("missing field `selection`".into()))
            .and_then(|v| {
                SelectionPolicy::from_json_value(v).map_err(|e| shape(format!("field `selection`: {e}")))
            })?;
        let budget = doc
            .get("budget")
            .ok_or_else(|| shape("missing field `budget`".into()))
            .and_then(|v| {
                MeasurementBudget::from_json_value(v)
                    .map_err(|e| shape(format!("field `budget`: {e}")))
            })?;
        let used = doc
            .get("used")
            .ok_or_else(|| shape("missing field `used`".into()))
            .and_then(|v| stats_from_json(v).map_err(shape))?;
        let indiv_tp = doc
            .get("indiv_tp")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `indiv_tp`".into()))?
            .iter()
            .enumerate()
            .map(|(i, t)| f64_from_json(t, &format!("indiv_tp[{i}]")).map_err(shape))
            .collect::<Result<Vec<_>, _>>()?;
        let rep_of = doc
            .get("rep_of")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `rep_of`".into()))?
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| shape(format!("rep_of[{i}] must be a u32")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let measured = doc
            .get("measured")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `measured`".into()))?
            .iter()
            .enumerate()
            .map(|(i, row)| {
                MeasuredExperiment::from_json_value(row, &format!("measured[{i}]")).map_err(shape)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rounds = doc
            .get("rounds")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `rounds`".into()))?
            .iter()
            .map(|v| RoundStats::from_json_value(v).map_err(|e| shape(format!("field `rounds`: {e}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let round_mappings = doc
            .get("round_mappings")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `round_mappings`".into()))?
            .iter()
            .map(|m| {
                ThreeLevelMapping::from_json_value(m)
                    .map_err(|e| shape(format!("field `round_mappings`: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pool = doc
            .get("pool")
            .and_then(Value::as_arr)
            .ok_or_else(|| shape("missing array field `pool`".into()))?
            .iter()
            .enumerate()
            .map(|(i, e)| Experiment::from_json_value(e, &format!("pool[{i}]")).map_err(shape))
            .collect::<Result<Vec<_>, _>>()?;
        let phase = doc
            .get("phase")
            .ok_or_else(|| shape("missing field `phase`".into()))
            .and_then(|v| phase_from_json(v).map_err(shape))?;
        let evo = match doc.get("evo") {
            None | Some(Value::Null) => None,
            Some(v) => Some(EvoCheckpoint::from_json_value(v).map_err(shape)?),
        };
        let num_insts = as_usize(uint("num_insts")?, "num_insts")?;
        if rep_of.len() != num_insts || indiv_tp.len() != num_insts {
            return Err(shape(format!(
                "`rep_of` ({}) and `indiv_tp` ({}) must both have `num_insts` ({num_insts}) entries",
                rep_of.len(),
                indiv_tp.len()
            )));
        }
        Ok(SessionCheckpoint {
            seed: uint("seed")?,
            num_insts,
            num_ports: as_usize(uint("num_ports")?, "num_ports")?,
            islands: u32::try_from(uint("islands")?)
                .map_err(|_| shape("field `islands` overflows u32".into()))?,
            population_size: uint("population_size")?,
            selection,
            budget,
            used,
            indiv_tp,
            rep_of,
            measured,
            rounds,
            round_mappings,
            pool,
            stream_taken: uint("stream_taken")?,
            phase,
            evo,
        })
    }

    /// Parses a checkpoint from JSON text.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] (with byte offset) for malformed JSON,
    /// else as [`Self::from_json_value`].
    pub fn from_json(input: &str) -> Result<Self, CheckpointError> {
        let doc = json::parse(input).map_err(CheckpointError::Parse)?;
        Self::from_json_value(&doc)
    }

    /// Writes the checkpoint atomically: the artifact goes to a `.tmp`
    /// sibling first and is renamed into place, so a crash mid-write
    /// never truncates an existing checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] with the failing path.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io_err = |p: &Path, e: std::io::Error| CheckpointError::Io {
            path: p.display().to_string(),
            message: e.to_string(),
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json()).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, else as
    /// [`Self::from_json`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstId, PortSet, UopEntry};

    fn tiny_mapping() -> ThreeLevelMapping {
        ThreeLevelMapping::new(
            3,
            vec![
                vec![UopEntry::new(1, PortSet::from_ports(&[0]))],
                vec![UopEntry::new(2, PortSet::from_ports(&[1, 2]))],
            ],
        )
    }

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            seed: 0xA11CE,
            num_insts: 3,
            num_ports: 3,
            islands: 2,
            population_size: 24,
            selection: SelectionPolicy::Disagreement { top_k: 2 },
            budget: MeasurementBudget::measurements(40),
            used: BackendStats {
                measurements_requested: 9,
                measurements_performed: 7,
                measurement_time: Duration::from_nanos(1234),
            },
            indiv_tp: vec![1.0, 0.5, 2.0 / 3.0],
            rep_of: vec![0, 1, 1],
            measured: vec![
                MeasuredExperiment::new(Experiment::singleton(InstId(0)), 1.0),
                MeasuredExperiment::new(Experiment::pair(InstId(0), 1, InstId(2), 2), 2.25),
            ],
            rounds: vec![
                RoundStats {
                    round: 0,
                    experiments_submitted: 3,
                    measurements_performed: 3,
                    measurement_time: Duration::from_nanos(77),
                    cumulative_measurements: 3,
                    training_error: 0.125,
                },
                RoundStats {
                    round: 1,
                    experiments_submitted: 2,
                    measurements_performed: 2,
                    measurement_time: Duration::ZERO,
                    cumulative_measurements: 5,
                    training_error: f64::INFINITY, // in-flight round
                },
            ],
            round_mappings: vec![tiny_mapping()],
            pool: vec![Experiment::pair(InstId(0), 2, InstId(1), 1)],
            stream_taken: 6,
            phase: CheckpointPhase::Round(1),
            evo: Some(EvoCheckpoint {
                islands: vec![IslandCheckpoint {
                    population: vec![tiny_mapping()],
                    objectives: vec![(0.037_251, 4)],
                    rng: [1, u64::MAX, 3, 0x9E37_79B9_7F4A_7C15],
                }],
                generations: 5,
                history: vec![0.5, 0.25, 0.125, 0.125, 0.125],
                best_so_far: 0.125,
                stall: 2,
            }),
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let cp = sample();
        let text = cp.to_json();
        let back = SessionCheckpoint::from_json(&text).expect("checkpoint parses");
        assert_eq!(back, cp);
        // Including the +inf placeholder of the in-flight round.
        assert!(back.rounds[1].training_error.is_infinite());
        // And through a second trip (text is canonical).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn infinity_free_state_roundtrips_too() {
        let mut cp = sample();
        cp.phase = CheckpointPhase::PrePolish;
        cp.evo.as_mut().unwrap().best_so_far = f64::INFINITY;
        let back = SessionCheckpoint::from_json(&cp.to_json()).expect("parses");
        assert!(back.evo.as_ref().unwrap().best_so_far.is_infinite());
        assert_eq!(back, cp);
    }

    #[test]
    fn truncated_text_reports_a_positioned_parse_error() {
        let text = sample().to_json();
        let truncated = &text[..text.len() / 2];
        match SessionCheckpoint::from_json(truncated) {
            Err(CheckpointError::Parse(e)) => {
                assert!(e.to_string().contains("at byte"), "{e}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_versions_are_rejected_loudly() {
        let text = sample().to_json().replace("\"version\":1", "\"version\":99");
        match SessionCheckpoint::from_json(&text) {
            Err(CheckpointError::Version { found: 99 }) => {}
            other => panic!("expected a version error, got {other:?}"),
        }
        // A non-checkpoint JSON document is a shape error, not a panic.
        match SessionCheckpoint::from_json("{\"hello\": 1}") {
            Err(CheckpointError::Shape(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected a shape error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_fields_name_their_path() {
        let text = sample().to_json().replace("\"stream_taken\":6", "\"stream_taken\":\"six\"");
        match SessionCheckpoint::from_json(&text) {
            Err(CheckpointError::Shape(msg)) => assert!(msg.contains("stream_taken"), "{msg}"),
            other => panic!("expected a shape error, got {other:?}"),
        }
    }
}
