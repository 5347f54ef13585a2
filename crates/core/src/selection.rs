//! Budget-aware experiment selection: the vocabulary shared between the
//! adaptive scheduler (`pmevo_evo::selection`), the session facade and
//! the reproduction binaries.
//!
//! The paper measures its full experiment corpus up front; on real
//! machines that corpus is the dominant cost (paper Table 2 reports tens
//! of hours of benchmarking time). This module types the alternative —
//! *round-based* measurement under an explicit [`MeasurementBudget`]:
//!
//! * [`SelectionPolicy`] — how the next round's experiments are chosen
//!   (one-shot, population-disagreement, or uniform control).
//! * [`MeasurementBudget`] — when to stop measuring (a cap on real
//!   measurements and/or on measurement wall time), checked against the
//!   [`BackendStats`] delta of the run so cache hits are free.
//! * [`RoundStats`] — the per-round accounting that ends up in
//!   `SessionReport::rounds`, serializable through the [`crate::json`]
//!   codec with bit-exact round trips.

use crate::backend::BackendStats;
use crate::json::Value;
use std::fmt;
use std::time::Duration;

/// How an inference run picks the experiments it measures.
///
/// The round-based policies start from a seed corpus (the singleton
/// sweep plus a few pairs), then submit `top_k` unmeasured candidates
/// per round until the [`MeasurementBudget`] is exhausted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Measure the full experiment corpus up front (paper §4.1, the
    /// default).
    #[default]
    OneShot,
    /// Disagreement-driven adaptive selection: each round, candidates
    /// are scored by the variance of their predicted throughput across
    /// the current evolutionary population, and the `top_k` most
    /// contested ones are measured.
    Disagreement {
        /// Number of experiments submitted per round.
        top_k: usize,
    },
    /// Round-based control policy: `top_k` candidates are drawn
    /// uniformly (seeded) from the unmeasured pool each round. Same
    /// budget mechanics as [`Disagreement`](Self::Disagreement), no
    /// model guidance — the ablation floor for `fig_budget`.
    Uniform {
        /// Number of experiments submitted per round.
        top_k: usize,
    },
}

impl SelectionPolicy {
    /// Whether the policy measures in rounds instead of up front.
    pub fn is_adaptive(&self) -> bool {
        !matches!(self, SelectionPolicy::OneShot)
    }

    /// The per-round submission count of a round-based policy.
    pub fn top_k(&self) -> Option<usize> {
        match *self {
            SelectionPolicy::OneShot => None,
            SelectionPolicy::Disagreement { top_k } | SelectionPolicy::Uniform { top_k } => {
                Some(top_k)
            }
        }
    }

    /// A filesystem-safe slug, used to key measurement artifacts so
    /// adaptive and one-shot runs cannot poison each other's caches.
    pub fn slug(&self) -> String {
        match *self {
            SelectionPolicy::OneShot => "one-shot".to_owned(),
            SelectionPolicy::Disagreement { top_k } => format!("disagreement-k{top_k}"),
            SelectionPolicy::Uniform { top_k } => format!("uniform-k{top_k}"),
        }
    }

    /// The policy as a [`Value`] tree
    /// (`{"policy": "disagreement", "top_k": 16}`).
    pub fn to_json_value(&self) -> Value {
        match *self {
            SelectionPolicy::OneShot => {
                Value::Obj(vec![("policy".into(), Value::Str("one-shot".into()))])
            }
            SelectionPolicy::Disagreement { top_k } => Value::Obj(vec![
                ("policy".into(), Value::Str("disagreement".into())),
                ("top_k".into(), Value::UInt(top_k as u64)),
            ]),
            SelectionPolicy::Uniform { top_k } => Value::Obj(vec![
                ("policy".into(), Value::Str("uniform".into())),
                ("top_k".into(), Value::UInt(top_k as u64)),
            ]),
        }
    }

    /// Reads a policy back from its [`Self::to_json_value`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        let kind = match v.get("policy") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err("selection policy needs a string field `policy`".into()),
        };
        let top_k = || {
            v.get("top_k")
                .and_then(Value::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("selection policy `{kind}` needs an integer `top_k`"))
        };
        match kind {
            "one-shot" => Ok(SelectionPolicy::OneShot),
            "disagreement" => Ok(SelectionPolicy::Disagreement { top_k: top_k()? }),
            "uniform" => Ok(SelectionPolicy::Uniform { top_k: top_k()? }),
            other => Err(format!("unknown selection policy {other:?}")),
        }
    }
}

impl fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.slug())
    }
}

/// A cap on how much a run may measure: a maximum number of real
/// measurements, a maximum measurement wall time, both, or neither.
///
/// The budget is always checked against a [`BackendStats`] *delta*
/// ([`BackendStats::since`] a snapshot taken at run start), so cache
/// hits of a [`crate::CachingBackend`] never consume budget.
///
/// The cap is enforced *between* submissions, not within one: a
/// consumer checks [`is_exhausted`](Self::is_exhausted) before each
/// batch, and a mandatory batch (the adaptive pipeline's singleton
/// sweep, without which inference is undefined) is measured even when
/// it alone exceeds the budget.
///
/// # Example
///
/// ```
/// use pmevo_core::{BackendStats, MeasurementBudget};
///
/// let budget = MeasurementBudget::measurements(100);
/// let mut used = BackendStats::default();
/// assert!(!budget.is_exhausted(&used));
/// used.measurements_performed = 100;
/// assert!(budget.is_exhausted(&used));
/// assert_eq!(MeasurementBudget::UNLIMITED.remaining_measurements(&used), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasurementBudget {
    /// Cap on real measurements performed (`None` = unlimited).
    pub max_measurements: Option<u64>,
    /// Cap on measurement wall time (`None` = unlimited). Wall time is
    /// inherently nondeterministic; budgets meant for reproducible runs
    /// should cap measurements instead.
    pub max_measurement_time: Option<Duration>,
}

impl MeasurementBudget {
    /// No cap at all — one-shot behaviour.
    pub const UNLIMITED: MeasurementBudget = MeasurementBudget {
        max_measurements: None,
        max_measurement_time: None,
    };

    /// A budget of `n` real measurements.
    pub fn measurements(n: u64) -> Self {
        MeasurementBudget {
            max_measurements: Some(n),
            max_measurement_time: None,
        }
    }

    /// A budget of `t` measurement wall time.
    pub fn measurement_time(t: Duration) -> Self {
        MeasurementBudget {
            max_measurements: None,
            max_measurement_time: Some(t),
        }
    }

    /// Whether neither cap is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_measurements.is_none() && self.max_measurement_time.is_none()
    }

    /// Whether the run has spent its budget, given the stats accumulated
    /// since its start.
    pub fn is_exhausted(&self, used: &BackendStats) -> bool {
        if let Some(max) = self.max_measurements {
            if used.measurements_performed >= max {
                return true;
            }
        }
        if let Some(max) = self.max_measurement_time {
            if used.measurement_time >= max {
                return true;
            }
        }
        false
    }

    /// How many more real measurements the budget allows (`None` when
    /// the measurement count is uncapped).
    pub fn remaining_measurements(&self, used: &BackendStats) -> Option<u64> {
        self.max_measurements
            .map(|max| max.saturating_sub(used.measurements_performed))
    }

    /// The budget as a [`Value`] tree (durations in integer
    /// nanoseconds, unset caps as `null`).
    pub fn to_json_value(&self) -> Value {
        let opt_u64 = |v: Option<u64>| v.map(Value::UInt).unwrap_or(Value::Null);
        Value::Obj(vec![
            ("max_measurements".into(), opt_u64(self.max_measurements)),
            (
                "max_measurement_time_ns".into(),
                opt_u64(
                    self.max_measurement_time
                        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
                ),
            ),
        ])
    }

    /// Reads a budget back from its [`Self::to_json_value`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        if !matches!(v, Value::Obj(_)) {
            return Err("budget must be a JSON object".into());
        }
        let opt_u64 = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None | Some(Value::Null) => Ok(None),
                Some(f) => f
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("budget field `{name}` must be an integer or null")),
            }
        };
        Ok(MeasurementBudget {
            max_measurements: opt_u64("max_measurements")?,
            max_measurement_time: opt_u64("max_measurement_time_ns")?.map(Duration::from_nanos),
        })
    }
}

impl fmt::Display for MeasurementBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.max_measurements, self.max_measurement_time) {
            (None, None) => write!(f, "unlimited"),
            (Some(n), None) => write!(f, "{n} measurements"),
            (None, Some(t)) => write!(f, "{t:.1?} of measurement"),
            (Some(n), Some(t)) => write!(f, "{n} measurements / {t:.1?}"),
        }
    }
}

/// Per-round measurement accounting of a round-based run, derived from
/// the backend's [`BackendStats`] deltas. Round 0 is the seed corpus;
/// every later round is one top-k submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round index (0 = seed corpus).
    pub round: u32,
    /// Experiments submitted to the backend this round (requested;
    /// includes cache hits).
    pub experiments_submitted: u64,
    /// Real measurements the leaf backend performed this round.
    pub measurements_performed: u64,
    /// Wall time the leaf backend spent measuring this round.
    pub measurement_time: Duration,
    /// Real measurements performed by the whole run up to and including
    /// this round.
    pub cumulative_measurements: u64,
    /// Training `D_avg` of the best mapping after evolving on everything
    /// measured up to and including this round.
    pub training_error: f64,
}

impl RoundStats {
    /// Builds one round's accounting from the [`BackendStats`] delta of
    /// its submission — the single place the delta-to-round field
    /// wiring lives.
    pub fn from_delta(
        round: u32,
        delta: &BackendStats,
        cumulative_measurements: u64,
        training_error: f64,
    ) -> RoundStats {
        RoundStats {
            round,
            experiments_submitted: delta.measurements_requested,
            measurements_performed: delta.measurements_performed,
            measurement_time: delta.measurement_time,
            cumulative_measurements,
            training_error,
        }
    }

    /// A copy with the wall-clock field zeroed, for bit-exact
    /// comparisons across thread counts and machines.
    #[must_use]
    pub fn without_timing(mut self) -> RoundStats {
        self.measurement_time = Duration::ZERO;
        self
    }

    /// The round as a [`Value`] tree (durations in integer nanoseconds).
    pub fn to_json_value(&self) -> Value {
        Value::Obj(vec![
            ("round".into(), Value::UInt(u64::from(self.round))),
            (
                "experiments_submitted".into(),
                Value::UInt(self.experiments_submitted),
            ),
            (
                "measurements_performed".into(),
                Value::UInt(self.measurements_performed),
            ),
            (
                "measurement_time_ns".into(),
                Value::UInt(u64::try_from(self.measurement_time.as_nanos()).unwrap_or(u64::MAX)),
            ),
            (
                "cumulative_measurements".into(),
                Value::UInt(self.cumulative_measurements),
            ),
            ("training_error".into(), Value::Num(self.training_error)),
        ])
    }

    /// Reads a round back from its [`Self::to_json_value`] form. The
    /// writer emits `null` for a non-finite number, and the only one a
    /// round holds is the `+inf` training error of a round whose
    /// evolution has not finished, so `null` reads as `+inf`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        let uint = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("round stats need an integer field `{name}`"))
        };
        let training_error = match v.get("training_error") {
            Some(&Value::Num(f)) => f,
            Some(&Value::UInt(n)) => n as f64,
            Some(Value::Null) => f64::INFINITY,
            _ => return Err("round stats need a number field `training_error`".into()),
        };
        Ok(RoundStats {
            round: u32::try_from(uint("round")?)
                .map_err(|_| "round index overflows u32".to_owned())?,
            experiments_submitted: uint("experiments_submitted")?,
            measurements_performed: uint("measurements_performed")?,
            measurement_time: Duration::from_nanos(uint("measurement_time_ns")?),
            cumulative_measurements: uint("cumulative_measurements")?,
            training_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn policy_accessors_and_slugs() {
        assert!(!SelectionPolicy::OneShot.is_adaptive());
        assert_eq!(SelectionPolicy::OneShot.top_k(), None);
        let d = SelectionPolicy::Disagreement { top_k: 8 };
        assert!(d.is_adaptive());
        assert_eq!(d.top_k(), Some(8));
        assert_eq!(d.slug(), "disagreement-k8");
        assert_eq!(SelectionPolicy::Uniform { top_k: 3 }.to_string(), "uniform-k3");
        assert_eq!(SelectionPolicy::default(), SelectionPolicy::OneShot);
    }

    #[test]
    fn policy_roundtrips_through_json() {
        for policy in [
            SelectionPolicy::OneShot,
            SelectionPolicy::Disagreement { top_k: 16 },
            SelectionPolicy::Uniform { top_k: 4 },
        ] {
            let v = policy.to_json_value();
            let back = SelectionPolicy::from_json_value(&v).expect("policy parses");
            assert_eq!(back, policy);
            // And through actual text.
            let text = json::write_compact(&v);
            let parsed = json::parse(&text).expect("text parses");
            assert_eq!(SelectionPolicy::from_json_value(&parsed), Ok(policy));
        }
        assert!(SelectionPolicy::from_json_value(&Value::Null).is_err());
        assert!(SelectionPolicy::from_json_value(&Value::Obj(vec![(
            "policy".into(),
            Value::Str("disagreement".into())
        )]))
        .is_err());
    }

    #[test]
    fn budget_exhaustion_checks_both_caps() {
        let used = |n: u64, secs: u64| BackendStats {
            measurements_requested: n,
            measurements_performed: n,
            measurement_time: Duration::from_secs(secs),
        };
        assert!(MeasurementBudget::UNLIMITED.is_unlimited());
        assert!(!MeasurementBudget::UNLIMITED.is_exhausted(&used(u64::MAX, 1_000_000)));
        let by_count = MeasurementBudget::measurements(10);
        assert!(!by_count.is_exhausted(&used(9, 0)));
        assert!(by_count.is_exhausted(&used(10, 0)));
        assert_eq!(by_count.remaining_measurements(&used(4, 0)), Some(6));
        assert_eq!(by_count.remaining_measurements(&used(40, 0)), Some(0));
        let by_time = MeasurementBudget::measurement_time(Duration::from_secs(5));
        assert!(!by_time.is_exhausted(&used(1000, 4)));
        assert!(by_time.is_exhausted(&used(0, 5)));
        assert_eq!(by_time.remaining_measurements(&used(0, 5)), None);
    }

    #[test]
    fn budget_roundtrips_through_json() {
        for budget in [
            MeasurementBudget::UNLIMITED,
            MeasurementBudget::measurements(123),
            MeasurementBudget::measurement_time(Duration::from_nanos(987_654_321)),
            MeasurementBudget {
                max_measurements: Some(7),
                max_measurement_time: Some(Duration::from_millis(250)),
            },
        ] {
            let text = json::write_compact(&budget.to_json_value());
            let parsed = json::parse(&text).expect("budget text parses");
            assert_eq!(MeasurementBudget::from_json_value(&parsed), Ok(budget));
        }
        // Missing fields read as unlimited; wrong types are rejected.
        assert_eq!(
            MeasurementBudget::from_json_value(&Value::Obj(vec![])),
            Ok(MeasurementBudget::UNLIMITED)
        );
        assert!(MeasurementBudget::from_json_value(&Value::Obj(vec![(
            "max_measurements".into(),
            Value::Str("lots".into())
        )]))
        .is_err());
        // A bare number is not a budget — it must not silently decode
        // as UNLIMITED.
        assert!(MeasurementBudget::from_json_value(&Value::UInt(200)).is_err());
        assert!(MeasurementBudget::from_json_value(&Value::Null).is_err());
    }

    #[test]
    fn round_stats_roundtrip_through_json() {
        let round = RoundStats {
            round: 3,
            experiments_submitted: 16,
            measurements_performed: 12,
            measurement_time: Duration::from_nanos(123_456_789),
            cumulative_measurements: 90,
            training_error: 0.037_251,
        };
        let text = json::write_compact(&round.to_json_value());
        let parsed = json::parse(&text).expect("round text parses");
        assert_eq!(RoundStats::from_json_value(&parsed), Ok(round));
        assert_eq!(round.without_timing().measurement_time, Duration::ZERO);
        assert!(RoundStats::from_json_value(&Value::Obj(vec![])).is_err());
    }
}
