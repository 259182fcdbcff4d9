//! The shared machine-readable **run artifact**.
//!
//! A [`RunRecord`] is one simulation run, serialized as JSON: the full
//! [`Instance`], the [`Schedule`] the strategy produced, every recorded
//! metric, and — when the medium recorded them — the per-step capacity
//! trace and rejection counts. The record is *self-certifying*:
//! [`RunRecord::certify`] replays the embedded schedule against the
//! embedded instance (under the embedded capacity trace, if any) and
//! cross-checks the headline metrics, so a third party can re-validate a
//! claimed result from the artifact alone.
//!
//! Every layer of the suite speaks this one schema: the engine builds
//! records (`ocd-heuristics`' `SimOutcome::to_record`), the CLI `run
//! --record` writes them, and `ocd-bench` consumes them for its tables.

use crate::metrics::MetricsSnapshot;
use crate::provenance::{ProvenanceRecord, ProvenanceTrace};
use crate::validate::{self, ScheduleError};
use crate::{Instance, InstanceError, Schedule};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Current schema version; bump when a field changes meaning.
///
/// Version history: **1** — original schema; **2** — adds the optional
/// embedded [`MetricsSnapshot`]; **3** — adds the optional embedded
/// provenance digest ([`ProvenanceRecord`]), which [`RunRecord::certify`]
/// cross-checks against the digest derived from replaying the embedded
/// schedule; **4** — the embedded [`Instance`] may carry
/// [`NodeBudgets`](crate::NodeBudgets) (the node-capacity regime), which
/// certification enforces during replay. The bump exists because older
/// parsers ignore unknown fields: a budget-ignorant reader would
/// otherwise silently certify a budgeted record *without* the budget
/// checks. Versions 1–3 remain readable and certifiable (see
/// [`RUN_RECORD_MIN_VERSION`]).
pub const RUN_RECORD_VERSION: u32 = 4;

/// Oldest schema version [`RunRecord::certify`] still accepts.
pub const RUN_RECORD_MIN_VERSION: u32 = 1;

/// Per-step counters of a lockstep run: the engine's step trace, and
/// its serialized form in a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepTrace {
    /// 0-based step index.
    pub step: usize,
    /// Tokens transferred this step.
    pub moves: u64,
    /// Outstanding (vertex, token) needs after the step.
    pub remaining_need: u64,
    /// Wall-clock nanoseconds the step took (planning + validation +
    /// application), so figure binaries can report per-step cost.
    pub nanos: u64,
}

/// One simulation run as a self-contained, self-certifying artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Schema version ([`RUN_RECORD_VERSION`]).
    pub version: u32,
    /// Strategy name (e.g. `local-rarest`).
    pub strategy: String,
    /// Medium name (e.g. `ideal`, `cross-traffic`, `physical-underlay`).
    pub medium: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// The full problem instance the run solved.
    pub instance: Instance,
    /// The schedule the strategy produced.
    pub schedule: Schedule,
    /// Whether every want was satisfied within the step budget.
    pub success: bool,
    /// Steps executed (= `schedule.makespan()`).
    pub steps: usize,
    /// Tokens transferred (= `schedule.bandwidth()`).
    pub bandwidth: u64,
    /// Tokens delivered to vertices that already held them.
    pub duplicate_deliveries: u64,
    /// Wall-clock nanoseconds for the whole run.
    pub wall_nanos: u64,
    /// Per-vertex completion step (`None` = never satisfied).
    pub completion_steps: Vec<Option<usize>>,
    /// Per-step counters.
    pub trace: Vec<StepTrace>,
    /// `capacity_trace[i][e]` = effective capacity of arc `e` at step
    /// `i`; empty for media with static capacities.
    pub capacity_trace: Vec<Vec<u32>>,
    /// Token-moves rejected by admission control, per step; empty for
    /// media without admission control.
    pub rejected_per_step: Vec<u64>,
    /// Metrics snapshot of the run, when metrics were enabled
    /// (schema version ≥ 2; `None` when absent or on version-1
    /// artifacts).
    pub metrics: Option<MetricsSnapshot>,
    /// Token-provenance digest of the run, when provenance was enabled
    /// (schema version ≥ 3; `None` when absent or on older artifacts).
    /// [`RunRecord::certify`] checks it against the embedded schedule.
    #[serde(default)]
    pub provenance: Option<ProvenanceRecord>,
}

/// Why a [`RunRecord`] failed certification or (de)serialization.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecordError {
    /// The record's schema version is not one this build understands.
    Version {
        /// The version found in the record.
        found: u32,
    },
    /// The embedded capacity trace is too short to replay the schedule.
    TraceTooShort {
        /// Steps covered by the capacity trace.
        trace_steps: usize,
        /// Steps in the schedule.
        schedule_steps: usize,
    },
    /// A capacity-trace row has fewer entries than the graph has arcs.
    TraceRowTooNarrow {
        /// The row's step.
        step: usize,
        /// Entries in the row.
        width: usize,
        /// Arcs in the graph.
        arcs: usize,
    },
    /// The embedded instance is malformed.
    Instance(InstanceError),
    /// The embedded schedule is invalid for the embedded instance.
    Schedule(ScheduleError),
    /// A headline metric disagrees with the replayed schedule.
    Mismatch {
        /// Which metric disagreed.
        field: &'static str,
        /// The value claimed by the record.
        claimed: String,
        /// The value derived from the embedded schedule.
        derived: String,
    },
    /// The record could not be parsed or written as JSON.
    Json(serde_json::Error),
    /// The record file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Version { found } => write!(
                f,
                "unsupported run record version {found} (this build understands \
                 {RUN_RECORD_MIN_VERSION}..={RUN_RECORD_VERSION})"
            ),
            RecordError::TraceTooShort {
                trace_steps,
                schedule_steps,
            } => write!(
                f,
                "capacity trace covers {trace_steps} steps but the schedule has {schedule_steps}"
            ),
            RecordError::TraceRowTooNarrow { step, width, arcs } => write!(
                f,
                "capacity trace row {step} has {width} entries but the graph has {arcs} arcs"
            ),
            RecordError::Instance(e) => write!(f, "embedded instance is malformed: {e}"),
            RecordError::Schedule(e) => write!(f, "embedded schedule is invalid: {e}"),
            RecordError::Mismatch {
                field,
                claimed,
                derived,
            } => write!(
                f,
                "record claims {field} = {claimed} but the embedded schedule gives {derived}"
            ),
            RecordError::Json(e) => write!(f, "run record JSON error: {e}"),
            RecordError::Io(e) => write!(f, "run record I/O error: {e}"),
        }
    }
}

impl Error for RecordError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecordError::Instance(e) => Some(e),
            RecordError::Schedule(e) => Some(e),
            RecordError::Json(e) => Some(e),
            RecordError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InstanceError> for RecordError {
    fn from(e: InstanceError) -> Self {
        RecordError::Instance(e)
    }
}

impl From<ScheduleError> for RecordError {
    fn from(e: ScheduleError) -> Self {
        RecordError::Schedule(e)
    }
}

impl From<serde_json::Error> for RecordError {
    fn from(e: serde_json::Error) -> Self {
        RecordError::Json(e)
    }
}

impl From<std::io::Error> for RecordError {
    fn from(e: std::io::Error) -> Self {
        RecordError::Io(e)
    }
}

impl RunRecord {
    /// Total token-moves rejected by admission control.
    #[must_use]
    pub fn total_rejected(&self) -> u64 {
        self.rejected_per_step.iter().sum()
    }

    /// Wall-clock milliseconds for the whole run.
    #[must_use]
    pub fn run_ms(&self) -> f64 {
        self.wall_nanos as f64 / 1e6
    }

    /// Re-certifies the run from the artifact alone: replays the
    /// embedded schedule against the embedded instance (under the
    /// embedded capacity trace, when present) and cross-checks the
    /// headline metrics against the replay.
    ///
    /// # Errors
    ///
    /// [`RecordError::Version`] for an unknown schema version,
    /// [`RecordError::Instance`] for a malformed instance,
    /// [`RecordError::TraceTooShort`] / [`RecordError::TraceRowTooNarrow`]
    /// / [`RecordError::Schedule`] when the schedule does not replay,
    /// and [`RecordError::Mismatch`] when a claimed metric disagrees
    /// with the replay.
    pub fn certify(&self) -> Result<validate::Replay, RecordError> {
        if !(RUN_RECORD_MIN_VERSION..=RUN_RECORD_VERSION).contains(&self.version) {
            return Err(RecordError::Version {
                found: self.version,
            });
        }
        self.instance.check_shape()?;
        let arcs = self.instance.graph().edge_count();
        if let Some(step) = self.capacity_trace.iter().position(|row| row.len() < arcs) {
            return Err(RecordError::TraceRowTooNarrow {
                step,
                width: self.capacity_trace[step].len(),
                arcs,
            });
        }
        let replay = if self.capacity_trace.is_empty() {
            validate::replay(&self.instance, &self.schedule)?
        } else {
            if self.capacity_trace.len() < self.schedule.makespan() {
                return Err(RecordError::TraceTooShort {
                    trace_steps: self.capacity_trace.len(),
                    schedule_steps: self.schedule.makespan(),
                });
            }
            validate::replay_with_capacities(&self.instance, &self.schedule, &self.capacity_trace)?
        };
        let checks: [(&'static str, u64, u64); 3] = [
            ("steps", self.steps as u64, self.schedule.makespan() as u64),
            ("bandwidth", self.bandwidth, self.schedule.bandwidth()),
            (
                "success",
                u64::from(self.success),
                u64::from(replay.is_successful()),
            ),
        ];
        for (field, claimed, derived) in checks {
            if claimed != derived {
                return Err(RecordError::Mismatch {
                    field,
                    claimed: claimed.to_string(),
                    derived: derived.to_string(),
                });
            }
        }
        if let Some(claimed) = &self.provenance {
            let derived =
                ProvenanceTrace::from_schedule(&self.instance, &self.schedule).to_record();
            if *claimed != derived {
                return Err(RecordError::Mismatch {
                    field: "provenance",
                    claimed: format!("digest with {} entries", claimed.entries.len()),
                    derived: format!("digest with {} entries", derived.entries.len()),
                });
            }
        }
        Ok(replay)
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`RecordError::Json`] if serialization fails.
    pub fn to_json(&self) -> Result<String, RecordError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a record from JSON.
    ///
    /// # Errors
    ///
    /// [`RecordError::Json`] on malformed input and
    /// [`RecordError::Instance`] for a malformed embedded instance.
    pub fn from_json(json: &str) -> Result<Self, RecordError> {
        let record: RunRecord = serde_json::from_str(json)?;
        record.instance.check_shape()?;
        Ok(record)
    }

    /// Writes the record to `path` as JSON.
    ///
    /// # Errors
    ///
    /// [`RecordError::Json`] or [`RecordError::Io`].
    pub fn write_json(&self, path: &Path) -> Result<(), RecordError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads a record from a JSON file.
    ///
    /// # Errors
    ///
    /// [`RecordError::Json`] or [`RecordError::Io`].
    pub fn read_json(path: &Path) -> Result<Self, RecordError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Token, TokenSet};
    use ocd_graph::generate::classic;
    use ocd_graph::EdgeId;

    /// 0 → 1 relay: one token, two steps.
    fn sample_record() -> RunRecord {
        let g = classic::path(3, 1, false);
        let instance = Instance::builder(g, 1)
            .have(0, [Token::new(0)])
            .want(2, [Token::new(0)])
            .build()
            .unwrap();
        let mut schedule = Schedule::new();
        schedule.push_step([(EdgeId::new(0), TokenSet::from_tokens(1, [Token::new(0)]))]);
        schedule.push_step([(EdgeId::new(1), TokenSet::from_tokens(1, [Token::new(0)]))]);
        RunRecord {
            version: RUN_RECORD_VERSION,
            strategy: "test".into(),
            medium: "ideal".into(),
            seed: 7,
            instance,
            steps: schedule.makespan(),
            bandwidth: schedule.bandwidth(),
            schedule,
            success: true,
            duplicate_deliveries: 0,
            wall_nanos: 1_500_000,
            completion_steps: vec![Some(0), Some(1), Some(2)],
            trace: vec![
                StepTrace {
                    step: 0,
                    moves: 1,
                    remaining_need: 1,
                    nanos: 10,
                },
                StepTrace {
                    step: 1,
                    moves: 1,
                    remaining_need: 0,
                    nanos: 10,
                },
            ],
            capacity_trace: Vec::new(),
            rejected_per_step: Vec::new(),
            metrics: None,
            provenance: None,
        }
    }

    #[test]
    fn certify_accepts_a_faithful_record() {
        let record = sample_record();
        let replay = record.certify().unwrap();
        assert!(replay.is_successful());
        assert_eq!(record.total_rejected(), 0);
        assert!((record.run_ms() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip_preserves_certifiability() {
        let record = sample_record();
        let json = record.to_json().unwrap();
        let back = RunRecord::from_json(&json).unwrap();
        assert_eq!(back.schedule, record.schedule);
        assert_eq!(back.seed, 7);
        back.certify().unwrap();
        // The medium extras are always present (empty = not recorded).
        assert!(json.contains("capacity_trace"));
        assert!(json.contains("rejected_per_step"));
    }

    #[test]
    fn certify_rejects_tampered_metrics() {
        let mut record = sample_record();
        record.bandwidth += 5;
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Mismatch {
                field: "bandwidth",
                ..
            }
        ));
    }

    #[test]
    fn certify_rejects_unknown_version() {
        let mut record = sample_record();
        record.version = 99;
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Version { found: 99 }
        ));
        record.version = 0;
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Version { found: 0 }
        ));
    }

    #[test]
    fn certify_accepts_all_schema_versions() {
        // A version-1 artifact has neither a `metrics` nor a
        // `provenance` key; it must still parse (both = None) and
        // certify.
        let mut record = sample_record();
        record.version = 1;
        let v1_json = record
            .to_json()
            .unwrap()
            .replace(",\n  \"metrics\": null", "")
            .replace(",\n  \"provenance\": null", "");
        assert!(
            !v1_json.contains("metrics") && !v1_json.contains("provenance"),
            "v1 fixture must omit both optional fields"
        );
        let v1 = RunRecord::from_json(&v1_json).unwrap();
        assert_eq!(v1.version, 1);
        assert!(v1.metrics.is_none());
        assert!(v1.provenance.is_none());
        v1.certify().unwrap();
        // A version-2 artifact carries metrics but no `provenance` key.
        let mut record = sample_record();
        record.version = 2;
        record.metrics = Some(MetricsSnapshot::new([("engine.moves", 2)], [], [], []));
        let v2_json = record
            .to_json()
            .unwrap()
            .replace(",\n  \"provenance\": null", "");
        assert!(!v2_json.contains("provenance"));
        let v2 = RunRecord::from_json(&v2_json).unwrap();
        assert_eq!(v2.version, 2);
        assert!(v2.provenance.is_none());
        assert_eq!(v2.metrics, record.metrics);
        v2.certify().unwrap();
        // A version-3 artifact is the current shape minus node budgets
        // (its embedded instance never carries them).
        let mut v3 = sample_record();
        v3.version = 3;
        v3.metrics = record.metrics.clone();
        v3.provenance =
            Some(ProvenanceTrace::from_schedule(&v3.instance, &v3.schedule).to_record());
        let v3_json = v3.to_json().unwrap();
        assert!(!v3_json.contains("node_budgets"));
        let v3_back = RunRecord::from_json(&v3_json).unwrap();
        assert_eq!(v3_back.version, 3);
        v3_back.certify().unwrap();
        // And a current-version record with both embedded extras
        // certifies and round-trips them.
        let mut v4 = sample_record();
        v4.metrics = record.metrics.clone();
        v4.provenance =
            Some(ProvenanceTrace::from_schedule(&v4.instance, &v4.schedule).to_record());
        v4.certify().unwrap();
        let back = RunRecord::from_json(&v4.to_json().unwrap()).unwrap();
        assert_eq!(back.metrics, v4.metrics);
        assert_eq!(back.provenance, v4.provenance);
    }

    /// 0 → 1 and 0 → 2 star under an uplink budget of 1: the server
    /// relays one copy per step through vertex 1.
    fn budgeted_record() -> RunRecord {
        let g = classic::star(3, 1, false);
        let instance = Instance::builder(g, 1)
            .have(0, [Token::new(0)])
            .want(1, [Token::new(0)])
            .want(2, [Token::new(0)])
            .node_budgets(crate::NodeBudgets::uplink_only(3, 1))
            .build()
            .unwrap();
        let mut schedule = Schedule::new();
        schedule.push_step([(EdgeId::new(0), TokenSet::from_tokens(1, [Token::new(0)]))]);
        schedule.push_step([(EdgeId::new(1), TokenSet::from_tokens(1, [Token::new(0)]))]);
        RunRecord {
            version: RUN_RECORD_VERSION,
            strategy: "test".into(),
            medium: "node-capacity".into(),
            seed: 7,
            steps: schedule.makespan(),
            bandwidth: schedule.bandwidth(),
            instance,
            schedule,
            success: true,
            duplicate_deliveries: 0,
            wall_nanos: 1_000_000,
            completion_steps: vec![Some(0), Some(1), Some(2)],
            trace: Vec::new(),
            capacity_trace: Vec::new(),
            rejected_per_step: Vec::new(),
            metrics: None,
            provenance: None,
        }
    }

    #[test]
    fn budgeted_record_round_trips_and_certifies() {
        let record = budgeted_record();
        record.certify().unwrap();
        let json = record.to_json().unwrap();
        assert!(json.contains("node_budgets"));
        assert!(json.contains("node-capacity"));
        let back = RunRecord::from_json(&json).unwrap();
        assert_eq!(back.medium, "node-capacity");
        assert_eq!(back.instance.node_budgets(), record.instance.node_budgets());
        back.certify().unwrap();
    }

    #[test]
    fn certify_enforces_embedded_node_budgets() {
        // Forge a schedule that sends on both server arcs in one step:
        // per-arc capacities allow it, the embedded uplink budget of 1
        // does not — certification must reject it.
        let mut record = budgeted_record();
        let mut s = Schedule::new();
        s.push_step([
            (EdgeId::new(0), TokenSet::from_tokens(1, [Token::new(0)])),
            (EdgeId::new(1), TokenSet::from_tokens(1, [Token::new(0)])),
        ]);
        record.steps = s.makespan();
        record.bandwidth = s.bandwidth();
        record.schedule = s;
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Schedule(ScheduleError::UplinkBudgetExceeded { step: 0, .. })
        ));
    }

    #[test]
    fn certify_rejects_tampered_provenance() {
        let mut record = sample_record();
        let mut digest =
            ProvenanceTrace::from_schedule(&record.instance, &record.schedule).to_record();
        digest.entries[0].step += 1; // forge a later acquisition
        record.provenance = Some(digest);
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Mismatch {
                field: "provenance",
                ..
            }
        ));
    }

    #[test]
    fn certify_rejects_invalid_embedded_schedule() {
        let mut record = sample_record();
        // Swap the steps: the relay now sends before possessing.
        record.schedule = {
            let mut s = Schedule::new();
            s.push_step([(EdgeId::new(1), TokenSet::from_tokens(1, [Token::new(0)]))]);
            s.push_step([(EdgeId::new(0), TokenSet::from_tokens(1, [Token::new(0)]))]);
            s
        };
        record.success = false;
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Schedule(ScheduleError::TokenNotPossessed { .. })
        ));
    }

    #[test]
    fn certify_uses_the_capacity_trace_when_present() {
        let mut record = sample_record();
        record.capacity_trace = vec![vec![1, 1], vec![1, 0]]; // arc 1 down at step 1
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::Schedule(ScheduleError::CapacityExceeded { step: 1, .. })
        ));
        record.capacity_trace = vec![vec![1, 1]]; // shorter than the schedule
        assert!(matches!(
            record.certify().unwrap_err(),
            RecordError::TraceTooShort {
                trace_steps: 1,
                schedule_steps: 2,
            }
        ));
    }
}
