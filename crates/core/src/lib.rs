//! Core model of the **Overlay Network Content Distribution** (OCD)
//! problem (Killian, Vrable, Snoeren, Vahdat, Pasquale; PODC 2005).
//!
//! The paper's §3.1 model: content is a set of unit-sized [`Token`]s over
//! a weighted digraph whose arc capacities bound how many tokens cross an
//! arc per timestep. Each vertex starts with a *have* set `h(v)` and must
//! end with its *want* set `w(v)`. A [`Schedule`] is a sequence of
//! timesteps, each assigning token sets to arcs, subject to capacity and
//! to possession (a vertex can only send tokens it held at the start of
//! the step). Successful schedules are measured by **makespan** (number
//! of timesteps — FOCD, §3.2) and **bandwidth** (number of token
//! transfers — EOCD, §3.3).
//!
//! This crate provides the model and everything that follows directly
//! from it:
//!
//! - [`Token`] / [`TokenSet`]: dense bitset token algebra.
//! - [`Instance`]: graph + have/want functions, with satisfiability
//!   analysis.
//! - [`budgets`]: optional per-vertex uplink/downlink token budgets
//!   ([`NodeBudgets`]) — the node-capacity regime of Mundinger–Weber–
//!   Weiss, enforced by [`validate`] when an instance carries them.
//! - [`Schedule`] and [`validate`]: replay-based validation with precise
//!   error reporting.
//! - [`prune`]: the paper's §5.1 post-processing that removes duplicate
//!   and never-used deliveries.
//! - [`bounds`]: the paper's §5.1 lower bounds (remaining bandwidth,
//!   radius/capacity makespan bound `M_i(v)`, one-step lookahead).
//! - [`knowledge`]: the LOCD (§4.1) aggregate-knowledge model.
//! - [`gf256`] and [`rlnc`]: the §6 redundancy story made real —
//!   GF(2^8) arithmetic and random linear network coding with a
//!   rank-tracked [`CodedBasis`] (the coded analogue of [`TokenSet`]).
//! - [`metrics`]: the suite-wide observability layer — a name-sorted
//!   snapshot of counters/gauges/log2-histograms/series that every
//!   execution layer builds after its run, from what the run returns.
//! - [`span`]: the flight-recorder layer — named, nested, timed spans
//!   with attached counters and an instantaneous event stream behind a
//!   zero-cost [`SpanRecorder`], the one probe a hot loop takes,
//!   exported as Chrome/Perfetto timelines.
//! - [`provenance`]: the causal token-provenance layer — who delivered
//!   each token to each vertex, with critical-path/bottleneck analysis
//!   and Chrome/Perfetto export, derived from a schedule by replay, or
//!   recorded live where no schedule determines it.
//! - [`record`]: the self-certifying JSON run artifact ([`RunRecord`])
//!   shared by the engine, the CLI, and the bench pipeline.
//! - [`scenario`]: generators for every experimental scenario in §5.
//!
//! # Examples
//!
//! ```
//! use ocd_core::{Instance, Schedule, Token, TokenSet};
//! use ocd_graph::DiGraph;
//!
//! // Two nodes, one token, one arc.
//! let mut g = DiGraph::with_nodes(2);
//! let e = g.add_edge(g.node(0), g.node(1), 1).unwrap();
//! let instance = Instance::builder(g, 1)
//!     .have(0, [Token::new(0)])
//!     .want(1, [Token::new(0)])
//!     .build()
//!     .unwrap();
//!
//! let mut schedule = Schedule::new();
//! schedule.push_step([(e, TokenSet::from_tokens(1, [Token::new(0)]))]);
//! let replay = ocd_core::validate::replay(&instance, &schedule).unwrap();
//! assert!(replay.is_successful());
//! assert_eq!(schedule.makespan(), 1);
//! assert_eq!(schedule.bandwidth(), 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bounds;
pub mod budgets;
pub mod gf256;
mod instance;
pub mod knowledge;
pub mod metrics;
pub mod provenance;
pub mod prune;
pub mod record;
pub mod rlnc;
pub mod scenario;
mod schedule;
pub mod span;
mod token;
pub mod validate;

pub use budgets::NodeBudgets;
pub use instance::{Instance, InstanceBuilder, InstanceError, InstanceStats};
pub use metrics::MetricsSnapshot;
pub use provenance::{ProvenanceRecord, ProvenanceTrace};
pub use record::{RecordError, RunRecord, StepTrace};
pub use rlnc::{CodedBasis, CodedPacket, RlncInstance};
pub use schedule::{Move, Schedule, ScheduleRecorder, Timestep};
pub use span::{FlightRecorder, NoopSpans, SpanRecorder};
pub use token::{Token, TokenSet};
pub use validate::{Replay, ScheduleError};
