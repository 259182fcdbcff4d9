//! `ocd-net`: an asynchronous message-passing swarm runtime for the
//! overlay network content distribution problem.
//!
//! Where [`ocd_heuristics::simulate`] runs strategies in idealized
//! synchronized rounds, this crate drops the synchrony assumption: every
//! vertex becomes an actor with a mailbox and one FIFO send queue per
//! out-neighbor, links get per-arc latency, jitter (reordering) and
//! probabilistic loss, vertices can crash and restart, and receivers
//! retry requests with timeouts and exponential backoff. The §5.1
//! heuristics survive the move because their decision logic lives in
//! [`ocd_heuristics::policy`] and is shared verbatim between both
//! worlds.
//!
//! # Protocol
//!
//! Actors exchange four typed messages (see [`msg`] for the grammar):
//! `Have` possession-bitmap announcements, `Request` asks on a specific
//! in-arc, `Token` data payloads (the only kind metered by arc
//! capacity), and `Cancel` withdrawals for tokens obtained elsewhere.
//!
//! # Two protocols, one link layer
//!
//! [`run_swarm`] moves named tokens; [`run_coded_swarm`] moves random
//! GF(2^8) combinations (see [`coded`]). Both run on one link layer: a
//! calendar per plane that delivers each tick's messages in send order,
//! and the data-loss, jitter and control-route draws, each written once.
//! So the two protocols see identically degraded links, which is what
//! lets `table_coding_frontier` compare them. Each keeps its own tick
//! loop: the two test for completion at different points and count
//! ticks differently.
//!
//! # Determinism
//!
//! The runtime is a deterministic discrete-event simulation: ticks run
//! fixed phases, calendars deliver in send order, iteration orders are
//! index-sorted, and every probabilistic choice (policy tie-breaks,
//! loss, jitter) comes from the caller's RNG. **Same instance + config + fault plan + seed
//! ⇒ identical event order, trace, counters, and schedule.**
//!
//! In the default *ideal mode* (latency 1, no jitter, no loss,
//! same-tick control) a run consumes the RNG identically to the
//! matching lockstep strategy and extracts the *equal* [`Schedule`] —
//! the differential tests assert equality, and every extracted
//! schedule, ideal or degraded, replays through
//! [`ocd_core::validate`].
//!
//! [`Schedule`]: ocd_core::Schedule
//!
//! # Examples
//!
//! ```
//! use ocd_net::{run_swarm, FaultPlan, NetConfig, NetPolicy};
//! use ocd_core::{scenario, validate};
//! use ocd_graph::generate::classic;
//! use rand::prelude::*;
//!
//! // Distribute 6 tokens from vertex 0 around a lossy ring.
//! let instance = scenario::single_file(classic::cycle(5, 2, true), 6, 0);
//! let config = NetConfig {
//!     policy: NetPolicy::Local,
//!     latency: 2,
//!     loss: 0.1,
//!     ..NetConfig::default()
//! };
//! let mut rng = StdRng::seed_from_u64(42);
//! let report = run_swarm(&instance, &config, &FaultPlan::none(), &mut rng);
//! assert!(report.success, "retries recover every lost token");
//! // The run doubles as a certified schedule of legal moves.
//! let replay = validate::replay(&instance, &report.schedule).unwrap();
//! assert!(replay.is_successful());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod coded;
pub mod config;
pub mod fault;
mod link;
pub mod msg;
pub mod runtime;
pub mod trace;

pub use coded::{run_coded_swarm, run_coded_swarm_with_spans, CodedLinkCounters, CodedNetReport};
pub use config::{NetConfig, NetPolicy};
pub use fault::{FaultEvent, FaultPlan};
pub use msg::{CtrlMsg, CtrlPayload, DataMsg, MsgKind};
pub use runtime::{run_swarm, run_swarm_with_spans, NetReport};
pub use trace::{EventKind, EventTrace, LinkCounters, TraceEvent, VertexCounters};
