//! On-line simulation engine and the OCD paper's distribution heuristics
//! (§4–§5.1).
//!
//! The paper evaluates five heuristics, from fully local to fully
//! coordinated:
//!
//! | Strategy | Knowledge (§4.1 tier) | Behaviour |
//! |---|---|---|
//! | [`RoundRobin`] | own state only | cycles its token queue over every link |
//! | [`RandomUseful`] | + peers' current possession | random tokens the peer lacks |
//! | [`LocalRarest`] | + global aggregates (optionally delayed) | request subdivision + rarest-first flooding |
//! | [`BandwidthCautious`] | global (still per-turn online) | only tokens a vertex will *eventually use* |
//! | [`GlobalGreedy`] | global, coordinated | greedy diversity maximization per step |
//!
//! plus [`GatherThenPlan`], the §4.2 observation that an on-line
//! algorithm can always pay an additive diameter penalty to gather full
//! knowledge and then follow a coordinated plan, and
//! [`PerNeighborQueue`], the uplink-aware per-out-neighbor queue policy
//! that is makespan-optimal for broadcast on uplink-constrained
//! complete overlays (scored against the [`optimal`] oracles).
//!
//! The [`engine`](simulate) runs any [`Strategy`] step by step,
//! maintaining true possession, feeding each strategy the knowledge it
//! is entitled to via [`WorldView`], and recording a [`SimReport`] whose
//! schedule always validates against the instance (property-tested).
//!
//! # Examples
//!
//! ```
//! use ocd_heuristics::{simulate, SimConfig, StrategyKind};
//! use ocd_core::scenario::single_file;
//! use ocd_graph::generate::classic;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let instance = single_file(classic::cycle(6, 2, true), 8, 0);
//! let mut strategy = StrategyKind::Random.build();
//! let mut rng = StdRng::seed_from_u64(7);
//! let report = simulate(&instance, strategy.as_mut(), &SimConfig::default(), &mut rng);
//! assert!(report.success);
//! assert!(report.schedule.bandwidth() >= instance.total_deficiency());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bandwidth;
pub mod coded;
pub mod dynamics;
mod engine;
mod gather;
mod global_greedy;
mod kind;
mod local_rarest;
pub mod medium;
pub mod optimal;
mod per_neighbor_queue;
pub mod policy;
mod random;
mod round_robin;
mod shard;
mod tree_stripe;
mod view;

pub use bandwidth::BandwidthCautious;
pub use coded::{
    simulate_coded, simulate_coded_with, CodedLocal, CodedMedium, CodedOutcome, CodedRandom,
    CodedSimConfig, CodedSimReport, CodedStrategy, CodedView, IdealCoded, LossyCoded,
};
pub use dynamics::NetworkDynamics;
pub use engine::{simulate, simulate_with, simulate_with_spans, SimConfig, SimOutcome, SimReport};
pub use gather::GatherThenPlan;
pub use global_greedy::GlobalGreedy;
pub use kind::StrategyKind;
pub use local_rarest::{LocalRarest, ShardedLocal};
pub use medium::{Dynamic, Ideal, Medium, NodeCapacity, PhysicalUnderlay};
pub use per_neighbor_queue::PerNeighborQueue;
pub use random::{RandomUseful, ShardedRandom};
pub use round_robin::RoundRobin;
pub use shard::{Sharded, VertexStrategy};
pub use tree_stripe::{ShardedTreeStripe, TreeStripe};
pub use view::{KnowledgeTier, Strategy, WorldView};
