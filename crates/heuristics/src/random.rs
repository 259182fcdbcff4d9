//! The Random heuristic (§5.1).
//!
//! "In this heuristic we assume that peers have current knowledge about
//! the tokens known by each of their peers at the beginning of the turn.
//! Each vertex then independently chooses at random which tokens to send
//! over the edge." It floods — any token the peer lacks is fair game,
//! wanted or not — but never re-sends what the peer already holds.
//!
//! The rule is per arc ([`ShardedRandom`]); [`RandomUseful`] runs it
//! serially and [`Sharded`](crate::Sharded) across vertex ranges.

use crate::policy::random_fill;
use crate::shard::plan_serially;
use crate::{KnowledgeTier, Strategy, VertexStrategy, WorldView};
use ocd_core::{Instance, TokenSet};
use ocd_graph::EdgeId;
use rand::RngCore;

/// Random-useful flooding: per arc, a uniform random subset (of size up
/// to the capacity) of the tokens the sender has and the receiver lacks.
/// Plans every arc in id order on the engine's one RNG.
#[derive(Debug, Default)]
pub struct RandomUseful;

impl RandomUseful {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        RandomUseful
    }
}

impl Strategy for RandomUseful {
    fn name(&self) -> &'static str {
        "random"
    }

    fn tier(&self) -> KnowledgeTier {
        ShardedRandom.tier()
    }

    fn reset(&mut self, _instance: &Instance) {}

    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        plan_serially(&ShardedRandom, view, rng)
    }
}

/// The Random rule, run across vertex ranges by
/// [`Sharded`](crate::Sharded): each arc carries a uniform random subset
/// of the tokens its sender has and its receiver lacks.
#[derive(Debug, Default)]
pub struct ShardedRandom;

impl ShardedRandom {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        ShardedRandom
    }
}

impl VertexStrategy for ShardedRandom {
    fn name(&self) -> &'static str {
        "sharded-random"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::PeerState
    }

    fn plan_arc(
        &self,
        view: &WorldView<'_>,
        e: EdgeId,
        _request: Option<&TokenSet>,
        rng: &mut dyn RngCore,
    ) -> Option<TokenSet> {
        let cap = view.capacity(e) as usize;
        if cap == 0 {
            return None;
        }
        let arc = view.graph().edge(e);
        let candidates =
            view.possession[arc.src.index()].difference(&view.possession[arc.dst.index()]);
        (!candidates.is_empty()).then(|| random_fill(candidates, cap, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use ocd_core::scenario::single_file;
    use ocd_core::validate;
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    #[test]
    fn never_resends_known_tokens() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate(
            &instance,
            &mut RandomUseful::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
        // Each delivery adds a token the destination lacked *at the start
        // of its step*; only simultaneous duplicates from different peers
        // can be wasted. Check the per-arc no-resend property directly.
        for (i, step) in report.schedule.steps().iter().enumerate() {
            for (edge, tokens) in step.sends() {
                let dst = instance.graph().edge(edge).dst;
                assert!(
                    !tokens.intersects(replay.possession(i, dst)),
                    "step {i}: resent a token vertex {dst} already had"
                );
            }
        }
    }

    #[test]
    fn respects_capacity_via_partial_shuffle() {
        let instance = single_file(classic::path(2, 3, false), 10, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let report = simulate(
            &instance,
            &mut RandomUseful::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert_eq!(report.steps, 4, "10 tokens over capacity 3 = 4 steps");
        assert_eq!(report.bandwidth, 10);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let instance = single_file(classic::cycle(8, 2, true), 16, 0);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate(
                &instance,
                &mut RandomUseful::new(),
                &SimConfig::default(),
                &mut rng,
            )
            .schedule
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_usually_differ() {
        let instance = single_file(classic::cycle(8, 2, true), 16, 0);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate(
                &instance,
                &mut RandomUseful::new(),
                &SimConfig::default(),
                &mut rng,
            )
            .schedule
        };
        assert_ne!(run(7), run(8));
    }
}
