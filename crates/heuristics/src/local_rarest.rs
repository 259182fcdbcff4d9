//! The Local (rarest-random) heuristic (§5.1).
//!
//! Based on "the commonly proposed notion of 'rarest random' … by
//! diversifying the set of tokens known by various vertices, they can
//! share them with each other for increased bandwidth." Per the paper we
//! assume each step's initial aggregate need and knowledge (have/need
//! counts per token) are distributed to all vertices — possibly with a
//! delay — and, "to avoid the problem where two peers send the same
//! 'rare' block in the same direction, our heuristic subdivides a
//! vertex's needs to their peers", i.e. receivers assign each needed
//! token to exactly one in-peer as a block request. Remaining arc
//! capacity floods rarest-first (the Local heuristic is still a flooding
//! heuristic: it fills links whenever doing so "can increase knowledge").
//!
//! The rules — per-receiver subdivision, per-arc serve-then-flood — are
//! [`ShardedLocal`]'s; [`LocalRarest`] runs them serially and
//! [`Sharded`](crate::Sharded) across vertex ranges.

use crate::policy::{rarest_flood_fill, subdivide_requests};
use crate::shard::plan_serially;
use crate::{KnowledgeTier, Strategy, VertexStrategy, WorldView};
use ocd_core::{Instance, TokenSet};
use ocd_graph::{EdgeId, NodeId};
use rand::RngCore;

/// Rarest-random with per-peer request subdivision: every receiver's
/// requests in vertex order, then every arc in id order, on the engine's
/// one RNG.
#[derive(Debug, Default)]
pub struct LocalRarest {
    rules: ShardedLocal,
}

impl LocalRarest {
    /// Creates the strategy as the paper describes it.
    #[must_use]
    pub fn new() -> Self {
        LocalRarest::default()
    }

    /// Ablated variant without the request-subdivision phase.
    #[must_use]
    pub fn without_subdivision() -> Self {
        LocalRarest {
            rules: ShardedLocal {
                no_subdivision: true,
            },
        }
    }
}

impl Strategy for LocalRarest {
    fn name(&self) -> &'static str {
        if self.rules.no_subdivision {
            "local-nosubdiv"
        } else {
            "local"
        }
    }

    fn tier(&self) -> KnowledgeTier {
        self.rules.tier()
    }

    fn reset(&mut self, _instance: &Instance) {}

    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        plan_serially(&self.rules, view, rng)
    }
}

/// The Local rules, run across vertex ranges by
/// [`Sharded`](crate::Sharded): receivers subdivide their needs into
/// per-in-arc requests, and each arc serves its request, then floods its
/// remaining capacity rarest-first.
#[derive(Debug, Default)]
pub struct ShardedLocal {
    /// Ablation: when true, skip the request-subdivision phase and rely
    /// on flood-fill alone. The paper motivates subdivision as the fix
    /// for "two peers send the same 'rare' block in the same direction";
    /// disabling it quantifies exactly that duplicate-send waste (see
    /// the `table_ablation` experiment).
    no_subdivision: bool,
}

impl ShardedLocal {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        ShardedLocal::default()
    }
}

impl VertexStrategy for ShardedLocal {
    fn name(&self) -> &'static str {
        "sharded-local"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::Aggregates
    }

    fn uses_requests(&self) -> bool {
        !self.no_subdivision
    }

    fn plan_requests(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let need = view.need_of(v);
        if need.is_empty() {
            return Vec::new();
        }
        let in_edges: Vec<EdgeId> = g.in_edges(v).collect();
        if in_edges.is_empty() {
            return Vec::new();
        }
        let assigned = subdivide_requests(
            &need,
            &in_edges,
            &|e| &view.possession[g.edge(e).src.index()],
            &|e| view.capacity(e),
            view.aggregates,
            rng,
        );
        in_edges
            .into_iter()
            .zip(assigned)
            .filter(|(_, req)| !req.is_empty())
            .collect()
    }

    fn plan_arc(
        &self,
        view: &WorldView<'_>,
        e: EdgeId,
        request: Option<&TokenSet>,
        rng: &mut dyn RngCore,
    ) -> Option<TokenSet> {
        let cap = view.capacity(e) as usize;
        if cap == 0 {
            return None;
        }
        let arc = view.graph().edge(e);
        let mut send = request
            .cloned()
            .unwrap_or_else(|| TokenSet::new(view.instance.num_tokens()));
        debug_assert!(send.len() <= cap);
        debug_assert!(send.is_subset(&view.possession[arc.src.index()]));
        if send.len() < cap {
            // Flood fill: rarest tokens the peer lacks, preferring
            // tokens somebody still needs (the "want" aggregate).
            let mut candidates =
                view.possession[arc.src.index()].difference(&view.possession[arc.dst.index()]);
            candidates.subtract(&send);
            let room = cap - send.len();
            rarest_flood_fill(&mut send, &candidates, room, view.aggregates, rng);
        }
        (!send.is_empty()).then_some(send)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::rarest_first;
    use crate::{simulate, SimConfig};
    use ocd_core::knowledge::AggregateKnowledge;
    use ocd_core::scenario::{multi_file, single_file};
    use ocd_core::validate;
    use ocd_core::Token;
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    #[test]
    fn rarest_first_orders_by_have_count() {
        let aggregates = AggregateKnowledge {
            have_counts: vec![5, 1, 3],
            need_counts: vec![1, 1, 1],
        };
        let tokens = TokenSet::full(3);
        let mut rng = StdRng::seed_from_u64(0);
        let order: Vec<usize> = rarest_first(&tokens, &aggregates, &mut rng)
            .iter()
            .map(|t| t.index())
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn completes_single_file() {
        let instance = single_file(classic::cycle(8, 3, true), 12, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let report = simulate(
            &instance,
            &mut LocalRarest::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert!(validate::replay(&instance, &report.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn requests_avoid_duplicate_rare_sends() {
        // Receiver 2 has two in-peers (0 and 1) that both hold both
        // tokens; subdivision must not request the same token twice, so
        // with capacity 1 per arc both tokens arrive in step 1.
        let mut g = ocd_graph::DiGraph::with_nodes(3);
        g.add_edge(g.node(0), g.node(2), 1).unwrap();
        g.add_edge(g.node(1), g.node(2), 1).unwrap();
        let instance = ocd_core::Instance::builder(g, 2)
            .have(0, [Token::new(0), Token::new(1)])
            .have(1, [Token::new(0), Token::new(1)])
            .want(2, [Token::new(0), Token::new(1)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let report = simulate(
            &instance,
            &mut LocalRarest::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert_eq!(
            report.steps, 1,
            "distinct requests fetch both tokens at once"
        );
        assert_eq!(report.bandwidth, 2);
    }

    #[test]
    fn handles_multi_file_demand() {
        let instance = multi_file(classic::cycle(12, 4, true), 24, 4, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate(
            &instance,
            &mut LocalRarest::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
    }

    #[test]
    fn no_subdivision_ablation_wastes_duplicate_sends() {
        // Two peers feed one receiver over unit arcs; token 0 is
        // strictly rarer than token 1 (a bystander holds an extra copy
        // of token 1), so without request subdivision *both* peers
        // deterministically flood token 0 in step 1 — the paper's "two
        // peers send the same 'rare' block in the same direction"
        // problem — and completion takes 2 steps with a wasted move.
        let mut g = ocd_graph::DiGraph::with_nodes(4);
        g.add_edge(g.node(0), g.node(2), 1).unwrap();
        g.add_edge(g.node(1), g.node(2), 1).unwrap();
        let instance = ocd_core::Instance::builder(g, 2)
            .have(0, [Token::new(0), Token::new(1)])
            .have(1, [Token::new(0), Token::new(1)])
            .have(3, [Token::new(1)]) // bystander: makes token 0 rarer
            .want(2, [Token::new(0), Token::new(1)])
            .build()
            .unwrap();
        let run = |mut strategy: LocalRarest| {
            let mut rng = StdRng::seed_from_u64(2);
            simulate(&instance, &mut strategy, &SimConfig::default(), &mut rng)
        };
        let ablated = run(LocalRarest::without_subdivision());
        assert!(ablated.success);
        assert_eq!(ablated.steps, 2, "duplicate rare sends cost a step");
        assert!(ablated.bandwidth > 2, "and a wasted transfer");
        let subdivided = run(LocalRarest::new());
        assert_eq!(
            subdivided.steps, 1,
            "subdivision fetches both tokens at once"
        );
        assert_eq!(subdivided.bandwidth, 2);
        assert_eq!(LocalRarest::without_subdivision().name(), "local-nosubdiv");
    }

    #[test]
    fn works_with_delayed_aggregates() {
        let instance = single_file(classic::cycle(8, 3, true), 12, 0);
        let config = SimConfig {
            knowledge_delay: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let report = simulate(&instance, &mut LocalRarest::new(), &config, &mut rng);
        assert!(
            report.success,
            "stale rarity data degrades but still completes"
        );
    }
}
