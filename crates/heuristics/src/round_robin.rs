//! The Round Robin heuristic (§5.1).
//!
//! "The round-robin strategy simply sends the circular queue of tokens
//! over each link (skipping tokens it does not have). This is the
//! simplest of the heuristics, and can easily be computed locally as no
//! information other than the set of tokens kept locally and the last
//! token sent to each peer. While simple, this strategy suffers from
//! sending tokens multiple times to peers and of duplicating sends that
//! other peers have also sent."

use crate::{KnowledgeTier, Strategy, WorldView};
use ocd_core::{Instance, Token, TokenSet};
use ocd_graph::EdgeId;
use rand::RngCore;

/// Round Robin: per out-arc circular cursor over the token universe;
/// each step every arc carries the next `capacity` tokens the sender
/// possesses. No peer knowledge at all, so the same token is re-sent to
/// peers that already have it.
#[derive(Debug, Default)]
pub struct RoundRobin {
    /// Per-edge cursor: the token index to start scanning from.
    cursors: Vec<u32>,
}

impl RoundRobin {
    /// Creates a fresh Round Robin strategy.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Strategy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::LocalOnly
    }

    fn reset(&mut self, instance: &Instance) {
        self.cursors = vec![0; instance.graph().edge_count()];
    }

    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        _rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let m = view.instance.num_tokens();
        let mut out = Vec::new();
        for e in g.edge_ids() {
            let arc = g.edge(e);
            let cap = view.capacity(e) as usize;
            let mine = &view.possession[arc.src.index()];
            if cap == 0 || mine.is_empty() {
                continue;
            }
            let count = cap.min(mine.len());
            let mut send = TokenSet::new(m);
            let mut cursor = Token::new(self.cursors[e.index()] as usize % m.max(1));
            for _ in 0..count {
                let t = mine
                    .next_cyclic(cursor)
                    .expect("non-empty set always yields a next token");
                send.insert(t);
                cursor = Token::new((t.index() + 1) % m);
            }
            self.cursors[e.index()] = cursor.index() as u32;
            out.push((e, send));
        }
        out
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
    fn cycles_through_all_tokens_on_one_link() {
        // Single arc of capacity 2, 5 tokens: steps send {0,1}, {2,3},
        // {4,0}, ...
        let instance = single_file(classic::path(2, 2, false), 5, 0);
        let mut rr = RoundRobin::new();
        rr.reset(&instance);
        let possession = instance.have_all().to_vec();
        let aggregates =
            ocd_core::knowledge::AggregateKnowledge::compute(5, &possession, instance.want_all());
        let mut rng = StdRng::seed_from_u64(0);
        let view = WorldView {
            instance: &instance,
            possession: &possession,
            aggregates: &aggregates,
            step: 0,
            capacities: &[2],
        };
        let s1 = rr.plan_step(&view, &mut rng);
        assert_eq!(s1.len(), 1);
        let tokens1: Vec<usize> = s1[0].1.iter().map(Token::index).collect();
        assert_eq!(tokens1, vec![0, 1]);
        let s2 = rr.plan_step(&view, &mut rng);
        let tokens2: Vec<usize> = s2[0].1.iter().map(Token::index).collect();
        assert_eq!(tokens2, vec![2, 3]);
        let s3 = rr.plan_step(&view, &mut rng);
        let tokens3: Vec<usize> = s3[0].1.iter().map(Token::index).collect();
        assert_eq!(tokens3, vec![0, 4], "wraps around the universe");
    }

    #[test]
    fn completes_single_file_distribution() {
        let instance = single_file(classic::cycle(6, 3, true), 10, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let report = simulate(
            &instance,
            &mut RoundRobin::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert!(validate::replay(&instance, &report.schedule)
            .unwrap()
            .is_successful());
        // Round robin keeps re-sending: bandwidth strictly exceeds the
        // lower bound on any non-trivial multi-hop topology.
        assert!(report.bandwidth > instance.total_deficiency());
    }

    #[test]
    fn skips_tokens_it_does_not_have() {
        // Vertex 0 has only token 3 of 6.
        let g = classic::path(2, 2, false);
        let instance = ocd_core::Instance::builder(g, 6)
            .have(0, [Token::new(3)])
            .want(1, [Token::new(3)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let report = simulate(
            &instance,
            &mut RoundRobin::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert_eq!(report.steps, 1);
        assert_eq!(report.bandwidth, 1, "only the single held token is sent");
    }

    #[test]
    fn is_deterministic() {
        let instance = single_file(classic::cycle(5, 2, true), 7, 0);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate(
                &instance,
                &mut RoundRobin::new(),
                &SimConfig::default(),
                &mut rng,
            )
            .schedule
        };
        assert_eq!(run(1), run(99), "round robin ignores the RNG entirely");
    }
}
