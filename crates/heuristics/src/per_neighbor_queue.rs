//! The per-neighbor-queue broadcast policy.
//!
//! "Optimal Distributed Broadcasting with Per-neighbor Queues" shows
//! that a sender which keeps one queue of useful tokens per out-neighbor
//! and, each step, serves the queues in a fixed priority order achieves
//! the optimal broadcast makespan on uplink-constrained networks. This
//! strategy restates that policy in the lockstep engine: every vertex
//! repeatedly pops the globally best `(out-arc, token)` pair — ranked
//! like [`GlobalGreedy`](crate::GlobalGreedy) by (directly wanted,
//! needed somewhere, other), then rarest first, with deterministic
//! token/arc tie-breaks — until its uplink budget or its queues are
//! exhausted.
//!
//! Unlike the paper's five heuristics it is *budget-aware*: when the
//! instance carries [`NodeBudgets`](ocd_core::NodeBudgets) it plans
//! within each vertex's uplink and downlink, so nothing it proposes is
//! clipped by the node-capacity medium. On unbudgeted instances the
//! budgets are unbounded and it degrades to a deterministic,
//! coordinated rarest-first greedy (which keeps it safe to run
//! everywhere [`StrategyKind::all`](crate::StrategyKind::all) is used).
//!
//! The strategy is deterministic — it never draws from the RNG — so
//! runs are reproducible regardless of seed.

use crate::{KnowledgeTier, Strategy, WorldView};
use ocd_core::{Instance, Token, TokenSet};
use ocd_graph::EdgeId;
use rand::RngCore;

/// Deterministic per-out-neighbor queue scheduling (optimal broadcast
/// policy on uplink-constrained complete overlays).
#[derive(Debug, Default)]
pub struct PerNeighborQueue {
    /// Scratch: tokens already planned for delivery to each vertex this
    /// step (coordination — at most one copy per destination per step).
    planned: Vec<TokenSet>,
    /// Scratch: per-vertex remaining downlink this step.
    down_left: Vec<u64>,
    /// Scratch: the current sender's per-neighbor queues.
    queues: Vec<ArcQueue>,
}

/// One out-arc's candidate queue while its sender is being planned.
#[derive(Debug)]
struct ArcQueue {
    edge: EdgeId,
    dst: usize,
    cap_left: u32,
    /// Useful tokens still poppable on this arc.
    candidates: TokenSet,
    /// Tokens planned on this arc so far this step.
    send: TokenSet,
}

impl PerNeighborQueue {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        PerNeighborQueue::default()
    }
}

impl Strategy for PerNeighborQueue {
    fn name(&self) -> &'static str {
        "per-neighbor-queue"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::Global
    }

    fn reset(&mut self, instance: &Instance) {
        let n = instance.num_vertices();
        let m = instance.num_tokens();
        self.planned.clear();
        self.planned.resize(n, TokenSet::new(m));
        self.down_left.clear();
        self.down_left.resize(n, 0);
    }

    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        _rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let budgets = view.instance.node_budgets();
        for p in &mut self.planned {
            p.clear();
        }
        for (v, left) in self.down_left.iter_mut().enumerate() {
            *left = budgets.map_or(u64::MAX, |b| u64::from(b.downlink(v)));
        }

        let mut out = Vec::new();
        for v in g.nodes() {
            let mut up_left = budgets.map_or(u64::MAX, |b| u64::from(b.uplink_of(v)));
            if up_left == 0 || view.possession[v.index()].is_empty() {
                continue;
            }
            // Build this sender's per-neighbor queues: tokens the
            // neighbor lacks and nobody has planned for it yet.
            self.queues.clear();
            for e in g.out_edges(v) {
                let arc = g.edge(e);
                let dst = arc.dst.index();
                let cap_left = view.capacity(e);
                if cap_left == 0 || self.down_left[dst] == 0 {
                    continue;
                }
                let mut candidates = view.possession[v.index()].difference(&view.possession[dst]);
                candidates.subtract(&self.planned[dst]);
                if candidates.is_empty() {
                    continue;
                }
                let send = TokenSet::new(view.instance.num_tokens());
                self.queues.push(ArcQueue {
                    edge: e,
                    dst,
                    cap_left,
                    candidates,
                    send,
                });
            }
            // Serve the queues: repeatedly pop the best (arc, token)
            // pair until the uplink or every queue runs dry. Destination
            // ties break toward the *emptiest* peer (counting this
            // step's plans): feeding starved peers grows the active
            // sender population geometrically, which is what makes the
            // policy track the optimal makespan at scale.
            while up_left > 0 {
                let mut best: Option<(u8, u32, Token, usize, usize)> = None;
                for (slot, q) in self.queues.iter().enumerate() {
                    let want = view.instance.want(g.node(q.dst));
                    let fill = view.possession[q.dst].len() + self.planned[q.dst].len();
                    for t in q.candidates.iter() {
                        let class = if want.contains(t) {
                            0
                        } else if view.aggregates.is_needed(t) {
                            1
                        } else {
                            2
                        };
                        let key = (class, view.aggregates.rarity(t), t, fill, slot);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let Some((_, _, token, _, slot)) = best else {
                    break;
                };
                let q = &mut self.queues[slot];
                q.send.insert(token);
                q.candidates.remove(token);
                self.planned[q.dst].insert(token);
                // The same token is useless on this sender's *other*
                // queues to the same destination only if a duplicate
                // arc existed (the graph forbids them), but other
                // queues to different destinations keep their copy.
                up_left -= 1;
                q.cap_left -= 1;
                self.down_left[q.dst] -= 1;
                if q.cap_left == 0 || self.down_left[q.dst] == 0 {
                    q.candidates.clear();
                }
            }
            for q in &mut self.queues {
                if !q.send.is_empty() {
                    let send = std::mem::replace(&mut q.send, TokenSet::new(0));
                    out.push((q.edge, send));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use ocd_core::scenario::single_file;
    use ocd_core::{validate, Instance, NodeBudgets};
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    #[test]
    fn deterministic_across_seeds() {
        let instance = single_file(classic::cycle(8, 2, true), 8, 0);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate(
                &instance,
                &mut PerNeighborQueue::new(),
                &SimConfig::default(),
                &mut rng,
            )
        };
        let a = run(1);
        let b = run(999);
        assert!(a.success);
        assert_eq!(a.schedule, b.schedule, "no RNG dependence");
    }

    #[test]
    fn completes_and_validates_on_single_file() {
        let instance = single_file(classic::cycle(10, 3, true), 16, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let report = simulate(
            &instance,
            &mut PerNeighborQueue::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert!(validate::replay(&instance, &report.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn plans_within_node_budgets() {
        // Complete overlay, 2 tokens at the server, uplink 1 everywhere:
        // every planned step must already respect the budgets, so the
        // schedule replays cleanly under budget enforcement.
        let g = classic::complete(4, 8);
        let instance = Instance::builder(g, 2)
            .have(0, [Token::new(0), Token::new(1)])
            .want_all_everywhere()
            .node_budgets(NodeBudgets::uplink_only(4, 1))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate(
            &instance,
            &mut PerNeighborQueue::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        // Budget enforcement lives in validate::replay when the
        // instance carries budgets.
        assert!(validate::replay(&instance, &report.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn achieves_optimal_makespan_on_broadcast() {
        // M = 2 parts, N = 3 peers, unit uplinks: the optimal makespan
        // is M - 1 + ceil(log2(N + 1)) = 3 (certified against the exact
        // state search in tests/exact_cross_checks.rs). The
        // per-neighbor-queue policy must hit it exactly.
        let g = classic::complete(4, 8);
        let instance = Instance::builder(g, 2)
            .have(0, [Token::new(0), Token::new(1)])
            .want_all_everywhere()
            .node_budgets(NodeBudgets::uplink_only(4, 1))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let report = simulate(
            &instance,
            &mut PerNeighborQueue::new(),
            &SimConfig::default(),
            &mut rng,
        );
        assert!(report.success);
        assert_eq!(report.steps, 3);
    }
}
