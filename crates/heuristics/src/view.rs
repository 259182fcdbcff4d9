//! The strategy interface and the world view handed to strategies.

use ocd_core::knowledge::AggregateKnowledge;
use ocd_core::{Instance, TokenSet};
use ocd_graph::{DiGraph, EdgeId, NodeId};
use rand::RngCore;
use std::fmt;

/// How much of the system state a strategy reads — the §4.1 "knowledge"
/// ladder. The engine computes everything and exposes it through
/// [`WorldView`]; a strategy's tier documents (and its implementation
/// honours) which accessors it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnowledgeTier {
    /// Only the vertex's own have/want sets and incident arcs.
    LocalOnly,
    /// Plus the current possession of direct peers (the paper's Random
    /// heuristic assumes "peers have current knowledge about the tokens
    /// known by each of their peers at the beginning of the turn").
    PeerState,
    /// Plus the global per-token aggregates of §5.1 (possibly delayed).
    Aggregates,
    /// Full global state (the Bandwidth and Global heuristics).
    Global,
}

impl fmt::Display for KnowledgeTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KnowledgeTier::LocalOnly => "local-only",
            KnowledgeTier::PeerState => "peer-state",
            KnowledgeTier::Aggregates => "aggregates",
            KnowledgeTier::Global => "global",
        })
    }
}

/// Read-only snapshot of the simulation at the start of a timestep.
#[derive(Debug)]
pub struct WorldView<'a> {
    /// The instance being distributed.
    pub instance: &'a Instance,
    /// True possession `p_i(v)` of every vertex at the start of the step.
    pub possession: &'a [TokenSet],
    /// The aggregate knowledge visible this step (delayed by the engine's
    /// configured propagation lag).
    pub aggregates: &'a AggregateKnowledge,
    /// 0-based step index.
    pub step: usize,
    /// Effective per-arc capacity *this step*, indexed by
    /// [`EdgeId::index`]. Equal to the graph's static capacities in
    /// ordinary runs; under [`dynamics`](crate::dynamics) a capacity may
    /// differ or be 0 (link down) — strategies must read capacities
    /// here or through [`WorldView::capacity`], never from the graph.
    pub capacities: &'a [u32],
}

impl WorldView<'_> {
    /// The overlay graph.
    #[must_use]
    pub fn graph(&self) -> &DiGraph {
        self.instance.graph()
    }

    /// Effective capacity of arc `e` at this timestep (0 = unusable).
    #[must_use]
    pub fn capacity(&self, e: EdgeId) -> u32 {
        self.capacities[e.index()]
    }

    /// Current possession of `v`.
    #[must_use]
    pub fn possession_of(&self, v: NodeId) -> &TokenSet {
        &self.possession[v.index()]
    }

    /// Tokens `v` still needs: `w(v) \ p_i(v)`.
    #[must_use]
    pub fn need_of(&self, v: NodeId) -> TokenSet {
        self.instance
            .want(v)
            .difference(&self.possession[v.index()])
    }

    /// Whether every vertex is satisfied.
    #[must_use]
    pub fn all_satisfied(&self) -> bool {
        self.graph()
            .nodes()
            .all(|v| self.instance.want(v).is_subset(&self.possession[v.index()]))
    }
}

/// A per-timestep decision procedure: given the visible state, assign
/// token sets to arcs.
///
/// Contract (checked by the engine with panics, since violations are
/// strategy bugs, not data errors):
///
/// - every returned set must satisfy `s ⊆ p_i(src)`, `|s| ≤ capacity`;
/// - arcs may appear at most once per step (duplicates are unioned by
///   the schedule, which could then exceed capacity).
pub trait Strategy {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// The knowledge tier this strategy operates at.
    fn tier(&self) -> KnowledgeTier;

    /// Called once before a simulation starts; (re)initializes internal
    /// state for the given instance.
    fn reset(&mut self, instance: &Instance);

    /// Plans the sends of one timestep.
    fn plan_step(&mut self, view: &WorldView<'_>, rng: &mut dyn RngCore)
        -> Vec<(EdgeId, TokenSet)>;

    /// Whether the strategy may legitimately make zero moves while wants
    /// remain unsatisfied at `step` (e.g. a knowledge-gathering phase).
    /// The engine treats an idle step from a strategy that answers
    /// `false` as a stall and aborts the run.
    fn may_idle(&self, step: usize) -> bool {
        let _ = step;
        false
    }
}

impl fmt::Debug for dyn Strategy + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Strategy({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::scenario::single_file;
    use ocd_graph::generate::classic;

    #[test]
    fn world_view_helpers() {
        let instance = single_file(classic::path(3, 1, true), 2, 0);
        let possession: Vec<TokenSet> = instance.have_all().to_vec();
        let aggregates = AggregateKnowledge::compute(2, &possession, instance.want_all());
        let view = WorldView {
            instance: &instance,
            possession: &possession,
            aggregates: &aggregates,
            step: 0,
            capacities: &[1, 1, 1, 1],
        };
        let v1 = instance.graph().node(1);
        assert_eq!(view.need_of(v1).len(), 2);
        assert!(view.possession_of(v1).is_empty());
        assert!(!view.all_satisfied());
        assert_eq!(view.graph().node_count(), 3);
    }

    #[test]
    fn tier_display() {
        assert_eq!(KnowledgeTier::LocalOnly.to_string(), "local-only");
        assert_eq!(KnowledgeTier::Global.to_string(), "global");
    }
}
