//! The §4.2 gather-then-plan scheme.
//!
//! "It is possible for an on-line algorithm to always perform within an
//! additive factor of the diameter of the graph … since with this many
//! steps at the start of computation, full information about the state
//! of the graph can be propagated to each vertex. Armed with this
//! knowledge, each vertex can compute an optimal solution for the entire
//! graph (deterministically), then follow this schedule."
//!
//! This wrapper idles for `diameter` steps (modelling the knowledge
//! flood — knowledge messages are control traffic, not token bandwidth)
//! and then delegates to the coordinated
//! [`GlobalGreedy`](crate::GlobalGreedy). With an exact planner in its
//! place this would realize the additive-diameter bound exactly; with
//! the greedy it is the practical approximation.

use crate::{GlobalGreedy, KnowledgeTier, Strategy, WorldView};
use ocd_core::{Instance, TokenSet};
use ocd_graph::{algo, EdgeId};
use rand::RngCore;

/// Idle for the graph diameter, then run the global greedy heuristic.
#[derive(Debug, Default)]
pub struct GatherThenPlan {
    inner: GlobalGreedy,
    gather_steps: usize,
}

impl GatherThenPlan {
    /// Gather, then run the global greedy heuristic.
    #[must_use]
    pub fn new() -> Self {
        GatherThenPlan::default()
    }

    /// Steps spent gathering (the diameter computed at reset).
    #[must_use]
    pub fn gather_steps(&self) -> usize {
        self.gather_steps
    }
}

impl Strategy for GatherThenPlan {
    fn name(&self) -> &'static str {
        "gather-then-plan"
    }

    fn tier(&self) -> KnowledgeTier {
        // After the gather phase the knowledge genuinely is global; the
        // scheme's point is that it got there through local exchange.
        KnowledgeTier::Aggregates
    }

    fn reset(&mut self, instance: &Instance) {
        // Knowledge travels bidirectionally along edges (§4.1), so the
        // gather phase needs the diameter of the symmetrized graph. Fall
        // back to n - 1 (the worst case) if even that is disconnected.
        let g = instance.graph();
        let mut sym = g.clone();
        for e in g.edges() {
            let _ = sym.add_edge(e.dst, e.src, e.capacity);
        }
        self.gather_steps = algo::diameter(&sym)
            .map(|d| d as usize)
            .unwrap_or_else(|| g.node_count().saturating_sub(1));
        self.inner.reset(instance);
    }

    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        if view.step < self.gather_steps {
            Vec::new()
        } else {
            self.inner.plan_step(view, rng)
        }
    }

    fn may_idle(&self, step: usize) -> bool {
        step < self.gather_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use ocd_core::scenario::single_file;
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    #[test]
    fn idles_exactly_diameter_steps_then_distributes() {
        let instance = single_file(classic::cycle(6, 3, true), 4, 0);
        // Symmetric 6-cycle has diameter 3.
        let mut strategy = GatherThenPlan::new();
        let mut rng = StdRng::seed_from_u64(1);
        let report = simulate(&instance, &mut strategy, &SimConfig::default(), &mut rng);
        assert!(report.success);
        assert_eq!(strategy.gather_steps(), 3);
        for step in report.schedule.steps().iter().take(3) {
            assert!(step.is_empty(), "gather phase moves no tokens");
        }
        assert!(!report.schedule.steps()[3].is_empty());
        // Additive overhead: inner strategy alone would finish in
        // report.steps - 3.
    }

    #[test]
    fn pays_only_additive_overhead_versus_inner() {
        let instance = single_file(classic::cycle(8, 4, true), 6, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let inner_only = simulate(
            &instance,
            &mut GlobalGreedy::new(),
            &SimConfig::default(),
            &mut rng,
        );
        let mut wrapped = GatherThenPlan::new();
        let mut rng2 = StdRng::seed_from_u64(2);
        let gathered = simulate(&instance, &mut wrapped, &SimConfig::default(), &mut rng2);
        assert!(inner_only.success && gathered.success);
        assert_eq!(
            gathered.steps,
            inner_only.steps + wrapped.gather_steps(),
            "same plan shifted by the gather phase (same RNG seed)"
        );
        assert_eq!(gathered.bandwidth, inner_only.bandwidth);
    }

    #[test]
    fn directed_asymmetric_graph_uses_symmetrized_diameter() {
        // Directed 4-cycle: directed diameter 3, but knowledge flows both
        // ways so the gather phase needs only 2 steps... the symmetrized
        // 4-cycle has diameter 2.
        let instance = single_file(classic::cycle(4, 2, false), 2, 0);
        let mut strategy = GatherThenPlan::new();
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate(&instance, &mut strategy, &SimConfig::default(), &mut rng);
        assert!(report.success);
        assert_eq!(strategy.gather_steps(), 2);
    }
}
