//! The pluggable transmission **medium** — the single extension point
//! that answers, per step, "what effective capacity does each arc have,
//! and is this proposed move admitted?".
//!
//! The paper's §6 sketches every network-realism extension as a
//! restriction layered on the same scheduling loop: changing conditions
//! alter per-arc capacities between turns, and physical underlays make
//! overlay capacities non-independent. A [`Medium`] captures exactly
//! that contract, so [`crate::simulate_with`] runs the one incremental
//! step loop for all three worlds:
//!
//! - [`Ideal`]: the graph's static capacities, every proposal admitted.
//!   All hooks are no-ops, so the monomorphized loop compiles down to
//!   the plain engine — using `Ideal` costs nothing over the pre-medium
//!   engine.
//! - [`Dynamic`]: wraps any [`NetworkDynamics`] model; per-step
//!   capacities are written into a reusable buffer (no per-step `Vec`),
//!   the capacity trace is recorded for later re-validation, and idle
//!   steps never abort the run (the network may simply be down).
//! - [`PhysicalUnderlay`]: overlay arcs ride physical paths with shared
//!   capacities; each proposed timestep passes through round-robin
//!   physical admission control before being applied.
//! - [`NodeCapacity`]: per-vertex uplink/downlink budgets
//!   ([`NodeBudgets`]) shared across each vertex's arcs, layered on top
//!   of *any* inner medium; when the budgets can never bind, admission
//!   is skipped entirely and the wrapped medium's behaviour (schedules,
//!   RNG stream) is reproduced exactly.
//!
//! # Contract
//!
//! For every step the engine calls, in order: [`Medium::observe`] (the
//! true possession state, for knowledge-equipped media),
//! [`Medium::capacities`] (exactly once, in step order), and — after
//! the strategy has planned and the §3.1 checks have passed —
//! [`Medium::admit`]. Admission may only *remove* proposed token-moves:
//! it must never add tokens, touch arcs the strategy did not use, or
//! reorder sends, so an admitted timestep is always a subset of a
//! schedule that already satisfied possession and capacity.

use crate::dynamics::NetworkDynamics;
use ocd_core::{NodeBudgets, Token, TokenSet};
use ocd_graph::underlay::OverlayMapping;
use ocd_graph::{DiGraph, EdgeId};
use rand::RngCore;

/// A transmission medium: per-step effective capacities plus admission
/// control, plugged into the engine's single incremental step loop by
/// [`crate::simulate_with`].
///
/// Implementations are monomorphized into the loop; the default hook
/// bodies are no-ops so a medium only pays for what it overrides.
pub trait Medium {
    /// Human-readable medium name used in experiment output and
    /// [`ocd_core::record::RunRecord::medium`].
    fn name(&self) -> &'static str;

    /// Called once before a simulation starts, with the overlay graph
    /// the run distributes over.
    fn reset(&mut self, graph: &DiGraph);

    /// Hook giving knowledge-equipped media (e.g. adversarial dynamics)
    /// the true possession state at the start of the step, before
    /// [`capacities`](Self::capacities) is called for the same step.
    fn observe(&mut self, possession: &[TokenSet]) {
        let _ = possession;
    }

    /// Effective capacity of every arc for timestep `step`, indexed by
    /// [`EdgeId::index`]; 0 disables an arc for this step. Called
    /// exactly once per step, in step order. `static_caps` holds the
    /// graph's static capacities; media without per-step variation
    /// return it unchanged (no copy), while dynamic media fill and
    /// return an internal reusable buffer.
    fn capacities<'a>(
        &'a mut self,
        graph: &DiGraph,
        static_caps: &'a [u32],
        step: usize,
        rng: &mut dyn RngCore,
    ) -> &'a [u32];

    /// Clips one proposed (already §3.1-validated) timestep to what the
    /// medium admits, in place, returning the number of rejected
    /// token-moves. The default admits everything.
    fn admit(&mut self, proposed: &mut Vec<(EdgeId, TokenSet)>) -> u64 {
        let _ = proposed;
        0
    }

    /// Whether the engine should record the per-step capacity vectors
    /// (needed to re-validate schedules produced under changing
    /// capacities, see [`ocd_core::validate::replay_with_capacities`]).
    fn records_capacity_trace(&self) -> bool {
        false
    }

    /// Whether the engine should record per-step rejected-move counts
    /// (media with admission control). Any medium whose
    /// [`admit`](Self::admit) can reject must return `true`: the
    /// `engine.rejected_moves` metric is the sum of these counts.
    fn records_rejections(&self) -> bool {
        false
    }

    /// Whether a step with zero admitted moves and zero rejections
    /// aborts the run as a stall. Media whose conditions change over
    /// time answer `false`: a strategy may be *unable* to move while
    /// links are down, so non-completion is only declared at the step
    /// cap.
    fn stall_aborts(&self) -> bool {
        true
    }
}

impl std::fmt::Debug for dyn Medium + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Medium({})", self.name())
    }
}

/// The paper's §3.1 baseline medium: static capacities, every proposal
/// admitted, idle steps abort as stalls. Every hook is a no-op, so
/// `simulate_with::<Ideal>` monomorphizes to the plain incremental
/// engine with zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ideal;

impl Medium for Ideal {
    fn name(&self) -> &'static str {
        "ideal"
    }
    fn reset(&mut self, _graph: &DiGraph) {}
    fn capacities<'a>(
        &'a mut self,
        _graph: &DiGraph,
        static_caps: &'a [u32],
        _step: usize,
        _rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        static_caps
    }
}

/// Changing network conditions (§6): adapts any [`NetworkDynamics`]
/// model to the [`Medium`] contract. Capacities are written into an
/// internal buffer reused across steps, the capacity trace is recorded,
/// and idle steps do not abort.
#[derive(Debug)]
pub struct Dynamic<'a> {
    dynamics: &'a mut dyn NetworkDynamics,
    /// Reusable per-step capacity buffer (sized to the arc count on
    /// reset; no per-step allocation).
    buf: Vec<u32>,
}

impl<'a> Dynamic<'a> {
    /// Wraps a dynamics model.
    pub fn new(dynamics: &'a mut dyn NetworkDynamics) -> Self {
        Dynamic {
            dynamics,
            buf: Vec::new(),
        }
    }
}

impl Medium for Dynamic<'_> {
    fn name(&self) -> &'static str {
        self.dynamics.name()
    }
    fn reset(&mut self, graph: &DiGraph) {
        self.dynamics.reset(graph);
        self.buf.clear();
        self.buf.resize(graph.edge_count(), 0);
    }
    fn observe(&mut self, possession: &[TokenSet]) {
        self.dynamics.observe(possession);
    }
    fn capacities<'a>(
        &'a mut self,
        graph: &DiGraph,
        _static_caps: &'a [u32],
        step: usize,
        rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        self.dynamics
            .capacities_into(graph, step, rng, &mut self.buf);
        &self.buf
    }
    fn records_capacity_trace(&self) -> bool {
        true
    }
    fn stall_aborts(&self) -> bool {
        false
    }
}

/// Physically-constrained transmission (§6, "realistic topologies"):
/// overlay arcs ride physical paths, and overlay links sharing a
/// physical link share its capacity. Strategies plan against the
/// overlay's own (naive) static capacities; each proposed timestep is
/// then clipped by round-robin *physical admission control* — every
/// physical arc has its capacity as a per-step budget, and overlay arcs
/// take turns admitting one token each (ascending token order within an
/// arc) so no overlay link starves. A token is admitted on an overlay
/// arc only if every physical arc on its path still has budget, so the
/// recorded schedule is valid for the overlay instance *and* physically
/// realizable. The interesting output is the *inflation* of completion
/// time over the pure-overlay model — how optimistic the independence
/// assumption was (see the `table_underlay` experiment).
///
/// All scratch state (physical budgets, per-arc token queues, cursors)
/// is reused across steps.
#[derive(Debug)]
pub struct PhysicalUnderlay<'a> {
    physical: &'a DiGraph,
    mapping: &'a OverlayMapping,
    /// Per-physical-arc remaining budget for the current step.
    budget: Vec<u32>,
    admission: RoundRobinAdmission,
}

impl<'a> PhysicalUnderlay<'a> {
    /// Creates the medium for a physical graph and an overlay-to-path
    /// mapping (see [`ocd_graph::underlay::Underlay::map_overlay`]).
    #[must_use]
    pub fn new(physical: &'a DiGraph, mapping: &'a OverlayMapping) -> Self {
        PhysicalUnderlay {
            physical,
            mapping,
            budget: Vec::new(),
            admission: RoundRobinAdmission::default(),
        }
    }
}

impl Medium for PhysicalUnderlay<'_> {
    fn name(&self) -> &'static str {
        "physical-underlay"
    }

    fn reset(&mut self, graph: &DiGraph) {
        assert_eq!(
            self.mapping.paths.len(),
            graph.edge_count(),
            "mapping does not cover the overlay's arcs"
        );
        self.budget.clear();
        self.budget.reserve(self.physical.edge_count());
    }

    fn capacities<'a>(
        &'a mut self,
        _graph: &DiGraph,
        static_caps: &'a [u32],
        _step: usize,
        _rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        // The *overlay* believes in its static capacities; physical
        // feasibility is enforced by admission instead.
        static_caps
    }

    fn admit(&mut self, proposed: &mut Vec<(EdgeId, TokenSet)>) -> u64 {
        self.budget.clear();
        self.budget
            .extend(self.physical.edge_ids().map(|e| self.physical.capacity(e)));
        self.admission.admit(proposed, |e| {
            // One token needs one unit of every physical arc on the path.
            let path = &self.mapping.paths[e.index()];
            let fits = path.iter().all(|pe| self.budget[pe.index()] > 0);
            if fits {
                for pe in path {
                    self.budget[pe.index()] -= 1;
                }
            }
            fits
        })
    }

    fn records_rejections(&self) -> bool {
        true
    }
}

/// Uplink-constrained transmission (the Mundinger–Weber–Weiss regime):
/// every vertex shares one uplink budget across all its out-arcs and
/// one downlink budget across all its in-arcs, per step, on top of
/// whatever the wrapped medium enforces. Strategies still plan against
/// the inner medium's capacities; each proposed timestep is first
/// admitted by the inner medium, then clipped by round-robin
/// *node-capacity admission* — arcs take turns sending one token each
/// (ascending token order within an arc) while both endpoint budgets
/// last, so no arc starves its siblings.
///
/// When the budgets can never bind (every vertex's uplink ≥ its
/// out-capacity sum and downlink ≥ its in-capacity sum, see
/// [`NodeBudgets::never_binds`]), admission returns immediately after
/// the inner medium's: the wrapper is then observationally identical to
/// the wrapped medium — same schedules, same RNG stream
/// (property-tested in `prop_node_capacity.rs`).
#[derive(Debug)]
pub struct NodeCapacity<M> {
    inner: M,
    budgets: NodeBudgets,
    /// Whether the budgets can bind on the current graph (set at reset).
    binding: bool,
    /// `(src, dst)` vertex indices of each overlay arc, captured at
    /// reset ([`Medium::admit`] has no graph access).
    endpoints: Vec<(usize, usize)>,
    /// Per-vertex remaining uplink/downlink for the current step.
    up_left: Vec<u64>,
    down_left: Vec<u64>,
    admission: RoundRobinAdmission,
}

impl<M: Medium> NodeCapacity<M> {
    /// Wraps `inner` with per-vertex `budgets`. Budgets must cover the
    /// graph the simulation runs over (checked at reset).
    #[must_use]
    pub fn new(inner: M, budgets: NodeBudgets) -> Self {
        NodeCapacity {
            inner,
            budgets,
            binding: true,
            endpoints: Vec::new(),
            up_left: Vec::new(),
            down_left: Vec::new(),
            admission: RoundRobinAdmission::default(),
        }
    }

    /// The wrapped medium.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The budgets this medium enforces.
    #[must_use]
    pub fn budgets(&self) -> &NodeBudgets {
        &self.budgets
    }
}

impl<M: Medium> Medium for NodeCapacity<M> {
    fn name(&self) -> &'static str {
        "node-capacity"
    }

    fn reset(&mut self, graph: &DiGraph) {
        assert_eq!(
            self.budgets.len(),
            graph.node_count(),
            "node budgets do not cover the graph's vertices"
        );
        self.inner.reset(graph);
        self.binding = !self.budgets.never_binds(graph);
        self.endpoints.clear();
        self.endpoints.extend(graph.edge_ids().map(|e| {
            let arc = graph.edge(e);
            (arc.src.index(), arc.dst.index())
        }));
        self.up_left.resize(graph.node_count(), 0);
        self.down_left.resize(graph.node_count(), 0);
    }

    fn observe(&mut self, possession: &[TokenSet]) {
        self.inner.observe(possession);
    }

    fn capacities<'a>(
        &'a mut self,
        graph: &DiGraph,
        static_caps: &'a [u32],
        step: usize,
        rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        self.inner.capacities(graph, static_caps, step, rng)
    }

    fn admit(&mut self, proposed: &mut Vec<(EdgeId, TokenSet)>) -> u64 {
        let mut rejected = self.inner.admit(proposed);
        if !self.binding {
            // Identity fast path: the wrapped medium's admission is the
            // whole story, bit-for-bit.
            return rejected;
        }
        for (v, left) in self.up_left.iter_mut().enumerate() {
            *left = u64::from(self.budgets.uplink(v));
        }
        for (v, left) in self.down_left.iter_mut().enumerate() {
            *left = u64::from(self.budgets.downlink(v));
        }
        rejected += self.admission.admit(proposed, |e| {
            // One token needs one unit of uplink at the source and one
            // of downlink at the destination.
            let (src, dst) = self.endpoints[e.index()];
            let fits = self.up_left[src] > 0 && self.down_left[dst] > 0;
            if fits {
                self.up_left[src] -= 1;
                self.down_left[dst] -= 1;
            }
            fits
        });
        rejected
    }

    fn records_capacity_trace(&self) -> bool {
        self.inner.records_capacity_trace()
    }

    fn records_rejections(&self) -> bool {
        true
    }

    fn stall_aborts(&self) -> bool {
        self.inner.stall_aborts()
    }
}

/// The round-robin admission loop [`PhysicalUnderlay`] and
/// [`NodeCapacity`] share: proposals take turns admitting one token each
/// (ascending token order within a proposal) while the medium's budgets
/// last, so no arc starves its siblings. Once a proposal's next token
/// does not fit, everything left on it is rejected this step. The token
/// queues and cursors are recycled across steps.
#[derive(Debug, Default)]
struct RoundRobinAdmission {
    /// Per-proposal tokens awaiting admission, in ascending order.
    queues: Vec<Vec<Token>>,
    /// `cursors[slot]` = next token of `queues[slot]` to admit.
    cursors: Vec<usize>,
}

impl RoundRobinAdmission {
    /// Clips `proposed` in place and returns the number of rejected
    /// token-moves. `take(e)` asks the medium for one token's worth of
    /// budget on arc `e`: it charges the budgets and answers `true`, or
    /// leaves them as they are and answers `false`.
    fn admit(
        &mut self,
        proposed: &mut Vec<(EdgeId, TokenSet)>,
        mut take: impl FnMut(EdgeId) -> bool,
    ) -> u64 {
        while self.queues.len() < proposed.len() {
            self.queues.push(Vec::new());
        }
        self.cursors.clear();
        self.cursors.resize(proposed.len(), 0);
        // Drain each proposed set into its recycled queue; the set is
        // then refilled with the admitted tokens only.
        for (slot, (_, tokens)) in proposed.iter_mut().enumerate() {
            let queue = &mut self.queues[slot];
            queue.clear();
            queue.extend(tokens.iter());
            tokens.clear();
        }
        let mut rejected = 0u64;
        let mut progress = true;
        while progress {
            progress = false;
            for (slot, (e, admitted)) in proposed.iter_mut().enumerate() {
                let queue = &self.queues[slot];
                let cursor = &mut self.cursors[slot];
                if *cursor >= queue.len() {
                    continue;
                }
                if take(*e) {
                    admitted.insert(queue[*cursor]);
                    *cursor += 1;
                    progress = true;
                } else {
                    rejected += (queue.len() - *cursor) as u64;
                    *cursor = queue.len();
                }
            }
        }
        proposed.retain(|(_, tokens)| !tokens.is_empty());
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, simulate_with, SimConfig, StrategyKind};
    use ocd_core::scenario::single_file;
    use ocd_core::{validate, Instance};
    use ocd_graph::generate::classic;
    use ocd_graph::underlay::Underlay;
    use ocd_graph::NodeId;
    use rand::prelude::*;

    /// Physical star: hub router 0, hosts 1..=4 with symmetric cap 2.
    /// Overlay: complete graph on the 4 hosts, each overlay link
    /// believing it has capacity 2.
    fn star_setup() -> (Instance, DiGraph, OverlayMapping) {
        let physical = classic::star(5, 2, true);
        let hosts: Vec<NodeId> = (1..5).map(|i| physical.node(i)).collect();
        let overlay = classic::complete(4, 2);
        let underlay = Underlay::new(physical.clone(), hosts).unwrap();
        let mapping = underlay.map_overlay(&overlay).unwrap();
        let instance = single_file(overlay, 6, 0);
        (instance, physical, mapping)
    }

    /// Host 0 proposes tokens 0 and 1 to every other host.
    fn fan_out_from_host_zero(instance: &Instance) -> Vec<(EdgeId, TokenSet)> {
        let g = instance.graph();
        let both = TokenSet::from_tokens(6, [Token::new(0), Token::new(1)]);
        g.out_edges(g.node(0)).map(|e| (e, both.clone())).collect()
    }

    #[test]
    fn physical_admission_respects_physical_budgets() {
        // 6 proposed moves, but host 0's physical access link (cap 2)
        // admits only 2.
        let (instance, physical, mapping) = star_setup();
        let mut proposed = fan_out_from_host_zero(&instance);
        let rejected = PhysicalUnderlay::new(&physical, &mapping).admit(&mut proposed);
        let admitted_moves: u64 = proposed.iter().map(|(_, t)| t.len() as u64).sum();
        assert_eq!(admitted_moves, 2, "access link capacity 2 caps the fan-out");
        assert_eq!(rejected, 4);
    }

    #[test]
    fn physical_round_robin_admission_is_fair() {
        let (instance, physical, mapping) = star_setup();
        let mut proposed = fan_out_from_host_zero(&instance);
        PhysicalUnderlay::new(&physical, &mapping).admit(&mut proposed);
        // The 2 admitted tokens go to 2 *different* overlay arcs.
        assert_eq!(proposed.len(), 2);
        assert!(proposed.iter().all(|(_, t)| t.len() == 1));
    }

    #[test]
    fn physical_constraints_inflate_completion_time() {
        let (instance, physical, mapping) = star_setup();
        let run_overlay = || {
            let mut s = StrategyKind::Global.build();
            let mut rng = StdRng::seed_from_u64(3);
            simulate(&instance, s.as_mut(), &SimConfig::default(), &mut rng)
        };
        let run_physical = || {
            let mut s = StrategyKind::Global.build();
            let mut rng = StdRng::seed_from_u64(3);
            let mut medium = PhysicalUnderlay::new(&physical, &mapping);
            simulate_with(
                &instance,
                s.as_mut(),
                &mut medium,
                &SimConfig::default(),
                &mut rng,
            )
        };
        let pure = run_overlay();
        let constrained = run_physical();
        assert!(pure.success && constrained.report.success);
        assert!(
            constrained.report.steps > pure.steps,
            "sharing the hub must slow things down ({} vs {})",
            constrained.report.steps,
            pure.steps
        );
        assert!(constrained.rejected_per_step.iter().sum::<u64>() > 0);
        // The admitted schedule is still a valid overlay schedule.
        let replay = validate::replay(&instance, &constrained.report.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn generous_physical_network_changes_nothing() {
        // Physical = overlay (each overlay arc rides its own dedicated
        // physical arc): admission is a no-op.
        let overlay = classic::cycle(5, 2, true);
        let hosts: Vec<NodeId> = overlay.nodes().collect();
        let underlay = Underlay::new(overlay.clone(), hosts).unwrap();
        let mapping = underlay.map_overlay(&overlay).unwrap();
        let instance = single_file(overlay.clone(), 4, 0);
        let mut s1 = StrategyKind::Local.build();
        let mut rng1 = StdRng::seed_from_u64(9);
        let pure = simulate(&instance, s1.as_mut(), &SimConfig::default(), &mut rng1);
        let mut s2 = StrategyKind::Local.build();
        let mut rng2 = StdRng::seed_from_u64(9);
        let mut medium = PhysicalUnderlay::new(&overlay, &mapping);
        let constrained = simulate_with(
            &instance,
            s2.as_mut(),
            &mut medium,
            &SimConfig::default(),
            &mut rng2,
        );
        assert_eq!(pure.schedule, constrained.report.schedule);
        assert_eq!(constrained.rejected_per_step.iter().sum::<u64>(), 0);
    }

    #[test]
    fn ideal_passes_static_caps_through() {
        let g = ocd_graph::generate::classic::cycle(4, 3, true);
        let static_caps: Vec<u32> = g.edge_ids().map(|e| g.capacity(e)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ideal = Ideal;
        ideal.reset(&g);
        let caps = ideal.capacities(&g, &static_caps, 0, &mut rng);
        assert!(std::ptr::eq(caps.as_ptr(), static_caps.as_ptr()), "no copy");
        assert!(ideal.stall_aborts());
        assert!(!ideal.records_capacity_trace());
        assert!(!ideal.records_rejections());
        let mut proposal = vec![(EdgeId::new(0), TokenSet::full(2))];
        assert_eq!(ideal.admit(&mut proposal), 0);
        assert_eq!(proposal.len(), 1, "ideal admission is the identity");
    }

    #[test]
    fn node_capacity_identity_when_budgets_never_bind() {
        // Cycle(4, cap 3, symmetric): out/in-capacity sums are 6.
        let g = ocd_graph::generate::classic::cycle(4, 3, true);
        let mut medium = NodeCapacity::new(Ideal, NodeBudgets::uniform(4, 6, 6));
        medium.reset(&g);
        assert_eq!(medium.name(), "node-capacity");
        assert!(medium.stall_aborts());
        let mut proposal = vec![
            (EdgeId::new(0), TokenSet::full(3)),
            (EdgeId::new(2), TokenSet::full(3)),
        ];
        assert_eq!(medium.admit(&mut proposal), 0);
        assert_eq!(proposal.len(), 2);
        assert_eq!(proposal[0].1.len(), 3, "nothing clipped");
    }

    #[test]
    fn node_capacity_clips_shared_uplink_round_robin() {
        // Star center 0 with out-arcs to 1 and 2 (cap 2 each); uplink
        // budget 3 at the center. Proposing 2 tokens per arc, the
        // round-robin admits 2 on the first pass (one per arc) and 1 on
        // the second, rejecting the last.
        let g = ocd_graph::generate::classic::star(3, 2, false);
        let mut medium = NodeCapacity::new(Ideal, NodeBudgets::uplink_only(3, 3));
        medium.reset(&g);
        let mut proposal = vec![
            (EdgeId::new(0), TokenSet::full(2)),
            (EdgeId::new(1), TokenSet::full(2)),
        ];
        assert_eq!(medium.admit(&mut proposal), 1);
        let admitted: u64 = proposal.iter().map(|(_, t)| t.len() as u64).sum();
        assert_eq!(admitted, 3);
        // Round-robin fairness: both arcs got at least one token.
        assert_eq!(proposal.len(), 2);
        assert!(proposal.iter().all(|(_, t)| !t.is_empty()));
    }

    #[test]
    fn node_capacity_clips_shared_downlink() {
        // Two sources feed vertex 2 (arcs 0→2 and 1→2, cap 1 each);
        // downlink budget 1 at vertex 2 admits exactly one of them.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(g.node(0), g.node(2), 1).unwrap();
        g.add_edge(g.node(1), g.node(2), 1).unwrap();
        let budgets = NodeBudgets::uniform(3, 1, 1);
        let mut medium = NodeCapacity::new(Ideal, budgets);
        medium.reset(&g);
        let mut proposal = vec![
            (EdgeId::new(0), TokenSet::from_tokens(2, [Token::new(0)])),
            (EdgeId::new(1), TokenSet::from_tokens(2, [Token::new(1)])),
        ];
        assert_eq!(medium.admit(&mut proposal), 1);
        assert_eq!(proposal.len(), 1, "the saturated arc was dropped");
        assert_eq!(proposal[0].0, EdgeId::new(0), "ascending arc order wins");
    }

    #[test]
    fn dynamic_reuses_its_capacity_buffer() {
        let g = ocd_graph::generate::classic::cycle(4, 3, true);
        let static_caps: Vec<u32> = g.edge_ids().map(|e| g.capacity(e)).collect();
        let mut model = crate::dynamics::StaticNetwork;
        let mut medium = Dynamic::new(&mut model);
        medium.reset(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let first_ptr = {
            let caps = medium.capacities(&g, &static_caps, 0, &mut rng);
            assert_eq!(caps, static_caps.as_slice());
            caps.as_ptr()
        };
        let second_ptr = medium.capacities(&g, &static_caps, 1, &mut rng).as_ptr();
        assert!(std::ptr::eq(first_ptr, second_ptr), "buffer is recycled");
        assert!(!medium.stall_aborts());
        assert!(medium.records_capacity_trace());
    }
}
